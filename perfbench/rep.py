"""One benchmark repetition, run in a fresh process by ``run.py``.

    python3 perfbench/rep.py --workload NAME --seed N
                             [--trace [--phase-bounds JSON] | --setup-only]

Prints one JSON object on its last stdout line: host timings
(``setup_s``, ``run_s``, ``peak_rss_mb``), the workload's simulated
metrics and failures, and with ``--trace`` the per-layer ledger.
``--setup-only`` stops at the first ``Environment.run`` and prints
``setup_s`` alone.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


class SetupDone(Exception):
    """Raised at the first ``Environment.run`` of a set-up-only run."""


class Probe:
    """Host-side observer of one repetition.

    It times ``Environment.run`` (first entry = end of set-up; time
    inside = ``run_s``), reads peak RSS when the simulation returns,
    and keeps every testbed, farm, environment and clone result so the
    workload can check outputs.  It adds no simulation events.
    """

    def __init__(self, recorder=None, setup_only: bool = False):
        self.recorder = recorder
        self.setup_only = setup_only
        self.first_run = None
        self.run_s = 0.0
        self.peak_rss_mb = 0.0
        self.envs, self.testbeds, self.farms, self.clones = [], [], [], []

    def install(self) -> None:
        from repro.middleware.farm import ImageFarm
        from repro.net.topology import Testbed
        from repro.sim.engine import Environment
        from repro.vm.cloning import CloneManager
        from tracer import keep_instances
        probe = self
        run = Environment.run

        @functools.wraps(run)
        def timed_run(env, until=None):
            t0 = time.perf_counter()
            if probe.first_run is None:
                probe.first_run = t0
                if probe.setup_only:
                    raise SetupDone
            if env not in probe.envs:
                probe.envs.append(env)
            if probe.recorder is not None:
                probe.recorder.enter_run(env)
            try:
                return run(env, until)
            finally:
                elapsed = time.perf_counter() - t0
                probe.run_s += elapsed
                if probe.recorder is not None:
                    probe.recorder.exit_run(elapsed)
                probe.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        Environment.run = timed_run

        keep_instances(Testbed, self.testbeds)
        keep_instances(ImageFarm, self.farms)

        clone = CloneManager.clone

        @functools.wraps(clone)
        def kept_clone(manager, image_dir, clone_dir, *args, **kwargs):
            result = yield from clone(manager, image_dir, clone_dir,
                                      *args, **kwargs)
            probe.clones.append((manager, image_dir.rstrip("/"), result))
            return result
        CloneManager.clone = kept_clone


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--phase-bounds", default="[]")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    recorder = None
    if args.trace:
        from tracer import Recorder
        recorder = Recorder(json.loads(args.phase_bounds))
        recorder.install()
    probe = Probe(recorder, args.setup_only)
    probe.install()
    try:
        result = WORKLOADS[args.workload](args.seed, probe)
    except SetupDone:
        print(json.dumps({"setup_s": probe.first_run - _T_START}))
        return 0
    out = {"setup_s": probe.first_run - _T_START, "run_s": probe.run_s,
           "peak_rss_mb": probe.peak_rss_mb}
    out.update(result)
    if recorder is not None:
        from ledger import ledger
        out["ledger"].update(ledger(recorder, probe, result))
        out["group_calls"] = dict(recorder.calls)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
