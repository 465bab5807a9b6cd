"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {wan_clone,fleet_day,farm_storm}
                             --seed N --seconds S --trace {0,1}

Each repetition runs in a fresh process (``rep.py``) so set-up time and
peak memory are per repetition.  Repetitions repeat until ``--seconds``
is spent (at least three untraced ones); a ``--trace 0`` run follows
each one with set-up-only repetitions, so the ``setup_s`` median has
more samples, spread over the whole run.

* ``--trace 0`` reports the end-to-end metrics: host medians over the
  repetitions, and the simulated metrics, which must be bit-identical
  across all repetitions.  It also prints the median ``run_s`` (host
  time inside ``Environment.run``), which is not an end-to-end metric:
  the host's speed drifts too much between minutes for a fixed bound
  (see README.md); ``--trace 1`` reports it as ``sim.run_s``.
* ``--trace 1`` alternates untraced and traced repetitions and reports
  the per-layer ledger of the traced ones, plus ``sim.events_per_s``
  and ``trace.overhead_frac`` against the untraced ones.  A traced
  repetition must give exactly the untraced simulated results, and
  every layer the workload exercises must record calls.

Every metric is printed by name with its unit; the last stdout line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json`` at the repository
root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_UNTRACED_REPS = 3
#: Set-up-only repetitions after each full one in a ``--trace 0`` run:
#: set-up is short and noisy, so its median takes more samples.
SETUP_REPS = 2
#: A run must end within 180 s; no repetition may start past this.
HARD_LIMIT_S = 170.0

#: Per-layer groups each workload exercises: a traced run in which one
#: of them records zero calls means a wrapper missed.
EXERCISED = {
    "wan_clone": ("layers.attr-patch", "layers.metadata",
                  "layers.file-channel", "layers.block-cache",
                  "layers.fault-guard", "layers.upstream-rpc", "net.link",
                  "net.compress", "net.ssh", "nfs.rpc", "nfs.client",
                  "nfs.server", "storage.localfs", "storage.disk", "vm"),
    "fleet_day": ("layers.attr-patch", "layers.metadata",
                  "layers.block-cache", "layers.readahead",
                  "layers.fault-guard", "layers.peer-cache",
                  "layers.upstream-rpc", "net.link", "net.topology",
                  "nfs.rpc", "nfs.client", "nfs.server", "storage.localfs",
                  "storage.disk", "vm"),
    "farm_storm": ("layers.attr-patch", "layers.metadata",
                   "layers.checksum", "layers.block-cache",
                   "layers.fault-guard", "layers.upstream-rpc", "net.link",
                   "nfs.rpc", "nfs.client", "nfs.server", "storage.localfs",
                   "storage.disk", "middleware.farm", "middleware.sessions",
                   "vm"),
}

def _is_host(name: str) -> bool:
    """Host-time per-layer metrics: reported as medians over the traced
    repetitions (every other one repeats exactly)."""
    return name.endswith(".self_s") or (name.startswith("scenario.")
                                        and name.endswith(".run_s"))


class RepError(Exception):
    """A repetition crashed, timed out or printed no result."""


def _spawn(workload: str, seed: int, started: float, *flags) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    budget = HARD_LIMIT_S + 8 - (time.monotonic() - started)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired as err:
        raise RepError(f"repetition timed out after {budget:.0f}s") from err
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepError(f"repetition exited {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["wall_s"] = time.monotonic() - t0
    return rep


def _keep_going(reps_wall, elapsed: float, seconds: float,
                minimum: int) -> bool:
    if len(reps_wall) < minimum:
        return elapsed + (statistics.mean(reps_wall) if reps_wall else 0) \
            < HARD_LIMIT_S
    mean = statistics.mean(reps_wall)
    return elapsed + mean <= seconds and elapsed + mean < HARD_LIMIT_S


def _median(reps, key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            spec: dict) -> dict:
    started = time.monotonic()
    untraced, traced, pair_wall = [], [], []
    if not trace:
        setups, cycle_wall = [], []
        while _keep_going(cycle_wall, time.monotonic() - started, seconds,
                          MIN_UNTRACED_REPS):
            t0 = time.monotonic()
            untraced.append(_spawn(workload, seed, started))
            setups.extend(_spawn(workload, seed, started, "--setup-only")
                          for _ in range(SETUP_REPS))
            cycle_wall.append(time.monotonic() - t0)
    else:
        while _keep_going(pair_wall, time.monotonic() - started, seconds, 1):
            t0 = time.monotonic()
            plain = _spawn(workload, seed, started)
            untraced.append(plain)
            bounds = [end for _, end in plain.get("phases", [])]
            traced.append(_spawn(workload, seed, started, "--trace",
                                 "--phase-bounds", json.dumps(bounds)))
            pair_wall.append(time.monotonic() - t0)

    # Every repetition of one seed must reproduce the first one exactly
    # (this replaces the scenario engine's replay_identical double run).
    first = untraced[0]["sim"]
    failures = []
    for label, reps in (("untraced", untraced[1:]), ("traced", traced)):
        for rep in reps:
            diff = sorted(k for k in first if rep["sim"].get(k) != first[k])
            if diff:
                failures.append(f"a {label} repetition's simulated results "
                                f"differ from the first untraced one in "
                                f"{diff}")
    for rep in traced:
        missed = [g for g in EXERCISED[workload]
                  if not rep["group_calls"].get(g)]
        if missed:
            failures.append(f"traced run recorded zero calls for {missed}: "
                            "a wrapper missed")
    reps = untraced + traced
    attempted = (len(reps) - 1 + len(traced)
                 + sum(rep["attempted"] for rep in reps))
    for rep in reps:
        failures.extend(rep["failures"])

    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                value = _median(untraced + setups, name)
            elif name in untraced[0]:
                value = _median(untraced, name)
            else:
                value = first[name]
            metrics[name] = {"value": value, "unit": m["unit"]}
    else:
        run_s = _median(untraced, "run_s")
        traced_run_s = _median(traced, "run_s")
        ledger = dict(traced[0]["ledger"])
        for name in ledger:
            if _is_host(name):
                ledger[name] = statistics.median(
                    rep["ledger"][name] for rep in traced)
        ledger["sim.run_s"] = run_s
        ledger["sim.events_per_s"] = ledger["sim.events"] / run_s
        ledger["trace.overhead_frac"] = traced_run_s / run_s - 1
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": ledger.get(m["name"], 0),
                                  "unit": m["unit"]}
    return {"metrics": metrics, "attempted": attempted,
            "failures": failures, "untraced": untraced, "traced": traced,
            "sim": first}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(EXERCISED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) \
            or not os.path.isfile(spec_path):
        print(f"error: no repro sources under {ROOT}/src (run from a "
              "checkout of the repository)", file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)

    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), spec)
    except RepError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    sim = out["sim"]
    reps = len(out["untraced"]) + len(out["traced"])
    print(f"workload {args.workload}, seed {args.seed}, {reps} "
          f"repetition(s) ({len(out['traced'])} traced)")
    for name, entry in out["metrics"].items():
        print(f"  {name} = {_fmt(entry['value'])} {entry['unit']}")
    if not args.trace:
        print(f"  run_s = {_fmt(_median(out['untraced'], 'run_s'))} s "
              f"(median of {len(out['untraced'])}; not bounded)")
        print(f"  clone_tail_s is the {sim['clone_tail_rank']}")
        if "migration_downtime_s" in sim:
            print(f"  migration_downtime_s = "
                  f"{_fmt(sim['migration_downtime_s'])} s")
    failed = len(out["failures"])
    print(f"  failed_frac = {_fmt(failed / out['attempted'])} "
          f"({failed} of {out['attempted']} operations and checks)")
    for line in out["failures"][:20]:
        print(f"  FAILED: {line}")
    print(json.dumps({"correct": failed == 0, "attempted": out["attempted"],
                      "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
