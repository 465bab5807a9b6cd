"""Wall-clock performance harness for the simulator itself.

Every other experiment in this repository reports *simulated* seconds;
this module measures how fast the simulator produces them.  It drives a
set of fixed workloads, records wall-clock throughput (engine events
per second, disk blocks per second) and asserts that the *simulated*
timings are bit-identical to golden values recorded before any hot-path
optimization — the engine fast paths must never change a result, only
how quickly it is computed.

Workloads
---------
``cold_clone``
    Two sequential WAN clonings of one golden image with every cache
    flushed in between (each cloning starts cold) — the headline
    workload the optimization PRs are measured against.
``warm_clone``
    Three sequential WAN clonings without cache flushes: one cold pass
    that warms the proxy disk cache, then two warm clonings.
``kernel_compile``
    One cold run of the kernel-compile application benchmark under
    WAN+C (Figure 5's first bar), flush included.
``flush_storm``
    A write-back session absorbs a burst of dirty blocks over several
    files, then the middleware signals a flush: exercises coalesced
    write-back (``dirty_runs``/``read_many``) and the RPC write path.
    A small warm-up burst runs first; :meth:`ProxyStack.reset` (every
    layer's counters, the block cache's included) separates it from
    the measured phase instead of rebuilding the session.
``clone_storm``
    One fleetbench site absorbing a staggered burst of full VM
    sessions (lease, match, GVFS, clone, resume, flush, release)
    through the session manager — the many-concurrent-processes mix
    the event pool and batched dispatch target.

Golden timings live in ``benchmarks/golden_timings.json``; regenerate
them with ``python -m repro.cli perf --update-golden`` only when a
change *intends* to alter simulated results.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "GOLDEN_PATH",
    "PerfReport",
    "PerfSample",
    "WORKLOADS",
    "compare_to_golden",
    "load_golden",
    "run_harness",
    "run_workload",
    "save_golden",
]

#: Default location of the golden simulated-time signatures.
GOLDEN_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))), "benchmarks",
    "golden_timings.json")

_BLOCK = 8192


@dataclass
class PerfSample:
    """One workload's wall-clock and simulated-time measurements."""

    workload: str
    wall_seconds: float
    sim_seconds: float
    #: Full simulated-time trace of the run; golden-checked, must stay
    #: bit-identical across engine optimizations.
    sim_signature: List[float]
    events: int          # engine events scheduled over the run
    blocks: int          # 8 KiB blocks moved through the disk models

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def blocks_per_sec(self) -> float:
        return self.blocks / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> dict:
        return {
            "wall_seconds": self.wall_seconds,
            "sim_seconds": self.sim_seconds,
            "sim_signature": self.sim_signature,
            "events": self.events,
            "blocks": self.blocks,
            "events_per_sec": self.events_per_sec,
            "blocks_per_sec": self.blocks_per_sec,
        }


@dataclass
class PerfReport:
    """The harness's full output (what ``BENCH_*.json`` serializes)."""

    samples: Dict[str, PerfSample] = field(default_factory=dict)
    golden_ok: Optional[bool] = None
    golden_diffs: List[str] = field(default_factory=list)
    baseline_file: Optional[str] = None
    speedup: Dict[str, float] = field(default_factory=dict)
    quick: bool = False

    def to_dict(self) -> dict:
        out = {
            "bench": "pr2",
            "created_unix": time.time(),
            "python": sys.version.split()[0],
            "quick": self.quick,
            "workloads": {name: s.to_dict()
                          for name, s in self.samples.items()},
        }
        if self.golden_ok is not None:
            out["golden_ok"] = self.golden_ok
            if self.golden_diffs:
                out["golden_diffs"] = self.golden_diffs
        if self.baseline_file:
            out["baseline_file"] = self.baseline_file
            out["speedup_vs_baseline"] = self.speedup
        return out


def _disk_blocks(testbed) -> int:
    """8 KiB blocks moved through every disk model in the testbed."""
    hosts = [*testbed.compute, testbed.lan_server, testbed.wan_server]
    total = sum(h.local.disk.bytes_read + h.local.disk.bytes_written
                for h in hosts)
    return total // _BLOCK


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

def _run_cold_clone(quick: bool = False) -> PerfSample:
    from repro.experiments.clonebench import (CloneScenario,
                                              _cloning_testbed,
                                              run_cloning_benchmark)
    testbed = _cloning_testbed(n_compute=1)
    n = 1 if quick else 2
    t0 = time.perf_counter()
    r = run_cloning_benchmark(CloneScenario.WAN_S1, n_clones=n,
                              cold_between=True, testbed=testbed)
    wall = time.perf_counter() - t0
    return PerfSample("cold_clone", wall, r.total_seconds,
                      list(r.clone_seconds) + [testbed.env.now],
                      testbed.env.events_scheduled, _disk_blocks(testbed))


def _run_warm_clone(quick: bool = False) -> PerfSample:
    from repro.experiments.clonebench import (CloneScenario,
                                              _cloning_testbed,
                                              run_cloning_benchmark)
    testbed = _cloning_testbed(n_compute=1)
    n = 2 if quick else 3
    t0 = time.perf_counter()
    r = run_cloning_benchmark(CloneScenario.WAN_S1, n_clones=n,
                              testbed=testbed)
    wall = time.perf_counter() - t0
    return PerfSample("warm_clone", wall, r.total_seconds,
                      list(r.clone_seconds) + [testbed.env.now],
                      testbed.env.events_scheduled, _disk_blocks(testbed))


def _run_kernel_compile(quick: bool = False) -> PerfSample:
    from repro.core.session import Scenario
    from repro.experiments.appbench import run_application_benchmark
    from repro.net.topology import make_paper_testbed
    from repro.workloads.kernelcompile import KernelCompile
    from repro.workloads.latex import LatexBenchmark
    testbed = make_paper_testbed()
    factory = (lambda: LatexBenchmark(iterations=1)) if quick \
        else KernelCompile
    t0 = time.perf_counter()
    r = run_application_benchmark(Scenario.WAN_CACHED, factory, runs=1,
                                  testbed=testbed)
    wall = time.perf_counter() - t0
    signature = [p.seconds for p in r.runs[0].phases] + [r.flush_seconds,
                                                         testbed.env.now]
    return PerfSample("kernel_compile", wall, r.run_total(0), signature,
                      testbed.env.events_scheduled, _disk_blocks(testbed))


def _run_flush_storm(quick: bool = False) -> PerfSample:
    from repro.core.config import ProxyCacheConfig
    from repro.core.session import GvfsSession, Scenario, ServerEndpoint
    from repro.net.topology import Testbed
    from repro.sim import Environment
    env = Environment()
    testbed = Testbed(env, n_compute=1)
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    fs.mkdir("/storm", parents=True)
    n_files = 2 if quick else 8
    n_blocks = 64 if quick else 256
    for i in range(n_files):
        fs.create(f"/storm/f{i}", size=n_blocks * _BLOCK)
    cache = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                             n_banks=32, associativity=4)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=cache,
                                metadata=False)
    marks: List[float] = []

    def storm(env, blocks_per_file: int):
        files = []
        for i in range(n_files):
            f = yield env.process(session.mount.open(f"/storm/f{i}"))
            files.append(f)
        # Interleaved dirty bursts across the files (several runs each).
        for blk in range(blocks_per_file):
            for f in files:
                yield env.process(f.write(blk * _BLOCK,
                                          bytes([1 + blk % 251]) * _BLOCK))
        yield env.process(session.flush())

    def driver(env):
        # Warm-up burst, then a uniform stack reset (every layer and
        # component counter) instead of a session rebuild.
        yield env.process(storm(env, 8 if quick else 16))
        session.client_proxy.reset()
        marks.append(env.now)
        yield env.process(storm(env, n_blocks))
        marks.append(env.now)

    t0 = time.perf_counter()
    env.process(driver(env))
    env.run()
    wall = time.perf_counter() - t0
    measured = marks[1] - marks[0]
    return PerfSample("flush_storm", wall, measured,
                      [marks[0], marks[1], env.now],
                      env.events_scheduled, _disk_blocks(testbed))


def _run_clone_storm(quick: bool = False) -> PerfSample:
    from repro.experiments.fleetbench import _run_site, _site_spec
    sessions = 6 if quick else 24
    spec = _site_spec(0, sessions, "exact")
    t0 = time.perf_counter()
    r = _run_site(spec)
    wall = time.perf_counter() - t0
    return PerfSample("clone_storm", wall, r["sim_seconds"],
                      list(r["clone_seconds"]) + [r["sim_seconds"]],
                      r["events"], r["disk_blocks"])


WORKLOADS: Dict[str, Callable[..., PerfSample]] = {
    "cold_clone": _run_cold_clone,
    "warm_clone": _run_warm_clone,
    "kernel_compile": _run_kernel_compile,
    "flush_storm": _run_flush_storm,
    "clone_storm": _run_clone_storm,
}


# --------------------------------------------------------------------------
# Golden simulated-time signatures
# --------------------------------------------------------------------------

def load_golden(path: str = GOLDEN_PATH) -> Dict[str, List[float]]:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        data = json.load(f)
    return {k: list(v) for k, v in data.get("signatures", {}).items()}


def save_golden(signatures: Dict[str, List[float]],
                path: str = GOLDEN_PATH) -> None:
    existing = load_golden(path)
    existing.update(signatures)
    with open(path, "w") as f:
        json.dump({
            "comment": "Simulated-time signatures per perf workload. "
                       "Engine/cache optimizations must keep these "
                       "bit-identical; regenerate only via "
                       "`repro.cli perf --update-golden` when a change "
                       "intends to alter simulated results.",
            "signatures": existing,
        }, f, indent=2, sort_keys=True)
        f.write("\n")


def compare_to_golden(samples: Dict[str, PerfSample],
                      golden: Dict[str, List[float]]) -> List[str]:
    """Human-readable mismatch descriptions ([] = all good)."""
    diffs = []
    for name, sample in samples.items():
        expected = golden.get(name)
        if expected is None:
            diffs.append(f"{name}: no golden signature recorded")
            continue
        if expected != sample.sim_signature:
            diffs.append(f"{name}: simulated-time signature changed "
                         f"(expected {expected}, got {sample.sim_signature})")
    return diffs


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def run_workload(name: str, quick: bool = False) -> PerfSample:
    """Run one named workload and return its measurements."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown perf workload {name!r}; "
                         f"choose from {sorted(WORKLOADS)}") from None
    return fn(quick=quick)


def run_harness(workloads: Optional[List[str]] = None,
                quick: bool = False,
                golden_path: Optional[str] = GOLDEN_PATH,
                baseline_path: Optional[str] = None) -> PerfReport:
    """Run the harness: measure workloads, check goldens, diff baseline.

    ``quick=True`` shrinks every workload (CI smoke scale) — quick
    signatures are golden-checked against ``<name>@quick`` entries.
    """
    report = PerfReport(quick=quick)
    for name in workloads or list(WORKLOADS):
        report.samples[name] = run_workload(name, quick=quick)
    if golden_path:
        golden = load_golden(golden_path)
        keyed = {_golden_key(n, quick): s for n, s in report.samples.items()}
        report.golden_diffs = compare_to_golden(keyed, golden)
        report.golden_ok = not report.golden_diffs
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as f:
            base_doc = json.load(f)
        # Speedups are only meaningful against a baseline recorded at
        # the same workload scale.
        if base_doc.get("quick", False) == quick:
            report.baseline_file = baseline_path
            base = base_doc.get("workloads", {})
            for name, sample in report.samples.items():
                old = base.get(name, {}).get("wall_seconds")
                if old and sample.wall_seconds:
                    report.speedup[name] = old / sample.wall_seconds
    return report


def _golden_key(name: str, quick: bool) -> str:
    return f"{name}@quick" if quick else name


def format_report(report: PerfReport) -> str:
    lines = [f"{'workload':<16} {'wall s':>8} {'sim s':>10} "
             f"{'events/s':>10} {'blocks/s':>10} {'speedup':>8}"]
    for name, s in report.samples.items():
        spd = report.speedup.get(name)
        lines.append(f"{name:<16} {s.wall_seconds:>8.2f} "
                     f"{s.sim_seconds:>10.2f} {s.events_per_sec:>10.0f} "
                     f"{s.blocks_per_sec:>10.0f} "
                     f"{(f'{spd:.2f}x' if spd else '-'):>8}")
    if report.golden_ok is not None:
        lines.append("golden simulated-time check: "
                     + ("OK" if report.golden_ok else "FAILED"))
        lines.extend(f"  {d}" for d in report.golden_diffs)
    return "\n".join(lines)
