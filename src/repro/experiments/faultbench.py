"""Fault-injection benchmark: GVFS recovery under WAN failures (PR 3).

The paper's premise is that grid VMs run over links and servers the
middleware does not control, so the interesting robustness questions
are quantitative: how long does a session stall when the WAN blips,
how fast does a flush recover from a server crash, and how many
absorbed writes does a proxy restart lose with and without the
dirty-frame journal.  Three scenarios measure exactly that:

``wan_blip``
    A cold sequential read over WAN+C while the shared Abilene segment
    flaps (stall policy: in-flight messages park until repair).  The
    hardened RPC ladder rides out the outages; the metric is the
    slowdown versus a fault-free run of the same workload and the
    retransmission count, with an end-to-end integrity check.

``server_crash``
    A write-back flush interrupted by an image-server crash.  The RPC
    ladder exhausts, the circuit breaker trips, and middleware retries
    the flush until the restarted server accepts it.  Metrics: flush
    attempts, breaker trips, time from crash to durable data, and lost
    writes (server bytes versus what the client wrote — zero, because
    dirty blocks stay dirty until the server acknowledges them).

``proxy_restart``
    The same absorbed-write workload run twice — dirty-frame journal
    on and off — with the proxy crashed and restarted by the injector
    after it absorbed the writes.  With the journal the recovered
    flush loses nothing; without it every absorbed block is lost.
    This is the headline ``lost_writes`` comparison of BENCH_pr3.

Every scenario is driven by a :class:`~repro.sim.faults.FaultPlan`
through a :class:`~repro.sim.faults.FaultInjector` and is run twice;
``replay_identical`` asserts the two runs produced bit-identical fault
timelines and metrics (determinism is part of the contract, not a
hope).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional

from repro.core.config import ProxyCacheConfig
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.link import LinkMode
from repro.net.topology import make_paper_testbed
from repro.nfs.rpc import RpcTimeout
from repro.sim import Environment
from repro.sim.faults import FaultInjector, FaultPlan

__all__ = ["SCENARIOS", "check_report", "format_report", "run_faultbench",
           "run_proxy_restart", "run_server_crash", "run_wan_blip"]

#: Small cache so runs stay fast; geometry mirrors the unit-test rig.
FAULT_CACHE = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                               n_banks=32, associativity=4)

DEFAULT_SEED = 11


def _payload(seed: int, size: int) -> bytes:
    """Deterministic pseudo-random file contents."""
    return random.Random(seed).randbytes(size)


def _lost_blocks(server: bytes, written: bytes, block_size: int) -> int:
    """Blocks of ``written`` that did not survive to the server copy."""
    n = (len(written) + block_size - 1) // block_size
    return sum(1 for i in range(n)
               if server[i * block_size:(i + 1) * block_size]
               != written[i * block_size:(i + 1) * block_size])


# --------------------------------------------------------------------------
# Scenario 1: WAN link flaps during a cold sequential read
# --------------------------------------------------------------------------

def _wan_blip_once(inject: bool, quick: bool, seed: int,
                   link_mode: LinkMode = LinkMode.EXACT) -> Dict:
    env = Environment()
    testbed = make_paper_testbed(env, link_mode=link_mode)
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    fs.mkdir("/data")
    size = (1 if quick else 4) * 1024 * 1024
    payload = _payload(seed, size)
    fs.create("/data/blob")
    fs.write("/data/blob", payload)

    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=FAULT_CACHE,
                                metadata=False)
    # Generous ladder: outages are shorter than the retry budget, so the
    # read survives on retransmission alone (no breaker, no errors).
    client = session.harden_rpc(timeout=0.5, max_retries=10, backoff=2.0,
                                max_timeout=8.0)

    injector = FaultInjector(env)
    injector.attach("wan", list(testbed.wan_segment))
    plan = FaultPlan.link_flap("wan", first_down=0.5, down_for=2.0,
                               flaps=1 if quick else 2, period=4.0)
    if inject:
        injector.schedule(plan)

    box: Dict = {}

    def driver(env):
        f = yield env.process(session.mount.open("/data/blob"))
        data = yield env.process(f.read_all())
        box["elapsed"] = env.now
        box["ok"] = data == payload

    env.process(driver(env))
    env.run()
    return {
        "elapsed_s": box["elapsed"],
        "integrity_ok": box["ok"],
        "attempts": client.stats.attempts,
        "retransmissions": client.stats.retransmissions,
        "outages": sum(link.outages for link in testbed.wan_segment),
        "timeline": [list(entry) for entry in injector.timeline],
    }


def run_wan_blip(quick: bool = False, seed: int = DEFAULT_SEED,
                 link_mode: LinkMode = LinkMode.EXACT) -> Dict:
    clean = _wan_blip_once(False, quick, seed, link_mode)
    faulted = _wan_blip_once(True, quick, seed, link_mode)
    rerun = _wan_blip_once(True, quick, seed, link_mode)
    return {
        "clean_elapsed_s": clean["elapsed_s"],
        "fault_elapsed_s": faulted["elapsed_s"],
        "slowdown_s": faulted["elapsed_s"] - clean["elapsed_s"],
        "integrity_ok": faulted["integrity_ok"] and clean["integrity_ok"],
        "retransmissions": faulted["retransmissions"],
        "attempts": faulted["attempts"],
        "outages": faulted["outages"],
        "lost_writes": 0,            # read-only workload: nothing to lose
        "timeline": faulted["timeline"],
        "replay_identical": faulted == rerun,
    }


# --------------------------------------------------------------------------
# Scenario 2: image server crashes in the middle of a write-back flush
# --------------------------------------------------------------------------

def _server_crash_once(quick: bool, seed: int,
                       link_mode: LinkMode = LinkMode.EXACT) -> Dict:
    env = Environment()
    testbed = make_paper_testbed(env, link_mode=link_mode)
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    fs.mkdir("/data")
    fs.create("/data/vmdisk")

    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=FAULT_CACHE,
                                metadata=False)
    # Tight ladder (budget 1.5 s < 3 s outage): calls fail, the breaker
    # trips, and recovery comes from the middleware retry loop.
    client = session.harden_rpc(timeout=0.5, max_retries=1, backoff=2.0,
                                max_timeout=4.0, breaker_threshold=3,
                                breaker_reset=2.0)

    block_size = FAULT_CACHE.block_size
    n_blocks = 24 if quick else 96
    payload = _payload(seed + 1, n_blocks * block_size)

    injector = FaultInjector(env)
    injector.attach("server", endpoint.server)

    box: Dict = {}

    def driver(env):
        f = yield env.process(session.mount.open("/data/vmdisk"))
        yield env.process(f.write(0, payload))
        yield env.process(session.mount.flush_all())   # proxy absorbs
        crash_at = env.now + 0.01                       # mid-flush
        injector.schedule(FaultPlan.server_outage("server", at=crash_at,
                                                  down_for=3.0))
        t0 = env.now
        attempts = 1
        while True:
            try:
                yield env.process(session.client_proxy.flush())
                break
            except RpcTimeout:      # includes RpcCircuitOpen fast-fails
                attempts += 1
                yield env.timeout(0.5)
        box["flush_attempts"] = attempts
        box["recovery_s"] = env.now - t0

    env.process(driver(env))
    env.run()

    server_bytes = fs.read("/data/vmdisk")
    breaker = client.breaker
    return {
        "flush_attempts": box["flush_attempts"],
        "recovery_s": box["recovery_s"],
        "breaker_trips": breaker.trips,
        "breaker_fast_failures": breaker.fast_failures,
        "server_crashes": endpoint.server.crashes,
        "lost_writes": _lost_blocks(server_bytes, payload, block_size),
        "blocks_written": n_blocks,
        "timeline": [list(entry) for entry in injector.timeline],
    }


def run_server_crash(quick: bool = False, seed: int = DEFAULT_SEED,
                     link_mode: LinkMode = LinkMode.EXACT) -> Dict:
    result = _server_crash_once(quick, seed, link_mode)
    rerun = _server_crash_once(quick, seed, link_mode)
    result["replay_identical"] = result == rerun
    result["integrity_ok"] = result["lost_writes"] == 0
    return result


# --------------------------------------------------------------------------
# Scenario 3: proxy restart with and without the dirty-frame journal
# --------------------------------------------------------------------------

def _proxy_restart_once(journal: bool, quick: bool, seed: int,
                        link_mode: LinkMode = LinkMode.EXACT) -> Dict:
    env = Environment()
    testbed = make_paper_testbed(env, link_mode=link_mode)
    endpoint = ServerEndpoint(env, testbed.wan_server)
    fs = endpoint.export.fs
    fs.mkdir("/data")
    fs.create("/data/vmdisk")

    cache = replace(FAULT_CACHE, journal=journal)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=cache,
                                metadata=False)
    proxy = session.client_proxy

    block_size = cache.block_size
    n_blocks = 16 if quick else 48
    payload = _payload(seed + 2, n_blocks * block_size)

    injector = FaultInjector(env)
    injector.attach("proxy", proxy)

    box: Dict = {}

    def driver(env):
        f = yield env.process(session.mount.open("/data/vmdisk"))
        yield env.process(f.write(0, payload))
        yield env.process(session.mount.flush_all())   # proxy absorbs
        box["absorbed"] = proxy.block_cache.dirty_frames
        injector.schedule(FaultPlan.proxy_restart("proxy", at=env.now + 0.01,
                                                  down_for=0.5))
        yield env.timeout(1.0)       # crash + journal-replay restart done
        yield env.process(proxy.flush())
        box["flush_done"] = env.now

    env.process(driver(env))
    env.run()

    server_bytes = fs.read("/data/vmdisk")
    crash_at = injector.timeline[0][0]
    return {
        "journal": journal,
        "absorbed_dirty_blocks": box["absorbed"],
        "recovered_blocks":
            proxy.layer("block-cache").stats.recovered_dirty_blocks,
        "journal_appends": proxy.block_cache.journal_appends,
        "recovery_s": box["flush_done"] - crash_at,
        "lost_writes": _lost_blocks(server_bytes, payload, block_size),
        "blocks_written": n_blocks,
        "timeline": [list(entry) for entry in injector.timeline],
    }


def run_proxy_restart(quick: bool = False, seed: int = DEFAULT_SEED,
                      link_mode: LinkMode = LinkMode.EXACT) -> Dict:
    journaled = _proxy_restart_once(True, quick, seed, link_mode)
    rerun = _proxy_restart_once(True, quick, seed, link_mode)
    bare = _proxy_restart_once(False, quick, seed, link_mode)
    return {
        "journaled": journaled,
        "no_journal": bare,
        "lost_writes": journaled["lost_writes"],
        "lost_writes_without_journal": bare["lost_writes"],
        "integrity_ok": journaled["lost_writes"] == 0,
        "replay_identical": journaled == rerun,
    }


# --------------------------------------------------------------------------
# Driver / report
# --------------------------------------------------------------------------

SCENARIOS = {
    "wan_blip": run_wan_blip,
    "server_crash": run_server_crash,
    "proxy_restart": run_proxy_restart,
}


def run_faultbench(scenarios: Optional[List[str]] = None,
                   quick: bool = False,
                   seed: int = DEFAULT_SEED,
                   link_mode: str = "exact") -> Dict:
    """Run the named fault scenarios (default: all) and collect a report.

    ``link_mode="fluid"`` runs the testbed on fluid links: unfaulted
    links keep the one-event fast path and each faulted link falls back
    to the exact store-and-forward model on its first outage (see
    :attr:`repro.net.link.Link.fluid_ready`), so fault injection and
    the fluid engine optimization finally compose.
    """
    mode = LinkMode(link_mode) if isinstance(link_mode, str) else link_mode
    names = scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown}; "
                         f"choose from {sorted(SCENARIOS)}")
    return {
        "benchmark": "faultbench",
        "seed": seed,
        "quick": quick,
        "link_mode": mode.value,
        "scenarios": {name: SCENARIOS[name](quick=quick, seed=seed,
                                            link_mode=mode)
                      for name in names},
    }


def check_report(report: Dict) -> List[str]:
    """Acceptance checks; returns human-readable failures (empty = pass)."""
    failures = []
    for name, result in report["scenarios"].items():
        if not result.get("integrity_ok", True):
            failures.append(f"{name}: data integrity check failed")
        if not result.get("replay_identical", True):
            failures.append(f"{name}: replay with the same seed diverged")
        if result.get("lost_writes", 0) != 0:
            failures.append(f"{name}: lost {result['lost_writes']} write(s) "
                            "despite recovery")
    proxy = report["scenarios"].get("proxy_restart")
    if proxy is not None and proxy["lost_writes_without_journal"] == 0:
        failures.append("proxy_restart: journal-less run lost nothing — "
                        "the scenario is not exercising the journal")
    return failures


def format_report(report: Dict) -> str:
    lines = [f"faultbench (seed={report['seed']}"
             f"{', quick' if report['quick'] else ''})"]
    scenarios = report["scenarios"]
    if "wan_blip" in scenarios:
        s = scenarios["wan_blip"]
        lines.append(
            f"  wan_blip:      {s['outages']} outage(s) cost "
            f"{s['slowdown_s']:.2f}s ({s['clean_elapsed_s']:.2f}s -> "
            f"{s['fault_elapsed_s']:.2f}s), {s['retransmissions']} "
            f"retransmission(s), integrity "
            f"{'OK' if s['integrity_ok'] else 'FAILED'}")
    if "server_crash" in scenarios:
        s = scenarios["server_crash"]
        lines.append(
            f"  server_crash:  flush recovered in {s['recovery_s']:.2f}s "
            f"over {s['flush_attempts']} attempt(s), breaker tripped "
            f"{s['breaker_trips']}x, lost writes "
            f"{s['lost_writes']}/{s['blocks_written']}")
    if "proxy_restart" in scenarios:
        s = scenarios["proxy_restart"]
        j, b = s["journaled"], s["no_journal"]
        lines.append(
            f"  proxy_restart: journal recovered "
            f"{j['recovered_blocks']}/{j['absorbed_dirty_blocks']} dirty "
            f"block(s) in {j['recovery_s']:.2f}s, lost {j['lost_writes']}; "
            f"without journal lost {b['lost_writes']}/{b['blocks_written']}")
    replays = [s.get("replay_identical", True) for s in scenarios.values()]
    lines.append(f"  replay determinism: "
                 f"{'OK' if all(replays) else 'DIVERGED'}")
    return "\n".join(lines)
