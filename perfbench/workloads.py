"""The three benchmark workloads, driven through the program's public
entry points.

Each workload takes the benchmark seed and a :class:`Probe` (which saw
every testbed, farm, clone and ``Environment.run`` of the repetition)
and returns one repetition's result::

    {"sim": {...},          # simulated end-to-end metrics (exact)
     "attempted": n,        # operations and checks attempted
     "failures": [...],     # one line per failed operation or check
     "ledger": {...},       # deterministic per-layer numbers
     "phases": [[name, end_s], ...]}  # fleet_day only

Why these three (see README.md for the layer each one stresses):

* ``wan_clone`` is the paper's headline path (Fig. 6 WAN-S1) and the
  only one with meta-data, the file channel and compression;
* ``fleet_day`` is the composed flagship scenario: cascade, peers,
  flaps with retries, migration, rollout invalidation;
* ``farm_storm`` is the only one with the replicated image farm and
  checksums, and writes beside its reads.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import statistics
from typing import Dict, List

MB = 1024 * 1024

#: Seed at which every workload runs the program's own defaults (and
#: ``wan_clone`` must reproduce its golden signature).
DEFAULT_SEED = 0

#: Warm re-clones after the cold clone (the perf harness's warm_clone).
WAN_CLONES = 3
WAN_SIZE_JITTER_MB = 4
#: Farm storm geometry: 40 sessions leave 10 clones beyond p75.
FARM_SERVERS = 4
FARM_SESSIONS = 40
#: Percentile ladder for ``clone_tail_s``.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "golden_timings.json")


def clone_tail(seconds: List[float]):
    """``(value, label)``: the highest ladder percentile with at least
    ten clones beyond it, or the slowest clone when there is none."""
    ordered = sorted(seconds)
    n = len(ordered)
    best = None
    for q in TAIL_LADDER:
        rank = math.ceil(n * q / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            best = (ordered[rank - 1], f"p{q:g} of {n} clones")
    return best or (ordered[-1], f"max of {n} clones")


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _same_bytes(fs_a, path_a: str, fs_b, path_b: str,
                step: int = MB) -> bool:
    size = fs_a.lookup(path_a).size
    if fs_b.lookup(path_b).size != size:
        return False
    return all(fs_a.read(path_a, off, step) == fs_b.read(path_b, off, step)
               for off in range(0, size, step))


def _check_clones(probe, origin_fs, failures: List[str]) -> List[float]:
    """Every clone's memory state must equal its golden image's."""
    from repro.vm.image import VmImage
    seconds = []
    for manager, image_dir, result in probe.clones:
        seconds.append(result.total_seconds)
        name = VmImage.MEMORY_NAME
        if not _same_bytes(manager.local.lfs.fs,
                           f"{result.clone_dir}/{name}",
                           origin_fs, f"{image_dir}/{name}"):
            failures.append(f"clone {result.clone_dir}: bytes differ "
                            f"from {image_dir}")
    return seconds


def _clone_metrics(seconds: List[float]) -> Dict:
    tail, label = clone_tail(seconds)
    return {"clone_p50_s": statistics.median(seconds), "clone_tail_s": tail,
            "clone_tail_rank": label, "clones": len(seconds)}


def _link_bytes(links) -> int:
    return sum(link.bytes_sent for link in links)


# --------------------------------------------------------------------------
# wan_clone
# --------------------------------------------------------------------------

def wan_clone(seed: int, probe) -> Dict:
    """Fig. 6 WAN-S1 through one GVFS session: a cold clone of a golden
    image, then warm re-clones of it.  The seed draws the image: its
    content seed and a memory size within ``WAN_SIZE_JITTER_MB`` of the
    paper's 320 MB (warm clones are served by size, not content).  At
    seed 0 it is the perf harness's own image."""
    from repro.experiments.clonebench import (
        CLONE_IMAGE_ZERO_FRACTION, CLONE_VM_CONFIG, CloneScenario,
        _cloning_testbed, run_cloning_benchmark)
    from repro.vm.image import VmConfig, VmImage

    testbed = _cloning_testbed(n_compute=1)
    origin_fs = testbed.wan_server.local.fs
    memory_mb = CLONE_VM_CONFIG.memory_mb
    if seed != DEFAULT_SEED:
        # run_cloning_benchmark loads an image already in place.
        memory_mb += random.Random(seed).randint(-WAN_SIZE_JITTER_MB,
                                                 WAN_SIZE_JITTER_MB)
        image = VmImage.create(
            origin_fs, "/images/golden0",
            VmConfig(name="golden0", memory_mb=memory_mb,
                     disk_gb=CLONE_VM_CONFIG.disk_gb, persistent=False,
                     seed=100 + seed),
            zero_fraction=CLONE_IMAGE_ZERO_FRACTION)
        image.generate_metadata()
    result = run_cloning_benchmark(CloneScenario.WAN_S1,
                                   n_clones=WAN_CLONES, testbed=testbed)
    env = testbed.env

    failures: List[str] = []
    seconds = _check_clones(probe, origin_fs, failures)
    signature = list(result.clone_seconds) + [env.now]
    attempted = len(seconds)
    if seed == DEFAULT_SEED:
        attempted += 1
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)["signatures"]["warm_clone"]
        if signature != golden:
            failures.append(f"wan_clone signature {signature} differs "
                            f"from golden warm_clone {golden}")
    origin_bytes = _link_bytes(testbed.wan_segment)
    sim = {"sim_makespan_s": env.now, "origin_mb": origin_bytes / MB,
           "events": env.events_scheduled,
           "cloned_mb": len(seconds) * memory_mb,
           "digest": _digest([signature, [d.phases for d in result.details],
                              origin_bytes, env.events_scheduled])}
    sim.update(_clone_metrics(seconds))
    return {"sim": sim, "attempted": attempted, "failures": failures,
            "ledger": {}}


# --------------------------------------------------------------------------
# fleet_day
# --------------------------------------------------------------------------

def fleet_day(seed: int, probe) -> Dict:
    """``scenarios/fleet_rollout.yaml`` at its quick profile, once.

    The seed is the scenario seed (arrival offsets, guest traces,
    probe payloads); seed 0 keeps the spec's own.  The
    ``replay_identical`` gate is dropped: the benchmark compares its
    repetitions with each other instead."""
    from repro.scenario.loader import load_spec
    from repro.scenario.runner import run_spec

    spec = load_spec("fleet_rollout")
    if seed != DEFAULT_SEED:
        spec = spec.with_seed(seed)
    spec = dataclasses.replace(
        spec, gates=tuple(g for g in spec.gates
                          if g.name != "replay_identical"))
    envelope, _ = run_spec(spec, quick=True)
    metrics = envelope["metrics"]
    testbed = probe.testbeds[0]

    failures: List[str] = []
    seconds = _check_clones(probe, testbed.wan_server.local.fs, failures)
    attempted = len(seconds)
    for row in envelope["gates"]:
        attempted += 1
        if not row["ok"]:
            failures.append(f"gate {row['name']}: {row['detail']}")
    attempted += 4 * metrics["peers"]       # durability-probe blocks
    failures.extend("durability probe lost a write block"
                    for _ in range(metrics["lost_writes"]))
    downtime = 0.0
    phases, now = [], 0.0
    ledger = {}
    for row in metrics["phases"]:
        now += row["makespan_s"]
        phases.append([row["phase"], now])
        ledger[f"scenario.{row['phase']}.makespan_s"] = row["makespan_s"]
        if row["kind"] == "migration_wave":
            attempted += len(row["downtimes_s"])
            failures.extend(f"migration p{i} reported no downtime"
                            for i, d in enumerate(row["downtimes_s"])
                            if not d > 0)
            downtime = max(downtime, row["max_downtime_s"])
    ledger["vm.migration_downtime_s"] = downtime
    sim = {"sim_makespan_s": metrics["total_sim_seconds"],
           "origin_mb": metrics["wan_bytes_total"] / MB,
           "migration_downtime_s": downtime,
           "events": probe.envs[0].events_scheduled,
           "cloned_mb": sum(row.get("cloned_mb", 0)
                            for row in metrics["phases"]),
           "digest": _digest(metrics)}
    sim.update(_clone_metrics(seconds))
    return {"sim": sim, "attempted": attempted, "failures": failures,
            "ledger": ledger, "phases": phases}


# --------------------------------------------------------------------------
# farm_storm
# --------------------------------------------------------------------------

def farm_storm(seed: int, probe) -> Dict:
    """A staggered storm of sessions against a 4-server replicated
    farm; each session clones block-wise, writes acknowledged
    checkpoint blocks and flushes.  The seed drives the farm's replica
    placement.

    No data server crashes: ``FarmOriginClient.abandon`` and
    ``FarmChannelSelector.abandon`` interrupt in-flight attempts in the
    iteration order of a ``set`` of processes, i.e. by memory address,
    so a crash storm's simulated results differ between processes and
    cannot be compared run to run.  Turn the crash on once that order
    is deterministic."""
    from repro.experiments.farmbench import CHECKPOINT_BLOCKS, \
        STORM_MEMORY_MB, run_farm_storm

    report = run_farm_storm(FARM_SERVERS, sessions=FARM_SESSIONS,
                            crash=False, seed=seed)
    testbed, farm = probe.testbeds[0], probe.farms[0]

    failures: List[str] = []
    seconds = _check_clones(probe, farm.data_servers[0].fs, failures)
    attempted = len(seconds) + FARM_SESSIONS
    failures.extend(f"session {i} did not complete" for i in
                    range(report["completed_sessions"], FARM_SESSIONS))
    audit = report["audit"]
    expected_acks = FARM_SESSIONS * CHECKPOINT_BLOCKS
    attempted += expected_acks
    failures.extend(f"acknowledged block lost (e.g. {audit['lost_examples']})"
                    for _ in range(audit["lost_blocks"]))
    failures.extend("checkpoint block never acknowledged" for _ in
                    range(audit["acked_blocks"], expected_acks))
    # Compute-side access links carry exactly the compute <-> farm
    # traffic (no peers, no second image server in this workload).
    server = farm.data_servers[0].host
    compute_links = []
    for host in testbed.compute:
        compute_links.append(testbed.route(host, server).links[0])
        compute_links.append(testbed.route(server, host).links[-1])
    origin_bytes = _link_bytes(compute_links)
    calls = list(report["server_calls"].values())
    clients = report["clients"]
    ledger = {
        "middleware.farm.load_max_over_mean":
            max(calls) / (sum(calls) / len(calls)),
        "middleware.farm.failovers":
            clients["failovers"] + clients["channel_failovers"],
        "middleware.farm.rereplicated_mb":
            sum(rec["bytes_copied"] for rec in report["recovery"]) / MB,
    }
    stable = {k: v for k, v in report.items() if k != "wall_seconds"}
    sim = {"sim_makespan_s": report["sim_seconds"],
           "origin_mb": origin_bytes / MB,
           "events": report["events"],
           "cloned_mb": len(seconds) * STORM_MEMORY_MB,
           "digest": _digest([stable, sorted(seconds), origin_bytes])}
    sim.update(_clone_metrics(seconds))
    return {"sim": sim, "attempted": attempted, "failures": failures,
            "ledger": ledger}


WORKLOADS = {"wan_clone": wan_clone, "fleet_day": fleet_day,
             "farm_storm": farm_storm}
