"""Per-layer metrics of one traced repetition.

Counts come from the program's own counters on the instances the
recorder kept (links, RPC clients, buffer caches, disks, proxy
stacks); self times, handle calls, local fractions and simulated
latencies come from the recorder's frames.  ``run.py`` adds the
metrics that need the untraced run (``sim.events_per_s``,
``trace.overhead_frac``).
"""

from __future__ import annotations

from tracer import ROLES, percentile

#: Self-time groups reported besides the named per-layer ones, so the
#: self times add up to the traced ``run_s``.
EXTRA_GROUPS = ("layers.stack", "core.session", "net.ssh", "net.topology",
                "storage.disk", "middleware.sessions")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _total(objects, attr: str):
    return sum(getattr(obj, attr) for obj in objects)


def _layers(stacks, role: str):
    return [layer for stack in stacks for layer in stack.layers
            if layer.ROLE == role]


def _stat(layers, name: str) -> int:
    return sum(getattr(layer.stats, name, 0) for layer in layers)


def ledger(rec, probe, result) -> dict:
    out = {}
    events = sum(env.events_scheduled for env in probe.envs)
    out["sim.events"] = events
    out["sim.events_per_clone_mb"] = _ratio(events, result["sim"]["cloned_mb"])
    out["sim.self_s"] = rec.self_s["sim"]

    links = rec.instances["links"]
    out["net.link.messages"] = _total(links, "messages_sent")
    out["net.link.busy_s"] = _total(links, "busy_time")
    out["net.link.drops"] = _total(links, "drops")
    out["net.link.self_s"] = rec.self_s["net.link"]
    out["net.compress.calls"] = rec.calls["net.compress"]
    out["net.compress.self_s"] = rec.self_s["net.compress"]

    stats = [client.stats for client in rec.instances["rpc"]]
    rpc_lat = rec.latency["nfs.rpc"]
    out["nfs.rpc.calls"] = _total(stats, "calls")
    out["nfs.rpc.attempts"] = _total(stats, "attempts")
    out["nfs.rpc.retransmissions"] = _total(stats, "retransmissions")
    out["nfs.rpc.wait_s"] = _total(stats, "time_waiting")
    out["nfs.rpc.lat_p50_ms"] = percentile(rpc_lat, 50) * 1e3
    out["nfs.rpc.lat_p99_ms"] = percentile(rpc_lat, 99) * 1e3
    out["nfs.rpc.self_s"] = rec.self_s["nfs.rpc"]
    out["nfs.client.self_s"] = rec.self_s["nfs.client"]
    caches = rec.instances["buffercaches"]
    hits = _total(caches, "hits")
    out["nfs.buffercache.hit_ratio"] = _ratio(
        hits, hits + _total(caches, "misses"))
    out["nfs.server.self_s"] = rec.self_s["nfs.server"]

    for role in ROLES:
        key = f"layers.{role}"
        calls = rec.handle_calls[key]
        lat = rec.latency[key]
        out[f"{key}.calls"] = calls
        out[f"{key}.local_frac"] = _ratio(rec.handle_local[key], calls)
        out[f"{key}.self_s"] = rec.self_s[key]
        out[f"{key}.lat_p50_ms"] = percentile(lat, 50) * 1e3
        out[f"{key}.lat_p99_ms"] = percentile(lat, 99) * 1e3

    stacks = rec.instances["stacks"]
    upstream = {id(level) for stack in stacks
                for level in stack.cascade_stacks()[1:]}
    for label, level in (("l1", [s for s in stacks if id(s) not in upstream]),
                         ("l2", [s for s in stacks if id(s) in upstream])):
        blocks = _layers(level, "block-cache")
        hits = _stat(blocks, "block_cache_hits")
        out[f"layers.block-cache.{label}.hit_ratio"] = _ratio(
            hits, hits + _stat(blocks, "block_cache_misses"))
    peers = _layers(stacks, "peer-cache")
    hits = _stat(peers, "peer_hits")
    out["layers.peer-cache.hit_ratio"] = _ratio(
        hits, hits + _stat(peers, "peer_misses") + _stat(peers, "peer_stale"))
    ahead = _layers(stacks, "readahead")
    out["layers.readahead.useful_frac"] = _ratio(
        _stat(ahead, "prefetch_used"), _stat(ahead, "prefetch_issued"))
    out["layers.block-cache.demotions"] = _stat(
        _layers(stacks, "block-cache"), "demotions_out")
    out["layers.checksum.corruptions_caught"] = _stat(
        _layers(stacks, "checksum"), "corruptions_caught")

    disks = rec.instances["disks"]
    out["storage.disk.bytes"] = (_total(disks, "bytes_read")
                                 + _total(disks, "bytes_written"))
    out["storage.disk.busy_s"] = _total(disks, "busy_time")
    out["storage.disk.seeks"] = _total(disks, "seeks")
    out["storage.localfs.self_s"] = rec.self_s["storage.localfs"]

    out["middleware.farm.self_s"] = rec.self_s["middleware.farm"]
    out["middleware.sessions.create_p50_s"] = percentile(
        rec.latency["middleware.sessions"], 50)
    out["vm.self_s"] = rec.self_s["vm"]
    for group in EXTRA_GROUPS:
        out[f"{group}.self_s"] = rec.self_s[group]

    # Host time per fleet phase: between the instants simulated time
    # reached consecutive phase ends (the first starts at run entry).
    start = probe.first_run
    for (name, _), mark in zip(result.get("phases", []), rec.phase_marks):
        out[f"scenario.{name}.run_s"] = mark - start
        start = mark
    return out
