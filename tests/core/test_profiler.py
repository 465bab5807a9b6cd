"""Tests for access profiling and profile-driven prefetch (§6)."""

import pytest

from repro.core.profiler import (
    AccessProfile,
    AccessProfiler,
    ApplicationKnowledgeBase,
    Prefetcher,
)
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from tests.core.harness import Rig


FH = FileHandle("images", 9)


def read_req(offset, count=8192, fh=FH):
    return NfsRequest(NfsProc.READ, fh=fh, offset=offset, count=count)


# -- AccessProfiler -------------------------------------------------------------

def test_profiler_records_first_touch_order():
    p = AccessProfiler("app")
    p.observe(read_req(2 * 8192))
    p.observe(read_req(0))
    p.observe(read_req(2 * 8192))  # duplicate: ignored
    profile = p.stop()
    assert profile.blocks == (("images", 9, 2), ("images", 9, 0))


def test_profiler_spanning_read_covers_all_blocks():
    p = AccessProfiler("app")
    p.observe(read_req(8192 - 100, count=300))
    profile = p.stop()
    assert profile.blocks == (("images", 9, 0), ("images", 9, 1))


def test_profiler_ignores_non_reads_and_stops():
    p = AccessProfiler("app")
    p.observe(NfsRequest(NfsProc.WRITE, fh=FH, offset=0, data=b"x"))
    p.observe(NfsRequest(NfsProc.GETATTR, fh=FH))
    profile = p.stop()
    assert profile.n_blocks == 0
    p.observe(read_req(0))  # after stop: not recorded
    assert p.stop().n_blocks == 0


def test_profile_serialization_roundtrip():
    profile = AccessProfile("latex", (("i", 3, 0), ("i", 3, 7)), 8192)
    again = AccessProfile.from_bytes(profile.to_bytes())
    assert again == profile
    with pytest.raises(ValueError):
        AccessProfile.from_bytes(b"junk\n{}")


def test_profile_sizes():
    profile = AccessProfile("a", (("i", 1, 0), ("i", 1, 1)), 8192)
    assert profile.n_blocks == 2
    assert profile.bytes_covered == 16384


# -- ApplicationKnowledgeBase ----------------------------------------------------

def test_knowledge_base_remember_recall():
    kb = ApplicationKnowledgeBase()
    profile = AccessProfile("latex", (("i", 1, 0),))
    kb.remember(profile)
    assert kb.recall("latex") == profile
    assert kb.recall("unknown") is None
    assert kb.applications() == ["latex"]


def test_knowledge_base_export_import():
    kb = ApplicationKnowledgeBase()
    kb.remember(AccessProfile("latex", (("i", 1, 0),)))
    raw = kb.export("latex")
    kb2 = ApplicationKnowledgeBase()
    assert kb2.import_profile(raw).application == "latex"
    assert kb2.recall("latex") is not None


# -- end-to-end: record in session 1, prefetch in session 2 ----------------------

def read_blocks(rig, path, blocks):
    def proc(env):
        f = yield env.process(rig.mount.open(path))
        for b in blocks:
            yield env.process(f.read(b * 8192, 8192))
    rig.run(proc(rig.env))


def test_profile_then_prefetch_accelerates_cold_session():
    blocks = [0, 7, 3, 11, 5, 2, 9, 14, 1, 13]
    path = "/images/golden/disk.vmdk"

    # Session 1: record the application's access profile at the proxy.
    rig1 = Rig(metadata=False)
    profiler = AccessProfiler("scattered-app")
    rig1.session.client_proxy.read_observers.append(profiler.observe)
    read_blocks(rig1, path, blocks)
    profile = profiler.stop()
    assert profile.n_blocks == len(blocks)

    kb = ApplicationKnowledgeBase()
    kb.remember(profile)

    # Session 2 (fresh rig = fresh caches): demand-paged baseline.
    rig2 = Rig(metadata=False)
    t0 = rig2.env.now

    def timed_reads(rig):
        box = {}

        def proc(env):
            start = env.now
            f = yield env.process(rig.mount.open(path))
            for b in blocks:
                yield env.process(f.read(b * 8192, 8192))
            box["t"] = env.now - start

        rig.env.process(proc(rig.env))
        rig.env.run()
        return box["t"]

    demand_time = timed_reads(rig2)

    # Session 3: prefetch from the recalled profile, then run.
    rig3 = Rig(metadata=False)
    # Profiles carry (fsid, fileid) of the image server; the fresh rig
    # serves the same image tree, so ids match.
    recalled = kb.recall("scattered-app")

    def prefetch_then_read(env):
        prefetcher = Prefetcher(env, rig3.session.client_proxy,
                                concurrency=8)
        yield env.process(prefetcher.prefetch(recalled))
        box = {}
        start = env.now
        f = yield env.process(rig3.mount.open(path))
        for b in blocks:
            yield env.process(f.read(b * 8192, 8192))
        return env.now - start, prefetcher.blocks_fetched

    boxv = {}

    def wrapper(env):
        boxv["value"] = yield env.process(prefetch_then_read(env))

    rig3.env.process(wrapper(rig3.env))
    rig3.env.run()
    run_time, fetched = boxv["value"]

    assert fetched == len(blocks)
    # Demand reads after prefetch hit the proxy cache; what remains is
    # the open-time LOOKUP walk over the WAN (~3 round trips).
    assert run_time < demand_time / 4
    blocks_layer = rig3.session.client_proxy.layer("block-cache")
    assert blocks_layer.stats.block_cache_hits >= len(blocks)


def test_prefetch_skips_already_cached_blocks():
    rig = Rig(metadata=False)
    path = "/images/golden/disk.vmdk"
    # Non-adjacent blocks: the proxy's sequential-readahead run detector
    # must not fire and pre-populate the block we expect to be fetched.
    read_blocks(rig, path, [0, 2])
    fileid = rig.endpoint.export.fs.lookup(path).fileid
    profile = AccessProfile("app", (("images", fileid, 0),
                                    ("images", fileid, 2),
                                    ("images", fileid, 4)))

    def proc(env):
        prefetcher = Prefetcher(env, rig.session.client_proxy)
        yield env.process(prefetcher.prefetch(profile))
        return prefetcher.blocks_fetched, prefetcher.blocks_skipped

    (fetched, skipped), _ = rig.run(proc(rig.env))
    assert fetched == 1
    assert skipped == 2


def test_prefetcher_requires_cache_and_valid_concurrency():
    rig = Rig(metadata=False)
    with pytest.raises(ValueError):
        Prefetcher(rig.env, rig.session.client_proxy, concurrency=0)
    from repro.core.proxy import GvfsProxy
    from repro.core.config import ProxyConfig
    bare = GvfsProxy(rig.env, rig.session.client_proxy.upstream,
                     ProxyConfig(name="bare"))
    with pytest.raises(ValueError):
        Prefetcher(rig.env, bare)
