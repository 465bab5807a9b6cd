"""Tests for session-level features: shared caches, consistency signals,
channel upload, statistics collection."""

import pytest

from repro.analysis.stats import collect_session_stats
from repro.core.blockcache import ProxyBlockCache
from repro.core.consistency import ConsistencySignal, MiddlewareConsistency
from repro.core.session import GvfsSession, Scenario
from tests.core.harness import Rig, SMALL_CACHE


# -- shared read-only block cache -------------------------------------------------

def make_shared_rig():
    rig = Rig(metadata=False, n_compute=1)
    shared = ProxyBlockCache(rig.env, rig.testbed.compute[0].local,
                             SMALL_CACHE, name="shared-ro", read_only=True)
    second = GvfsSession.build(rig.testbed, Scenario.WAN_CACHED,
                               endpoint=rig.endpoint,
                               shared_block_cache=shared)
    third = GvfsSession.build(rig.testbed, Scenario.WAN_CACHED,
                              endpoint=rig.endpoint,
                              shared_block_cache=shared)
    return rig, shared, second, third


def test_shared_cache_serves_across_sessions():
    rig, shared, s2, s3 = make_shared_rig()

    def fill(env):
        f = yield env.process(s2.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.read(0, 8192))

    rig.run(fill(rig.env))
    assert shared.cached_blocks >= 1

    def reread(env):
        f = yield env.process(s3.mount.open("/images/golden/disk.vmdk"))
        blocks = s3.client_proxy.layer("block-cache").stats
        before = blocks.block_cache_hits
        yield env.process(f.read(0, 8192))
        return before, blocks.block_cache_hits

    (before, after), _ = rig.run(reread(rig.env))
    assert after == before + 1  # hit on the *other* session's fill


def test_shared_cache_sessions_forward_writes():
    rig, shared, s2, _ = make_shared_rig()

    def proc(env):
        f = yield env.process(s2.mount.create("/images/golden/out.bin"))
        yield env.process(f.write(0, b"shared-write"))
        yield env.process(f.close())

    rig.run(proc(rig.env))
    # The write went upstream (no write-back absorb possible).
    assert s2.client_proxy.layer("file-channel").stats.absorbed_writes == 0
    assert s2.client_proxy.layer("block-cache").stats.absorbed_writes == 0
    assert rig.endpoint.export.fs.read("/images/golden/out.bin") \
        == b"shared-write"


# -- consistency signals ------------------------------------------------------------

def test_write_back_signal_keeps_caches_warm():
    rig = Rig(metadata=False)
    consistency = MiddlewareConsistency(rig.env)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/wb.bin"))
        yield env.process(f.write(0, b"W" * 8192))
        yield env.process(f.close())
        yield env.process(consistency.signal(rig.session.client_proxy,
                                             ConsistencySignal.WRITE_BACK))
        return rig.session.client_proxy.block_cache.cached_blocks

    cached_after, _ = rig.run(proc(rig.env))
    assert cached_after > 0  # WRITE_BACK does not invalidate
    assert rig.endpoint.export.fs.read("/images/golden/wb.bin") == b"W" * 8192
    assert consistency.log[0].signal is ConsistencySignal.WRITE_BACK


def test_flush_signal_invalidates():
    rig = Rig(metadata=False)
    consistency = MiddlewareConsistency(rig.env)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/fl.bin"))
        yield env.process(f.write(0, b"F" * 100))
        yield env.process(f.close())
        yield env.process(consistency.signal(rig.session.client_proxy,
                                             ConsistencySignal.FLUSH))
        return rig.session.client_proxy.block_cache.cached_blocks

    cached_after, _ = rig.run(proc(rig.env))
    assert cached_after == 0
    assert rig.endpoint.export.fs.read("/images/golden/fl.bin") == b"F" * 100


def test_session_end_flushes_all_proxies():
    rig = Rig(metadata=False)
    consistency = MiddlewareConsistency(rig.env)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/x.bin"))
        yield env.process(f.write(0, b"X"))
        yield env.process(f.close())
        yield env.process(consistency.session_end(
            [rig.session.client_proxy]))

    rig.run(proc(rig.env))
    assert len(consistency.log) == 1
    assert consistency.log[0].duration >= 0


# -- channel upload (file-cache write-back) ---------------------------------------

def test_dirty_file_cache_entry_uploaded_on_flush():
    rig = Rig(image_mb=2)
    rig.image.generate_metadata()
    mem = rig.image.memory_inode
    nonzero = next(i for i in range(mem.data.n_chunks())
                   if not mem.data.chunk_is_zero(i))

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        # Pull through the channel, then modify the cached copy.
        yield env.process(f.read(nonzero * 8192, 8192))
        yield env.process(f.write_sync(nonzero * 8192, b"MODIFIED!"))
        before = mem.data.read(nonzero * 8192, 9)
        yield env.process(rig.session.client_proxy.flush())
        after = mem.data.read(nonzero * 8192, 9)
        return before, after

    (before, after), _ = rig.run(proc(rig.env))
    assert before != b"MODIFIED!"
    assert after == b"MODIFIED!"
    assert rig.session.client_proxy.channel.uploads == 1


# -- statistics collection ----------------------------------------------------------

def test_collect_session_stats_aggregates_chain():
    rig = Rig()
    rig.image.generate_metadata()

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        offset = 0
        while offset < f.size:
            data = yield env.process(f.read(offset, 8192))
            offset += len(data)
        # Hit the buffer cache once.
        yield env.process(f.read(0, 8192))
        # One write lands in the whole-file cache (mem.vmss came through
        # the channel), two in the block cache (a file the channel
        # never fetched).
        yield env.process(f.write_sync(0, b"M" * 8192))
        g = yield env.process(rig.mount.create("/images/golden/new.bin"))
        yield env.process(g.write_sync(0, b"N" * 8192))
        yield env.process(g.write_sync(8192, b"N" * 8192))

    rig.run(proc(rig.env))
    stats = collect_session_stats(rig.session)
    files = rig.session.client_proxy.layer("file-channel").stats
    blocks = rig.session.client_proxy.layer("block-cache").stats
    assert files.absorbed_writes == 1
    assert blocks.absorbed_writes == 2
    assert stats.absorbed_writes == 3     # both layers' counters summed
    assert stats.rpc_calls > 0
    assert stats.zero_filtered_reads > 0
    assert stats.channel_fetches == 1
    assert stats.channel_compression_ratio < 0.5
    assert 0 < stats.buffer_cache_hit_rate < 1
    summary = stats.summary()
    assert "zero-filtered" in summary
    assert "channel fetches" in summary


def test_collect_session_stats_local_scenario():
    rig = Rig(scenario=Scenario.LOCAL)
    stats = collect_session_stats(rig.session)
    assert stats.rpc_calls == 0
    assert stats.buffer_cache_hit_rate == 0.0
    assert stats.block_cache_hit_rate == 0.0
