"""Cooperative peer caching and exclusive-cascade demotion.

Covers the behavioural guarantees the coopbench gates rely on: a clean
eviction victim demotes exactly one hop (and only once), dirty victims
always write back instead, demotion schedules are deterministic under
the topology-island shard runner, and a peer-cache hit returns bytes
identical to an origin read.
"""

import pytest

from repro.core.config import (
    ProxyCacheConfig,
    pipeline_overrides,
    set_pipeline_overrides,
)
from repro.core.session import (
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.sim import Environment, run_islands
from repro.sim.chaos import attach_stack, layer_outage
from repro.sim.faults import FaultInjector, FaultKind
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import SMALL_CACHE

BS = 8192

#: One set of two frames: every third distinct block forces an eviction.
TINY_CACHE = ProxyCacheConfig(capacity_bytes=2 * BS, n_banks=1,
                              associativity=2, block_size=BS)


@pytest.fixture
def no_readahead():
    """Disable proxy readahead so each test read is exactly one block."""
    saved = pipeline_overrides().get("readahead_depth")
    set_pipeline_overrides(readahead_depth=0)
    yield
    set_pipeline_overrides(readahead_depth=saved)


def make_demote_rig(seed=11):
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=seed))
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE])
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=TINY_CACHE,
                                metadata=False, via=cascade)
    return testbed, endpoint, image, cascade, session


def make_peer_rig(n_peers=2, seed=23):
    testbed = Testbed(Environment(), n_compute=n_peers)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=seed))
    directory = testbed.peer_directory()
    sessions = [GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                  endpoint=endpoint, compute_index=i,
                                  cache_config=SMALL_CACHE, metadata=False,
                                  peer_directory=directory)
                for i in range(n_peers)]
    return testbed, endpoint, image, directory, sessions


def run(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box


def read_block(session, block):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        data = yield env.process(f.read(block * BS, BS))
        return f.fh, data
    return gen


def read_blocks(session, blocks):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        out = []
        for block in blocks:
            out.append((yield env.process(f.read(block * BS, BS))))
        return f.fh, out
    return gen


def level_restart(testbed, level):
    def gen(env):
        yield env.process(level.proxy.quiesce())
        level.proxy.invalidate_caches()
    run(testbed, gen(testbed.env))


# -- exclusive demotion -----------------------------------------------------

def test_clean_eviction_demotes_exactly_once(no_readahead):
    """A clean victim travels exactly one hop up — the next level
    absorbs it without re-reading origin, and serves it back later."""
    testbed, endpoint, image, cascade, session = make_demote_rig()
    client = session.client_proxy.layer("block-cache")
    assert client.arm_demotion()
    l2 = cascade.levels[0]
    l2_layer = l2.proxy.layer("block-cache")

    box = run(testbed, read_blocks(session, [0, 1])(testbed.env))
    fh = box["value"][0]
    # Empty the next level so the demote is the only way block 0's
    # bytes can get back there.
    level_restart(testbed, l2)
    assert (fh, 0) not in l2.block_cache

    run(testbed, read_blocks(session, [2])(testbed.env))
    assert client.stats.demotions_out == 1       # exactly one DEMOTE out
    assert l2_layer.stats.demotions_in == 1      # absorbed exactly once
    assert (fh, 0) in l2.block_cache             # the key landed in L2

    # The demoted copy now serves a refetch with no origin READ.  Drop
    # only the kernel client's page cache so the demand read reaches
    # the proxy tiers.
    session.mount.drop_caches()
    origin_reads = l2.proxy.upstream.stats.by_proc.get("READ", 0)
    hits_before = l2_layer.stats.block_cache_hits
    run(testbed, read_blocks(session, [0])(testbed.env))
    assert l2_layer.stats.block_cache_hits == hits_before + 1
    assert l2.proxy.upstream.stats.by_proc.get("READ", 0) == origin_reads


def test_resident_upstream_copy_drops_duplicate_demote(no_readahead):
    """Inclusive fill already placed the victim upstream: the demote is
    refused (never double-inserted), counted as a drop."""
    testbed, endpoint, image, cascade, session = make_demote_rig()
    client = session.client_proxy.layer("block-cache")
    assert client.arm_demotion()
    l2_layer = cascade.levels[0].proxy.layer("block-cache")

    run(testbed, read_blocks(session, [0, 1, 2])(testbed.env))
    assert client.stats.demotions_out == 1
    assert l2_layer.stats.demotions_in == 0
    assert l2_layer.stats.demotion_drops == 1


def test_dirty_victim_writes_back_never_demotes(no_readahead):
    testbed, endpoint, image, cascade, session = make_demote_rig()
    client = session.client_proxy.layer("block-cache")
    assert client.arm_demotion()

    payload = b"D" * BS

    def dirty_then_evict(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.write_sync(0, payload))    # block 0 dirty
        yield env.process(f.read(1 * BS, BS))
        yield env.process(f.read(2 * BS, BS))          # evicts dirty block 0
        return f.fh

    box = run(testbed, dirty_then_evict(testbed.env))
    assert client.stats.demotions_out == 0
    assert client.stats.demotion_drops == 0

    # The modification survived the eviction (write-back, not a drop).
    def reread(env):
        yield env.process(session.cold_caches())
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        return (yield env.process(f.read(0, BS)))

    assert run(testbed, reread(testbed.env))["value"] == payload


def test_unarmed_client_never_emits_demotes(no_readahead):
    testbed, endpoint, image, cascade, session = make_demote_rig()
    client = session.client_proxy.layer("block-cache")
    run(testbed, read_blocks(session, [0, 1, 2, 3])(testbed.env))
    assert client.stats.demotions_out == 0
    assert cascade.levels[0].proxy.layer(
        "block-cache").stats.demotions_in == 0


def test_arm_demotion_refused_without_writable_upstream_cache():
    """The top session proxy talks straight to the origin: no DEMOTE."""
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    VmImage.create(endpoint.export.fs, "/images/golden",
                   VmConfig(name="golden", memory_mb=2, disk_gb=0.01, seed=3))
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=TINY_CACHE,
                                metadata=False)
    assert session.client_proxy.layer("block-cache").arm_demotion() is False


# -- shard-runner determinism -----------------------------------------------

def _demote_world(seed):
    """Module-level worker: one demotion scenario in a private world."""
    saved = pipeline_overrides().get("readahead_depth")
    set_pipeline_overrides(readahead_depth=0)
    try:
        testbed, endpoint, image, cascade, session = make_demote_rig(seed)
        client = session.client_proxy.layer("block-cache")
        client.arm_demotion()
        run(testbed, read_blocks(session, [0, 1, 2, 3])(testbed.env))
        session.mount.drop_caches()
        level_box = run(testbed, read_blocks(session, [0, 1])(testbed.env))
        l2_layer = cascade.levels[0].proxy.layer("block-cache")
        return (client.stats.demotions_out, l2_layer.stats.demotions_in,
                l2_layer.stats.demotion_drops, testbed.env.now,
                [d[:16] for d in level_box["value"][1]])
    finally:
        set_pipeline_overrides(readahead_depth=saved)


def test_demotion_deterministic_under_shard_runner():
    """The same demotion worlds produce bit-identical schedules whether
    run serially or forked across shard-runner workers."""
    seeds = [31, 37, 41]
    serial = run_islands(_demote_world, seeds, processes=1)
    sharded = run_islands(_demote_world, seeds, processes=3)
    assert sharded == serial
    for demotions_out, demotions_in, drops, now, _ in serial:
        assert demotions_out >= 1
        assert demotions_in + drops == demotions_out
        assert now > 0


# -- cooperative peer caching -----------------------------------------------

def test_peer_hit_is_byte_identical_to_origin(no_readahead):
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    golden = image.disk_inode.data.read(2 * BS, BS)

    box0 = run(testbed, read_block(s0, 2)(testbed.env))
    assert box0["value"][1] == golden

    reads_before = s1.client_proxy.upstream.stats.by_proc.get("READ", 0)
    box1 = run(testbed, read_block(s1, 2)(testbed.env))
    assert box1["value"][1] == golden            # byte-identical to origin
    peer = s1.client_proxy.layer("peer-cache")
    assert peer.stats.peer_hits == 1
    assert peer.stats.peer_bytes == BS
    # The block never touched s1's WAN upstream.
    assert s1.client_proxy.upstream.stats.by_proc.get(
        "READ", 0) == reads_before
    assert directory.hits == 1


def test_stale_directory_answer_falls_through_to_origin(no_readahead):
    """A listed owner that no longer holds the block costs one wasted
    LAN round trip, then the read comes from origin — still correct."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    box = run(testbed, read_block(s0, 0)(testbed.env))
    fh = box["value"][0]

    member0 = s0.client_proxy.layer("peer-cache").member
    directory._publish(member0, (fh, 5))         # s0 never cached block 5

    golden = image.disk_inode.data.read(5 * BS, BS)
    box1 = run(testbed, read_block(s1, 5)(testbed.env))
    assert box1["value"][1] == golden
    peer = s1.client_proxy.layer("peer-cache")
    assert peer.stats.peer_stale == 1
    assert peer.stats.peer_hits == 0
    assert directory.stale == 1


def test_eviction_retracts_published_blocks(no_readahead):
    """Directory state tracks the caches: an evicted frame is no longer
    advertised, so peers miss instead of chasing a stale owner."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions

    def clear_s0(env):
        yield env.process(s0.cold_caches())

    run(testbed, read_block(s0, 0)(testbed.env))
    assert directory.stats_snapshot()["listed_blocks"] >= 1
    run(testbed, clear_s0(testbed.env))
    assert directory.stats_snapshot()["listed_blocks"] == 0

    box = run(testbed, read_block(s1, 0)(testbed.env))
    assert box["value"][1] == image.disk_inode.data.read(0, BS)
    assert s1.client_proxy.layer("peer-cache").stats.peer_hits == 0


def test_concurrent_misses_coalesce_on_the_designated_fetcher(no_readahead):
    """Two peers missing the same cold block at once: one WAN fetch,
    the second peer waits on the publication gate and borrows LAN-side."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    golden = image.disk_inode.data.read(7 * BS, BS)
    box = {}

    def racer(env, session, tag):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        box[tag] = yield env.process(f.read(7 * BS, BS))

    testbed.env.process(racer(testbed.env, s0, "a"))
    testbed.env.process(racer(testbed.env, s1, "b"))
    testbed.env.run()

    assert box["a"] == golden and box["b"] == golden
    snap = directory.stats_snapshot()
    assert snap["coalesced"] == 1
    total_upstream = sum(
        s.client_proxy.upstream.stats.by_proc.get("READ", 0)
        for s in sessions)
    assert total_upstream == 1                   # one WAN fetch, not two


# -- crash retirement and bounded demotion ----------------------------------

def test_proxy_crash_retires_peer_advertisements(no_readahead):
    """A crashed proxy's blocks must vanish from the directory at crash
    time — a later asker goes straight upstream, never chasing a stale
    advertisement into a dead cache."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    box = run(testbed, read_block(s0, 4)(testbed.env))
    fh = box["value"][0]
    assert directory.locate((fh, 4)) is not None

    s0.client_proxy.crash()
    assert directory.retirements == 1
    assert directory.locate((fh, 4)) is None
    assert directory.stats_snapshot()["listed_blocks"] == 0

    golden = image.disk_inode.data.read(4 * BS, BS)
    box1 = run(testbed, read_block(s1, 4)(testbed.env))
    assert box1["value"][1] == golden
    peer = s1.client_proxy.layer("peer-cache")
    assert peer.stats.peer_hits == 0
    assert peer.stats.peer_stale == 0     # a crash is not a stale answer
    assert directory.stale == 0


def test_crashed_fetcher_releases_pending_waiters(no_readahead):
    """The designated WAN fetcher dies before publishing: its pending
    gate is released at retire time, so the waiter re-queries and falls
    through to its own upstream instead of stalling out the full
    PENDING_TIMEOUT on a publication that will never come."""
    testbed, endpoint, image, directory, sessions = make_peer_rig()
    s0, s1 = sessions
    member0 = s0.client_proxy.layer("peer-cache").member
    member1 = s1.client_proxy.layer("peer-cache").member
    box = run(testbed, read_block(s0, 0)(testbed.env))
    fh = box["value"][0]
    key = (fh, 9)
    result = {}

    def waiter(env):
        t0 = env.now
        result["reply"] = yield env.process(directory.borrow(member1, key))
        result["waited"] = env.now - t0

    def scenario(env):
        got = yield env.process(directory.borrow(member0, key))
        assert got == (None, False)       # s0 is the designated fetcher now
        env.process(waiter(env))
        yield env.timeout(0.01)
        s0.client_proxy.crash()           # ...and dies before publishing

    run(testbed, scenario(testbed.env))
    assert result["reply"] == (None, False)       # fall through upstream
    assert result["waited"] < directory.PENDING_TIMEOUT
    assert directory.retirements == 1
    assert directory.pending_timeouts == 0        # released, not timed out


def test_blackholed_demote_is_abandoned_at_the_deadline(no_readahead):
    """An in-flight DEMOTE swallowed by a dead next level is abandoned
    at the bounded send deadline — counted, and never wedging the
    eviction (or the read) that triggered it.  Replays identically."""
    def world():
        testbed, endpoint, image, cascade, session = make_demote_rig()
        client = session.client_proxy.layer("block-cache")
        assert client.arm_demotion()
        l2 = cascade.levels[0]
        injector = FaultInjector(testbed.env)
        attach_stack(injector, "l2", l2.proxy)
        injector.schedule(layer_outage(
            FaultKind.BLACKHOLE_PROC, "l2/block-cache",
            at=0.0, down_for=100.0, arg="DEMOTE"))
        golden = image.disk_inode.data.read(2 * BS, BS)

        def job(env):
            f = yield env.process(session.mount.open(
                "/images/golden/disk.vmdk"))
            for b in (0, 1):
                yield env.process(f.read(b * BS, BS))
            yield env.process(l2.proxy.quiesce())
            l2.proxy.invalidate_caches()
            start = env.now
            data = yield env.process(f.read(2 * BS, BS))  # evicts block 0
            return start, env.now, data

        box = run(testbed, job(testbed.env))
        start, end, data = box["value"]
        assert data == golden             # the triggering read completed
        assert end - start < client.DEMOTE_DEADLINE + 1.0
        assert client.stats.demotion_timeouts == 1
        assert client.stats.demotions_out == 0
        l2_layer = l2.proxy.layer("block-cache")
        assert l2_layer.stats.procs_blackholed == 1
        assert l2_layer.stats.demotions_in == 0
        return injector.timeline, end - start

    assert world() == world()             # fault replay is deterministic
