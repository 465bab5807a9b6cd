"""N-level cascade behaviour: level-by-level serving, deep reset and
snapshots, cascade discovery through RPC handlers, and the aggregated
cascade report."""

import pytest

from repro.core.layers import (
    disable_stack_reports,
    enable_stack_reports,
    format_cascade_reports,
)
from repro.core.session import (
    CascadeLevelSpec,
    GvfsSession,
    Scenario,
    ServerEndpoint,
    build_cascade,
)
from repro.net.topology import Testbed
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage
from tests.core.harness import SMALL_CACHE


def make_rig(n_levels=2):
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    image = VmImage.create(endpoint.export.fs, "/images/golden",
                           VmConfig(name="golden", memory_mb=2, disk_gb=0.01,
                                    seed=47))
    cascade = build_cascade(testbed, endpoint, [SMALL_CACHE] * n_levels)
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint, cache_config=SMALL_CACHE,
                                via=cascade)
    return testbed, endpoint, image, cascade, session


def run(testbed, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)

    testbed.env.process(wrapper(testbed.env))
    testbed.env.run()
    return box


def read_block(session, block):
    def gen(env):
        f = yield env.process(session.mount.open("/images/golden/disk.vmdk"))
        data = yield env.process(f.read(block * 8192, 8192))
        return data
    return gen


def restart(testbed, session, cascade, tiers):
    """Cold-restart the client plus the first ``tiers - 1`` levels."""
    def gen(env):
        yield env.process(session.cold_caches())
        for level in cascade.levels[:tiers - 1]:
            yield env.process(level.proxy.quiesce())
            level.proxy.invalidate_caches()
    run(testbed, gen(testbed.env))


def test_reads_fill_every_cascade_level():
    testbed, endpoint, image, cascade, session = make_rig()
    box = run(testbed, read_block(session, 0)(testbed.env))
    assert box["value"] == image.disk_inode.data.read(0, 8192)
    assert session.client_proxy.block_cache.cached_blocks >= 1
    for level in cascade.levels:
        assert level.block_cache.cached_blocks >= 1


def test_tier_restart_is_served_by_the_next_level():
    """After cold-restarting tiers 1..j, the refill comes from tier
    j+1 — no deeper level (or the origin) sees the READ again."""
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    l2, l3 = cascade.levels

    restart(testbed, session, cascade, tiers=1)
    l2_blocks = l2.proxy.layer("block-cache").stats
    hits_before = l2_blocks.block_cache_hits
    origin_reads = l3.proxy.upstream.stats.by_proc.get("READ", 0)
    run(testbed, read_block(session, 0)(testbed.env))
    assert l2_blocks.block_cache_hits == hits_before + 1
    assert l3.proxy.upstream.stats.by_proc.get("READ", 0) == origin_reads

    restart(testbed, session, cascade, tiers=2)
    l3_blocks = l3.proxy.layer("block-cache").stats
    hits_before = l3_blocks.block_cache_hits
    origin_reads = l3.proxy.upstream.stats.by_proc.get("READ", 0)
    run(testbed, read_block(session, 0)(testbed.env))
    assert l3_blocks.block_cache_hits == hits_before + 1
    assert l3.proxy.upstream.stats.by_proc.get("READ", 0) == origin_reads


def test_cascade_stacks_discovered_through_rpc_handlers():
    testbed, endpoint, image, cascade, session = make_rig()
    stacks = session.client_proxy.cascade_stacks()
    # client + two cache levels + the server-side forwarding proxy.
    assert stacks == [session.client_proxy, cascade.levels[0].proxy,
                      cascade.levels[1].proxy, endpoint.proxy]


def test_deep_reset_covers_every_level():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    assert endpoint.proxy.front_stats.requests > 0
    session.client_proxy.reset(deep=True)
    # Gauges survive a stats reset: capacity is geometry, occupancy and
    # the bypass flag describe live state, not accumulated traffic.
    gauges = {"capacity_frames", "cached_blocks", "bypassed"}
    for stack in session.client_proxy.cascade_stacks():
        assert stack.front_stats.requests == 0
        snap = stack.stats_snapshot()
        assert all(v == 0 for counters in snap.values()
                   for key, v in counters.items() if key not in gauges)


def test_shallow_reset_leaves_upstream_levels_alone():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    session.client_proxy.reset(deep=False)
    assert session.client_proxy.front_stats.requests == 0
    assert cascade.levels[0].proxy.front_stats.requests > 0


def test_deep_snapshot_nests_the_whole_cascade():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    snap = session.client_proxy.stats_snapshot(deep=True)
    names = []
    while "upstream" in snap:
        names.append(snap["upstream"]["name"])
        snap = snap["upstream"]["layers"]
    assert names == [cascade.levels[0].proxy.config.name,
                     cascade.levels[1].proxy.config.name,
                     endpoint.proxy.config.name]
    # The default (shallow) snapshot shape is unchanged.
    assert "upstream" not in session.client_proxy.stats_snapshot()


def test_cascade_report_covers_every_level():
    enable_stack_reports()
    try:
        testbed, endpoint, image, cascade, session = make_rig()
        run(testbed, read_block(session, 0)(testbed.env))
        report = format_cascade_reports()
    finally:
        disable_stack_reports()
    assert report.count("cascade from") == 1
    for line in ("L1 ", "L2 ", "L3 ", "L4 "):
        assert line in report
    assert "eviction=lru" in report


def test_cascade_reset_and_snapshots_api():
    testbed, endpoint, image, cascade, session = make_rig()
    run(testbed, read_block(session, 0)(testbed.env))
    assert cascade.depth == 3
    assert cascade.top is cascade.levels[0]
    assert len(cascade.stats_snapshots()) == 2
    cascade.reset()
    gauges = {"capacity_frames", "cached_blocks", "bypassed"}
    assert all(v == 0 for snap in cascade.stats_snapshots()
               for counters in snap.values()
               for key, v in counters.items() if key not in gauges)


def test_per_level_eviction_policies():
    testbed = Testbed(Environment(), n_compute=1)
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    from dataclasses import replace
    cascade = build_cascade(
        testbed, endpoint,
        [CascadeLevelSpec(cache_config=replace(SMALL_CACHE, eviction="2q")),
         CascadeLevelSpec(cache_config=replace(SMALL_CACHE,
                                               eviction="lfu"))])
    assert [level.block_cache.policy.name for level in cascade.levels] \
        == ["2q", "lfu"]


def test_cascade_levels_get_their_own_hosts():
    testbed, endpoint, image, cascade, session = make_rig()
    # The origin-adjacent level sits on the LAN image server; the
    # client-ward level gets a freshly attached host.
    assert cascade.levels[1].host is testbed.lan_server
    assert cascade.levels[0].host is not testbed.lan_server
    assert cascade.levels[0].host.name == "cascade-l2"


def test_add_host_rejects_duplicate_names():
    testbed = Testbed(Environment(), n_compute=1)
    testbed.add_host("rack-cache")
    with pytest.raises(ValueError):
        testbed.add_host("rack-cache")
