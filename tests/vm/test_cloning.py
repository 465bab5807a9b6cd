"""Integration tests for the cloning procedure over GVFS."""

import tracemalloc

import pytest

from repro.core.session import GvfsSession, LocalMount, Scenario, ServerEndpoint
from repro.net.topology import Testbed
from repro.sim import Environment
from repro.storage.vfs import CHUNK_SIZE
from repro.vm.cloning import CloneManager
from repro.vm.image import VmConfig, VmImage
from repro.vm.monitor import VmMonitor
from tests.core.harness import SMALL_CACHE


class CloneRig:
    def __init__(self, metadata=True, image_mb=2, zero_fraction=0.92):
        self.testbed = Testbed(Environment(), n_compute=1)
        self.env = self.testbed.env
        self.endpoint = ServerEndpoint(self.env, self.testbed.wan_server)
        cfg = VmConfig(name="golden", memory_mb=image_mb, disk_gb=0.01,
                       seed=21, persistent=False)
        self.image = VmImage.create(self.endpoint.export.fs,
                                    "/images/golden", cfg,
                                    zero_fraction=zero_fraction)
        if metadata:
            self.image.generate_metadata()
        self.session = GvfsSession.build(self.testbed, Scenario.WAN_CACHED,
                                         endpoint=self.endpoint,
                                         cache_config=SMALL_CACHE)
        compute = self.testbed.compute[0]
        self.monitor = VmMonitor(self.env, compute)
        self.manager = CloneManager(self.env, self.monitor,
                                    self.session.mount,
                                    LocalMount(compute.local))

    def run(self, gen):
        box = {}

        def wrapper(env):
            box["value"] = yield env.process(gen)

        self.env.process(wrapper(self.env))
        self.env.run()
        return box["value"]


def test_clone_produces_running_vm():
    rig = CloneRig()
    result = rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    assert result.vm is not None
    assert result.vm.running
    assert result.total_seconds > 0
    assert set(result.phases) == {"copy_config", "copy_memory", "link_disk",
                                  "configure", "resume"}


def test_clone_memory_copy_is_bit_identical():
    rig = CloneRig()
    rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    golden = rig.image.memory_inode.data
    local = rig.testbed.compute[0].local.fs
    copied = local.read("/clones/c1/mem.vmss")
    assert copied == golden.read(0, golden.size)


def test_clone_links_disk_instead_of_copying():
    rig = CloneRig()
    rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    local = rig.testbed.compute[0].local.fs
    assert local.readlink("/clones/c1/disk.vmdk") == "/images/golden/disk.vmdk"


def test_clone_config_customized():
    rig = CloneRig()
    rig.run(rig.manager.clone("/images/golden", "/clones/c1",
                              clone_name="userA-vm"))
    local = rig.testbed.compute[0].local.fs
    cfg = VmConfig.from_bytes(local.read("/clones/c1/vm.cfg"))
    assert cfg.name == "userA-vm"
    assert cfg.memory_mb == rig.image.config.memory_mb


def test_clone_redo_log_on_gvfs_mount():
    rig = CloneRig()
    rig.run(rig.manager.clone("/images/golden", "/clones/c1",
                              clone_name="c1"))
    # The redo log is created next to the golden disk on the mount
    # (write-back absorbs its writes), named per clone.
    proxy = rig.session.client_proxy
    assert proxy is not None
    # Either absorbed in the proxy or at the server already:
    server_fs = rig.endpoint.export.fs
    assert server_fs.exists("/images/golden/disk.vmdk.c1.REDO")


def test_second_clone_faster_than_first():
    rig = CloneRig()
    first = rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    second = rig.run(rig.manager.clone("/images/golden", "/clones/c2"))
    assert second.total_seconds < first.total_seconds
    assert second.phases["copy_memory"] < first.phases["copy_memory"]


def test_clone_uses_file_channel_when_metadata_present():
    rig = CloneRig(metadata=True)
    rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    proxy = rig.session.client_proxy
    assert proxy.layer("file-channel").stats.channel_fetches == 1
    assert proxy.layer("metadata").stats.zero_filtered_reads > 0


def test_clone_without_metadata_goes_block_by_block():
    rig = CloneRig(metadata=False)
    rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    proxy = rig.session.client_proxy
    assert proxy.layer("file-channel").stats.channel_fetches == 0
    assert proxy.layer("block-cache").stats.block_cache_misses > 0


def test_metadata_clone_faster_than_block_clone():
    with_meta = CloneRig(metadata=True, image_mb=4)
    r1 = with_meta.run(with_meta.manager.clone("/images/golden", "/c/c1"))
    without = CloneRig(metadata=False, image_mb=4)
    r2 = without.run(without.manager.clone("/images/golden", "/c/c1"))
    assert r1.phases["copy_memory"] < r2.phases["copy_memory"] / 2


def test_cloned_vm_reads_golden_disk_content():
    rig = CloneRig()
    result = rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
    vm = result.vm
    golden_disk = rig.image.disk_inode.data

    def proc(env):
        data = yield env.process(vm.redo.read(0, 4096))
        return data

    data = rig.run(proc(rig.env))
    assert data == golden_disk.read(0, 4096)


def test_clone_without_resume():
    rig = CloneRig()
    result = rig.run(rig.manager.clone("/images/golden", "/clones/c1",
                                       resume=False))
    assert result.vm is None
    assert "resume" not in result.phases


def test_clone_memory_tracks_payload_not_zero_blocks():
    """Cloning a zero-rich image with meta-data costs host memory in
    proportion to its non-zero payload: every zero-filtered block is
    the one shared zero chunk, however many of them the client caches."""
    # A first small clone imports everything the clone path touches
    # lazily, so the measured growth below is the clone's alone.
    warm = CloneRig(image_mb=1, zero_fraction=0.9)
    warm.run(warm.manager.clone("/images/golden", "/clones/c1"))
    rig = CloneRig(image_mb=16, zero_fraction=0.9)
    memory = rig.image.memory_inode.data
    payload = sum(CHUNK_SIZE for i in range(memory.n_chunks())
                  if not memory.chunk_is_zero(i))
    assert 0 < payload < memory.size // 5

    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        rig.run(rig.manager.clone("/images/golden", "/clones/c1"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    zero = rig.session.client_proxy.layer("metadata")
    assert zero.stats.zero_filtered_reads > 0
    assert peak - base < 2 * payload
