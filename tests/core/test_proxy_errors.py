"""Error-path tests for the GVFS proxy."""

import pytest

from repro.core.metadata import metadata_path_for
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest, NfsStatus
from tests.core.harness import Rig


def test_read_error_forwarded_unchanged():
    rig = Rig(metadata=False)

    def proc(env):
        bogus = FileHandle("images", 99999)
        reply = yield env.process(rig.session.client_proxy.handle(
            NfsRequest(NfsProc.READ, fh=bogus, offset=0, count=8192)))
        return reply.status

    value, _ = rig.run(proc(rig.env))
    assert value is NfsStatus.STALE


def test_corrupt_metadata_file_is_negative_cached():
    rig = Rig()
    meta_path = metadata_path_for("/images/golden/mem.vmss")
    fs = rig.endpoint.export.fs
    if fs.exists(meta_path):
        fs.unlink(meta_path)
    fs.create(meta_path)
    fs.write(meta_path, b"THIS IS NOT METADATA")

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        yield env.process(f.read(0, 8192))
        proxy = rig.session.client_proxy
        zero = proxy.layer("metadata")
        fh = next(iter(zero.cache))
        return zero.cache[fh], zero.stats.zero_filtered_reads

    (cached_meta, filtered), _ = rig.run(proc(rig.env))
    assert cached_meta is None        # parse failure -> known-absent
    assert filtered == 0              # nothing wrongly filtered


def test_missing_metadata_probed_only_once():
    rig = Rig()  # no generate_metadata() call: lookups will miss

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f.read(0, 8192))
        lookups_after_first = rig.session.client_proxy.upstream.stats \
            .by_proc.get("LOOKUP", 0)
        rig.mount.drop_caches()
        f2 = yield env.process(rig.mount.open("/images/golden/disk.vmdk"))
        yield env.process(f2.read(8192, 8192))
        return (lookups_after_first,
                rig.session.client_proxy.upstream.stats.by_proc["LOOKUP"])

    (first, second), _ = rig.run(proc(rig.env))
    # Only the client's own re-resolution LOOKUPs appear; the proxy does
    # not re-probe for the .gvfs file on every read.
    assert second - first <= 4


def test_unsupported_request_kinds_pass_through():
    rig = Rig(metadata=False)

    def proc(env):
        names = yield env.process(rig.mount.readdir("/images/golden"))
        target_before = yield env.process(rig.mount.stat("/images/golden/vm.cfg"))
        return names, target_before.kind

    (names, kind), _ = rig.run(proc(rig.env))
    assert "mem.vmss" in names
    assert kind == "file"


def test_write_back_survives_interleaved_reads_and_writes():
    rig = Rig(metadata=False)

    def proc(env):
        f = yield env.process(rig.mount.create("/images/golden/log.bin"))
        for i in range(8):
            yield env.process(f.write(i * 8192, bytes([i]) * 8192))
            data = yield env.process(f.read(i * 8192, 8192))
            assert data == bytes([i]) * 8192
        yield env.process(f.close())
        yield env.process(rig.session.client_proxy.flush())
        return rig.endpoint.export.fs.read("/images/golden/log.bin")

    value, _ = rig.run(proc(rig.env))
    assert value == b"".join(bytes([i]) * 8192 for i in range(8))
