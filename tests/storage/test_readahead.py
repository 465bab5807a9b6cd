"""Tests for adaptive readahead and write-behind in LocalFileSystem."""

import pytest

from repro.sim import Environment
from repro.storage.disk import DiskParams
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import CHUNK_SIZE


def make_lfs(positioning=0.005, bandwidth=40e6):
    env = Environment()
    lfs = LocalFileSystem(env, disk_params=DiskParams(
        positioning=positioning, bandwidth=bandwidth, overhead=0))
    return env, lfs


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    env.process(wrapper(env))
    env.run()
    return box


def sequential_read(lfs, inode, total, chunk=CHUNK_SIZE):
    offset = 0
    while offset < total:
        yield from lfs.timed_scan_inode(inode, offset, chunk)
        offset += chunk


def test_sequential_reads_trigger_readahead():
    env, lfs = make_lfs()
    inode = lfs.fs.create("/big", size=2 * 1024 * 1024)
    run(env, sequential_read(lfs, inode, 2 * 1024 * 1024))
    # One disk access per ~readahead window, not per chunk.
    expected_windows = 2 * 1024 * 1024 / lfs.readahead_bytes
    assert lfs.disk.reads < expected_windows * 2.5
    assert lfs.readahead_fills > 0


def test_sequential_read_is_transfer_bound():
    env, lfs = make_lfs()
    size = 4 * 1024 * 1024
    inode = lfs.fs.create("/big", size=size)
    box = run(env, sequential_read(lfs, inode, size))
    transfer_floor = size / 40e6
    assert box["t"] < transfer_floor * 2.5  # seeks amortized away


def test_random_reads_do_not_readahead():
    env, lfs = make_lfs()
    inode = lfs.fs.create("/big", size=8 * 1024 * 1024)

    def random_reads(env):
        # Stride across the file: never sequential.
        for i in range(32):
            offset = (i * 37 % 1000) * CHUNK_SIZE
            yield from lfs.timed_scan_inode(inode, offset, CHUNK_SIZE)

    before = lfs.readahead_fills
    run(env, random_reads(env))
    assert lfs.readahead_fills == before  # no windows pulled
    assert lfs.disk.reads >= 30           # ~one access per read


def test_readahead_does_not_cross_eof():
    env, lfs = make_lfs()
    size = CHUNK_SIZE * 3 + 100
    inode = lfs.fs.create("/small", size=size)
    run(env, sequential_read(lfs, inode, size))
    # All cached chunks are within the file.
    for idx in lfs.cached_chunks(inode):
        assert idx * CHUNK_SIZE < size


def test_readahead_warms_subsequent_chunks():
    env, lfs = make_lfs()
    inode = lfs.fs.create("/f", size=1024 * 1024)

    def proc(env):
        yield from lfs.timed_scan_inode(inode, 0, CHUNK_SIZE)
        yield from lfs.timed_scan_inode(inode, CHUNK_SIZE, CHUNK_SIZE)
        t0 = env.now
        # Chunk 2..16 were pulled by the window: free.
        yield from lfs.timed_scan_inode(inode, 2 * CHUNK_SIZE, CHUNK_SIZE)
        return env.now - t0

    box = run(env, proc(env))
    assert box["value"] == 0.0


def test_write_behind_overlaps_with_reads():
    """The writer's foreground cost is tiny (write-behind), a concurrent
    reader shares the arm without starving, and the data still reaches
    the disk."""
    env, lfs = make_lfs()
    reader_inode = lfs.fs.create("/r", size=1024 * 1024)
    writer_inode = lfs.fs.create("/w")

    def writer(env):
        t0 = env.now
        yield from lfs.timed_write_inode(writer_inode, b"z" * (4 << 20), 0)
        return env.now - t0

    def reader(env):
        t0 = env.now
        yield from sequential_read(lfs, reader_inode, 1024 * 1024)
        return env.now - t0

    box = {}

    def driver(env):
        w = env.process(writer(env))
        r = env.process(reader(env))
        box["read_time"] = yield r
        box["write_fg_time"] = yield w
        yield from lfs.sync()

    env.process(driver(env))
    env.run()
    drain_alone = (4 << 20) / 40e6
    # Foreground write returned in a fraction of the media time...
    assert box["write_fg_time"] < drain_alone / 2
    # ...the reader interleaved with the flusher rather than queueing
    # behind the whole drain...
    assert box["read_time"] < drain_alone * 2
    # ...and everything ended up on disk.
    assert lfs.dirty_bytes == 0
    assert lfs.disk.bytes_written >= (4 << 20)
