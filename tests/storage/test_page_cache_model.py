"""Model-based test of the LocalFileSystem page cache.

The page cache keys each tracked chunk by one packed integer.  A
reference model written the obvious way — an ``OrderedDict`` keyed by
``(fileid, chunk index)`` tuples — must agree with it operation by
operation: hits, misses, readahead fills, the disk accesses charged,
and the final LRU order of every file's cached chunks.
"""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.storage.disk import DiskParams
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import CHUNK_SIZE

CAPACITY_CHUNKS = 12
READAHEAD_BYTES = 4 * CHUNK_SIZE
FILE_SIZES = (40 * CHUNK_SIZE, 9 * CHUNK_SIZE + 100, 3 * CHUNK_SIZE)


class TuplePageCache:
    """Reference page cache: LRU of ``(fileid, index)`` tuples."""

    def __init__(self, capacity: int, readahead_bytes: int):
        self.capacity = capacity
        self.readahead_bytes = readahead_bytes
        self.cache: OrderedDict = OrderedDict()
        self.scan_pos = {}

    def _insert(self, key) -> None:
        self.cache[key] = True
        self.cache.move_to_end(key)
        while len(self.cache) > self.capacity:
            self.cache.popitem(last=False)

    def scan(self, fid: int, size: int, offset: int, count: int):
        """``(hits, misses, readahead fills, disk reads, disk bytes)``."""
        end = min(offset + count, size)
        sequential = self.scan_pos.get(fid) == offset
        hits = misses = 0
        disk = []
        miss_start = None
        pos = offset
        while pos < end:
            idx = pos // CHUNK_SIZE
            key = (fid, idx)
            if key in self.cache:
                self.cache.move_to_end(key)
                hits += 1
                if miss_start is not None:
                    disk.append(pos - miss_start)
                    miss_start = None
            else:
                misses += 1
                if miss_start is None:
                    miss_start = idx * CHUNK_SIZE
                self._insert(key)
            pos = min((idx + 1) * CHUNK_SIZE, end)
        fills = 0
        if miss_start is not None:
            read_end = end
            if sequential and end < size:
                read_end = min(end + self.readahead_bytes, size)
                for ra_pos in range(end, read_end, CHUNK_SIZE):
                    self._insert((fid, ra_pos // CHUNK_SIZE))
                fills = 1
            disk.append(read_end - miss_start)
        self.scan_pos[fid] = end
        return hits, misses, fills, len(disk), sum(disk)

    def chunks_of(self, fid: int):
        return [idx for f, idx in self.cache if f == fid]


ops = st.lists(st.tuples(
    st.integers(0, len(FILE_SIZES) - 1),             # file
    st.integers(0, max(FILE_SIZES) + CHUNK_SIZE),     # offset
    st.integers(0, 6 * CHUNK_SIZE),                   # count
    st.booleans()),                                   # sequential
    max_size=40)


@settings(max_examples=150, deadline=None)
@given(ops)
def test_integer_keys_match_tuple_reference(trace):
    env = Environment()
    lfs = LocalFileSystem(env, disk_params=DiskParams(
        positioning=0.005, bandwidth=40e6, overhead=0),
        page_cache_bytes=CAPACITY_CHUNKS * CHUNK_SIZE)
    lfs.readahead_bytes = READAHEAD_BYTES
    inodes = [lfs.fs.create(f"/f{i}", size=size)
              for i, size in enumerate(FILE_SIZES)]
    model = TuplePageCache(CAPACITY_CHUNKS, READAHEAD_BYTES)
    next_offset = [0] * len(inodes)

    for file, offset, count, sequential in trace:
        inode = inodes[file]
        if sequential:
            offset = next_offset[file]
        expected = model.scan(inode.fileid, inode.size, offset, count)
        before = (lfs.cache_hits, lfs.cache_misses, lfs.readahead_fills,
                  lfs.disk.reads, lfs.disk.bytes_read)
        env.process(lfs.timed_scan_inode(inode, offset, count))
        env.run()
        after = (lfs.cache_hits, lfs.cache_misses, lfs.readahead_fills,
                 lfs.disk.reads, lfs.disk.bytes_read)
        assert tuple(a - b for a, b in zip(after, before)) == expected
        next_offset[file] = min(offset + count, inode.size)

    for inode in inodes:
        assert list(lfs.cached_chunks(inode)) == model.chunks_of(inode.fileid)
