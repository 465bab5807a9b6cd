"""Readahead layer: sequential-run detection and prefetch windows.

Watches the demand-miss stream reported by the block-cache layer: K
adjacent misses of one file arm a fire-and-forget readahead window
that fetches up to ``readahead_depth`` blocks ahead of the reader,
installing them with merged bank-file writes.  Prefetch gates live in
the block layer's gate table, so demand READs coalesce onto in-flight
prefetches exactly as they coalesce onto each other.

On the request path this layer is a pure pass-through (zero events);
its work rides on the sideways API the block layer calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.layers.base import ProxyLayer
from repro.core.metadata import FileMetadata
from repro.nfs.protocol import FileHandle, NfsProc, NfsRequest
from repro.sim import AllOf

__all__ = ["ReadaheadLayer"]


@dataclass
class ReadaheadStats:
    prefetch_issued: int = 0        # blocks scheduled by readahead/profiles
    prefetch_used: int = 0          # prefetched blocks later hit by demand
    prefetch_failed: int = 0        # prefetches that returned no data
    readahead_windows: int = 0      # window launches by the run detector

    @property
    def prefetch_wasted(self) -> int:
        """Prefetched blocks never consumed by a demand read (so far)."""
        return max(self.prefetch_issued - self.prefetch_used
                   - self.prefetch_failed, 0)

    @property
    def prefetch_accuracy(self) -> float:
        """used / issued — the fraction of readahead that paid off."""
        if self.prefetch_issued == 0:
            return 0.0
        return self.prefetch_used / self.prefetch_issued


class ReadaheadLayer(ProxyLayer):
    """Run detection plus background prefetch windows."""

    ROLE = "readahead"
    Stats = ReadaheadStats

    def __init__(self):
        super().__init__()
        # Blocks installed by readahead and not yet demanded (accuracy).
        self.prefetched: set = set()
        # Sequential-run detector state, per file handle.
        self.last_miss: Dict[FileHandle, int] = {}
        self.miss_run: Dict[FileHandle, int] = {}
        self.frontier: Dict[FileHandle, int] = {}

    @property
    def _block(self):
        return self.stack.layer("block-cache")

    # ----------------------------------------------------------- sideways API
    def note_demand_miss(self, fh: FileHandle, idx: int,
                         meta: Optional[FileMetadata]) -> None:
        """Run detection on the demand-miss stream: K adjacent misses of
        one file arm a readahead window ahead of the reader."""
        if self.config.readahead_depth <= 0 or self._block is None:
            return
        if self.last_miss.get(fh) == idx - 1:
            self.miss_run[fh] = self.miss_run.get(fh, 1) + 1
        else:
            self.miss_run[fh] = 1
            self.frontier.pop(fh, None)   # a new run, a new window
        self.last_miss[fh] = idx
        if self.miss_run[fh] >= self.config.readahead_min_run:
            self.extend_readahead(fh, idx, meta)

    def consume_prefetch(self, key: Tuple[FileHandle, int],
                         meta: Optional[FileMetadata]) -> None:
        """A demand READ hit a prefetched frame: account for it and keep
        the window ``readahead_depth`` blocks ahead of the reader."""
        if key not in self.prefetched:
            return
        self.prefetched.discard(key)
        self.stats.prefetch_used += 1
        self.extend_readahead(key[0], key[1], meta)

    def register_prefetch(self, key: Tuple[FileHandle, int]) -> None:
        """Count an externally issued prefetch (profile-driven
        :class:`~repro.core.profiler.Prefetcher`) toward accuracy."""
        self.stats.prefetch_issued += 1
        self.prefetched.add(key)

    # ---------------------------------------------------------------- windows
    def extend_readahead(self, fh: FileHandle, idx: int,
                         meta: Optional[FileMetadata]) -> None:
        """Schedule background fetches up to ``readahead_depth`` blocks
        past demand block ``idx`` (skipping cached, in-flight and
        zero-filled blocks, and stopping at the known file size)."""
        block = self._block
        bs = self.stack.block_size()
        lo = idx + 1
        frontier = self.frontier.get(fh)
        if frontier is not None and frontier >= lo:
            lo = frontier + 1
        size_limit = None
        if meta is not None:
            size_limit = max(meta.file_size, self.stack.local_size(fh))
        idxs = []
        for i in range(lo, idx + 1 + self.config.readahead_depth):
            if size_limit is not None and i * bs >= size_limit:
                break
            key = (fh, i)
            if key in block.gates or key in block.block_cache:
                continue
            if meta is not None and meta.covers_read(i * bs, bs):
                continue   # zero-filled: answered locally, nothing to fetch
            idxs.append(i)
        if not idxs:
            return
        self.frontier[fh] = idxs[-1]
        for i in idxs:
            block.gates[(fh, i)] = self.env.event()
        self.stats.prefetch_issued += len(idxs)
        self.stats.readahead_windows += 1
        self.env.process(self._window(fh, idxs),
                         name=f"{self.config.name}.readahead")

    def _window(self, fh: FileHandle, idxs: List[int]) -> Generator:
        """Background process: fetch a window of blocks concurrently and
        install it with one merged bank-file write per contiguous run.

        Fire-and-forget: every failure is contained (an unobserved
        failed process aborts the whole simulation) and every gate is
        released, so a failed prefetch never wedges later READs.
        """
        block = self._block
        bs = self.stack.block_size()
        # Snapshot our gates: a proxy crash mid-window releases and
        # clears them, and recovery may install fresh gates under the
        # same keys — cleanup must only touch the ones we own.
        gates = {i: block.gates[(fh, i)] for i in idxs}
        fetched: Dict[int, bytes] = {}

        def fetch_one(i: int) -> Generator:
            try:
                reply = yield from self.next.handle(NfsRequest(
                    NfsProc.READ, fh=fh, offset=i * bs, count=bs,
                    credentials=self.config.identity or (0, 0)))
            except Exception:
                return
            if reply.ok and reply.data:
                fetched[i] = reply.data

        victims: List = []
        try:
            yield AllOf(self.env, [self.env.process(fetch_one(i))
                                   for i in idxs])
            items = []
            for i in sorted(fetched):
                key = (fh, i)
                self.prefetched.add(key)
                items.append((key, fetched[i]))
            if items:
                victims = yield from block.block_cache.insert_many(items)
        except Exception:
            pass
        finally:
            self.stats.prefetch_failed += len(idxs) - len(fetched)
            for i in idxs:
                gate = gates[i]
                if block.gates.get((fh, i)) is gate:
                    del block.gates[(fh, i)]
                if not gate.triggered:
                    gate.succeed()
        for victim in victims:
            try:
                yield from block.dispose_victim(victim)
            except Exception:
                pass   # contained: a prefetch must not crash the session

    # --------------------------------------------------------------- lifecycle
    def crash(self) -> None:
        self.prefetched.clear()
        self.last_miss.clear()
        self.miss_run.clear()
        self.frontier.clear()

    def invalidate(self) -> None:
        self.prefetched.clear()
        self.last_miss.clear()
        self.miss_run.clear()
        self.frontier.clear()
