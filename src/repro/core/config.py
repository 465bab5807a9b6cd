"""Configuration of GVFS proxies and their caches.

The paper stresses that proxies are created *per user / per
application* and can therefore carry customized policies (§3.2.1):
cache size, write policy, block size, associativity.  These dataclasses
are those knobs; middleware builds one per session.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.eviction import POLICIES
from repro.nfs.protocol import NFS_BLOCK_SIZE, NFS_MAX_BLOCK_SIZE

__all__ = ["CachePolicy", "ProxyCacheConfig", "ProxyConfig",
           "clear_pipeline_overrides", "pipeline_overrides",
           "set_pipeline_overrides"]


class CachePolicy(enum.Enum):
    """Write policy of a proxy disk cache."""

    WRITE_BACK = "write-back"
    WRITE_THROUGH = "write-through"


@dataclass(frozen=True)
class ProxyCacheConfig:
    """Geometry and policy of one proxy block cache.

    Defaults mirror §4.1: "512 file banks which are 16-way associative,
    and has a capacity of 8 GBytes".
    """

    capacity_bytes: int = 8 * 1024 * 1024 * 1024
    n_banks: int = 512
    associativity: int = 16
    block_size: int = NFS_BLOCK_SIZE
    policy: CachePolicy = CachePolicy.WRITE_BACK
    #: Keep a persistent dirty-frame journal alongside the bank files so
    #: a crashed proxy can recover its write-back dirty set (off by
    #: default: journal appends cost disk time on every dirty write).
    journal: bool = False
    #: Within-set victim-selection policy (:mod:`repro.core.eviction`):
    #: ``lru`` (the paper's default), ``lfu`` or ``2q``.  Per-proxy, so
    #: each level of a cache cascade can run a different policy.
    eviction: str = "lru"

    def __post_init__(self):
        if self.eviction not in POLICIES:
            raise ValueError(f"unknown eviction policy {self.eviction!r}; "
                             f"choose from {sorted(POLICIES)}")
        if self.block_size <= 0 or self.block_size > NFS_MAX_BLOCK_SIZE:
            raise ValueError(
                f"block_size must be in (0, {NFS_MAX_BLOCK_SIZE}], "
                f"got {self.block_size} (NFS protocol limit, §3.2.1)")
        if self.n_banks < 1 or self.associativity < 1:
            raise ValueError("n_banks and associativity must be >= 1")
        if self.capacity_bytes < self.n_banks * self.associativity * self.block_size:
            raise ValueError("capacity too small for one set per bank")

    @property
    def total_frames(self) -> int:
        return self.capacity_bytes // self.block_size

    @property
    def frames_per_bank(self) -> int:
        return max(self.total_frames // self.n_banks, self.associativity)

    @property
    def sets_per_bank(self) -> int:
        return max(self.frames_per_bank // self.associativity, 1)


@dataclass(frozen=True)
class ProxyConfig:
    """Behaviour of one GVFS proxy."""

    name: str = "gvfs-proxy"
    #: Attach a block cache with this geometry (None = forwarding only).
    cache: Optional[ProxyCacheConfig] = None
    #: Enable meta-data handling (zero maps + file channel).
    metadata: bool = True
    #: Map incoming credentials to this local identity (server-side
    #: proxies allocate short-lived logical-user accounts, §3.1).
    identity: Optional[Tuple[int, int]] = None
    #: Absorb client COMMITs when write-back caching (the middleware,
    #: not the kernel client, decides when data reaches the server).
    absorb_commits: bool = True
    #: Pipelined I/O — sequential readahead: number of blocks fetched
    #: ahead of a detected sequential miss run (0 disables readahead).
    readahead_depth: int = 8
    #: Consecutive block-cache misses of adjacent blocks before the
    #: run detector starts prefetching.
    readahead_min_run: int = 2
    #: Pipelined I/O — coalesced write-back: maximum bytes merged into
    #: one upstream WRITE RPC when flushing adjacent dirty blocks
    #: (values at or below the cache block size mean one RPC per block).
    write_coalesce_bytes: int = 64 * 1024
    #: Concurrent upstream write-back RPCs in flight during a flush.
    write_pipeline_depth: int = 4
    #: Maximum dirty blocks held in the write-back cache before new
    #: writes force synchronous write-back (or, with the upstream down,
    #: are rejected) — bounds data loss exposure.  0 disables the limit.
    dirty_high_water_blocks: int = 0

    def __post_init__(self):
        if self.readahead_depth < 0:
            raise ValueError("readahead_depth must be >= 0")
        if self.readahead_min_run < 1:
            raise ValueError("readahead_min_run must be >= 1")
        if self.write_coalesce_bytes < 0:
            raise ValueError("write_coalesce_bytes must be >= 0")
        if self.write_pipeline_depth < 1:
            raise ValueError("write_pipeline_depth must be >= 1")
        if self.dirty_high_water_blocks < 0:
            raise ValueError("dirty_high_water_blocks must be >= 0")


# -- process-wide pipelined-I/O overrides ------------------------------------
#
# Sessions are assembled deep inside experiment drivers, far from any
# command line; these overrides let the CLI (`repro bench
# --readahead-depth N --write-coalesce-bytes B`) retune every proxy a
# run builds without threading knobs through each driver signature.

_PIPELINE_KNOBS = ("readahead_depth", "readahead_min_run",
                   "write_coalesce_bytes", "write_pipeline_depth")
_pipeline_overrides: Dict[str, int] = {}


def set_pipeline_overrides(**knobs: Optional[int]) -> None:
    """Install defaults for pipelined-I/O knobs on future proxies.

    Accepts any of ``readahead_depth``, ``readahead_min_run``,
    ``write_coalesce_bytes``, ``write_pipeline_depth``; ``None`` leaves
    a knob at its dataclass default.  Applied by
    :func:`~repro.core.session.build_caching_proxy` (client sessions
    and every cascade level).
    """
    for name, value in knobs.items():
        if name not in _PIPELINE_KNOBS:
            raise TypeError(f"unknown pipeline knob: {name}")
        if value is None:
            _pipeline_overrides.pop(name, None)
        else:
            _pipeline_overrides[name] = value


def pipeline_overrides() -> Dict[str, int]:
    """The currently installed pipelined-I/O knob overrides."""
    return dict(_pipeline_overrides)


def clear_pipeline_overrides() -> None:
    """Drop all overrides (test isolation)."""
    _pipeline_overrides.clear()
