"""GVFS — the paper's contribution: user-level proxy extensions for VMs.

This package implements the three extensions of §3 on top of the NFS
substrate:

* :mod:`~repro.core.blockcache` — the proxy-managed, disk-based,
  set-associative block cache (file banks holding frames, hash-indexed
  by NFS file handle and offset, write-back capable, shareable
  read-only, cascadable into multi-level hierarchies);
* :mod:`~repro.core.metadata` + :mod:`~repro.core.filecache` +
  :mod:`~repro.core.channel` — application-tailored meta-data handling:
  zero-block maps that satisfy reads of zero-filled memory-state blocks
  locally, and action lists (compress → remote copy → uncompress →
  read locally) that establish an on-demand file-based data channel and
  file cache (heterogeneous caching);
* :mod:`~repro.core.layers` + :mod:`~repro.core.proxy` — the proxy
  itself: a :class:`~repro.core.layers.ProxyStack` of composable
  :class:`~repro.core.layers.ProxyLayer` extensions (attr patching,
  zero-map meta-data, file channel, block cache, readahead, degraded
  mode, upstream RPC).  It receives NFS RPC calls like a server, issues
  them like a client, can be chained, remaps identities, and obeys
  middleware-driven consistency signals
  (:mod:`~repro.core.consistency`).

:mod:`~repro.core.session` assembles per-scenario proxy chains
(Local / LAN / WAN / WAN+C of §4.2.1).
"""

from repro.core.config import CachePolicy, ProxyCacheConfig, ProxyConfig
from repro.core.blockcache import ProxyBlockCache
from repro.core.filecache import ProxyFileCache
from repro.core.metadata import (
    METADATA_SUFFIX,
    FileMetadata,
    MetadataAction,
    generate_memory_state_metadata,
    generate_metadata,
    metadata_path_for,
)
from repro.core.channel import FileChannel
from repro.core.layers import ProxyLayer, ProxyStack, standard_layers
from repro.core.proxy import GvfsProxy
from repro.core.consistency import ConsistencySignal, MiddlewareConsistency
from repro.core.profiler import (
    AccessProfile,
    AccessProfiler,
    ApplicationKnowledgeBase,
    Prefetcher,
)
from repro.core.session import GvfsSession, Scenario

__all__ = [
    "AccessProfile",
    "AccessProfiler",
    "ApplicationKnowledgeBase",
    "CachePolicy",
    "ConsistencySignal",
    "FileChannel",
    "FileMetadata",
    "GvfsProxy",
    "GvfsSession",
    "METADATA_SUFFIX",
    "MetadataAction",
    "MiddlewareConsistency",
    "ProxyBlockCache",
    "ProxyCacheConfig",
    "ProxyConfig",
    "ProxyLayer",
    "ProxyStack",
    "Prefetcher",
    "ProxyFileCache",
    "standard_layers",
    "Scenario",
    "generate_memory_state_metadata",
    "generate_metadata",
    "metadata_path_for",
]
