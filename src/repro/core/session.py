"""Per-session GVFS assembly: proxy chains for the paper's scenarios.

§4.2.1 defines four execution scenarios, reproduced here:

* **LOCAL** — VM state on the compute server's local disk (no NFS);
* **LAN** — state NFS-mounted from the LAN image server, access
  forwarded by GVFS proxies via SSH tunnels;
* **WAN** — same across the WAN image server;
* **WAN_CACHED** — WAN plus client-side proxy disk caching (WAN+C).

A :class:`GvfsSession` is what middleware builds per user: kernel
client -> (loopback) -> client proxy [caches] -> (SSH tunnel) -> server
proxy [identity map] -> (loopback) -> kernel NFS server.  A
:class:`CascadeLevel` inserts a caching proxy into that chain: on the
LAN image server, reaching the origin across the WAN, it is the
paper's second-level LAN cache (§3.2.3, the WAN-S3 cloning scenario),
and :func:`build_cascade` stacks any number of them.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Union

from repro.core.blockcache import ProxyBlockCache
from repro.core.channel import CascadedFileChannel, FileChannel, RemoteFileLocator
from repro.core.config import (
    ProxyCacheConfig,
    ProxyConfig,
    pipeline_overrides,
)
from repro.core.consistency import MiddlewareConsistency
from repro.core.filecache import ProxyFileCache
from repro.core.layers.checksum import ChecksumLayer
from repro.core.proxy import GvfsProxy
from repro.net.ssh import ScpTransfer, SshTunnel
from repro.net.topology import Host, NetworkConditions, Testbed, resolve_profile
from repro.nfs.client import MountOptions, NfsClient
from repro.nfs.protocol import FileHandle
from repro.nfs.rpc import LoopbackTransport, RpcCircuitBreaker, RpcClient
from repro.nfs.server import NfsServer
from repro.sim import Environment
from repro.storage.localfs import LocalFileSystem
from repro.storage.vfs import FsError, Inode

__all__ = ["CascadeLevel", "CascadeLevelSpec", "GvfsSession", "LocalFile",
           "LocalMount", "ProxyCascade", "Scenario", "ServerEndpoint",
           "build_cascade", "build_caching_proxy", "direct_file_channel"]

_session_counter = itertools.count(1)


class Scenario(enum.Enum):
    """The four execution scenarios of §4.2.1."""

    LOCAL = "Local"
    LAN = "LAN"
    WAN = "WAN"
    WAN_CACHED = "WAN+C"


# --------------------------------------------------------------------------
# Local (no-NFS) mount adapter
# --------------------------------------------------------------------------

class LocalFile:
    """Open file on a local filesystem, mirroring the NfsFile interface."""

    def __init__(self, lfs: LocalFileSystem, inode: Inode):
        self.env = lfs.env
        self._lfs = lfs
        self.inode = inode

    @property
    def size(self) -> int:
        return self.inode.data.size

    def read(self, offset: int, count: int) -> Generator:
        data = yield from self._lfs.timed_read_inode(self.inode, offset, count)
        return data

    def read_all(self, chunk: int = 65536) -> Generator:
        out = bytearray()
        pos = 0
        while pos < self.size:
            data = yield from self.read(pos, chunk)
            if not data:
                break
            out += data
            pos += len(data)
        return bytes(out)

    def write(self, offset: int, data: bytes) -> Generator:
        yield from self._lfs.timed_write_inode(self.inode, data, offset)

    def write_sync(self, offset: int, data: bytes) -> Generator:
        """Synchronous (O_SYNC) write: charged to the disk immediately."""
        yield from self._lfs.timed_write_inode(self.inode, data, offset,
                                               sync=True)

    def truncate(self, new_size: int) -> Generator:
        self.inode.data.truncate(new_size)
        self.inode.touch()
        yield self.env.timeout(0)

    def close(self) -> Generator:
        yield self.env.timeout(0)


class LocalMount:
    """Adapter exposing the MountedNfs surface over a local filesystem,
    so VM monitors and workloads run unchanged in the LOCAL scenario."""

    def __init__(self, lfs: LocalFileSystem):
        self.env = lfs.env
        self.lfs = lfs

    def open(self, path: str) -> Generator:
        inode = self.lfs.fs.lookup(path)
        yield self.env.timeout(0)
        return LocalFile(self.lfs, inode)

    def create(self, path: str, exclusive: bool = True) -> Generator:
        inode = self.lfs.fs.create(path, exclusive=exclusive)
        yield self.env.timeout(0)
        return LocalFile(self.lfs, inode)

    def stat(self, path: str) -> Generator:
        inode = self.lfs.fs.lookup(path)
        yield self.env.timeout(0)
        return inode

    def mkdir(self, path: str) -> Generator:
        self.lfs.fs.mkdir(path)
        yield self.env.timeout(0)

    def symlink(self, path: str, target: str) -> Generator:
        self.lfs.fs.symlink(path, target)
        yield self.env.timeout(0)

    def readlink(self, path: str) -> Generator:
        target = self.lfs.fs.readlink(path)
        yield self.env.timeout(0)
        return target

    def remove(self, path: str) -> Generator:
        self.lfs.fs.unlink(path)
        yield self.env.timeout(0)

    def rename(self, old: str, new: str) -> Generator:
        self.lfs.fs.rename(old, new)
        yield self.env.timeout(0)

    def readdir(self, path: str) -> Generator:
        names = self.lfs.fs.readdir(path)
        yield self.env.timeout(0)
        return names

    def flush_all(self) -> Generator:
        yield from self.lfs.sync()

    def drop_caches(self) -> None:
        self.lfs.drop_caches()


# --------------------------------------------------------------------------
# Server side
# --------------------------------------------------------------------------

class ServerEndpoint:
    """The image-server side: kernel NFS server + server-side proxy.

    The server-side proxy authenticates requests and maps identities to
    a short-lived logical account (§3.1); it carries no caches.
    """

    def __init__(self, env: Environment, host: Host, fsid: str = "images",
                 logical_identity=(1001, 1001), integrity=None):
        self.env = env
        self.host = host
        self.export = host.local
        self.server = NfsServer(env, self.export, fsid=fsid)
        loop = LoopbackTransport(env)
        # ``integrity`` (a ChecksumRegistry) adds a record-mode checksum
        # layer at this origin-adjacent boundary: every block leaving or
        # reaching the server of record is checksummed, so client-side
        # verify instances have a truth to check against.
        checksum = (ChecksumLayer(integrity, record=True)
                    if integrity is not None else None)
        self.proxy = GvfsProxy(
            env,
            RpcClient(env, self.server, loop, loop, name=f"{fsid}.srvproxy"),
            ProxyConfig(name=f"{host.name}.server-proxy", metadata=False,
                        identity=logical_identity),
            checksum=checksum)

    @property
    def root_fh(self) -> FileHandle:
        return self.server.root_fh

    def resolve(self, fh: FileHandle) -> Inode:
        """Out-of-band handle resolution for file channels (SCP source)."""
        if fh.fsid != self.server.fsid:
            raise FsError("ESTALE", f"foreign fsid {fh.fsid}")
        return self.export.fs.get_inode(fh.fileid)


# --------------------------------------------------------------------------
# Caching-proxy assembly (shared by client sessions and cache levels)
# --------------------------------------------------------------------------

def build_caching_proxy(env: Environment, upstream: RpcClient, *, name: str,
                        cache_config: ProxyCacheConfig, block_cache,
                        channel, metadata: bool = True,
                        peer_member=None, integrity=None,
                        origin_selector=None,
                        channel_selector=None) -> GvfsProxy:
    """One caching GVFS proxy: the standard layer stack (attr patching,
    zero-map meta-data, file channel, block cache + readahead, fault
    guard, upstream RPC) over ``upstream``.

    Every cache level in a cascade — the client proxy, a second-level
    LAN cache, an N-th level — is this same composition; only the
    upstream RPC client (the next hop) and the cache objects differ.
    ``peer_member`` (a ``PeerCacheDirectory.join`` handle) inserts the
    cooperative peer-cache lookup below the fault guard.  ``integrity``
    (a ``ChecksumRegistry`` shared with a record-mode endpoint) inserts
    a verify-mode checksum layer above the caches, so every full-block
    read is checked end to end before it reaches the client.
    """
    checksum = (ChecksumLayer(integrity, verify=True)
                if integrity is not None else None)
    return GvfsProxy(env, upstream,
                     ProxyConfig(name=name, cache=cache_config,
                                 metadata=metadata, **pipeline_overrides()),
                     block_cache=block_cache, channel=channel,
                     peer_member=peer_member, checksum=checksum,
                     origin_selector=origin_selector,
                     channel_selector=channel_selector)


def direct_file_channel(env: Environment, endpoint: ServerEndpoint,
                        client_host: Host, file_cache: ProxyFileCache,
                        scp: ScpTransfer,
                        upload_scp: Optional[ScpTransfer] = None
                        ) -> FileChannel:
    """A file channel fetching straight from the image server."""
    locator = RemoteFileLocator(resolve=endpoint.resolve,
                                server_host=endpoint.host,
                                server_fs=endpoint.export,
                                client_host=client_host)
    return FileChannel(env, locator, scp, file_cache, upload_scp=upload_scp)


# --------------------------------------------------------------------------
# Cache cascades: intermediate caching-proxy levels between client and origin
# --------------------------------------------------------------------------

class CascadeLevel:
    """One intermediate caching proxy in an N-level cache cascade.

    Cascading is stack composition: every level is the *same* layer
    stack as a client proxy (:func:`build_caching_proxy`), pointed
    either at the next level up the cascade (``above``) or straight at
    the image server's proxy.  Client sessions (or lower levels) stack
    on top by using :attr:`proxy` as their upstream handler.

    ``link`` names the network the upstream hop crosses (``"lan"`` or
    ``"wan"``); by default it is inferred from the upstream host (WAN
    for the WAN image server, campus Ethernet otherwise).
    """

    def __init__(self, testbed: Testbed, endpoint: ServerEndpoint,
                 host: Host,
                 cache_config: Optional[ProxyCacheConfig] = None,
                 name: str = "cache-level",
                 above: Optional["CascadeLevel"] = None,
                 link: Optional[str] = None):
        env = testbed.env
        self.env = env
        self.testbed = testbed
        self.endpoint = endpoint
        self.host = host
        self.above = above
        self.name = name
        cache_config = cache_config or ProxyCacheConfig()
        self.cache_config = cache_config
        upstream_host = above.host if above is not None else endpoint.host
        if link is None:
            link = "wan" if upstream_host is testbed.wan_server else "lan"
        if link not in ("lan", "wan"):
            raise ValueError(f"link must be 'lan' or 'wan', got {link!r}")
        self.link = link
        via_wan = link == "wan"
        tunnel_out = SshTunnel(env, testbed.route(host, upstream_host,
                                                  via_wan),
                               name=f"{name}.out")
        tunnel_back = SshTunnel(env, testbed.route(upstream_host, host,
                                                   via_wan),
                                name=f"{name}.back")
        upstream_handler = (above.proxy if above is not None
                            else endpoint.proxy)
        upstream = RpcClient(env, upstream_handler, tunnel_out, tunnel_back,
                             name=f"{name}.rpc")
        self.block_cache = ProxyBlockCache(env, self.host.local, cache_config,
                                           name=f"{name}.blocks")
        file_cache = ProxyFileCache(env, self.host.local,
                                    name=f"{name}.files")
        scp = ScpTransfer(env, testbed.route(upstream_host, host, via_wan),
                          name=f"{name}.scp")
        if above is not None:
            self.channel = CascadedFileChannel(env, above.channel,
                                               above.host, host, scp,
                                               file_cache)
        else:
            self.channel = direct_file_channel(env, endpoint, self.host,
                                               file_cache, scp)
        self.proxy = build_caching_proxy(env, upstream, name=name,
                                         cache_config=cache_config,
                                         block_cache=self.block_cache,
                                         channel=self.channel)


@dataclass(frozen=True)
class CascadeLevelSpec:
    """Declarative description of one cascade level for
    :func:`build_cascade`.

    ``cache_config`` carries the level's block-cache geometry *and*
    eviction policy (``ProxyCacheConfig.eviction``); ``link`` the
    network of the hop toward the next level (``"lan"``/``"wan"``,
    default inferred from the upstream host); ``host`` pins the level
    to an existing testbed host (default: the LAN image server for the
    origin-adjacent level, a freshly attached LAN host otherwise).

    ``profile`` calibrates the level's *access link* when the cascade
    provisions a fresh host for it: a :data:`repro.net.topology
    .LINK_PROFILES` name (``"rack"``/``"site"``/``"lan"``/``"wan"``)
    or explicit :class:`NetworkConditions` — so a rack-level cache one
    gigabit hop away and a site cache across the campus backbone stop
    sharing the single-switch LAN calibration.  Incompatible with
    ``host`` (a pinned host keeps the access link it already has).
    """

    cache_config: Optional[ProxyCacheConfig] = None
    link: Optional[str] = None
    host: Optional[Host] = None
    name: Optional[str] = None
    profile: Optional[Union[str, NetworkConditions]] = None


class ProxyCascade:
    """An assembled cascade: the intermediate levels between client
    sessions and the image server, ordered client-ward first.

    ``levels[0]`` (:attr:`top`) is what sessions attach to via
    ``GvfsSession.build(..., via=cascade)``; ``levels[-1]`` talks to
    the server endpoint.  The *cascade depth* counts the client proxy
    too: ``depth == len(levels) + 1`` (a depth-1 cascade has no
    intermediate levels and is a plain caching client proxy).
    """

    def __init__(self, levels: List[CascadeLevel]):
        self.levels = list(levels)

    @property
    def top(self) -> Optional[CascadeLevel]:
        return self.levels[0] if self.levels else None

    @property
    def depth(self) -> int:
        return len(self.levels) + 1

    def reset(self) -> None:
        """Zero every level's counters (the client proxy, built per
        session, resets itself via ``ProxyStack.reset``)."""
        for level in self.levels:
            level.proxy.reset(deep=False)

    def stats_snapshots(self) -> List[dict]:
        """Per-level counter snapshots, client-ward first."""
        return [level.proxy.stats_snapshot() for level in self.levels]

    def arm_exclusive(self) -> int:
        """Make the cascade exclusive: every level whose next level up
        also caches demotes clean eviction victims upstream instead of
        dropping them (see ``BlockCacheLayer.arm_demotion``).  The
        origin-adjacent level stays inclusive — its upstream is the
        server-side forwarding proxy, which has no cache to demote
        into.  Client proxies arm themselves via
        ``GvfsSession.build(..., exclusive=True)``.  Returns the number
        of levels armed.
        """
        armed = 0
        for level in self.levels:
            layer = level.proxy.layer("block-cache")
            if layer is not None and layer.arm_demotion():
                armed += 1
        return armed


def build_cascade(testbed: Testbed, endpoint: ServerEndpoint,
                  levels: Sequence[Union[CascadeLevelSpec, ProxyCacheConfig]],
                  name: str = "cascade") -> ProxyCascade:
    """Assemble an arbitrary-depth proxy-cache cascade (§3.2.3
    generalized): compute node → rack cache → … → site cache → origin.

    ``levels`` lists the *intermediate* cache levels, ordered
    client-ward → origin-ward; each entry is a :class:`CascadeLevelSpec`
    (or a bare :class:`ProxyCacheConfig` as shorthand).  An empty list
    yields a depth-1 cascade — sessions then run a plain caching client
    proxy.  The origin-adjacent level defaults to the LAN image server
    host reaching the origin across the WAN (exactly the §3.2.3
    second-level cache, ``CascadeLevel(testbed, endpoint,
    host=testbed.lan_server, link="wan")``); additional client-ward
    levels get their own LAN-attached hosts.
    """
    specs = [spec if isinstance(spec, CascadeLevelSpec)
             else CascadeLevelSpec(cache_config=spec) for spec in levels]
    built: List[CascadeLevel] = []
    above: Optional[CascadeLevel] = None
    for pos in range(len(specs) - 1, -1, -1):
        spec = specs[pos]
        level_no = pos + 2          # the client proxy is level 1
        host = spec.host
        if host is not None and spec.profile is not None:
            raise ValueError(
                f"cascade level {spec.name or level_no}: 'profile' only "
                "applies when the cascade provisions the host; a pinned "
                "host keeps its existing access link")
        if host is None:
            conditions = (resolve_profile(spec.profile)
                          if spec.profile is not None else None)
            if above is None and conditions is None:
                host = testbed.lan_server
            else:
                host = testbed.add_host(f"{name}-l{level_no}",
                                        conditions=conditions)
        above = CascadeLevel(testbed, endpoint, host=host,
                             cache_config=spec.cache_config,
                             name=spec.name or f"{name}-l{level_no}",
                             above=above, link=spec.link)
        built.append(above)
    built.reverse()
    return ProxyCascade(built)


# --------------------------------------------------------------------------
# The session
# --------------------------------------------------------------------------

@dataclass
class GvfsSession:
    """One user's GVFS session: the mount plus every interposed proxy."""

    env: Environment
    scenario: Scenario
    mount: object                       # MountedNfs or LocalMount
    compute_host: Host
    endpoint: Optional[ServerEndpoint] = None
    client_proxy: Optional[GvfsProxy] = None
    consistency: Optional[MiddlewareConsistency] = None
    nfs_client: Optional[NfsClient] = None

    # -- middleware operations ------------------------------------------------
    def flush(self) -> Generator:
        """Process: force all session dirty state to the image server."""
        yield self.env.process(self.mount.flush_all())
        if self.client_proxy is not None:
            yield self.env.process(self.client_proxy.flush())

    def harden_rpc(self, timeout: float = 1.0, max_retries: int = 5,
                   backoff: float = 2.0, max_timeout: float = 8.0,
                   breaker_threshold: Optional[int] = None,
                   breaker_reset: float = 5.0,
                   dirty_high_water_blocks: Optional[int] = None) -> RpcClient:
        """Enable failure handling on the session's WAN-facing RPC path.

        Sessions are built with ``timeout=None`` (no retransmission) —
        correct on a perfect network and free of timer cost.  Under
        fault injection the middleware calls this to switch the client
        proxy's upstream (or, with no proxy, the mount itself) to the
        retransmission ladder, optionally with a circuit breaker (which
        also arms the proxy's degraded mode) and a dirty high-water
        mark.  Returns the hardened :class:`RpcClient`.
        """
        client = (self.client_proxy.upstream if self.client_proxy is not None
                  else self.mount.rpc)
        client.timeout = timeout
        client.max_retries = max_retries
        client.backoff = backoff
        client.max_timeout = max_timeout
        if breaker_threshold is not None:
            client.breaker = RpcCircuitBreaker(
                self.env, failure_threshold=breaker_threshold,
                reset_after=breaker_reset)
        if (dirty_high_water_blocks is not None
                and self.client_proxy is not None):
            from dataclasses import replace
            self.client_proxy.config = replace(
                self.client_proxy.config,
                dirty_high_water_blocks=dirty_high_water_blocks)
        return client

    def cold_caches(self) -> Generator:
        """Process: the experiments' cold-cache setup — flush dirty
        state, then unmount/mount (drop kernel caches) and flush the
        proxy caches."""
        yield self.env.process(self.flush())
        self.mount.drop_caches()
        if self.client_proxy is not None:
            # Late readahead fetches must land (or fail) before the
            # tags drop, or they would repopulate a "cold" cache.
            yield self.env.process(self.client_proxy.quiesce())
            self.client_proxy.invalidate_caches()
        self.compute_host.local.drop_caches()

    # -- construction ------------------------------------------------------------
    @classmethod
    def build(cls, testbed: Testbed, scenario: Scenario,
              endpoint: Optional[ServerEndpoint] = None,
              compute_index: int = 0,
              cache_config: Optional[ProxyCacheConfig] = None,
              mount_options: Optional[MountOptions] = None,
              metadata: bool = True,
              via: Optional[Union[CascadeLevel, ProxyCascade]] = None,
              shared_block_cache: Optional[ProxyBlockCache] = None,
              peer_directory=None,
              exclusive: bool = False,
              file_cache_capacity: Optional[int] = None,
              integrity=None,
              origin=None
              ) -> "GvfsSession":
        """Wire a session for ``scenario`` on compute node ``compute_index``.

        ``endpoint`` names the image server side (defaults to the WAN
        server for WAN scenarios, the LAN server for LAN).  ``via``
        interposes a cache cascade: any :class:`CascadeLevel` or a
        whole :class:`ProxyCascade` (whose top level is used; an empty
        cascade means no intermediate levels).  ``cache_config``
        overrides the client cache geometry for WAN_CACHED (defaults to
        §4.1's 512 banks / 16-way / 8 GB).  ``shared_block_cache`` lets
        several sessions on one host share a read-only cache of
        golden-image blocks (§3.2.1); the proxy then forwards writes
        upstream.

        ``peer_directory`` (a :meth:`Testbed.peer_directory`) registers
        this session's block cache with the site's cooperative peer
        directory so LAN peers answer each other's misses before they
        escalate over the WAN.  ``exclusive=True`` arms exclusive-
        cascade demotion: the client proxy hands clean eviction victims
        to its upstream cache level (a no-op when the upstream is the
        cacheless server endpoint, so depth-1 behavior is unchanged).

        ``integrity`` (a ``ChecksumRegistry``, WAN_CACHED only) inserts
        a verify-mode checksum layer at the top of the client proxy;
        pair it with an endpoint built with the same registry so there
        are origin-recorded checksums to verify against.

        ``origin`` replaces the single upstream with a replicated
        origin provider (duck-typed; canonically
        ``repro.middleware.farm.ImageFarm``): anything exposing
        ``endpoint`` (root-handle source), ``integrity`` (shared
        checksum registry), ``upstream_client(name, compute_host)``
        (an RpcClient-compatible origin selector fanning requests
        across replicas) and ``session_channels(file_cache,
        compute_host, name)`` (a file-channel selector).  ``origin``
        and ``via`` are mutually exclusive — a farm is already its own
        data plane.  With ``origin=None`` the wiring below is
        bit-identical to the single-origin path.
        """
        env = testbed.env
        n = next(_session_counter)
        compute = testbed.compute[compute_index]
        if isinstance(via, ProxyCascade):
            via = via.top
        if origin is not None:
            if via is not None:
                raise ValueError("origin farm and cascade 'via' are "
                                 "mutually exclusive")
            endpoint = origin.endpoint
            if integrity is None:
                integrity = origin.integrity

        if scenario is Scenario.LOCAL:
            return cls(env=env, scenario=scenario,
                       mount=LocalMount(compute.local), compute_host=compute)

        if endpoint is None:
            host = (testbed.lan_server if scenario is Scenario.LAN
                    else testbed.wan_server)
            endpoint = ServerEndpoint(env, host)

        # Data channel routes for this session: follow the physical
        # location of the next hop (a cascade cache level or the image
        # server itself), so an endpoint on the LAN server is reached
        # over LAN links even in a WAN-named scenario (e.g. a user-data
        # server co-located on the LAN).
        route_out = route_back = None
        if origin is not None:
            # The farm client owns one tunnel pair per replica; there
            # is no single upstream route.
            upstream = origin.upstream_client(f"s{n}", compute)
        elif via is not None:
            route_out = testbed.route(compute, via.host)
            route_back = testbed.route(via.host, compute)
            upstream_handler = via.proxy
        elif endpoint.host is testbed.wan_server:
            route_out = testbed.wan_route(compute_index)
            route_back = testbed.wan_route_back(compute_index)
            upstream_handler = endpoint.proxy
        else:
            route_out = testbed.lan_route(compute_index)
            route_back = testbed.lan_route_back(compute_index)
            upstream_handler = endpoint.proxy

        if origin is None:
            tunnel_out = SshTunnel(env, route_out, name=f"s{n}.out")
            tunnel_back = SshTunnel(env, route_back, name=f"s{n}.back")
            upstream = RpcClient(env, upstream_handler, tunnel_out,
                                 tunnel_back, name=f"s{n}.rpc")

        client_proxy = None
        if scenario is Scenario.WAN_CACHED:
            if shared_block_cache is not None:
                cache_config = shared_block_cache.config
                block_cache = shared_block_cache
            else:
                cache_config = cache_config or ProxyCacheConfig()
                block_cache = ProxyBlockCache(env, compute.local,
                                              cache_config,
                                              name=f"s{n}.blocks")
            file_cache = ProxyFileCache(env, compute.local,
                                        name=f"s{n}.files",
                                        capacity_bytes=file_cache_capacity)
            channel_selector = None
            if origin is not None:
                channel_selector = origin.session_channels(
                    file_cache, compute, f"s{n}")
                channel = channel_selector.primary
            elif via is not None:
                scp = ScpTransfer(env, route_back, name=f"s{n}.scp")
                channel = CascadedFileChannel(
                    env, via.channel, via.host, compute, scp, file_cache)
            else:
                scp = ScpTransfer(env, route_back, name=f"s{n}.scp")
                upload_scp = ScpTransfer(env, route_out, name=f"s{n}.scp-up")
                channel = direct_file_channel(env, endpoint, compute,
                                              file_cache, scp,
                                              upload_scp=upload_scp)
            peer_member = None
            if peer_directory is not None:
                peer_member = peer_directory.join(f"s{n}", compute,
                                                  block_cache)
            client_proxy = build_caching_proxy(
                env, upstream, name=f"s{n}.client-proxy",
                cache_config=cache_config, block_cache=block_cache,
                channel=channel, metadata=metadata,
                peer_member=peer_member, integrity=integrity,
                origin_selector=(upstream if origin is not None else None),
                channel_selector=channel_selector)
            if exclusive:
                client_proxy.layer("block-cache").arm_demotion()
            loop = LoopbackTransport(env)
            mount_rpc = RpcClient(env, client_proxy, loop, loop,
                                  name=f"s{n}.mount")
        else:
            # LAN / WAN without client caching: the kernel client talks
            # through the tunnel straight to the server-side proxy.
            mount_rpc = upstream

        nfs_client = NfsClient(env, name=f"s{n}.client")
        mount = nfs_client.mount("/gvfs", mount_rpc, endpoint.root_fh,
                                 mount_options or MountOptions())
        return cls(env=env, scenario=scenario, mount=mount,
                   compute_host=compute, endpoint=endpoint,
                   client_proxy=client_proxy,
                   consistency=MiddlewareConsistency(env),
                   nfs_client=nfs_client)
