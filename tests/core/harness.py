"""Shared wiring for GVFS core integration tests: a small testbed with
a seeded image server and session builders per scenario."""

from repro.core.config import CachePolicy, ProxyCacheConfig
from repro.core.session import CascadeLevel, GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import Testbed
from repro.nfs.client import MountOptions
from repro.sim import Environment
from repro.vm.image import VmConfig, VmImage

#: A small, fast test cache geometry (64 MB, 32 banks, 4-way).
SMALL_CACHE = ProxyCacheConfig(capacity_bytes=64 * 1024 * 1024,
                               n_banks=32, associativity=4)


def second_level_cache(testbed, endpoint, cache_config):
    """The paper's second-level LAN cache (§3.2.3), wired explicitly:
    one cascade level on the LAN image server, reaching the origin
    across the WAN."""
    return CascadeLevel(testbed, endpoint, host=testbed.lan_server,
                        cache_config=cache_config, name="second-level",
                        link="wan")


class Rig:
    """Testbed + WAN image server + one session."""

    def __init__(self, scenario=Scenario.WAN_CACHED, n_compute=1,
                 cache_config=SMALL_CACHE, mount_options=None,
                 metadata=True, image_mb=4, via_second_level=False):
        self.testbed = Testbed(Environment(), n_compute=n_compute)
        self.env = self.testbed.env
        self.endpoint = ServerEndpoint(self.env, self.testbed.wan_server)
        self.second_level = (second_level_cache(self.testbed, self.endpoint,
                                                SMALL_CACHE)
                             if via_second_level else None)
        self.image = VmImage.create(
            self.endpoint.export.fs, "/images/golden",
            VmConfig(name="golden", memory_mb=image_mb, disk_gb=0.01, seed=7))
        self.sessions = [
            GvfsSession.build(self.testbed, scenario, endpoint=self.endpoint,
                              compute_index=i, cache_config=cache_config,
                              mount_options=mount_options, metadata=metadata,
                              via=self.second_level)
            for i in range(n_compute)]
        self.session = self.sessions[0]
        self.mount = self.session.mount

    def run(self, gen):
        box = {}

        def wrapper(env):
            box["value"] = yield env.process(gen)
            box["t"] = env.now

        self.env.process(wrapper(self.env))
        self.env.run()
        return box["value"], box["t"]
