"""Tests for GridFTP-style multi-stream transfers."""

import pytest

from repro.net.gridftp import GridFtpTransfer
from repro.net.link import Link, Route
from repro.net.ssh import ScpTransfer
from repro.sim import Environment


def wan_route(env, latency=0.019, bandwidth=30e6):
    return Route([Link(env, latency, bandwidth, name="wan")])


def run(env, gen):
    box = {}

    def wrapper(env):
        box["value"] = yield env.process(gen)
        box["t"] = env.now

    env.process(wrapper(env))
    env.run()
    return box


def test_parallel_streams_multiply_throughput():
    env = Environment()
    gftp = GridFtpTransfer(env, wan_route(env), streams=4)
    scp = ScpTransfer(env, wan_route(Environment()))
    assert gftp.effective_bandwidth == pytest.approx(
        4 * scp.effective_bandwidth, rel=0.01)


def test_streams_capped_by_raw_bottleneck():
    env = Environment()
    gftp = GridFtpTransfer(env, wan_route(env, bandwidth=3e6), streams=16)
    assert gftp.effective_bandwidth == pytest.approx(3e6)


def test_transfer_faster_than_single_stream():
    nbytes = 16 * 1024 * 1024
    env1 = Environment()
    single = run(env1, ScpTransfer(env1, wan_route(env1)).transfer(nbytes))
    env4 = Environment()
    parallel = run(env4, GridFtpTransfer(env4, wan_route(env4),
                                         streams=4).transfer(nbytes))
    assert parallel["t"] < single["t"] / 3


def test_transfer_time_analytic_close_to_simulated():
    env = Environment()
    gftp = GridFtpTransfer(env, wan_route(env), streams=4)
    nbytes = 8 * 1024 * 1024
    box = run(env, gftp.transfer(nbytes))
    assert box["t"] == pytest.approx(gftp.transfer_time(nbytes), rel=0.2)
    assert gftp.bytes_transferred == nbytes


def test_single_stream_equals_scp():
    nbytes = 4 * 1024 * 1024
    env1 = Environment()
    scp_t = run(env1, ScpTransfer(env1, wan_route(env1)).transfer(nbytes))
    env2 = Environment()
    one = run(env2, GridFtpTransfer(env2, wan_route(env2),
                                    streams=1).transfer(nbytes))
    assert one["t"] == pytest.approx(scp_t["t"], rel=0.02)


def test_zero_and_tiny_transfers():
    env = Environment()
    gftp = GridFtpTransfer(env, wan_route(env), streams=4)
    box = run(env, gftp.transfer(0))
    assert box["t"] >= 0
    env2 = Environment()
    gftp2 = GridFtpTransfer(env2, wan_route(env2), streams=4)
    run(env2, gftp2.transfer(3))  # fewer bytes than streams
    assert gftp2.bytes_transferred == 3


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        GridFtpTransfer(env, wan_route(env), streams=0)
    gftp = GridFtpTransfer(env, wan_route(env))

    def proc(env):
        yield env.process(gftp.transfer(-1))

    env.process(proc(env))
    with pytest.raises(ValueError):
        env.run()


def test_channel_accepts_gridftp_transport():
    """The file channel is transport-agnostic: GridFTP drops in for SCP."""
    from tests.core.harness import Rig
    from repro.core.channel import FileChannel

    rig = Rig()
    rig.image.generate_metadata()
    proxy = rig.session.client_proxy
    # Swap the channel's SCP for a 4-stream GridFTP mover.
    proxy.channel.scp = GridFtpTransfer(
        rig.env, rig.testbed.wan_route_back(0), streams=4)

    # Read a non-zero block so the zero-filter does not short-circuit
    # the request before the channel runs.
    mem = rig.image.memory_inode.data
    nonzero = next(i for i in range(mem.n_chunks())
                   if not mem.chunk_is_zero(i))

    def proc(env):
        f = yield env.process(rig.mount.open("/images/golden/mem.vmss"))
        yield env.process(f.read(nonzero * 8192, 8192))

    rig.run(proc(rig.env))
    assert proxy.layer("file-channel").stats.channel_fetches == 1
    assert proxy.channel.scp.bytes_transferred > 0
