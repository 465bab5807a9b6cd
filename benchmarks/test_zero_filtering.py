"""§3.2.2 in-text numbers: zero-block filtering on a VM resume.

"When resuming a 512MB-RAM RedHat 7.3 VM which is suspended in the
post-boot state, the client issues 65,750 NFS reads while 60452 of them
can be filtered out by the above technique."  (60,452 / 65,750 = 92 %.)

This benchmark resumes a 512 MB VM through a metadata-enabled proxy
whose channel actions are disabled (so every block takes the zero-map /
block path) and counts filtered reads.
"""

from conftest import once

from repro.core.metadata import generate_metadata
from repro.core.session import GvfsSession, Scenario, ServerEndpoint
from repro.net.topology import make_paper_testbed
from repro.vm.image import VmConfig, VmImage
from repro.vm.monitor import VmMonitor


def run_resume():
    testbed = make_paper_testbed()
    endpoint = ServerEndpoint(testbed.env, testbed.wan_server)
    config = VmConfig(name="postboot", memory_mb=512, disk_gb=0.25,
                      os_name="Red Hat Linux 7.3", persistent=True, seed=73)
    image = VmImage.create(endpoint.export.fs, "/images/postboot", config,
                           zero_fraction=0.92)
    # Zero map only — no file channel — so the counting is pure.
    meta = generate_metadata(endpoint.export.fs, "/images/postboot/mem.vmss",
                             actions=[])
    session = GvfsSession.build(testbed, Scenario.WAN_CACHED,
                                endpoint=endpoint)
    monitor = VmMonitor(testbed.env, testbed.compute[0])

    def driver(env):
        yield env.process(monitor.resume(session.mount, "/images/postboot"))

    testbed.env.process(driver(testbed.env))
    testbed.env.run()
    stats = session.client_proxy.layer("metadata").stats
    reads_issued = session.mount.rpc.stats.by_proc.get("READ", 0)
    return meta, stats, reads_issued


def test_zero_filtering_ratio(benchmark, save_table):
    box = {}

    def run_all():
        box["meta"], box["stats"], box["reads"] = run_resume()

    once(benchmark, run_all)
    meta, stats, reads = box["meta"], box["stats"], box["reads"]

    memory_reads = 512 * 1024 * 1024 // 8192  # 65,536 blocks
    table = "\n".join([
        "Zero-block filtering on a 512 MB post-boot resume (§3.2.2)",
        "-----------------------------------------------------------",
        f"NFS READ calls issued by the client:  {reads:>7}"
        f"   (paper: 65,750)",
        f"reads filtered as zero-filled:        "
        f"{stats.zero_filtered_reads:>7}   (paper: 60,452)",
        f"filter ratio:                         "
        f"{stats.zero_filtered_reads / memory_reads:>7.1%}   (paper: ~92%)",
        f"zero blocks in the generated map:     {meta.n_zero_blocks:>7}",
    ])
    save_table("zero_filtering", table)

    # The client issues one READ per 8 KB of the 512 MB state (plus a
    # handful for config and metadata-adjacent traffic).
    assert memory_reads <= reads < memory_reads * 1.02

    # ~92% of the memory-state reads never cross the wire.
    ratio = stats.zero_filtered_reads / memory_reads
    assert 0.90 < ratio < 0.94
    assert stats.zero_filtered_reads == meta.n_zero_blocks
