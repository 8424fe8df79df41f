"""End-to-end: a live 3-node wrapped cluster serving the lock API."""

import asyncio

from repro.service import (
    ClusterConfig,
    LoadgenConfig,
    LocalCluster,
    LockClient,
    run_loadgen,
)
from repro.service.monitor import revalidate_trace


def boot_config(**overrides):
    return ClusterConfig(
        algorithm="ra",
        n=3,
        theta=8,
        wrapper_tick_s=0.005,
        **overrides,
    )


class TestLiveCluster:
    def test_acquire_release_cycle_single_client(self):
        async def scenario():
            cluster = LocalCluster(boot_config())
            await cluster.start()
            client = LockClient()
            await client.connect("127.0.0.1", cluster.client_ports()[0])
            for _ in range(3):
                req_id = await asyncio.wait_for(client.acquire(), timeout=10)
                await client.release(req_id)
            await client.close()
            report = await cluster.stop()
            return report, cluster.total_grants()

        report, grants = asyncio.run(scenario())
        assert grants == 3
        assert report.me1 == ()
        assert report.me3 == ()
        assert sum(r.entries for r in report.me2) == 3

    def test_contended_load_zero_violations_and_offline_parity(
        self, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"

        async def scenario():
            cluster = LocalCluster(
                boot_config(trace_path=str(trace_path))
            )
            await cluster.start()
            result = await run_loadgen(
                LoadgenConfig(
                    ports=tuple(cluster.client_ports()),
                    clients=6,
                    ops_per_client=5,
                    acquire_timeout_s=20.0,
                )
            )
            report = await cluster.stop()
            return result, report

        result, report = asyncio.run(scenario())
        assert result.grants == 30
        assert result.errors == 0
        assert report.me1 == ()
        assert report.me3 == ()
        # The persisted trace re-validates offline to the same verdict.
        offline = revalidate_trace(trace_path)
        assert offline.me1 == report.me1
        assert offline.me3 == report.me3
        assert offline.trace_length == report.trace_length
        assert offline.me2 == report.me2

    def test_link_cut_stalls_then_heal_resumes_grants(self):
        async def scenario():
            cluster = LocalCluster(boot_config(recovery=False))
            await cluster.start()
            client = LockClient()
            await client.connect("127.0.0.1", cluster.client_ports()[0])
            req_id = await asyncio.wait_for(client.acquire(), timeout=10)
            await client.release(req_id)
            # Fully partition p0: RA needs replies from every peer, so the
            # next acquire through p0 must stall...
            cluster.network.cut(["p0"])
            stalled = False
            try:
                await asyncio.wait_for(client.acquire(), timeout=0.5)
            except asyncio.TimeoutError:
                stalled = True
            # The timed-out request is still queued server-side; drop the
            # connection (as the loadgen does) so the frontend discards it.
            await client.close()
            # ...until the partition heals and W retransmits.
            cluster.network.heal_all()
            for node in cluster.nodes.values():
                node.kick()
            await client.connect("127.0.0.1", cluster.client_ports()[0])
            req_id = await asyncio.wait_for(client.acquire(), timeout=20)
            await client.release(req_id)
            await client.close()
            report = await cluster.stop()
            return stalled, cluster.total_grants(), report

        stalled, grants, report = asyncio.run(scenario())
        assert stalled
        assert grants >= 2
        assert report.me1 == ()
        assert report.me3 == ()

    def test_verdict_artifact_is_stamped_and_verifies(self):
        from repro.durable import verify_stamp
        from repro.service.cluster import VERDICT_SCHEMA_VERSION

        async def scenario():
            cluster = LocalCluster(boot_config())
            await cluster.start()
            report = await cluster.stop()
            return cluster.verdict_artifact(report)

        artifact = asyncio.run(scenario())
        verify_stamp(artifact, VERDICT_SCHEMA_VERSION)
        assert artifact["kind"] == "service-verdict"
        assert artifact["me1_violations"] == 0
