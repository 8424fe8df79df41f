"""SocketTransport / ClusterNetwork: real sockets, link-cut semantics."""

import asyncio

import pytest

from repro.runtime.network import Network
from repro.runtime.transport import Transport
from repro.service.transport import ClusterNetwork, SocketTransport

PIDS = ("p0", "p1")


async def make_pair(inboxes):
    """Two interconnected transports on ephemeral localhost ports."""
    transports = {
        pid: SocketTransport(
            pid, PIDS, deliver=lambda m, p=pid: inboxes[p].append(m)
        )
        for pid in PIDS
    }
    addresses = {}
    for pid, transport in transports.items():
        addresses[pid] = await transport.start("127.0.0.1", 0)
    for transport in transports.values():
        transport.set_peers(addresses)
    for transport in transports.values():
        await transport.connect_peers()
    return transports


async def drain(predicate, timeout=2.0):
    """Poll until ``predicate()`` or time out (frames cross a real kernel)."""
    for _ in range(int(timeout / 0.01)):
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return predicate()


async def stop_all(transports):
    for transport in transports.values():
        await transport.stop()


class TestSocketTransport:
    def test_send_delivers_over_real_socket(self):
        async def scenario():
            inboxes = {pid: [] for pid in PIDS}
            transports = await make_pair(inboxes)
            sent = transports["p0"].send("request", "p0", "p1", {"k": 1})
            assert await drain(lambda: inboxes["p1"])
            await stop_all(transports)
            return sent, inboxes["p1"][0]

        sent, got = asyncio.run(scenario())
        assert got.kind == "request"
        assert got.payload == {"k": 1}
        assert got.uid == sent.uid

    def test_cut_link_drops_then_heal_resumes(self):
        async def scenario():
            inboxes = {pid: [] for pid in PIDS}
            transports = await make_pair(inboxes)
            transports["p0"].cut_link("p0", "p1")
            transports["p0"].send("request", "p0", "p1", None)
            await asyncio.sleep(0.05)
            dropped = (len(inboxes["p1"]), transports["p0"].total_dropped())
            assert transports["p0"].heal_link("p0", "p1")
            transports["p0"].send("request", "p0", "p1", None)
            resumed = await drain(lambda: inboxes["p1"])
            await stop_all(transports)
            return dropped, resumed

        (delivered_while_cut, dropped), resumed = asyncio.run(scenario())
        assert delivered_while_cut == 0
        assert dropped == 1
        assert resumed

    def test_receiver_side_mask_discards_inflight_frames(self):
        async def scenario():
            inboxes = {pid: [] for pid in PIDS}
            transports = await make_pair(inboxes)
            # Only the *receiver* masks the link: the sender still writes
            # the frame, and p1 discards it on arrival.
            transports["p1"].cut_link("p0", "p1")
            transports["p0"].send("request", "p0", "p1", None)
            await drain(lambda: transports["p1"].total_dropped() > 0)
            counts = (len(inboxes["p1"]), transports["p1"].total_dropped())
            await stop_all(transports)
            return counts

        delivered, dropped = asyncio.run(scenario())
        assert delivered == 0
        assert dropped == 1

    def test_dead_outbound_link_is_noticed_and_reconnected(self, caplog):
        """A write to a lost connection does not raise, so no send ever
        fails: the outbound side must notice the loss itself."""

        async def scenario():
            inboxes = {pid: [] for pid in PIDS}
            transports = await make_pair(inboxes)
            p0, p1 = transports["p0"], transports["p1"]
            p0.send("request", "p0", "p1", 0)
            assert await drain(lambda: inboxes["p1"])
            # p1 drops the connection p0 writes to
            for connection in list(p1._inbound):
                connection.transport.close()
            assert await drain(lambda: "p1" not in p0._writers)
            p0.send("request", "p0", "p1", "while down")
            lost = (p0.total_dropped(), len(inboxes["p1"]))
            assert await drain(lambda: "p1" in p0._writers)
            for i in range(1, 21):
                p0.send("request", "p0", "p1", i)
            resumed = await drain(lambda: len(inboxes["p1"]) == 21)
            await stop_all(transports)
            return lost, resumed, [m.payload for m in inboxes["p1"]]

        lost, resumed, payloads = asyncio.run(scenario())
        assert lost == (1, 1)  # counted as dropped, not delivered
        assert resumed and payloads == list(range(21))
        assert "socket.send() raised" not in caplog.text

    def test_malformed_peer_frames_are_dropped_not_raised(self, caplog):
        """Corrupted on the wire = lost: counted, connection closed, and
        nothing reaches the loop's exception handler."""
        from repro.service.wire import encode_frame

        hostile = [
            b"\x00\x00\x00\x04{bad",
            encode_frame({"t": "msg"}),
            encode_frame({"t": "msg", "uid": 1, "kind": "k", "src": "p0",
                          "dst": "p1", "payload": {"%ts": "x"}}),
            (1 << 30).to_bytes(4, "big"),
        ]

        async def scenario():
            inboxes = {pid: [] for pid in PIDS}
            transports = await make_pair(inboxes)
            host, port = transports["p1"]._server.sockets[0].getsockname()[:2]
            for blob in hostile:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame({"t": "hello", "pid": "p0"}) + blob)
                assert await reader.read() == b""  # p1 closed the connection
                writer.close()
            dropped = transports["p1"].total_dropped()
            # the real p0 -> p1 link is unharmed
            transports["p0"].send("request", "p0", "p1", "ok")
            assert await drain(lambda: inboxes["p1"])
            await stop_all(transports)
            return dropped, inboxes["p1"]

        dropped, delivered = asyncio.run(scenario())
        assert dropped == len(hostile)
        assert [m.payload for m in delivered] == ["ok"]
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_uid_residues_disjoint_across_nodes(self):
        async def scenario():
            inboxes = {pid: [] for pid in PIDS}
            transports = await make_pair(inboxes)
            uids = {
                pid: [transports[pid].fresh_uid() for _ in range(5)]
                for pid in PIDS
            }
            await stop_all(transports)
            return uids

        uids = asyncio.run(scenario())
        everything = uids["p0"] + uids["p1"]
        assert len(set(everything)) == len(everything)
        stride = len(PIDS) + 1
        assert {u % stride for u in uids["p0"]} == {1}
        assert {u % stride for u in uids["p1"]} == {2}

    def test_send_as_other_pid_rejected(self):
        transport = SocketTransport("p0", PIDS, deliver=lambda m: None)
        with pytest.raises(ValueError):
            transport.send("request", "p1", "p0", None)

    def test_cut_requires_incident_link(self):
        transport = SocketTransport(
            "p0", ("p0", "p1", "p2"), deliver=lambda m: None
        )
        with pytest.raises(KeyError):
            transport.cut_link("p1", "p2")


class TestClusterNetwork:
    def make(self):
        transports = {
            pid: SocketTransport(pid, PIDS, deliver=lambda m: None)
            for pid in PIDS
        }
        return ClusterNetwork(transports), transports

    def test_cut_pushes_masks_to_both_endpoints(self):
        network, transports = self.make()
        links = network.cut(["p0"])
        assert links == (("p0", "p1"), ("p1", "p0"))
        for src, dst in links:
            assert not transports[src].link_up(src, dst)
            assert not transports[dst].link_up(src, dst)
        network.heal_all()
        for src, dst in links:
            assert transports[src].link_up(src, dst)
            assert transports[dst].link_up(src, dst)

    def test_heal_due_is_scheduled(self):
        network, transports = self.make()
        network.cut_link("p0", "p1", heal_at=5)
        assert network.heal_due(4) == ()
        assert network.heal_due(5) == (("p0", "p1"),)
        assert network.link_up("p0", "p1")
        assert transports["p1"].link_up("p0", "p1")

    def test_cut_validates_pids(self):
        network, _ = self.make()
        with pytest.raises(ValueError):
            network.cut(["nope"])

    def test_facade_uids_use_residue_zero(self):
        network, transports = self.make()
        stride = len(PIDS) + 1
        uids = [network.fresh_uid() for _ in range(4)]
        assert {u % stride for u in uids} == {0}
        assert len(set(uids + [transports["p0"].fresh_uid()])) == 5

    def test_flush_all_drains_registered_hooks(self):
        network, _ = self.make()
        network.add_flush_hook(lambda: 3)
        network.add_flush_hook(lambda: 2)
        assert network.flush_all() == 5


class TestTransportConformance:
    """Both media satisfy the runtime's structural Transport contract."""

    def test_network_is_a_transport(self):
        assert isinstance(Network(PIDS), Transport)

    def test_socket_transport_is_a_transport(self):
        transport = SocketTransport("p0", PIDS, deliver=lambda m: None)
        assert isinstance(transport, Transport)

    def test_cluster_network_is_a_transport(self):
        transports = {
            pid: SocketTransport(pid, PIDS, deliver=lambda m: None)
            for pid in PIDS
        }
        assert isinstance(ClusterNetwork(transports), Transport)
