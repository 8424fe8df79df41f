"""Hostile sockets against a live cluster.

The lock port is a trust boundary: whoever connects is outside the
program.  Each attack below is thrown at a running n=3 ``LocalCluster``
over a raw socket; afterwards a well-behaved :class:`LockClient` must
still complete a cycle promptly, the verdict must be clean, nothing may
reach the event loop's exception handler (asyncio would log it), and no
server-side parser may have held back more than one unfinished frame.
"""

import asyncio
import struct

import pytest

from repro.service import ClusterConfig, LocalCluster, LockClient
from repro.service.wire import (
    MAX_FRAME_BYTES,
    FrameProtocol,
    decode_body,
    encode_frame,
)

CYCLE_TIMEOUT_S = 2.0
#: the longest frame any attack below announces (``stalled_mid_frame``)
LONGEST_FRAME = 4 + 100
ACQUIRE = encode_frame({"t": "acquire", "id": 7})
RELEASE = encode_frame({"t": "release", "id": 7})


async def read_reply(reader):
    """One frame off a raw connection (test-side reader)."""
    (length,) = struct.unpack(">I", await reader.readexactly(4))
    return decode_body(await reader.readexactly(length))


async def closed_by_server(reader):
    return await asyncio.wait_for(reader.read(), CYCLE_TIMEOUT_S) == b""


# -- the attacks: ``attack(host, port, cluster)`` -> what to assert on ------


def refused(blob):
    """Send ``blob``; the server must answer by closing the connection."""

    async def attack(host, port, cluster):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(blob)
        closed = await closed_by_server(reader)
        writer.close()
        return closed

    return attack


async def half_open(host, port, cluster):
    """Connect and never send: the connection just sits there."""
    _reader, writer = await asyncio.open_connection(host, port)
    await asyncio.sleep(0.05)
    return writer  # still open while the good client cycles


async def stalled_mid_frame(host, port, cluster):
    """A prefix promising 100 bytes, 10 of them, then silence."""
    _reader, writer = await asyncio.open_connection(host, port)
    writer.write(struct.pack(">I", LONGEST_FRAME - 4) + b'{"t":"acqu')
    await asyncio.sleep(0.05)
    return writer


async def dripped_acquire(host, port, cluster):
    """A valid acquire, one byte per write: it must be granted."""
    reader, writer = await asyncio.open_connection(host, port)
    for i in range(len(ACQUIRE)):
        writer.write(ACQUIRE[i : i + 1])
        await writer.drain()
        await asyncio.sleep(0)
    grant = await asyncio.wait_for(read_reply(reader), CYCLE_TIMEOUT_S)
    writer.write(RELEASE)
    released = await asyncio.wait_for(read_reply(reader), CYCLE_TIMEOUT_S)
    writer.close()
    return grant, released


async def acquire_then_vanish(host, port, cluster):
    """Take the lock and disappear: the hold must not outlive the
    connection, and the next waiter must get the lock."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(ACQUIRE)
    grant = await asyncio.wait_for(read_reply(reader), CYCLE_TIMEOUT_S)
    waiter = LockClient()
    await waiter.connect(host, port)
    pending = asyncio.ensure_future(waiter.acquire())
    await asyncio.sleep(0.05)
    assert not pending.done()  # the vanishing client still holds the lock
    writer.close()
    req_id = await asyncio.wait_for(pending, CYCLE_TIMEOUT_S)
    await waiter.release(req_id)
    await waiter.close()
    return grant, cluster.frontend_stats()["p0"]["orphan_releases"]


ATTACKS = {
    "oversized-length-prefix": refused(
        struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x" * 64
    ),
    "malformed-json": refused(struct.pack(">I", 4) + b"{bad"),
    "not-utf8": refused(struct.pack(">I", 4) + b"\xff\xfe{}"),
    "non-object-body": refused(encode_frame([1, 2])),  # type: ignore[arg-type]
    "ill-typed-id": refused(encode_frame({"t": "acquire", "id": "x"})),
    "bad-frame-after-good": refused(ACQUIRE + struct.pack(">I", 2) + b"}{"),
    "hello-then-garbage": refused(
        encode_frame({"t": "hello", "pid": "p1"}) + encode_frame({"t": "msg"})
    ),
    "half-open": half_open,
    "stalled-mid-frame": stalled_mid_frame,
    "dripped-acquire": dripped_acquire,
    "acquire-then-vanish": acquire_then_vanish,
}


@pytest.fixture
def peak_buffered(monkeypatch):
    """The most any parser in the process held back after a chunk."""
    peak = [0]
    data_received = FrameProtocol.data_received

    def watching(self, data):
        data_received(self, data)
        peak[0] = max(peak[0], self.buffered())

    monkeypatch.setattr(FrameProtocol, "data_received", watching)
    return peak


@pytest.mark.parametrize("name", list(ATTACKS))
def test_attack_then_a_well_behaved_client_still_cycles(
    name, caplog, peak_buffered
):
    async def scenario():
        cluster = LocalCluster(ClusterConfig("ra", n=3, theta=8))
        await cluster.start()
        host, port = "127.0.0.1", cluster.client_ports()[0]
        try:
            outcome = await ATTACKS[name](host, port, cluster)
            client = LockClient()
            await client.connect(host, port)
            req_id = await asyncio.wait_for(client.acquire(), CYCLE_TIMEOUT_S)
            await asyncio.wait_for(client.release(req_id), CYCLE_TIMEOUT_S)
            await client.close()
            if isinstance(outcome, asyncio.StreamWriter):
                outcome.close()  # the connection an attack left open
        finally:
            report = await cluster.stop()
        return outcome, report, cluster

    outcome, report, cluster = asyncio.run(scenario())
    assert report.me1 == () and report.me3 == ()
    assert not [r for r in caplog.records if r.name == "asyncio"], caplog.text
    # one unfinished frame at most
    assert peak_buffered[0] < LONGEST_FRAME
    grants = cluster.total_grants()
    if name == "dripped-acquire":
        assert outcome == ({"t": "grant", "id": 7}, {"t": "released", "id": 7})
        assert grants == 2
    elif name == "acquire-then-vanish":
        grant, orphan_releases = outcome
        assert grant == {"t": "grant", "id": 7}
        assert orphan_releases >= 1 and grants == 3
    elif name == "bad-frame-after-good":
        # the acquire before the bad frame was served, then the connection
        # closed: its waiter is gone, and the lock went to the good client
        assert outcome is True and grants == 1
        assert cluster.frontend_stats()["p0"]["acquires"] == 2
    elif name in ("half-open", "stalled-mid-frame"):
        assert grants == 1
    else:
        assert outcome is True and grants == 1
    if name == "hello-then-garbage":
        assert cluster.network.total_dropped() == 1
