"""Load generation against the live lock service.

Spins up ``clients`` concurrent lock clients (each one connection, spread
round-robin over the cluster's nodes), has each run acquire -> hold ->
release -> think cycles until an op budget or a deadline runs out, and
streams every grant's latency into the campaign's quantile/ECDF machinery
(:mod:`repro.campaign.stats`).

Timing uses the monotonic clock only, and only for *measurement and
pacing* -- nothing about the workload's decisions depends on time-of-day
(or on any unseeded randomness; the workload is deterministic given its
config, modulo scheduling).

The result serializes to a stamped JSON artifact
(``schema_version`` + content hash, :func:`~repro.durable.
stamp_artifact`) that the CI service smoke re-reads and asserts on.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.campaign.stats import LatencySummary, latency_dict
from repro.durable import stamp_artifact
from repro.service.lockapi import LockClient, LockError

#: Schema of the loadgen JSON artifact.
LOADGEN_SCHEMA_VERSION = 1

#: Delay before a client retries a failed connection.
_RECONNECT_DELAY_S = 0.05


@dataclass(frozen=True)
class LoadgenConfig:
    """Workload shape for one loadgen run."""

    ports: tuple[int, ...]
    host: str = "127.0.0.1"
    clients: int = 50
    #: Stop after this much wall time (monotonic), if set.
    duration_s: float | None = None
    #: Per-client op budget, if set.  At least one bound is required.
    ops_per_client: int | None = None
    #: Critical-section hold time and inter-op think time, per client.
    hold_s: float = 0.0
    think_s: float = 0.0
    #: A single acquire stalled longer than this counts as a timeout and
    #: the client reconnects (keeps clients live through partitions).
    acquire_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if not self.ports:
            raise ValueError("need at least one port")
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.duration_s is None and self.ops_per_client is None:
            raise ValueError("set duration_s or ops_per_client (or both)")


@dataclass
class LoadgenResult:
    """What a loadgen run measured."""

    config: LoadgenConfig
    grants: int = 0
    timeouts: int = 0
    errors: int = 0
    wall_s: float = 0.0
    #: Per-grant acquire->grant latencies, in milliseconds.
    latencies_ms: list[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Grants per second over the whole run."""
        return self.grants / self.wall_s if self.wall_s > 0 else 0.0

    def latency_summary(self) -> LatencySummary:
        return LatencySummary.of(self.latencies_ms)

    def artifact(self) -> dict:
        """The stamped JSON artifact (see module docstring)."""
        payload = {
            "kind": "loadgen",
            "config": {
                "host": self.config.host,
                "ports": list(self.config.ports),
                "clients": self.config.clients,
                "duration_s": self.config.duration_s,
                "ops_per_client": self.config.ops_per_client,
                "hold_s": self.config.hold_s,
                "think_s": self.config.think_s,
            },
            "grants": self.grants,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "throughput_grants_per_s": self.throughput,
            "latency_ms": latency_dict(self.latency_summary()),
        }
        return stamp_artifact(payload, LOADGEN_SCHEMA_VERSION)

    def describe(self) -> str:
        summary = self.latency_summary()
        return (
            f"grants: {self.grants} ({self.throughput:.1f}/s over "
            f"{self.wall_s:.1f}s, {self.timeouts} timeouts, "
            f"{self.errors} errors); latency ms: "
            f"mean {summary.mean:.2f}  p50 {summary.p50:.2f}  "
            f"p95 {summary.p95:.2f}  max {summary.maximum:.2f}"
        )


async def _client_loop(
    index: int,
    config: LoadgenConfig,
    result: LoadgenResult,
    deadline: float | None,
) -> None:
    port = config.ports[index % len(config.ports)]
    client = LockClient()
    connected = False
    ops_left = config.ops_per_client

    def time_left() -> float | None:
        if deadline is None:
            return None
        return deadline - time.monotonic()

    try:
        while ops_left is None or ops_left > 0:
            remaining = time_left()
            if remaining is not None and remaining <= 0:
                return
            if not connected:
                try:
                    await client.connect(config.host, port)
                    connected = True
                except OSError:
                    result.errors += 1
                    await asyncio.sleep(_RECONNECT_DELAY_S)
                    continue
            timeout = config.acquire_timeout_s
            if remaining is not None:
                timeout = min(timeout, max(remaining, 0.01))
            started = time.monotonic()
            try:
                req_id = await asyncio.wait_for(
                    client.acquire(), timeout=timeout
                )
            except asyncio.TimeoutError:
                result.timeouts += 1
                # The pending acquire is still queued server-side; drop the
                # connection so the frontend marks it gone.
                await client.close()
                connected = False
                continue
            except (LockError, OSError):
                result.errors += 1
                await client.close()
                connected = False
                await asyncio.sleep(_RECONNECT_DELAY_S)
                continue
            result.latencies_ms.append(
                (time.monotonic() - started) * 1000.0
            )
            result.grants += 1
            if ops_left is not None:
                ops_left -= 1
            try:
                if config.hold_s > 0:
                    await asyncio.sleep(config.hold_s)
                await client.release(req_id)
            except (LockError, OSError):
                result.errors += 1
                await client.close()
                connected = False
                continue
            if config.think_s > 0:
                await asyncio.sleep(config.think_s)
    finally:
        await client.close()


async def run_loadgen(config: LoadgenConfig) -> LoadgenResult:
    """Run the workload to completion and return the measurements."""
    result = LoadgenResult(config)
    started = time.monotonic()
    deadline = (
        started + config.duration_s if config.duration_s is not None else None
    )
    tasks = [
        asyncio.ensure_future(_client_loop(i, config, result, deadline))
        for i in range(config.clients)
    ]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
    result.wall_s = time.monotonic() - started
    return result
