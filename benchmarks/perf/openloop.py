"""Open-loop load for the lock service: requests arrive on a schedule.

Independent users do not wait for each other, so arrivals follow a
seeded Poisson schedule whatever the service is doing.  Each request is
timed from the instant it was *due*, not from when a connection was free
to send it: a stall delays every request scheduled behind it, and that
wait is the service's doing.  The generator also reports how late it
woke for requests whose connection was already idle (``lags_s``); if
that is large the run measured the generator, not the service.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Protocol


class Lock(Protocol):
    """What the generator needs of a connection (``LockClient`` has it)."""

    async def acquire(self) -> int: ...

    async def release(self, req_id: int) -> None: ...


def poisson_schedule(
    rng: random.Random, rate_per_s: float, window_s: float
) -> list[float]:
    """Arrival offsets in ``[0, window_s)`` with exponential gaps."""
    offsets = []
    at = rng.expovariate(rate_per_s)
    while at < window_s:
        offsets.append(at)
        at += rng.expovariate(rate_per_s)
    return offsets


@dataclass
class OpenLoopResult:
    """One rate's measurements, in seconds."""

    due_n: int
    window_s: float
    #: due -> grant, per granted request, in schedule order
    latencies_s: list[float] = field(default_factory=list)
    #: how late the generator woke, per request it had to sleep for
    lags_s: list[float] = field(default_factory=list)
    #: requests due inside the window but not yet granted when it closed
    backlog_at_end: int = 0
    timeouts: int = 0
    errors: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0


async def run_open_loop(
    connections: Sequence[Lock],
    schedule: Sequence[float],
    window_s: float,
    drain_s: float = 5.0,
) -> OpenLoopResult:
    """Issue ``schedule`` over ``connections`` and wait for the tail.

    Each connection is sequential (acquire, grant, release, released), so
    a request that finds every connection busy waits its turn, and its
    latency says so.  Requests still ungranted ``drain_s`` after the
    window count as timeouts.
    """
    result = OpenLoopResult(due_n=len(schedule), window_s=window_s)
    granted_at: list[float | None] = [None] * len(schedule)
    errored: set[int] = set()
    cursor = iter(range(len(schedule)))
    clock = time.perf_counter
    cpu_started = time.thread_time()
    started = clock()

    async def worker(lock: Lock) -> None:
        for index in cursor:
            due = started + schedule[index]
            wait = due - clock()
            if wait > 0:
                await asyncio.sleep(wait)
                result.lags_s.append(clock() - due)
            try:
                req_id = await lock.acquire()
                granted_at[index] = clock()
                await lock.release(req_id)
            except (ConnectionError, OSError):
                errored.add(index)
                return

    tasks = [asyncio.ensure_future(worker(lock)) for lock in connections]
    _done, pending = await asyncio.wait(tasks, timeout=window_s + drain_s)
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for task in tasks:
        if not task.cancelled() and task.exception() is not None:
            raise task.exception()
    result.wall_s = clock() - started
    result.cpu_s = time.thread_time() - cpu_started
    closes = started + window_s
    for offset, at in zip(schedule, granted_at):
        if at is None:
            result.backlog_at_end += 1
            continue
        result.latencies_s.append(at - (started + offset))
        if at > closes:
            result.backlog_at_end += 1
    result.errors = len(errored)
    result.timeouts = sum(
        1
        for index, at in enumerate(granted_at)
        if at is None and index not in errored
    )
    return result
