"""Golden fixture: blocking calls reachable from event-loop callbacks.

No ``async def`` here reaches a blocking call: the loop enters this code
through ``asyncio.Protocol`` methods and ``call_soon``/``call_later``
targets, and a stall inside one of those freezes the loop just the same.
"""

import asyncio
import time


def settle():
    time.sleep(0.01)  # blocking, flagged where a callback calls it


class Parser(asyncio.Protocol):
    def data_received(self, data):
        time.sleep(0.1)  # MARK[AIO-BLOCK]
        self.frame_received(data)

    def frame_received(self, frame):
        pass

    def connection_lost(self, exc):
        settle()  # MARK[AIO-BLOCK]

    def helper_nobody_schedules(self):
        time.sleep(0.1)  # not a loop callback, not reached from one


class Handler(Parser):
    """Overrides what the base's ``data_received`` dispatches to."""

    def frame_received(self, frame):
        time.sleep(0.1)  # MARK[AIO-BLOCK]


class Ticker:
    def __init__(self, loop):
        self._loop = loop

    def start(self):
        self._loop.call_later(1.0, self._tick)
        self._loop.call_soon(flush)

    def _tick(self):
        time.sleep(0.1)  # MARK[AIO-BLOCK]
        self._loop.call_later(1.0, self._tick)


def flush():
    settle()  # MARK[AIO-BLOCK]


class Offloading(asyncio.Protocol):
    def __init__(self, loop):
        self._loop = loop

    def data_received(self, data):
        # handed over uncalled: the executor's thread sleeps, not the loop
        self._loop.run_in_executor(None, time.sleep, 0.1)
        self._loop.run_in_executor(None, settle)
