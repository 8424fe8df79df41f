"""One live node: a ProcessRuntime driven by event-loop callbacks.

The simulator advances a process when its scheduler picks one of the
process's enabled steps; a live node advances itself.  :class:`ServiceNode`
runs the *same* :class:`~repro.runtime.process.ProcessRuntime` (protocol +
wrapper, composed exactly as in the simulator) with the event loop as the
scheduler:

* **Deliveries are immediate.**  Frames arriving from the transport are
  queued on the node's inbox and drained on the loop's next pass; the
  kernel's socket buffers play the role of the simulator's channels, and
  arrival order is whatever the wire produced (the asynchronous model
  assumes nothing more).

* **Protocol actions are eager.**  Enabled internal actions of the
  implementation (``ra:request``, ``ra:grant``, ...) run until none is
  enabled -- a node never sits on an enabled grant.

* **Wrapper actions are paced.**  In the simulator, W' counts its theta
  timeout in interleaved scheduler steps; at CPU speed that would be a
  retransmit storm.  Here each ``W:``-prefixed action (tick or correct)
  runs at most once per ``wrapper_tick_s`` of monotonic loop time, making
  ``theta * wrapper_tick_s`` the real-time correction period.

* **Client tick actions do not run at all.**  The TME client
  (``client:think-tick`` / ``client:eat-tick``) models the *environment*;
  in the live service the environment is real -- the lock API
  (:mod:`repro.service.lockapi`) implements the Client Spec by setting the
  timers directly when callers acquire and release.

The node asks only the guards it can act on.  There is no scheduler to
offer the whole enabled set to, so after each step it asks its protocol
actions alone, and it consults the wrapper when the tick is due and not
before -- the paper's W' is consulted on a timeout, not at every step.
The client actions are never asked.  (The runtime's enabled-set memo
records which of these questions it answered; see
:mod:`repro.runtime.process`.)

There is no node task.  An arrival or a :meth:`ServiceNode.kick` schedules
one ``step_batch(False)`` with ``call_soon`` unless one is already
scheduled, so everything the loop's current pass reads off its sockets
lands in the same batch; a repeating ``call_later(wrapper_tick_s)`` runs
``step_batch(True)``.  A timer that fires late re-arms from when it
fired, so W' never runs more often than once per ``wrapper_tick_s``.

Every executed step reports through the ``emit`` callback so the cluster
can stamp a totally ordered event trace for the online monitor.
"""

from __future__ import annotations

import asyncio
from collections import deque
from collections.abc import Callable

from repro.dsl.guards import Effect, GuardedAction
from repro.runtime.messages import Message
from repro.runtime.process import LIVE, RECOVERING, ProcessRuntime
from repro.service.transport import SocketTransport

#: Real-time length of one wrapper scheduler step (see module docstring).
DEFAULT_WRAPPER_TICK_S = 0.005

#: Called after each executed step with the action (or handler) name.
EmitFn = Callable[[str], None]


class ServiceNode:
    """One process of the live cluster (see module docstring)."""

    def __init__(
        self,
        runtime: ProcessRuntime,
        transport: SocketTransport,
        emit: EmitFn,
        wrapper_tick_s: float = DEFAULT_WRAPPER_TICK_S,
    ):
        self.pid = runtime.pid
        self.runtime = runtime
        self.transport = transport
        self._emit = emit
        self.wrapper_tick_s = wrapper_tick_s
        actions = runtime.program.actions
        self._wrapper_actions = tuple(
            a for a in actions if a.name.startswith("W:")
        )
        self._protocol_actions = tuple(
            a for a in actions if not a.name.startswith(("client:", "W:"))
        )
        self._inbox: deque[Message] = deque()
        #: the loop driving the node; ``None`` while stopped
        self._loop: asyncio.AbstractEventLoop | None = None
        self._batch_scheduled = False
        self._tick_handle: asyncio.TimerHandle | None = None
        self.steps_executed = 0
        #: Called (with no arguments) whenever the node settles, i.e. after
        #: every batch of steps; the lock frontend hooks in here.  Returns
        #: whether it changed state (so the node re-evaluates guards).
        self.on_settle: Callable[[], bool] | None = None

    # -- transport-facing -----------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Inbox a message from the wire (the transport's deliver hook)."""
        self._inbox.append(message)
        self.kick()

    def kick(self) -> None:
        """Schedule a batch: after an arrival, or after out-of-band state
        changes (lock frontend timer writes, recovery interventions).  A
        no-op while one is already scheduled or the node is stopped."""
        if self._loop is not None and not self._batch_scheduled:
            self._batch_scheduled = True
            self._loop.call_soon(self._on_kick)

    def drain_inbox(self) -> int:
        """Drop all queued, undelivered messages (the cluster registers
        this as the transport's flush hook for global resets)."""
        dropped = len(self._inbox)
        self._inbox.clear()
        return dropped

    # -- stepping -------------------------------------------------------------

    def _apply_sends(self, effect: Effect) -> None:
        clock = self.runtime.variables.get("lc")
        sender_clock = clock if isinstance(clock, int) and clock >= 0 else None
        for send in effect.sends:
            self.transport.send(
                send.kind,
                self.pid,
                send.receiver,
                send.payload,
                sender_clock=sender_clock,
            )

    def _finish_step(self, label: str, effect: Effect | None) -> None:
        if self.runtime.status == RECOVERING:
            self.runtime.status = LIVE
        self.steps_executed += 1
        if effect is not None:
            self._apply_sends(effect)
        self._emit(label)

    def _deliver_one(self, message: Message) -> None:
        effect = self.runtime.execute_receive(message)
        handler = self.runtime.program.receive_action_for(message.kind)
        label = handler.name if handler else f"recv:{message.kind}"
        self._finish_step(label, effect)

    def _run_first_enabled(self, among: tuple[GuardedAction, ...]) -> bool:
        """Execute the first enabled action of ``among`` in program order
        (only their guards are asked); returns whether one ran."""
        enabled = self.runtime.enabled_internal_actions(among=among)
        if not enabled:
            return False
        action = enabled[0]
        self._finish_step(action.name, self.runtime.execute_internal(action))
        return True

    def step_batch(self, wrapper_due: bool) -> bool:
        """Drain the inbox and run eager actions until quiescent; run at
        most one wrapper action when the pacing tick is due.  Returns
        whether anything executed."""
        inbox = self._inbox
        ran = False
        progressed = True
        while progressed:
            progressed = False
            if not self.runtime.is_live:
                self.drain_inbox()
                break
            while inbox:
                self._deliver_one(inbox.popleft())
                progressed = True
            if self._run_first_enabled(self._protocol_actions):
                progressed = True
            if wrapper_due and self._run_first_enabled(self._wrapper_actions):
                progressed = True
                wrapper_due = False
            if self.on_settle is not None and self.on_settle():
                progressed = True
            ran = ran or progressed
        return ran

    # -- the loop's two callbacks ---------------------------------------------

    def _on_kick(self) -> None:
        self._batch_scheduled = False
        if self._loop is not None:
            self.step_batch(False)

    def _arm_tick(self) -> None:
        self._tick_handle = self._loop.call_later(
            self.wrapper_tick_s, self._on_tick
        )

    def _on_tick(self) -> None:  # stop() cancels the timer: the loop is set
        self._arm_tick()
        self.step_batch(True)

    def start(self) -> None:
        """Attach to the running event loop: arm the wrapper tick and run
        a first batch for whatever arrived before the start."""
        if self._loop is not None:
            raise RuntimeError(f"node {self.pid} already running")
        self._loop = asyncio.get_running_loop()
        self._arm_tick()
        self.kick()

    def stop(self) -> None:
        """Detach from the loop: no batch runs after this returns."""
        if self._tick_handle is not None:
            self._tick_handle.cancel()
            self._tick_handle = None
        self._loop = None

    def __repr__(self) -> str:
        return f"ServiceNode({self.pid}, steps={self.steps_executed})"
