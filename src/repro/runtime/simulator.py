"""The simulator: asynchronous interleaving of processes and deliveries.

One simulator *step* is either the delivery of one channel-head message to
its receiver, or the execution of one enabled internal action at one
process -- exactly the interleaving semantics of the paper's system model
(asynchronous execution, arbitrary finite message delays realized by the
scheduler's choices).

The simulator records a full :class:`~repro.runtime.trace.Trace` (global
state snapshots, step records, event log) and offers the fault injector a
hook before every step.  Everything stochastic flows through explicitly
seeded ``random.Random`` instances: runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Protocol

from repro.clocks.happened_before import RecordedEvent
from repro.clocks.timestamps import Timestamp
from repro.dsl.guards import Effect
from repro.dsl.program import ProcessProgram
from repro.runtime.network import Network
from repro.runtime.process import CRASHED, LIVE, RECOVERING, ProcessRuntime
from repro.runtime.scheduler import (
    DeliverStep,
    InternalStep,
    Scheduler,
    Step,
)
from repro.runtime.trace import GlobalState, StepRecord, Trace


class FaultHook(Protocol):
    """A fault injector: may mutate the simulator before each step."""

    def before_step(self, simulator: "Simulator", step_index: int) -> list[str]:
        """Inject faults; return human-readable descriptions of what struck."""
        ...


class Simulator:
    """Drives a set of processes over a network under a scheduler."""

    def __init__(
        self,
        programs: Mapping[str, ProcessProgram],
        scheduler: Scheduler,
        fault_hook: FaultHook | None = None,
        overrides: Mapping[str, Mapping[str, Any]] | None = None,
        record_states: bool = True,
    ):
        pids = tuple(sorted(programs))
        if len(pids) < 2:
            raise ValueError("need at least two processes")
        self.network = Network(pids)
        self.processes: dict[str, ProcessRuntime] = {
            pid: ProcessRuntime(
                pid,
                programs[pid],
                pids,
                overrides=(overrides or {}).get(pid),
            )
            for pid in pids
        }
        self.scheduler = scheduler
        self.fault_hook = fault_hook
        self.record_states = record_states
        self.record_trace = True
        self.trace = Trace()
        self._next_event_uid = 0
        self.step_index = 0
        if record_states:
            self.trace.states.append(self.snapshot())

    # -- forking --------------------------------------------------------------

    def fork(self) -> "Simulator":
        """A copy-on-write clone positioned at the current global state.

        Process variables and channel queues are copied; the immutable
        programs and :class:`~repro.runtime.messages.Message` instances are
        shared.  The clone starts with a fresh, empty trace and does not
        record states or steps (``record_trace=False``) -- it is a branch
        point for state-space exploration, not a recorded run.  The fault
        hook is *not* inherited: a fork explores the fault-free transition
        relation from wherever its parent stands.

        Compared to rebuilding a :class:`Simulator` from a snapshot, a fork
        skips network construction, program re-validation, and snapshot
        re-materialisation -- this is what makes global state-space
        exploration affordable (see :mod:`repro.explore`).
        """
        clone = Simulator.__new__(Simulator)
        clone.network = self.network.fork()
        clone.processes = {
            pid: proc.fork() for pid, proc in self.processes.items()
        }
        clone.scheduler = self.scheduler.fork()
        clone.fault_hook = None
        clone.record_states = False
        clone.record_trace = False
        clone.trace = Trace()
        clone._next_event_uid = self._next_event_uid
        clone.step_index = self.step_index
        return clone

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> GlobalState:
        """Hashable global state: all process vars + channel contents
        (message uids erased)."""
        processes = tuple(
            (pid, proc.snapshot()) for pid, proc in sorted(self.processes.items())
        )
        channels = tuple(
            (key, tuple((m.kind, m.payload) for m in content))
            for key, content in self.network.snapshot()
        )
        return GlobalState(processes, channels, self.network.down_links())

    # -- step enumeration -------------------------------------------------

    def candidate_steps(self) -> list[Step]:
        """Everything that could happen next: one deliver step per
        non-empty channel whose link is up and whose receiver is not
        crashed, plus every enabled internal action of a non-crashed
        process."""
        processes = self.processes
        steps: list[Step] = [
            chan.deliver_step
            for chan in self.network.deliverable_channels()
            if processes[chan.dst].status != CRASHED
        ]
        for proc in processes.values():
            if proc.status != CRASHED:
                steps.extend(proc.enabled_internal_steps())
        return steps

    # -- execution ----------------------------------------------------------

    def _fresh_event_uid(self) -> int:
        self._next_event_uid += 1
        return self._next_event_uid

    def _record_event(
        self, pid: str, label: str, send_uid: int | None, pre_clock: int
    ) -> RecordedEvent:
        proc = self.processes[pid]
        clock = proc.variables.get("lc", 0)
        if not isinstance(clock, int) or clock < 0:
            clock = 0
        event = RecordedEvent(
            uid=self._fresh_event_uid(),
            pid=pid,
            kind=label,
            timestamp=Timestamp(clock, pid),
            send_uid=send_uid,
            step_index=self.step_index,
            clock_event=clock != pre_clock,
        )
        if self.record_trace:
            self.trace.events.append(event)
        return event

    def _apply_sends(self, pid: str, effect: Effect, event_uid: int) -> tuple[tuple[str, str], ...]:
        sent: list[tuple[str, str]] = []
        clock = self.processes[pid].variables.get("lc")
        sender_clock = clock if isinstance(clock, int) and clock >= 0 else None
        for send in effect.sends:
            self.network.send(
                send.kind,
                pid,
                send.receiver,
                send.payload,
                send_event_uid=event_uid,
                sender_clock=sender_clock,
            )
            sent.append((send.kind, send.receiver))
        return tuple(sent)

    def execute(self, step: Step, faults: tuple[str, ...] = ()) -> StepRecord:
        """Execute one chosen step and record it on the trace."""
        if isinstance(step, DeliverStep):
            record = self._execute_deliver(step, faults)
        else:
            record = self._execute_internal(step, faults)
        if self.record_trace:
            self.trace.steps.append(record)
        if self.record_states:
            self.trace.states.append(self.snapshot())
        self.step_index += 1
        return record

    def _execute_deliver(
        self, step: DeliverStep, faults: tuple[str, ...]
    ) -> StepRecord:
        chan = self.network.channel(step.src, step.dst)
        message = chan.dequeue()
        proc = self.processes[step.dst]
        pre_clock = proc.variables.get("lc", 0)
        if not isinstance(pre_clock, int) or pre_clock < 0:
            pre_clock = 0
        effect = proc.execute_receive(message)
        if proc.status == RECOVERING:
            proc.status = LIVE
        sends: tuple[tuple[str, str], ...] = ()
        action_name = None
        if effect is not None:
            # An effect means a handler ran, so there is one to name.
            action_name = proc.program.receive_action_for(message.kind).name
            if self.record_trace:
                event_uid = self._record_event(
                    step.dst,
                    action_name or f"recv:{message.kind}",
                    message.send_event_uid,
                    pre_clock,
                ).uid
            else:
                event_uid = self._fresh_event_uid()
            sends = self._apply_sends(step.dst, effect, event_uid)
        return StepRecord(
            index=self.step_index,
            kind="deliver",
            pid=step.dst,
            action=action_name,
            delivered_kind=message.kind,
            delivered_from=step.src,
            sends=sends,
            faults=faults,
        )

    def _execute_internal(
        self, step: InternalStep, faults: tuple[str, ...]
    ) -> StepRecord:
        proc = self.processes[step.pid]
        act = proc.program.internal_action(step.action)
        if act is None:
            raise KeyError(f"{step.pid} has no action {step.action!r}")
        pre_clock = proc.variables.get("lc", 0)
        if not isinstance(pre_clock, int) or pre_clock < 0:
            pre_clock = 0
        effect = proc.execute_internal(act)
        if proc.status == RECOVERING:
            proc.status = LIVE
        if self.record_trace:
            event_uid = self._record_event(
                step.pid, step.action, None, pre_clock
            ).uid
        else:
            event_uid = self._fresh_event_uid()
        sends = self._apply_sends(step.pid, effect, event_uid)
        return StepRecord(
            index=self.step_index,
            kind="internal",
            pid=step.pid,
            action=step.action,
            sends=sends,
            faults=faults,
        )

    def _stutter(self, faults: tuple[str, ...]) -> StepRecord:
        record = StepRecord(index=self.step_index, kind="stutter", faults=faults)
        if self.record_trace:
            self.trace.steps.append(record)
        if self.record_states:
            self.trace.states.append(self.snapshot())
        self.step_index += 1
        return record

    def run(self, steps: int) -> Trace:
        """Run ``steps`` scheduler steps (stuttering when nothing is
        enabled) and return the accumulated trace."""
        for _ in range(steps):
            self.step()
        return self.trace

    def crash_process(
        self,
        pid: str,
        restart_at: int | None = None,
        restart_vars: Mapping[str, Any] | None = None,
    ) -> int:
        """Crash ``pid``: volatile state and queued incoming mail are lost.

        Returns the number of in-flight messages dropped.  ``restart_at``
        schedules an automatic revival (processed by :meth:`step`);
        ``restart_vars`` pins the (improper) valuation it restarts from.
        """
        proc = self.processes[pid]
        proc.crash(restart_at=restart_at, restart_vars=restart_vars)
        dropped = 0
        for src in self.network.pids:
            if src != pid:
                dropped += self.network.channel(src, pid).clear()
        return dropped

    def _lifecycle_events(self) -> list[str]:
        """Timed revivals and heals that are due at the current step.

        These live in the runtime (not in any fault injector) so a
        ``Windowed`` fault window can close while restarts and heals
        scheduled beyond it still fire -- and so replay reproduces them
        without recording extra decisions.
        """
        now = self.step_index
        events = [
            f"heal:{src}->{dst}" for src, dst in self.network.heal_due(now)
        ]
        # ``processes`` is keyed in sorted pid order (see ``__init__``).
        for pid, proc in self.processes.items():
            if (
                proc.status == CRASHED
                and proc.restart_at is not None
                and proc.restart_at <= now
            ):
                proc.restart()
                events.append(f"restart:{pid}")
        return events

    def step(self) -> StepRecord:
        """Execute one step: fault hook, timed lifecycle events (heals /
        restarts that are due), then one scheduled action."""
        faults: tuple[str, ...] = ()
        if self.fault_hook is not None:
            faults = tuple(self.fault_hook.before_step(self, self.step_index))
        lifecycle = self._lifecycle_events()
        if lifecycle:
            faults = faults + tuple(lifecycle)
        candidates = self.candidate_steps()
        if not candidates:
            return self._stutter(faults)
        chosen = self.scheduler.choose(candidates, self.step_index)
        return self.execute(chosen, faults)

    @property
    def is_quiescent(self) -> bool:
        """No message in flight and no enabled internal action anywhere."""
        return not self.candidate_steps()
