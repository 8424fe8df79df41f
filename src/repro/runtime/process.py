"""Process runtime: executes a guarded-command program for one process.

A :class:`ProcessRuntime` owns the mutable local variables of one process
and executes the (pure) guarded actions of its :class:`~repro.dsl.program.
ProcessProgram`, applying returned :class:`~repro.dsl.guards.Effect`\\ s
atomically.  The fault model's "transient state corruption" and "improper
initialization" act directly on :attr:`variables`.

Wrapping (the paper's ``M box W``) happens at this level by composing the
process program with a wrapper program -- see
:func:`repro.tme.wrapper.wrap_program`.  :attr:`ProcessRuntime.variables`
remains a single flat namespace, matching UNITY union semantics.

Guards are pure functions of the local view and variable values are
immutable (the :meth:`ProcessRuntime.snapshot` contract), so the enabled
set of a process can only change when one of its variables is rebound.
:meth:`ProcessRuntime.enabled_internal_actions` therefore keeps the last
answer and *validates* it against :attr:`ProcessRuntime.variables` by
object identity before reuse; nothing has to tell it about a write, so
effects, faults and callers that assign into ``variables`` directly (the
lock frontend, tests) are all covered by the same check.
:meth:`ProcessRuntime.execute_internal` validates the same memo and, while
it stands, takes from it both the view the guards saw and their verdict:
the action it is handed runs without its guard being asked a second time.

The memo also names the *question* it answered.  The simulator always asks
about every internal action; the live node asks about the actions it may
run right now (``among=``: its protocol actions after each step, its
wrapper actions when the pacing tick is due).  An answer is reused only
for the question that produced it -- the ``among`` sequence compared by
identity, ``None`` for the full set -- so a restricted answer is never
served for the full question, or for another restriction.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import repeat
from operator import is_
from typing import Any, NamedTuple

from repro.dsl.guards import Effect, GuardedAction, LocalView
from repro.dsl.program import ProcessProgram
from repro.runtime.messages import Message
from repro.runtime.scheduler import InternalStep

#: Lifecycle states.  LIVE processes execute normally.  CRASHED processes
#: have lost their volatile state and take no steps.  RECOVERING processes
#: have restarted (from an improperly initialized valuation) but have not
#: yet executed a step; they become LIVE on their first step.
LIVE = "live"
CRASHED = "crashed"
RECOVERING = "recovering"


class _EnabledMemo(NamedTuple):
    """The enabled actions of one valuation, among the ones asked about
    (immutable, shared by forks)."""

    names: tuple[str, ...]
    values: tuple[Any, ...]
    view: LocalView
    actions: tuple[GuardedAction, ...]
    steps: tuple[InternalStep, ...]
    #: the actions whose guards were asked; ``None`` = all of the program's
    among: Sequence[GuardedAction] | None

    def holds_for(self, variables: dict[str, Any]) -> bool:
        """Is every variable still bound to the object it was bound to?

        Identity, not equality: ``1 == True == 1.0``, yet a guard that
        asks ``isinstance(lc, int)`` tells them apart.  A rebinding to an
        equal object only costs a re-evaluation.
        """
        return (
            len(variables) == len(self.names)
            and all(map(is_, variables, self.names))
            and all(map(is_, variables.values(), self.values))
        )


class ProcessRuntime:
    """One process: identity + program + mutable local variables."""

    def __init__(
        self,
        pid: str,
        program: ProcessProgram,
        peers: tuple[str, ...],
        overrides: Mapping[str, Any] | None = None,
    ):
        self.pid = pid
        self.program = program
        self.peers = tuple(p for p in peers if p != pid)
        self.variables: dict[str, Any] = dict(program.initial_vars)
        if overrides:
            self.variables.update(overrides)
        self.steps_taken = 0
        self._snapshot_keys: tuple[str, ...] | None = None
        self._enabled_memo: _EnabledMemo | None = None
        self.status = LIVE
        self.restart_at: int | None = None
        self.restart_vars: tuple[tuple[str, Any], ...] | None = None

    @property
    def is_live(self) -> bool:
        """Can this process take steps?  (RECOVERING counts as yes.)"""
        return self.status != CRASHED

    # -- views and execution ------------------------------------------------

    def view(self, extra: Mapping[str, Any] | None = None) -> LocalView:
        """Read-only view of the local variables (plus ``_pid``/``_peers``
        and any receive-time extras)."""
        merged = dict(self.variables)
        merged["_pid"] = self.pid
        merged["_peers"] = self.peers
        if extra:
            merged.update(extra)
        return LocalView.adopt(merged)

    def _enabled(
        self, among: Sequence[GuardedAction] | None = None
    ) -> _EnabledMemo:
        """The enabled actions of the current valuation among ``among``
        (``None`` = every internal action), re-evaluated only when some
        variable was rebound, or another question asked, since the last
        call."""
        memo = self._enabled_memo
        variables = self.variables
        if memo is None or not memo.holds_for(variables):
            view = self.view()
        elif memo.among is among:
            return memo
        else:
            view = memo.view  # the valuation stands; only the question moved
        asked = self.program.actions if among is None else among
        actions = tuple([a for a in asked if a.enabled(view)])
        memo = self._enabled_memo = _EnabledMemo(
            tuple(variables),
            tuple(variables.values()),
            view,
            actions,
            tuple([InternalStep(self.pid, a.name) for a in actions]),
            among,
        )
        return memo

    def enabled_internal_actions(
        self, among: Sequence[GuardedAction] | None = None
    ) -> list[GuardedAction]:
        """Internal actions whose guards hold in the current state.

        ``among`` restricts the question to those actions (in the order
        given); only their guards are evaluated.  Pass the same sequence
        object each time: the memo recognises its question by identity.
        """
        return list(self._enabled(among).actions)

    def enabled_internal_steps(self) -> tuple[InternalStep, ...]:
        """:meth:`enabled_internal_actions` as scheduler candidates."""
        return self._enabled().steps

    def execute_internal(self, action: GuardedAction) -> Effect:
        """Run one enabled internal action and apply its effect.

        While the valuation stands, the body gets the view the guards saw
        (and with it what they derived, the wrapper's Lspec view) and the
        memo's verdict stands in for the guard: guards are pure, so asking
        again could only repeat it.  A valuation the memo does not
        describe, or an action it does not list (disabled, or outside the
        question the memo answered), is asked afresh, and a disabled
        action raises.
        """
        memo = self._enabled_memo
        if memo is None or not memo.holds_for(self.variables):
            effect = action.execute(self.view())
        elif any(map(is_, memo.actions, repeat(action))):
            effect = action.body(memo.view)
        else:
            effect = action.execute(memo.view)
        self._apply(effect)
        return effect

    def execute_receive(self, message: Message) -> Effect | None:
        """Run the receive action matching ``message.kind``.

        Returns ``None`` when the program has no handler for the kind or the
        handler's guard rejects the message (the message is consumed either
        way -- an unrecognized message is garbage from the fault model's
        point of view and discarding it is the only sound reaction).
        """
        handler = self.program.receive_action_for(message.kind)
        if handler is None:
            return None
        v = self.view(
            {
                "_msg": message.payload,
                "_sender": message.sender,
                "_msg_clock": message.sender_clock,
            }
        )
        if not handler.enabled(v):
            return None
        effect = handler.body(v)
        self._apply(effect)
        return effect

    def _apply(self, effect: Effect) -> None:
        for name, value in effect.updates.items():
            if name.startswith("_"):
                raise ValueError(f"cannot assign reserved variable {name!r}")
            self.variables[name] = value
        self.steps_taken += 1

    # -- fault surface ------------------------------------------------------

    def corrupt(self, updates: Mapping[str, Any]) -> None:
        """Transient state corruption: overwrite variables arbitrarily."""
        self.variables.update(updates)

    def improper_init(self, variables: Mapping[str, Any]) -> None:
        """Improper initialization: replace the whole valuation."""
        self.variables = dict(variables)

    def crash(
        self,
        restart_at: int | None = None,
        restart_vars: Mapping[str, Any] | None = None,
    ) -> None:
        """Crash fault: volatile state is lost, no further steps are taken.

        ``restart_at`` schedules a revival at that simulator step index
        (``None`` = crash-stop, never restarts unless :meth:`restart` is
        called explicitly).  ``restart_vars`` fixes the valuation the
        process restarts from; recording it at crash time keeps
        crash-restart trials bit-for-bit replayable.
        """
        self.status = CRASHED
        self.variables = {}
        self._snapshot_keys = None
        self.restart_at = restart_at
        self.restart_vars = (
            tuple(sorted(restart_vars.items())) if restart_vars is not None else None
        )

    def restart(self) -> None:
        """Restart after a crash: re-enter from improper initialization.

        The restart valuation is the one recorded by :meth:`crash` (or the
        program's initial state when none was recorded -- still "improper"
        in the paper's sense because the rest of the system has moved on).
        """
        if self.status != CRASHED:
            raise RuntimeError(f"{self.pid} is not crashed (status={self.status})")
        base = (
            dict(self.restart_vars)
            if self.restart_vars is not None
            else dict(self.program.initial_vars)
        )
        self.improper_init(base)
        self._snapshot_keys = None
        self.status = RECOVERING
        self.restart_at = None
        self.restart_vars = None

    # -- snapshots ------------------------------------------------------------

    def fork(self) -> "ProcessRuntime":
        """An independent copy sharing the (immutable) program.

        Variable *values* are shared: programs store only hashable,
        immutable values (see :meth:`snapshot`), so copying the dict is a
        full state copy.
        """
        clone = ProcessRuntime.__new__(ProcessRuntime)
        clone.pid = self.pid
        clone.program = self.program
        clone.peers = self.peers
        clone.variables = dict(self.variables)
        clone.steps_taken = self.steps_taken
        clone._snapshot_keys = self._snapshot_keys
        clone._enabled_memo = self._enabled_memo
        clone.status = self.status
        clone.restart_at = self.restart_at
        clone.restart_vars = self.restart_vars
        return clone

    def snapshot(self) -> tuple[tuple[str, Any], ...]:
        """Hashable snapshot of the local state (sorted name/value pairs).

        Values must be hashable; lists/sets/dicts in programs should be
        stored as tuples/frozensets.  The sorted key order is cached: the
        variable *names* are fixed by the program's initial state, only
        values change (a renamed key raises ``KeyError`` here rather than
        silently reordering).
        """
        variables = self.variables
        keys = self._snapshot_keys
        if keys is None or len(keys) != len(variables):
            keys = self._snapshot_keys = tuple(sorted(variables))
        pairs = tuple((k, variables[k]) for k in keys)
        if self.status != LIVE:
            # Sentinel entry only when not live, so snapshots (and every
            # digest derived from them) are unchanged for crash-free runs.
            return (("__status__", self.status), *pairs)
        return pairs

    def __repr__(self) -> str:
        return f"ProcessRuntime({self.pid}, program={self.program.name})"
