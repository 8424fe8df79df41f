"""Process programs: named collections of guarded actions.

A :class:`ProcessProgram` is the unit the runtime executes and the unit the
paper wraps: a set of guarded actions over a declared set of local variables.
Wrappers are themselves process programs; box composition at the process
level (``P [] W``) is simply the union of the action sets --- matching the
core-layer semantics of :func:`repro.core.box.box` (transition-relation
union).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.dsl.guards import GuardedAction, LocalView, shadowed_view_attributes


@dataclass(frozen=True)
class ProcessProgram:
    """A guarded-command program for one process.

    Parameters
    ----------
    name:
        Program name (e.g. ``"RA_ME"``); processes executing it get their
        own identity separately.
    initial_vars:
        Variable valuation for a *properly initialized* process.  The fault
        model may replace it arbitrarily ("improper initialization").
    actions:
        Internal guarded actions, attempted by the scheduler.
    receive_actions:
        Actions keyed by message kind; enabled when a matching message is at
        the head of an incoming channel.
    """

    name: str
    initial_vars: Mapping[str, Any] = field(default_factory=dict)
    actions: tuple[GuardedAction, ...] = ()
    receive_actions: tuple[GuardedAction, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial_vars", dict(self.initial_vars))
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(self, "receive_actions", tuple(self.receive_actions))
        shadowed = shadowed_view_attributes(self.initial_vars)
        if shadowed:
            # Views serve variables as instance attributes: ``view.as_dict``
            # would read the variable, ``view._derived`` never could.
            raise ValueError(
                f"program {self.name!r} declares variable(s) {shadowed} "
                "that name attributes of LocalView; rename them"
            )
        for act in self.receive_actions:
            if act.message_kind is None:
                raise ValueError(
                    f"receive action {act.name!r} must declare a message_kind"
                )
        names = [a.name for a in self.actions + self.receive_actions]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate action names in program {self.name!r}")
        # Lookup indexes (not fields: no part of equality or repr).  The
        # first handler registered for a kind wins, as a linear scan would.
        object.__setattr__(
            self, "_internal_by_name", {a.name: a for a in self.actions}
        )
        object.__setattr__(
            self,
            "_receive_by_kind",
            {a.message_kind: a for a in reversed(self.receive_actions)},
        )

    def variables(self) -> frozenset[str]:
        """The declared variable space (the corruptible state, Section 3.1)."""
        return frozenset(self.initial_vars)

    def validate_writes(self) -> None:
        """Reject actions that write variables outside ``initial_vars``.

        This closes the historic ``__post_init__`` gap: an undeclared write
        would materialize a variable mid-run, changing snapshot shape and
        hiding state from the fault model.  The check needs the static
        inference of :mod:`repro.lint` (actions are opaque closures), so it
        is explicit rather than part of construction -- campaigns build
        thousands of programs per run.  ``python -m repro lint`` reports the
        same violations as ``WRITE-UNDECLARED`` findings.
        """
        from repro.lint import analyze_action

        declared = self.variables()
        for act in self.actions + self.receive_actions:
            sets = analyze_action(act).sets
            if sets.writes_unknown:
                continue  # unbounded writes are the lint's GRAY/INF domain
            undeclared = sorted(sets.writes - declared)
            if undeclared:
                raise ValueError(
                    f"action {act.name!r} of program {self.name!r} writes "
                    f"undeclared variable(s) {undeclared}; declare them in "
                    "initial_vars"
                )

    def internal_action(self, name: str) -> GuardedAction | None:
        """The internal action called ``name``, if any."""
        return self._internal_by_name.get(name)

    def receive_action_for(self, kind: str) -> GuardedAction | None:
        """The receive handler registered for a message kind, if any."""
        return self._receive_by_kind.get(kind)

    def action_names(self) -> tuple[str, ...]:
        """All action names (internal first, then receive)."""
        return tuple(a.name for a in self.actions + self.receive_actions)

    def composed_with(self, other: "ProcessProgram", name: str | None = None) -> "ProcessProgram":
        """Process-level box composition: union of action sets.

        Variable spaces are merged; on clashes the *left* program's initial
        value wins (wrappers must not re-declare program variables -- the
        graybox wrapper only reads the Lspec interface, see
        :mod:`repro.tme.wrapper`).
        """
        merged_vars = dict(other.initial_vars)
        merged_vars.update(self.initial_vars)
        return ProcessProgram(
            name or f"({self.name} [] {other.name})",
            merged_vars,
            self.actions + other.actions,
            self.receive_actions + other.receive_actions,
        )


def enabled_actions(
    program: ProcessProgram, view: LocalView
) -> list[GuardedAction]:
    """The internal actions of ``program`` whose guards hold in ``view``."""
    return [a for a in program.actions if a.enabled(view)]


def merge_initial_vars(programs: Iterable[ProcessProgram]) -> dict[str, Any]:
    """Union of initial valuations; later programs win on clashes."""
    merged: dict[str, Any] = {}
    for p in programs:
        merged.update(p.initial_vars)
    return merged
