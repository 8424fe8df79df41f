"""Guarded commands: the paper's implementation-description language.

The paper describes implementations in Dijkstra's guarded-command notation
(``guard -> statement``) and specifications in UNITY; both are fusion closed
(Section 2.1).  A :class:`GuardedAction` is a named pair of

* a *guard*: a predicate over the process's local view, and
* a *body*: a function that, given the local view, returns the *effects* to
  apply (state updates and messages to send).

Actions never mutate state directly -- they return :class:`Effect` values
that the runtime applies atomically.  This keeps action execution pure,
makes traces replayable, and lets fault injectors interpose between decision
and application.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Send:
    """Effect: enqueue a ``kind`` message with ``payload`` to ``receiver``."""

    receiver: str
    kind: str
    payload: Any


@dataclass(frozen=True)
class Effect:
    """The atomic outcome of executing one guarded action.

    ``updates`` maps local variable names to new values; ``sends`` lists the
    messages to enqueue, in order (order matters on FIFO channels).
    """

    updates: Mapping[str, Any] = field(default_factory=dict)
    sends: tuple[Send, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "updates", dict(self.updates))
        object.__setattr__(self, "sends", tuple(self.sends))

    @staticmethod
    def none() -> "Effect":
        """The empty effect (no updates, no sends)."""
        return Effect()

    def writes(self) -> frozenset[str]:
        """The variables this effect assigns (the runtime's write set)."""
        return frozenset(self.updates)

    def merged_with(self, other: "Effect") -> "Effect":
        """Sequential merge: ``other``'s updates win; sends concatenate."""
        merged = dict(self.updates)
        merged.update(other.updates)
        return Effect(merged, self.sends + other.sends)


class LocalView:
    """Read-only view of a process's local variables handed to guards/bodies.

    Attribute access reads variables (``view.h``, ``view.req``); item access
    works for non-identifier names (``view["j.REQ_k"]``).

    The valuation *is* the instance ``__dict__``, so ``view.phase`` is the
    interpreter's own instance-attribute lookup -- no ``__getattr__``, no
    Python frame per read; guards read a handful of variables each and run
    several times per simulator step.  The price is one namespace: a
    variable named like an attribute of this class would shadow it (or be
    shadowed by it), so :func:`shadowed_view_attributes` names the clashes
    and :class:`~repro.dsl.program.ProcessProgram` rejects them.
    """

    __slots__ = ("_derived", "__dict__")

    def __init__(self, variables: Mapping[str, Any]):
        object.__setattr__(self, "__dict__", dict(variables))
        object.__setattr__(self, "_derived", {})

    @classmethod
    def adopt(cls, variables: dict[str, Any]) -> "LocalView":
        """A view over ``variables`` itself, without the constructor's
        defensive copy: the caller hands the dict over and must never
        touch it again (the runtime's path, see ``ProcessRuntime.view``)."""
        view = cls.__new__(cls)
        object.__setattr__(view, "__dict__", variables)
        object.__setattr__(view, "_derived", {})
        return view

    def __getitem__(self, name: str) -> Any:
        return self.__dict__[name]

    def __contains__(self, name: str) -> bool:
        return name in self.__dict__

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("LocalView is read-only; return updates in an Effect")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("LocalView is read-only; return updates in an Effect")

    def as_dict(self) -> dict[str, Any]:
        """A mutable copy of the viewed variables."""
        return dict(self.__dict__)

    def derived(self, build: Callable[["LocalView"], Any]) -> Any:
        """``build(self)``, computed once per view object.

        A view never changes, so any pure function of it (the wrapper's
        Lspec abstraction, say) may be shared by every guard and body that
        is handed this view; the result dies with the view, so nothing
        derived from one valuation can be read in another.
        """
        derived = self._derived
        if build not in derived:
            derived[build] = build(self)
        return derived[build]

    def __repr__(self) -> str:
        return f"LocalView({self.__dict__!r})"


def shadowed_view_attributes(names: Iterable[str]) -> list[str]:
    """The ``names`` a :class:`LocalView` could not serve as variables
    (``as_dict``, ``derived``, ``adopt``, ``_derived``, any dunder of the
    class), sorted."""
    return sorted(name for name in names if hasattr(LocalView, name))


Guard = Callable[[LocalView], bool]
Body = Callable[[LocalView], Effect]


@dataclass(frozen=True)
class GuardedAction:
    """``name :: guard -> body``.

    ``message_kind`` marks receive-actions: the runtime enables them only
    when a message of that kind is at the head of some incoming channel, and
    passes the message to the body via the reserved ``_msg`` / ``_sender``
    variables in the view.
    """

    name: str
    guard: Guard
    body: Body
    message_kind: str | None = None

    def enabled(self, view: LocalView) -> bool:
        """Evaluate the guard."""
        return bool(self.guard(view))

    def execute(self, view: LocalView) -> Effect:
        """Run the body (guard must hold)."""
        if not self.enabled(view):
            raise RuntimeError(f"action {self.name!r} executed while disabled")
        return self.body(view)

    def reads(self) -> frozenset[str] | None:
        """Statically inferred read set (variables + ``_``-meta), or ``None``
        when inference cannot bound it.

        Delegates to :mod:`repro.lint` so the runtime and the verifier share
        one source of truth; reads routed through a published interface
        adapter are *not* included (they belong to the adapter's Lspec
        conformance, see :mod:`repro.lint.interference`).
        """
        from repro.lint import analyze_action

        sets = analyze_action(self).sets
        if sets.reads_unknown:
            return None
        return frozenset(sets.raw_reads | sets.meta_reads)

    def writes(self) -> frozenset[str] | None:
        """Statically inferred write set, or ``None`` when unbounded."""
        from repro.lint import analyze_action

        sets = analyze_action(self).sets
        if sets.writes_unknown:
            return None
        return frozenset(sets.writes)

    def __repr__(self) -> str:
        kind = f", on={self.message_kind!r}" if self.message_kind else ""
        return f"GuardedAction({self.name!r}{kind})"


def action(
    name: str,
    guard: Guard,
    body: Body,
    message_kind: str | None = None,
) -> GuardedAction:
    """Convenience constructor mirroring the paper's ``guard -> stmt``."""
    return GuardedAction(name, guard, body, message_kind)


def always_enabled(_view: LocalView) -> bool:
    """The trivially true guard."""
    return True


def sends_to_all(
    peers: Iterable[str], kind: str, make_payload: Callable[[str], Any]
) -> tuple[Send, ...]:
    """The paper's ``(forall k : k != j : send(..., j, k))`` broadcast."""
    return tuple(Send(k, kind, make_payload(k)) for k in peers)
