"""The graybox stabilization wrapper W / refined W / timeout W' (Section 4).

The paper derives the wrapper in three steps:

* **W_j** (basic):   ``h.j -> (forall k : k != j : send(REQ_j, j, k))`` --
  while hungry, keep retransmitting the request to everyone.
* **W_j** (refined): only retransmit to the suspect set
  ``X = { k : j.REQ_k lt REQ_j }`` -- for ``k`` outside ``X`` either ``k``'s
  own wrapper fixes things (if ``h.k``) or nothing needs fixing.
* **W'_j** (timeout): retransmit only when a local timer expires,
  ``(timer.j = 0 /\\ h.j) -> ... ; timer.j := theta_j`` -- a pure
  optimization; ``theta = 0`` gives back W (the paper: "W' is equivalent to
  W when theta = 0").

Graybox-ness is structural here: the decision functions
(:func:`correction_set`, :func:`should_correct`) take an
:class:`~repro.tme.interfaces.LspecView` -- the published Lspec interface of
the wrapped component -- and *cannot* see implementation internals.  The
same wrapper object therefore serves RA_ME, Lamport_ME, or any other
everywhere-implementation of Lspec (Theorem 8 / Corollary 11).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.dsl.guards import Effect, GuardedAction, LocalView, Send
from repro.dsl.program import ProcessProgram
from repro.tme.interfaces import (
    HUNGRY,
    REQUEST,
    Adapter,
    LspecView,
    adapter_for,
    register_adapter,
)


@dataclass(frozen=True)
class WrapperConfig:
    """Which wrapper variant to attach.

    ``theta``   -- the timeout period of W' (0 == the un-timed wrapper W);
    ``refined`` -- send only to the suspect set X (the paper's refinement)
    rather than to all peers.
    """

    theta: int = 0
    refined: bool = True

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise ValueError("theta must be non-negative")

    @property
    def variant_name(self) -> str:
        """Display name: W, W'(theta=k), optionally -unrefined."""
        base = "W" if self.theta == 0 else f"W'(theta={self.theta})"
        return base if self.refined else base + "-unrefined"


# -- the graybox decision core (pure functions over the Lspec view) ---------


def correction_set(lspec: LspecView) -> list[str]:
    """The paper's ``X = { k : j.REQ_k lt REQ_j }`` (sorted for determinism)."""
    return [k for k, ts in sorted(lspec.req_of.items()) if ts.lt(lspec.req)]


def should_correct(lspec: LspecView, config: WrapperConfig) -> bool:
    """Is the wrapper's guard (ignoring the timer) enabled?"""
    if lspec.phase != HUNGRY:
        return False
    if config.refined:
        return bool(correction_set(lspec))
    return True


def correction_sends(lspec: LspecView, config: WrapperConfig) -> tuple[Send, ...]:
    """The retransmissions: ``send(REQ_j, j, k)`` for each target."""
    targets = (
        correction_set(lspec) if config.refined else sorted(lspec.req_of)
    )
    return tuple(Send(k, REQUEST, lspec.req) for k in targets)


# -- packaging as a process program ------------------------------------------


def wrapper_program(
    pid: str,
    all_pids: tuple[str, ...],
    adapter: Adapter,
    config: WrapperConfig | None = None,
) -> ProcessProgram:
    """Build W'_j as a guarded-command program for process ``pid``.

    ``adapter`` is the wrapped implementation's published Lspec abstraction;
    the wrapper's guard and body consume only its output plus the wrapper's
    own ``w_timer``.
    """
    cfg = config or WrapperConfig()
    peers = tuple(k for k in all_pids if k != pid)

    def abstract(view: LocalView) -> LspecView:
        return adapter(view.as_dict(), pid, peers)

    def lspec_of(view: LocalView) -> LspecView:
        # One abstraction per view object: both guards and the body of a
        # step are handed the same view, and the memo dies with it.
        return view.derived(abstract)

    def timer_running(view: LocalView) -> bool:
        # The wrapper's own variable must itself be stabilizing: a corrupted
        # timer outside [0, theta] is treated as expired, so a fault on
        # ``w_timer`` can delay correction by at most theta steps.
        timer = view.w_timer
        return isinstance(timer, int) and 0 < timer <= cfg.theta

    def correct_guard(view: LocalView) -> bool:
        if timer_running(view):
            return False
        return should_correct(lspec_of(view), cfg)

    def correct_body(view: LocalView) -> Effect:
        lspec = lspec_of(view)
        return Effect({"w_timer": cfg.theta}, correction_sends(lspec, cfg))

    def tick_guard(view: LocalView) -> bool:
        return lspec_of(view).phase == HUNGRY and timer_running(view)

    def tick_body(view: LocalView) -> Effect:
        return Effect({"w_timer": view.w_timer - 1})

    actions = [GuardedAction("W:correct", correct_guard, correct_body)]
    if cfg.theta > 0:
        actions.append(GuardedAction("W:tick", tick_guard, tick_body))
    return ProcessProgram(
        f"{cfg.variant_name}[{pid}]",
        {"w_timer": 0},
        actions=tuple(actions),
    )


def wrap_program(
    program: ProcessProgram,
    pid: str,
    all_pids: tuple[str, ...],
    config: WrapperConfig | None = None,
    adapter: Adapter | None = None,
) -> ProcessProgram:
    """``M_j box W'_j``: compose one process's program with its wrapper.

    The adapter defaults to the one registered for ``program.name`` (the
    implementation's published interface realization).
    """
    cfg = config or WrapperConfig()
    chosen = adapter or adapter_for(program.name)
    wrapper = wrapper_program(pid, all_pids, chosen, cfg)
    wrapped = program.composed_with(
        wrapper, name=f"{program.name}+{cfg.variant_name}"
    )
    register_adapter(wrapped.name, chosen)
    return wrapped


def wrap_system(
    programs: Mapping[str, ProcessProgram],
    config: WrapperConfig | None = None,
    adapter: Adapter | None = None,
) -> dict[str, ProcessProgram]:
    """``M box W`` for a whole system: wrap every process (Theorem 8)."""
    all_pids = tuple(sorted(programs))
    return {
        pid: wrap_program(programs[pid], pid, all_pids, config, adapter)
        for pid in all_pids
    }
