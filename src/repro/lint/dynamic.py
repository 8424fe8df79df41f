"""Dynamic cross-check: observed access sets vs. the static inference.

The static inference (:mod:`repro.lint.inference`) claims to be a sound
over-approximation: whatever an action actually reads or writes at runtime
must be inside the inferred sets.  This module *tests* that claim by
running a short seeded simulation in which every :class:`~repro.dsl.guards.
LocalView` handed to a guard or body is replaced by a :class:`RecordingView`
proxy, then asserting

    observed reads  ⊆  raw_reads ∪ meta_reads   (``*`` only past a boundary)
    observed writes ⊆  inferred writes

per action.  A violation here means the abstract interpreter has a
soundness bug -- the one kind of lint defect that silently voids the
non-interference proof -- so CI runs this as a smoke test next to the
static pass.  Containment alone is satisfied by a recorder that observes
nothing, so the check also reports how many distinct reads it saw and
lists as ``blind`` every action that ran without a recorded read although
it is inferred to read something (a ``DYN-BLIND`` warning; ``--strict``
fails on it).

The instrumentation is pure composition: :func:`instrument_program`
rebuilds a :class:`~repro.dsl.program.ProcessProgram` with wrapped
guards/bodies and touches nothing in the runtime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.dsl.guards import Effect, GuardedAction, LocalView
from repro.dsl.program import ProcessProgram
from repro.lint.inference import Engine, analyze_action

#: Pseudo-read recorded when an action copies the whole view
#: (``view.as_dict()``) -- typically to feed it through an adapter.
STAR = "*"


class RecordingView(LocalView):
    """A :class:`LocalView` that records every variable it reveals.

    Reads are accumulated into the externally-owned ``reads`` set, so one
    set can collect observations across many view instances (one per
    guard/body evaluation).
    """

    __slots__ = ("_reads",)

    def __init__(self, variables: dict[str, Any], reads: set[str]):
        super().__init__(variables)
        object.__setattr__(self, "_reads", reads)

    def __getattribute__(self, name: str) -> Any:
        # A LocalView serves ``view.x`` from its instance dict, which a
        # ``__getattr__`` hook never sees: watch every lookup instead.
        # Whatever is not an attribute of the class is a variable read,
        # present or not (programs cannot declare the class's own names).
        if not hasattr(RecordingView, name):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)

    def __getitem__(self, name: str) -> Any:
        self._reads.add(name)
        return super().__getitem__(name)

    def __contains__(self, name: str) -> bool:
        self._reads.add(name)
        return super().__contains__(name)

    def as_dict(self) -> dict[str, Any]:
        self._reads.add(STAR)
        return super().as_dict()


@dataclass
class ActionObservation:
    """Everything one action was seen to touch across a whole run."""

    name: str
    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    guard_evals: int = 0
    body_runs: int = 0


def _instrument_action(
    action: GuardedAction, obs: ActionObservation
) -> GuardedAction:
    guard, body = action.guard, action.body

    def recording_guard(view: LocalView) -> bool:
        obs.guard_evals += 1
        return guard(RecordingView(view.as_dict(), obs.reads))

    def recording_body(view: LocalView) -> Effect:
        obs.body_runs += 1
        effect = body(RecordingView(view.as_dict(), obs.reads))
        obs.writes.update(effect.updates)
        return effect

    return GuardedAction(
        action.name, recording_guard, recording_body, action.message_kind
    )


def instrument_program(
    program: ProcessProgram,
    observations: dict[str, ActionObservation],
) -> ProcessProgram:
    """A behaviourally identical program whose views record accesses.

    ``observations`` is keyed by action name and shared: instrumenting
    several per-process instances of the same program with one dict merges
    their observations, which is exactly what the containment check wants
    (the access *names* are per-program, not per-process).
    """
    def wrap(action: GuardedAction) -> GuardedAction:
        obs = observations.setdefault(
            action.name, ActionObservation(action.name)
        )
        return _instrument_action(action, obs)

    return ProcessProgram(
        program.name,
        program.initial_vars,
        tuple(wrap(a) for a in program.actions),
        tuple(wrap(a) for a in program.receive_actions),
    )


@dataclass
class _StaticSets:
    """Merged static claim for one action name (across process instances)."""

    allowed_reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)
    star_ok: bool = False
    reads_unknown: bool = False
    writes_unknown: bool = False


def _static_sets_for(
    programs: dict[str, ProcessProgram], engine: Engine
) -> dict[str, _StaticSets]:
    out: dict[str, _StaticSets] = {}
    for program in programs.values():
        for action in program.actions + program.receive_actions:
            sets = analyze_action(action, engine).sets
            static = out.setdefault(action.name, _StaticSets())
            static.allowed_reads |= sets.raw_reads | sets.meta_reads
            static.writes |= sets.writes
            static.star_ok |= sets.boundary_crossed or sets.reads_unknown
            static.reads_unknown |= sets.reads_unknown
            static.writes_unknown |= sets.writes_unknown
    return out


def cross_check(
    algorithm: str,
    n: int = 3,
    steps: int = 300,
    seed: int = 0,
    theta: int = 4,
    wrapped: bool = True,
    engine: Engine | None = None,
) -> dict:
    """Run one instrumented TME simulation and check observed ⊆ inferred.

    Returns a JSON-able result with per-action detail; ``contained`` is the
    overall verdict, ``blind`` the actions the recorder evidently missed
    and ``reads_observed`` the number of distinct names read.  Guards of
    internal actions are evaluated every step by the scheduler, so read
    sets get exercised even for actions that never fire (e.g. the wrapper
    in a fault-free run).
    """
    from repro.runtime.scheduler import RandomScheduler
    from repro.runtime.simulator import Simulator
    from repro.tme.scenarios import tme_programs
    from repro.tme.wrapper import WrapperConfig

    engine = engine or Engine()
    wrapper = WrapperConfig(theta=theta) if wrapped else None
    programs = tme_programs(algorithm, n, wrapper=wrapper)
    static = _static_sets_for(programs, engine)

    observations: dict[str, ActionObservation] = {}
    instrumented = {
        pid: instrument_program(prog, observations)
        for pid, prog in programs.items()
    }
    simulator = Simulator(
        instrumented,
        RandomScheduler(random.Random(seed)),
        record_states=False,
    )
    simulator.run(steps)

    actions = []
    violations = []
    blind = []
    reads_observed: set[str] = set()
    observed_count = 0
    for name in sorted(observations):
        obs = observations[name]
        claim = static[name]
        reads_observed |= obs.reads
        if obs.guard_evals or obs.body_runs:
            observed_count += 1
            # ``observed ⊆ inferred`` holds of a recorder that sees
            # nothing: code that ran and is inferred to read must have
            # been seen reading.
            if claim.allowed_reads and not obs.reads:
                blind.append(name)
        extra_reads = set()
        if not claim.reads_unknown:
            extra_reads = obs.reads - claim.allowed_reads
            if STAR in extra_reads and claim.star_ok:
                extra_reads.discard(STAR)
        extra_writes = set()
        if not claim.writes_unknown:
            extra_writes = obs.writes - claim.writes
        entry = {
            "action": name,
            "guard_evals": obs.guard_evals,
            "body_runs": obs.body_runs,
            "observed_reads": sorted(obs.reads),
            "observed_writes": sorted(obs.writes),
            "static_reads": sorted(claim.allowed_reads),
            "static_writes": sorted(claim.writes),
            "extra_reads": sorted(extra_reads),
            "extra_writes": sorted(extra_writes),
            "contained": not extra_reads and not extra_writes,
        }
        actions.append(entry)
        if not entry["contained"]:
            violations.append(name)

    program_name = next(iter(sorted(programs)))
    return {
        "program": programs[program_name].name,
        "algorithm": algorithm,
        "n": n,
        "steps": steps,
        "seed": seed,
        "wrapped": wrapped,
        "contained": not violations,
        "violations": violations,
        "blind": blind,
        "actions_observed": observed_count,
        "reads_observed": len(reads_observed),
        "actions": actions,
    }


__all__ = [
    "STAR",
    "ActionObservation",
    "RecordingView",
    "cross_check",
    "instrument_program",
]
