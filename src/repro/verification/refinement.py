"""Everywhere-implementation checking for Lspec (Theorems 9 and 10).

``[C => Lspec]`` demands that every computation of C -- from *every* state
-- satisfy Lspec.  We decide this operationally in two complementary ways:

1. **Sampled arbitrary starts** (:func:`everywhere_implements_lspec`): run
   the implementation fault-free from many corrupted initial states (typed
   state scrambling + garbage channel preloads) and monitor every Lspec
   clause.  Any safety violation refutes the theorem for our encoding;
   liveness clauses are judged with a grace horizon.

2. **Exhaustive small scope** (:func:`exhaustive_lspec_check`): every local
   state of one process of a 2-process system over a bounded clock domain
   (:func:`repro.tme.scenarios.local_domain`), every transition out of it
   (:meth:`repro.explore.LocalProcessSpace.moves`, unpruned), and each edge
   judged by :func:`repro.tme.lspec.judge_step` -- the one definition of
   the transition-local clauses (Structural, Flow, Request-safety,
   CS-Entry-safety, CS-Release) that :func:`~repro.tme.lspec.check_lspec`
   also applies to traces.  This is the direct analogue of the paper's
   per-process proof obligations, and it is exactly the verification task
   whose cost the graybox argument says stays *per-process* -- compare
   :class:`repro.explore.GlobalSimulatorSpace` for the whitebox
   global-state counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.campaign.seeds import FAULTS_STREAM, SCHEDULER_STREAM, spawn_rng
from repro.explore.spaces import LocalProcessSpace, default_message_alphabet
from repro.faults.state_faults import ImproperInitialization
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulator import Simulator
from repro.tme.client import ClientConfig
from repro.tme.interfaces import RELEASE, REPLY, REQUEST, adapter_for
from repro.tme.lspec import check_lspec, judge_step
from repro.tme.scenarios import (
    garbage_channel_filler,
    local_domain,
    pids_for,
    scramble_tme_state,
    tme_programs,
)
from repro.tme.wrapper import WrapperConfig


@dataclass
class EverywhereReport:
    """Aggregate of Lspec conformance over many arbitrary-start runs."""

    algorithm: str
    runs: int = 0
    clean_runs: int = 0
    safety_violations: dict[str, int] = field(default_factory=dict)
    pending_clauses: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """No safety violation in any sampled run."""
        return self.runs > 0 and not self.safety_violations

    def summary(self) -> str:
        """One-line report for logs and benches."""
        return (
            f"{self.algorithm}: {self.clean_runs}/{self.runs} runs fully "
            f"clean; safety violations {dict(self.safety_violations) or 'none'}; "
            f"liveness pending {dict(self.pending_clauses) or 'none'}"
        )


def everywhere_implements_lspec(
    algorithm: str,
    n: int = 3,
    runs: int = 20,
    steps: int = 1200,
    seed: int = 0,
    grace: int = 250,
    wrapper: WrapperConfig | None = None,
    client: ClientConfig | None = None,
) -> EverywhereReport:
    """Monitor all Lspec clauses on fault-free runs from corrupted starts."""
    report = EverywhereReport(algorithm)
    for r in range(runs):
        # Hierarchical derivation (repro.campaign.seeds): the injector and
        # scheduler get independent streams from (seed, run), instead of
        # the old ad-hoc `run_seed` / `run_seed + 1` pair whose streams
        # could collide across neighbouring runs.
        programs = tme_programs(algorithm, n, client, wrapper)
        injector = ImproperInitialization(
            spawn_rng(seed, "refinement", r, FAULTS_STREAM),
            scramble_tme_state,
            garbage_channel_filler,
        )
        sim = Simulator(
            programs,
            RandomScheduler(spawn_rng(seed, "refinement", r, SCHEDULER_STREAM)),
            fault_hook=injector,
        )
        trace = sim.run(steps)
        # The improper-initialization fault struck at step 0; judge the
        # program's own behaviour from state 1 onward.
        lrep = check_lspec(trace, programs, start=1)
        report.runs += 1
        clean = True
        for name, clause in lrep.clauses.items():
            if clause.violations:
                clean = False
                report.safety_violations[name] = report.safety_violations.get(
                    name, 0
                ) + len(clause.violations)
            overdue = [
                p
                for p in clause.pending
                if len(trace.states) - 1 - p.since > grace
            ]
            if overdue:
                clean = False
                report.pending_clauses[name] = report.pending_clauses.get(
                    name, 0
                ) + len(overdue)
        if clean:
            report.clean_runs += 1
    return report


# ---------------------------------------------------------------------------
# Exhaustive small-scope transition check (per-process, graybox-style)
# ---------------------------------------------------------------------------


#: Violating edges an :class:`ExhaustiveResult` keeps as witnesses.
MAX_WITNESSES = 20

#: The message kinds each modelled algorithm receives.
_KINDS = {"ra": (REQUEST, REPLY), "lamport": (REQUEST, REPLY, RELEASE)}


@dataclass(frozen=True)
class Witness:
    """One violating edge: the pre-state, the move taken, what it broke."""

    valuation: tuple[tuple[str, Any], ...]
    move: str
    clause: str
    detail: str


@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of the exhaustive small-scope transition check.

    ``violation_counts`` counts every violating edge, per clause;
    ``violations`` keeps the first :data:`MAX_WITNESSES` of them.
    """

    algorithm: str
    states_checked: int
    transitions_checked: int
    violations: tuple[Witness, ...]
    violation_counts: dict[str, int]

    @property
    def violation_count(self) -> int:
        """Violating edges in all, witnessed or not."""
        return sum(self.violation_counts.values())

    @property
    def ok(self) -> bool:
        """Every checked transition satisfied the local clauses."""
        return not self.violation_counts


def count_local_states(
    algorithm: str, n: int = 2, max_clock: int = 2
) -> int:
    """The size of one process's local state domain with ``n-1`` peers over
    a bounded clock domain -- the per-process surface a graybox check
    covers: :func:`~repro.tme.scenarios.local_domain` enumerated, the very
    states :func:`exhaustive_lspec_check` judges.

    For RA_ME the local state is
    ``phase x lc x REQ x (j.REQ_k, received_k) per peer``.
    """
    if algorithm != "ra":
        raise ValueError("local-state counting is defined for 'ra'")
    pids = pids_for(n)
    return sum(1 for _ in local_domain(algorithm, pids[0], pids, max_clock))


def exhaustive_lspec_check(
    algorithm: str, max_clock: int = 3
) -> ExhaustiveResult:
    """Judge every transition of one process from *every* local state
    (2-process scope, clocks bounded by ``max_clock``).

    The states are :func:`~repro.tme.scenarios.local_domain`'s over the
    program's initial valuation; the transitions out of each are
    :meth:`~repro.explore.LocalProcessSpace.moves` -- every enabled
    internal action and every acceptable message of the bounded alphabet,
    the moves that carry the clock past ``max_clock`` included (they leave
    the enumerated domain, not the theorem); each edge is judged by
    :func:`~repro.tme.lspec.judge_step`.
    """
    if algorithm not in _KINDS:
        raise ValueError(f"no exhaustive model for {algorithm!r}")
    pids = pids_for(2)
    pid, peers = pids[0], pids[1:]
    client = ClientConfig(think_delay=0, eat_delay=0)
    program = tme_programs(algorithm, 2, client)[pid]
    alphabet = default_message_alphabet(peers, _KINDS[algorithm], max_clock)
    space = LocalProcessSpace(program, pid, pids, alphabet, max_clock)
    adapter = adapter_for(program.name)
    counts: dict[str, int] = {}
    witnesses: list[Witness] = []
    states = transitions = 0
    for overrides in local_domain(algorithm, pid, pids, max_clock):
        states += 1
        pre = {**program.initial_vars, **overrides}
        node = tuple(sorted(pre.items()))
        pre_view = adapter(pre, pid, peers)
        for move, snapshot in space.moves(node):
            transitions += 1
            post = dict(snapshot)
            post_view = adapter(post, pid, peers)
            for clause, detail in judge_step(
                pid, pre, post, pre_view, post_view, peers
            ):
                if detail is None:
                    continue
                counts[clause] = counts.get(clause, 0) + 1
                if len(witnesses) < MAX_WITNESSES:
                    witnesses.append(Witness(node, move, clause, detail))
    return ExhaustiveResult(
        algorithm, states, transitions, tuple(witnesses), counts
    )
