"""Everywhere-implementation checking for Lspec (Theorems 9 and 10).

``[C => Lspec]`` demands that every computation of C -- from *every* state
-- satisfy Lspec.  We decide this operationally in two complementary ways:

1. **Sampled arbitrary starts** (:func:`everywhere_implements_lspec`): run
   the implementation fault-free from many corrupted initial states (typed
   state scrambling + garbage channel preloads) and monitor every Lspec
   clause.  Any safety violation refutes the theorem for our encoding;
   liveness clauses are judged with a grace horizon.

2. **Exhaustive small scope** (:func:`exhaustive_lspec_check`): enumerate
   *all* local process states over a bounded clock domain for a 2-process
   system and check every enabled transition against the transition-local
   Lspec clauses (Structural, Flow, Request-safety, CS-Entry-safety,
   CS-Release).  This is the direct analogue of the paper's per-process
   proof obligations, and it is exactly the verification task whose cost
   the graybox argument says stays *per-process* -- compare
   :class:`repro.explore.GlobalSimulatorSpace` for the whitebox
   global-state counterpart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.campaign.seeds import FAULTS_STREAM, SCHEDULER_STREAM, spawn_rng
from repro.clocks.timestamps import Timestamp
from repro.faults.state_faults import ImproperInitialization
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulator import Simulator
from repro.tme.client import ClientConfig
from repro.tme.interfaces import EATING, HUNGRY, PHASES, THINKING, tmap
from repro.tme.lspec import check_lspec
from repro.tme.scenarios import (
    garbage_channel_filler,
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


@dataclass(frozen=True)
class ExhaustiveResult:
    """Outcome of the exhaustive small-scope transition check."""

    algorithm: str
    states_checked: int
    transitions_checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Every checked transition satisfied the local clauses."""
        return not self.violations


def _local_states_ra(pid: str, peer: str, max_clock: int):
    """Every RA_ME local state over a bounded clock domain (2 processes)."""
    clocks = range(max_clock + 1)
    for phase, lc, req_c, req_of_c, recv in itertools.product(
        PHASES, clocks, clocks, clocks, (False, True)
    ):
        yield {
            "phase": phase,
            "lc": lc,
            "req": Timestamp(req_c, pid),
            "req_of": tmap({peer: Timestamp(req_of_c, peer)}),
            "received": tmap({peer: recv}),
            "think_timer": 0,
            "eat_timer": 0,
            "sessions_left": -1,
        }


def _local_states_lamport(pid: str, peer: str, max_clock: int):
    clocks = range(max_clock + 1)
    queue_options: list[tuple[Timestamp, ...]] = [()]
    queue_options += [(Timestamp(c, pid),) for c in clocks]
    queue_options += [(Timestamp(c, peer),) for c in clocks]
    queue_options += [
        tuple(sorted((Timestamp(a, pid), Timestamp(b, peer))))
        for a in clocks
        for b in clocks
    ]
    for phase, lc, req_c, queue, grant in itertools.product(
        PHASES, range(max_clock + 1), range(max_clock + 1), queue_options, (False, True)
    ):
        yield {
            "phase": phase,
            "lc": lc,
            "req": Timestamp(req_c, pid),
            "queue": queue,
            "grant": tmap({peer: grant}),
            "think_timer": 0,
            "eat_timer": 0,
            "sessions_left": -1,
        }


def count_local_states(
    algorithm: str, n: int = 2, max_clock: int = 2
) -> int:
    """The size of one process's local state domain with ``n-1`` peers over
    a bounded clock domain -- the per-process surface a graybox check
    covers (enumerated, not computed, so it stays honest to the encoding).

    For RA_ME the local state is
    ``phase x lc x REQ x (j.REQ_k, received_k) per peer``.
    """
    if algorithm != "ra":
        raise ValueError("local-state counting is defined for 'ra'")
    peers = n - 1
    if peers < 1:
        raise ValueError("need at least one peer")
    clocks = max_clock + 1
    count = 0
    per_peer = clocks * 2  # j.REQ_k timestamp x received flag
    for _phase in PHASES:
        for _lc in range(clocks):
            for _req in range(clocks):
                count += per_peer**peers
    return count


_FLOW = {
    THINKING: {THINKING, HUNGRY},
    HUNGRY: {HUNGRY, EATING},
    EATING: {EATING, THINKING},
}


def exhaustive_lspec_check(
    algorithm: str, max_clock: int = 3
) -> ExhaustiveResult:
    """Check the transition-local Lspec clauses on *every* local state of a
    single process (2-process scope, clocks bounded by ``max_clock``).

    For each enumerated state and each enabled internal action and each
    possible received message, execute the transition and verify:
    Structural, Flow, Request-safety (REQ frozen while hungry),
    CS-Entry-safety (entry only when all copies are later), and CS-Release
    (events landing in ``t`` set ``REQ = ts``).
    """
    from repro.tme.interfaces import adapter_for
    from repro.tme.lamport_me import lamport_program
    from repro.tme.ricart_agrawala import ra_program

    pid, peer = "p0", "p1"
    client = ClientConfig(think_delay=0, eat_delay=0)
    if algorithm == "ra":
        program = ra_program(pid, (pid, peer), client)
        states = _local_states_ra(pid, peer, max_clock)
        kinds = ("request", "reply")
    elif algorithm == "lamport":
        program = lamport_program(pid, (pid, peer), client)
        states = _local_states_lamport(pid, peer, max_clock)
        kinds = ("request", "reply", "release")
    else:
        raise ValueError(f"no exhaustive model for {algorithm!r}")
    adapter = adapter_for(program.name)

    violations: list[str] = []
    states_checked = 0
    transitions = 0

    from repro.runtime.process import ProcessRuntime

    for variables in states:
        states_checked += 1
        outcomes = []
        proc = ProcessRuntime(pid, program, (pid, peer), overrides=variables)
        for act in proc.enabled_internal_actions():
            clone = ProcessRuntime(pid, program, (pid, peer), overrides=dict(variables))
            clone.execute_internal(act)
            outcomes.append((act.name, clone.variables))
        for kind in kinds:
            for clock in range(max_clock + 1):
                handler = program.receive_action_for(kind)
                if handler is None:
                    continue
                clone = ProcessRuntime(
                    pid, program, (pid, peer), overrides=dict(variables)
                )
                view = clone.view(
                    {"_msg": Timestamp(clock, peer), "_sender": peer}
                )
                if not handler.enabled(view):
                    continue
                clone._apply(handler.body(view))
                outcomes.append((f"recv-{kind}({clock})", clone.variables))
        pre_view = adapter(variables, pid, (peer,))
        for name, post in outcomes:
            transitions += 1
            post_view = adapter(post, pid, (peer,))
            where = f"{algorithm} state={variables['phase']},{variables['lc']} action={name}"
            if post["phase"] not in PHASES:
                violations.append(f"structural: {where}")
            elif variables["phase"] in _FLOW and post["phase"] not in _FLOW[
                variables["phase"]
            ]:
                violations.append(f"flow: {where}")
            if (
                pre_view["phase"] == HUNGRY
                and post_view["phase"] == HUNGRY
                and pre_view["req"] != post_view["req"]
            ):
                violations.append(f"request-safety: {where}")
            if pre_view["phase"] == HUNGRY and post_view["phase"] == EATING:
                if not all(
                    pre_view["req"].lt(v) for v in pre_view["req_of"].values()
                ):
                    violations.append(f"cs-entry-safety: {where}")
            lc_changed = variables["lc"] != post["lc"]
            if post["phase"] == THINKING and (
                lc_changed or variables["phase"] != post["phase"]
            ):
                if post["req"] != Timestamp(post["lc"], pid):
                    violations.append(f"cs-release: {where}")
    return ExhaustiveResult(
        algorithm, states_checked, transitions, tuple(violations[:20])
    )
