"""The experiment harness: one function per experiment of EXPERIMENTS.md.

Each ``experiment_*`` function runs seeded simulations, evaluates the
monitors, and returns a list of row dicts; :mod:`repro.analysis.tables`
renders them.  The benchmarks in ``benchmarks/`` call these functions (with
reduced repetition counts) and print the tables; the full-size parameters
are the defaults here.

The paper has no quantitative evaluation, so every experiment's "paper
value" is the qualitative claim the text proves; the module docstrings of
each function restate that claim, and EXPERIMENTS.md records claim vs.
measurement.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.analysis.metrics import (
    Aggregate,
    RunMetrics,
    cs_entries,
    total_sends,
    wrapper_sends,
)
from repro.faults.injector import FaultInjector
from repro.runtime.trace import Trace
from repro.tme.client import ClientConfig
from repro.tme.scenarios import (
    build_simulation,
    deadlock_overrides,
    standard_fault_campaign,
)
from repro.tme.spec import check_tme_spec
from repro.tme.wrapper import WrapperConfig
from repro.verification.refinement import everywhere_implements_lspec
from repro.verification.stabilization import check_stabilization
from repro.tme.lspec import check_lspec

Row = dict[str, Any]

DEFAULT_CLIENT = ClientConfig(think_delay=2, eat_delay=1)


@dataclass(frozen=True)
class CampaignSettings:
    """Shared shape of the fault-then-converge runs (E2, E5)."""

    steps: int = 3000
    fault_start: int = 100
    fault_stop: int = 400
    grace: int = 400
    loss: float = 0.15
    duplication: float = 0.1
    corruption: float = 0.1
    state_corruption: float = 0.05
    deliver_bias: float = 2.0


def run_campaign(
    algorithm: str,
    n: int,
    wrapper: WrapperConfig | None,
    seed: int,
    settings: CampaignSettings = CampaignSettings(),
    fault_hook: FaultInjector | None = None,
    check_fcfs: bool = True,
) -> tuple[Trace, RunMetrics]:
    """One fault-burst-then-converge run, measured."""
    hook = fault_hook
    if hook is None:
        hook = standard_fault_campaign(
            seed=seed * 31 + 7,
            start=settings.fault_start,
            stop=settings.fault_stop,
            loss=settings.loss,
            duplication=settings.duplication,
            corruption=settings.corruption,
            state_corruption=settings.state_corruption,
        )
    sim = build_simulation(
        algorithm,
        n=n,
        seed=seed,
        client=DEFAULT_CLIENT,
        wrapper=wrapper,
        fault_hook=hook,
        deliver_bias=settings.deliver_bias,
    )
    trace = sim.run(settings.steps)
    conv = check_stabilization(
        trace, liveness_grace=settings.grace, check_fcfs=check_fcfs
    )
    rep = check_tme_spec(trace)
    metrics = RunMetrics(
        steps=settings.steps,
        cs_entries=cs_entries(trace),
        total_messages=total_sends(trace),
        wrapper_messages=wrapper_sends(trace),
        converged=conv.converged,
        convergence_latency=conv.latency,
        me1_violations=len(rep.me1),
    )
    return trace, metrics


# ---------------------------------------------------------------------------
# E2 -- Theorem 8 / Corollary 11: W stabilizes RA and Lamport
# ---------------------------------------------------------------------------


def experiment_stabilization(
    algorithms: tuple[str, ...] = ("ra", "lamport"),
    n: int = 3,
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5),
    theta: int = 4,
    settings: CampaignSettings = CampaignSettings(),
) -> list[Row]:
    """Paper claim: with W, any everywhere-implementation of Lspec
    stabilizes after finitely many faults; without W it may not."""
    rows: list[Row] = []
    for algorithm in algorithms:
        for wrapped in (False, True):
            wrapper = WrapperConfig(theta=theta) if wrapped else None
            results = [
                run_campaign(algorithm, n, wrapper, seed, settings)[1]
                for seed in seeds
            ]
            latencies = [
                m.convergence_latency
                for m in results
                if m.convergence_latency is not None
            ]
            rows.append(
                {
                    "algorithm": algorithm,
                    "wrapper": f"W'(theta={theta})" if wrapped else "none",
                    "runs": len(results),
                    "stabilized": sum(1 for m in results if m.converged),
                    "latency": Aggregate.of(latencies),
                    "entries": Aggregate.of([m.cs_entries for m in results]),
                    "wrapper_msgs": Aggregate.of(
                        [m.wrapper_messages for m in results]
                    ),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E3 -- the Section-4 deadlock scenario
# ---------------------------------------------------------------------------


def experiment_deadlock(
    algorithms: tuple[str, ...] = ("ra", "lamport"),
    seeds: tuple[int, ...] = (1, 2, 3),
    steps: int = 1500,
    theta: int = 2,
) -> list[Row]:
    """Paper claim (Section 4): mutually stale REQ information deadlocks
    the bare protocol; W's retransmission breaks the deadlock."""
    rows: list[Row] = []
    for algorithm in algorithms:
        for wrapped in (False, True):
            wrapper = WrapperConfig(theta=theta) if wrapped else None
            recovered = 0
            first_entry: list[int] = []
            for seed in seeds:
                overrides = deadlock_overrides(algorithm, ("p0", "p1"))
                sim = build_simulation(
                    algorithm,
                    n=2,
                    seed=seed,
                    client=DEFAULT_CLIENT,
                    wrapper=wrapper,
                    overrides=overrides,
                )
                trace = sim.run(steps)
                entries = cs_entries(trace)
                if entries > 0:
                    recovered += 1
                    for i in range(1, len(trace.states)):
                        prev, cur = trace.states[i - 1], trace.states[i]
                        if any(
                            prev.var(p, "phase") == "h"
                            and cur.var(p, "phase") == "e"
                            for p in cur.pids()
                        ):
                            first_entry.append(i)
                            break
            rows.append(
                {
                    "algorithm": algorithm,
                    "wrapper": f"W'(theta={theta})" if wrapped else "none",
                    "runs": len(seeds),
                    "recovered": recovered,
                    "first_entry_step": Aggregate.of(first_entry),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E4 -- W' timeout tuning
# ---------------------------------------------------------------------------


def experiment_timeout(
    thetas: tuple[int, ...] = (0, 1, 2, 4, 8, 16, 32),
    algorithm: str = "ra",
    seeds: tuple[int, ...] = (1, 2, 3),
    settings: CampaignSettings = CampaignSettings(),
) -> list[Row]:
    """Paper claim: the timeout is "just an optimization" -- any theta
    stabilizes; larger theta trades recovery latency for fewer
    retransmissions in the steady state."""
    rows: list[Row] = []
    for theta in thetas:
        wrapper = WrapperConfig(theta=theta)
        latencies: list[int] = []
        stabilized = 0
        steady_msgs: list[int] = []
        for seed in seeds:
            trace, metrics = run_campaign(
                algorithm, 3, wrapper, seed, settings
            )
            if metrics.converged:
                stabilized += 1
                if metrics.convergence_latency is not None:
                    latencies.append(metrics.convergence_latency)
            # steady state: wrapper sends in the pre-fault window
            steady_msgs.append(
                wrapper_sends(trace, 0, settings.fault_start)
            )
        rows.append(
            {
                "theta": theta,
                "runs": len(seeds),
                "stabilized": stabilized,
                "latency": Aggregate.of(latencies),
                "steady_wrapper_msgs": Aggregate.of(steady_msgs),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E5 -- scalability in n
# ---------------------------------------------------------------------------


def experiment_scaling(
    ns: tuple[int, ...] = (2, 3, 4, 5, 6, 8),
    algorithm: str = "ra",
    seeds: tuple[int, ...] = (1, 2, 3),
    theta: int = 4,
    settings: CampaignSettings = CampaignSettings(),
) -> list[Row]:
    """Convergence latency and wrapper traffic as the system grows."""
    rows: list[Row] = []
    for n in ns:
        wrapper = WrapperConfig(theta=theta)
        latencies: list[int] = []
        stabilized = 0
        wrapper_msgs: list[int] = []
        for seed in seeds:
            _trace, metrics = run_campaign(
                algorithm, n, wrapper, seed, settings
            )
            if metrics.converged:
                stabilized += 1
                if metrics.convergence_latency is not None:
                    latencies.append(metrics.convergence_latency)
            wrapper_msgs.append(metrics.wrapper_messages)
        rows.append(
            {
                "n": n,
                "runs": len(seeds),
                "stabilized": stabilized,
                "latency": Aggregate.of(latencies),
                "wrapper_msgs": Aggregate.of(wrapper_msgs),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E6 -- reuse matrix (Corollary 11 + the negative control)
# ---------------------------------------------------------------------------


def experiment_reuse(
    seeds: tuple[int, ...] = (1, 2, 3),
    theta: int = 4,
    settings: CampaignSettings = CampaignSettings(),
) -> list[Row]:
    """Paper claim: the *same* wrapper W stabilizes every everywhere-
    implementation of Lspec (RA, Lamport) -- and nothing is promised for a
    non-implementation (token ring)."""
    rows: list[Row] = []
    for algorithm in ("ra", "ra-count", "lamport", "token"):
        for wrapped in (False, True):
            wrapper = WrapperConfig(theta=theta) if wrapped else None
            stabilized = 0
            me1 = 0
            for seed in seeds:
                _trace, metrics = run_campaign(
                    algorithm,
                    3,
                    wrapper,
                    seed,
                    settings,
                    check_fcfs=algorithm != "token",
                )
                if metrics.converged:
                    stabilized += 1
                me1 += metrics.me1_violations
            rows.append(
                {
                    "algorithm": algorithm,
                    "implements_lspec": algorithm != "token",
                    "wrapper": f"W'(theta={theta})" if wrapped else "none",
                    "stabilized": f"{stabilized}/{len(seeds)}",
                    "me1_violations": me1,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E7 -- graybox vs whitebox verification surface
# ---------------------------------------------------------------------------


def experiment_verification_cost(
    ns: tuple[int, ...] = (2, 3, 4, 5),
    max_clock: int = 2,
    explore_depth: int = 6,
    explore_max_states: int = 20_000,
) -> list[Row]:
    """Paper claim (Section 1): whitebox stabilization needs an invariant
    over the *global* state space (the product of all process states --
    "the complexity of calculating the invariant of large implementations
    may be exorbitant"), while Theorem 4 reduces the graybox obligation to
    per-process checks (a *sum*).

    Measured: the per-process local state count L(n) for RA_ME over a
    bounded clock domain (enumerated by the same machinery the exhaustive
    E8b check runs on), the graybox total n*L(n), and the whitebox global
    space L(n)^n (a lower bound -- it ignores channel contents entirely).

    The closed-form columns are complemented by *measured* bounded
    explorations on the unified engine (:mod:`repro.explore`): the local
    space of one process and the global product space, both to
    ``explore_depth`` steps, with the engine's throughput
    (:class:`~repro.explore.ExplorationStats`) alongside.  The global
    exploration is capped at ``explore_max_states`` states -- on this
    surface a cap is the point, not a limitation.

    The symmetric columns rerun the global exploration in the quotient
    under process-permutation symmetry (``symmetry="full"``, sound for
    the pid-template RA program -- see :mod:`repro.explore.canon`):
    ``global_sym`` counts orbit representatives, ``sym_reduction`` the
    measured exact/quotient ratio (up to ``n!``), and ``bytes_per_state``
    the interned store's packed footprint per representative.
    """
    from repro.explore import (
        GlobalSimulatorSpace,
        LocalProcessSpace,
        default_message_alphabet,
        explore,
    )
    from repro.tme import ClientConfig, tme_programs
    from repro.verification.refinement import count_local_states

    client = ClientConfig(think_delay=1, eat_delay=1)
    rows: list[Row] = []
    for n in ns:
        local = count_local_states("ra", n=n, max_clock=max_clock)
        graybox_total = n * local
        whitebox_space = local**n
        programs = tme_programs("ra", n, client)
        pids = tuple(sorted(programs))
        alphabet = default_message_alphabet(
            pids[1:], ("request", "reply"), max_clock
        )
        local_run = explore(
            LocalProcessSpace(
                programs[pids[0]], pids[0], pids, alphabet, max_clock
            ),
            max_depth=explore_depth,
            max_states=200_000,
        )
        global_run = explore(
            GlobalSimulatorSpace(programs),
            max_depth=explore_depth,
            max_states=explore_max_states,
        )
        sym_run = explore(
            GlobalSimulatorSpace(programs, symmetry="full"),
            max_depth=explore_depth,
            max_states=explore_max_states,
        )
        sym_reduction = (
            global_run.states / sym_run.states if sym_run.states else 0.0
        )
        rows.append(
            {
                "n": n,
                "local_states_L": local,
                "graybox_total_nL": graybox_total,
                "whitebox_global_L^n": f"{whitebox_space:.3e}",
                "ratio": f"{whitebox_space / graybox_total:.2e}",
                "local_explored": local_run.states,
                "global_explored": (
                    f"{global_run.states}"
                    + ("+" if global_run.stats.truncated else "")
                ),
                "global_sym": (
                    f"{sym_run.states}"
                    + ("+" if sym_run.stats.truncated else "")
                ),
                "sym_reduction": f"{sym_reduction:.2f}x",
                "bytes_per_state": (
                    f"{sym_run.stats.bytes_per_state:.0f}"
                ),
                "global_states_per_sec": (
                    f"{global_run.stats.states_per_second:.0f}"
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E14 -- the Section-4 refinement ablation: basic W vs refined W
# ---------------------------------------------------------------------------


def experiment_refinement(
    algorithm: str = "ra",
    seeds: tuple[int, ...] = (1, 2, 3),
    theta: int = 4,
    settings: CampaignSettings = CampaignSettings(),
) -> list[Row]:
    """Section 4 refines W_j (retransmit to everyone while hungry) into the
    suspect-set version (only ``k in X = {k : j.REQ_k lt REQ_j}``), arguing
    the rest is redundant: peers outside X are either fine or fixed by
    their own wrappers.  Measured: both variants stabilize; the refined
    wrapper sends strictly fewer retransmissions for the same outcome.
    """
    rows: list[Row] = []
    for refined in (False, True):
        wrapper = WrapperConfig(theta=theta, refined=refined)
        stabilized = 0
        wrapper_msgs: list[int] = []
        entries: list[int] = []
        for seed in seeds:
            _trace, metrics = run_campaign(
                algorithm, 3, wrapper, seed, settings
            )
            stabilized += metrics.converged
            wrapper_msgs.append(metrics.wrapper_messages)
            entries.append(metrics.cs_entries)
        rows.append(
            {
                "wrapper": wrapper.variant_name,
                "runs": len(seeds),
                "stabilized": stabilized,
                "wrapper_msgs": Aggregate.of(wrapper_msgs),
                "entries": Aggregate.of(entries),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E12 -- automatic wrapper synthesis (Section 6 future work)
# ---------------------------------------------------------------------------


def experiment_synthesis(
    sizes: tuple[int, ...] = (4, 6, 8, 12),
    specs_per_size: int = 40,
    seed: int = 17,
) -> list[Row]:
    """Paper direction: "automatic synthesis of graybox dependability".

    For random finite everywhere-specifications, synthesize the recovery
    wrapper, verify fair stabilization of ``A box W``, and verify the
    Theorem-1 transfer to a random everywhere-implementation.  Reports the
    wrapper footprint (recovery edges vs. state count) and how often plain
    (fairness-free) stabilization already holds.
    """
    from repro.core import (
        box,
        is_stabilizing_to_fair,
        random_subsystem,
        random_system,
        synthesize_stabilizing_wrapper,
    )

    rng = random.Random(seed)
    rows: list[Row] = []
    for size in sizes:
        verified = 0
        transfer_verified = 0
        unfair_ok = 0
        recovery_counts: list[int] = []
        for _ in range(specs_per_size):
            abstract = random_system(rng, size, 0.35, "A")
            # anchor the legitimate region at a single initial state so the
            # synthesis problem is non-trivial (illegitimate states exist)
            abstract = abstract.with_initial([min(abstract.states, key=repr)])
            result = synthesize_stabilizing_wrapper(abstract)
            recovery_counts.append(result.recovery_count)
            composed = box(abstract, result.wrapper)
            if is_stabilizing_to_fair(
                composed, abstract, [result.recovery_edges]
            ):
                verified += 1
            concrete = random_subsystem(rng, abstract, "C")
            if is_stabilizing_to_fair(
                box(concrete, result.wrapper),
                abstract,
                [result.recovery_edges],
            ):
                transfer_verified += 1
            if result.stabilizes_unfair:
                unfair_ok += 1
        rows.append(
            {
                "spec_states": size,
                "specs": specs_per_size,
                "A+W fair-stabilizing": verified,
                "C+W fair-stabilizing": transfer_verified,
                "plain (no fairness)": unfair_ok,
                "recovery_edges": Aggregate.of(recovery_counts),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E13 -- FIFO ablation: what Communication Spec buys
# ---------------------------------------------------------------------------


def experiment_fifo_ablation(
    algorithm: str = "ra",
    seeds: tuple[int, ...] = (1, 2, 3),
    steps: int = 3000,
    theta: int = 4,
    reorder_prob: float = 0.8,
) -> list[Row]:
    """Communication Spec demands FIFO channels.  Reordering is *outside*
    the paper's fault model; this ablation shows the boundary:

    * a **finite burst** of reordering is just another transient fault --
      the wrapped system still stabilizes;
    * **persistent** reordering falsifies the Environment Spec, so the
      wrapper's guarantee is void.  (Empirically, RA_ME with sound reply
      semantics still shows no violations -- the FIFO premise is needed by
      the proofs, not observably by this implementation.  A draft whose
      replies carried raw clocks instead of REQ values *did* violate
      mutual exclusion here, which is exactly the kind of bug a voided
      premise permits.)
    """
    from repro.faults.injector import Windowed
    from repro.faults.message_faults import MessageReorder

    rows: list[Row] = []
    for mode in ("none", "finite burst", "persistent"):
        stabilized = 0
        me1 = 0
        me3 = 0
        late_violations = 0
        reorders = 0
        for seed in seeds:
            rng = random.Random(seed * 97 + 5)
            injector = MessageReorder(rng, reorder_prob)
            if mode == "none":
                hook = None
            elif mode == "finite burst":
                hook = Windowed(injector, 100, 400)
            else:
                hook = injector
            sim = build_simulation(
                algorithm,
                n=3,
                seed=seed,
                client=DEFAULT_CLIENT,
                wrapper=WrapperConfig(theta=theta),
                fault_hook=hook,
                deliver_bias=1.0,
            )
            trace = sim.run(steps)
            report = check_tme_spec(trace)
            me1 += len(report.me1)
            me3 += len(report.me3)
            late = [
                i
                for i in list(report.me1)
                + [v.entry_index for v in report.me3]
                if i > steps * 3 // 4
            ]
            late_violations += len(late)
            reorders += injector.count
            if mode != "persistent":
                conv = check_stabilization(trace, liveness_grace=450)
                stabilized += conv.converged
        rows.append(
            {
                "reordering": mode,
                "runs": len(seeds),
                "reorder_faults": reorders,
                "stabilized": stabilized if mode != "persistent" else "n/a",
                "me1_violations": me1,
                "me3_violations": me3,
                "violations_in_last_quarter": late_violations,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E8 -- Theorems 9/10: everywhere implementation of Lspec
# ---------------------------------------------------------------------------


def experiment_everywhere(
    algorithms: tuple[str, ...] = ("ra", "ra-count", "lamport"),
    n: int = 3,
    runs: int = 15,
    steps: int = 1200,
    grace: int = 300,
) -> list[Row]:
    """Paper claim: RA_ME and Lamport_ME everywhere implement Lspec --
    checked from corrupted starts, fault-free, all clauses monitored."""
    rows: list[Row] = []
    for algorithm in algorithms:
        report = everywhere_implements_lspec(
            algorithm, n=n, runs=runs, steps=steps, seed=42, grace=grace
        )
        rows.append(
            {
                "algorithm": algorithm,
                "runs": report.runs,
                "clean_runs": report.clean_runs,
                "safety_violations": dict(report.safety_violations) or "none",
                "overdue_liveness": dict(report.pending_clauses) or "none",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E9 -- Lemma 6: interference freedom
# ---------------------------------------------------------------------------


def experiment_interference(
    algorithms: tuple[str, ...] = ("ra", "lamport"),
    n: int = 3,
    seeds: tuple[int, ...] = (1, 2, 3),
    steps: int = 2500,
    thetas: tuple[int, ...] = (0, 4),
    grace: int = 200,
) -> list[Row]:
    """Paper claim (Lemma 6): Lspec box W everywhere implements Lspec --
    the wrapper never breaks a conforming implementation, even fault-free."""
    rows: list[Row] = []
    for algorithm in algorithms:
        for theta in thetas:
            violations = 0
            wrapper_msgs: list[int] = []
            entries: list[int] = []
            for seed in seeds:
                sim = build_simulation(
                    algorithm,
                    n=n,
                    seed=seed,
                    client=DEFAULT_CLIENT,
                    wrapper=WrapperConfig(theta=theta),
                )
                trace = sim.run(steps)
                programs = {
                    pid: proc.program for pid, proc in sim.processes.items()
                }
                lrep = check_lspec(trace, programs)
                violations += lrep.total_violations()
                wrapper_msgs.append(wrapper_sends(trace))
                entries.append(cs_entries(trace))
            rows.append(
                {
                    "algorithm": algorithm,
                    "theta": theta,
                    "lspec_violations": violations,
                    "wrapper_msgs": Aggregate.of(wrapper_msgs),
                    "entries": Aggregate.of(entries),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E10 -- Theorem 5: Lspec => TME Spec
# ---------------------------------------------------------------------------


def experiment_theorem5(
    algorithms: tuple[str, ...] = ("ra", "lamport"),
    n: int = 3,
    seeds: tuple[int, ...] = (1, 2, 3, 4),
    steps: int = 2500,
    grace: int = 300,
) -> list[Row]:
    """Paper claim (Theorem 5): every implementation of Lspec implements
    TME Spec -- on every fault-free run, Lspec-clean implies ME1-ME3."""
    rows: list[Row] = []
    for algorithm in algorithms:
        lspec_ok = 0
        tme_ok = 0
        implication_held = 0
        for seed in seeds:
            sim = build_simulation(
                algorithm, n=n, seed=seed, client=DEFAULT_CLIENT
            )
            trace = sim.run(steps)
            programs = {
                pid: proc.program for pid, proc in sim.processes.items()
            }
            l_ok = check_lspec(trace, programs).ok(grace=grace)
            t_ok = check_tme_spec(trace).holds(liveness_grace=grace)
            lspec_ok += l_ok
            tme_ok += t_ok
            implication_held += (not l_ok) or t_ok
        rows.append(
            {
                "algorithm": algorithm,
                "runs": len(seeds),
                "lspec_clean": lspec_ok,
                "tme_clean": tme_ok,
                "implication_held": f"{implication_held}/{len(seeds)}",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E16 -- Monte-Carlo convergence-latency campaign (repro.campaign)
# ---------------------------------------------------------------------------


def experiment_campaign(
    algorithms: tuple[str, ...] = ("ra", "lamport", "token"),
    sizes: tuple[int, ...] = (8, 16, 32),
    scales: tuple[float, ...] = (0.5, 1.0, 2.0),
    trials: int = 10,
    theta: int = 4,
    root_seed: int = 0,
    workers: int = 1,
) -> list[Row]:
    """Statistical stabilization at scale (:mod:`repro.campaign`).

    Two sweeps of wrapped-algorithm campaigns, reporting the
    convergence-latency distribution (steps after the fault window
    closes):

    * latency vs system size: each algorithm at every ``n`` in ``sizes``
      under the standard Section 3.1 fault rates;
    * latency vs fault intensity: ``ra`` at ``n = sizes[0]`` with the
      standard rates scaled by each factor in ``scales`` (1.0 appears in
      both sweeps and serves as the cross-check row).
    """
    from repro.campaign import CampaignSpec, FaultRates
    from repro.campaign import run_campaign as run_mc_campaign
    from repro.campaign import summarize

    def row(algorithm: str, n: int, scale: float, sweep: str) -> Row:
        spec = CampaignSpec(
            algorithm=algorithm,
            n=n,
            root_seed=root_seed,
            theta=theta,
            rates=FaultRates().scaled(scale),
        )
        import time

        started = time.perf_counter()
        results = run_mc_campaign(spec, trials, workers=workers)
        summary = summarize(results, time.perf_counter() - started)
        return {
            "sweep": sweep,
            "algorithm": algorithm,
            "n": n,
            "fault_scale": scale,
            "trials": trials,
            "converged": f"{summary.outcomes.get('converged', 0)}/{trials}",
            "latency_mean": round(summary.latency.mean, 1),
            "latency_p50": summary.latency.p50,
            "latency_p95": round(summary.latency.p95, 1),
            "latency_max": summary.latency.maximum,
            "faults": summary.total_faults,
        }

    rows: list[Row] = []
    for algorithm in algorithms:
        for n in sizes:
            rows.append(row(algorithm, n, 1.0, "size"))
    for scale in scales:
        if scale == 1.0:
            continue  # already measured in the size sweep
        rows.append(row(algorithms[0], sizes[0], scale, "intensity"))
    return rows


def experiment_churn(
    algorithms: tuple[str, ...] = ("ra", "ra-count", "lamport", "token"),
    n: int = 8,
    trials: int = 10,
    theta: int = 4,
    churn_scale: float = 1.0,
    root_seed: int = 0,
    workers: int = 1,
) -> list[Row]:
    """E17: availability under crash-restart/partition churn, with and
    without the self-healing recovery subsystem (:mod:`repro.recovery`).

    Every wrapped algorithm runs the same churned campaign (the standard
    Section 3.1 fault burst *plus* crash-restart and partition decisions
    at the standard :class:`~repro.campaign.ChurnRates` scaled by
    ``churn_scale``) twice -- recovery attached, recovery off -- and the
    table reports convergence, mean availability, and the detection /
    recovery latency distributions.  The token ring is the negative
    control: exclusion cannot substitute for its token, so only the
    watchdog's global reset restores service.
    """
    import time

    from repro.campaign import CampaignSpec, ChurnRates
    from repro.campaign import run_campaign as run_mc_campaign
    from repro.campaign import summarize
    from repro.recovery import RecoveryConfig

    def row(algorithm: str, recovery: bool) -> Row:
        spec = CampaignSpec(
            algorithm=algorithm,
            n=n,
            root_seed=root_seed,
            theta=theta,
            churn=ChurnRates().scaled(churn_scale),
            recovery=RecoveryConfig() if recovery else None,
        )
        started = time.perf_counter()
        results = run_mc_campaign(spec, trials, workers=workers)
        summary = summarize(results, time.perf_counter() - started)
        detection = summary.detection
        recovery_lat = summary.recovery
        return {
            "algorithm": algorithm,
            "recovery": "on" if recovery else "off",
            "n": n,
            "trials": trials,
            "converged": f"{summary.outcomes.get('converged', 0)}/{trials}",
            "availability": (
                round(summary.availability_mean, 3)
                if summary.availability_mean is not None
                else "-"
            ),
            "detect_p50": detection.p50 if detection else "-",
            "detect_p95": round(detection.p95, 1) if detection else "-",
            "recover_p50": recovery_lat.p50 if recovery_lat else "-",
            "recover_p95": (
                round(recovery_lat.p95, 1) if recovery_lat else "-"
            ),
            "dropped": summary.total_dropped,
        }

    rows: list[Row] = []
    for algorithm in algorithms:
        rows.append(row(algorithm, recovery=True))
    for algorithm in algorithms:
        rows.append(row(algorithm, recovery=False))
    return rows


# ---------------------------------------------------------------------------
# E18 -- out-of-core exploration: the journal's cost, and resume
# ---------------------------------------------------------------------------


def experiment_parallel(
    algorithm: str = "ra",
    n: int = 4,
    max_depth: int = 10,
) -> list[Row]:
    """E18: what it costs to make the whitebox enumeration kill-safe.

    Section 1's whitebox complaint is about the *size* of the global
    state space: at scale the enumeration outgrows RAM and outlives the
    process running it.  Every row explores the same symmetric quotient
    with the same loop and must land on the bit-identical visited set
    (same count, same content digest).  ``checkpointed`` keeps only
    16-byte digests in RAM and journals every admitted state to disk,
    committed level by level; ``resumed`` replays that journal -- no
    state below the last committed level is expanded again, so its time
    is reading digests back and rebuilding that one level's nodes.
    ``speedup`` is honest wall-clock against ``serial``.
    (Sharding the BFS across processes was measured here through PR 20
    and lost to the serial engine at every size; see DESIGN decision 12.)
    """
    import tempfile
    import time

    from repro.explore import GlobalSimulatorSpace, explore
    from repro.tme import tme_programs

    client = ClientConfig(think_delay=1, eat_delay=1)
    programs = tme_programs(algorithm, n, client)
    symmetry = "ring" if algorithm == "token" else "full"

    def timed(label: str, **kwargs) -> tuple[Row, str]:
        started = time.perf_counter()
        run = explore(
            GlobalSimulatorSpace(programs, symmetry=symmetry),
            max_depth=max_depth,
            max_states=200_000,
            **kwargs,
        )
        digest = run.content_digest()
        elapsed = time.perf_counter() - started
        return {
            "mode": label,
            "states": run.states,
            "digest": digest[:12],
            "states_per_sec": f"{run.states / elapsed:.0f}",
            "resumed": run.stats.resumed_states,
            "spilled_kib": round(run.stats.spill_bytes / 1024, 1),
        }, digest

    serial_row, serial_digest = timed("serial")
    serial_row["speedup"] = "1.00x"
    serial_rate = float(serial_row["states_per_sec"])
    rows: list[Row] = [serial_row]
    with tempfile.TemporaryDirectory() as store_dir:
        row, digest = timed("checkpointed", store_dir=store_dir)
        row["speedup"] = f"{float(row['states_per_sec']) / serial_rate:.2f}x"
        assert digest == serial_digest
        rows.append(row)
        row, digest = timed("resumed", store_dir=store_dir, resume=True)
        row["speedup"] = "-"
        assert digest == serial_digest
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# E19 -- the live service: throughput and tail latency, chaos on vs off
# ---------------------------------------------------------------------------


def experiment_service(
    n: int = 3,
    theta: int = 8,
    clients: int = 30,
    duration_s: float = 3.0,
) -> list[Row]:
    """E19: the deployed-implementation claim, measured.

    Section 1 motivates graybox stabilization with *deployed*
    implementations -- components that already run and cannot be
    redesigned.  This experiment runs the same wrapped programs the
    simulator verifies as a real asyncio cluster on localhost sockets
    (:mod:`repro.service`) under concurrent lock clients, once clean and
    once with a chaos partition cutting one node for the middle third of
    the run.  Checked claims: the online monitor sees zero ME1/ME3
    violations either way; offline revalidation of the persisted trace
    reproduces the online verdict bit-for-bit; and the chaos run's
    latency tail (the stall) is the outage, not a safety violation.
    """
    import asyncio
    import tempfile
    from pathlib import Path

    from repro.service import (
        ChaosConfig,
        ClusterConfig,
        LoadgenConfig,
        LocalCluster,
        run_loadgen,
    )
    from repro.service.monitor import revalidate_trace

    async def variant(label: str, chaos: ChaosConfig | None, trace: str) -> Row:
        cluster = LocalCluster(
            ClusterConfig(n=n, theta=theta, trace_path=trace), chaos=chaos
        )
        await cluster.start()
        result = await run_loadgen(
            LoadgenConfig(
                ports=tuple(cluster.client_ports()),
                clients=clients,
                duration_s=duration_s,
                acquire_timeout_s=duration_s * 4,
                think_s=0.002,
            )
        )
        report = await cluster.stop()
        offline = revalidate_trace(trace)
        matches = (
            offline.me1 == report.me1
            and offline.me3 == report.me3
            and offline.trace_length == report.trace_length
        )
        latency = result.latency_summary()
        return {
            "variant": label,
            "clients": clients,
            "grants": result.grants,
            "grants_per_s": round(result.throughput, 1),
            "p50_ms": round(latency.p50, 2),
            "p95_ms": round(latency.p95, 2),
            "max_ms": round(latency.maximum, 1),
            "me1": len(report.me1),
            "me3": len(report.me3),
            "offline_match": matches,
        }

    tick_s = 0.05
    third_ticks = max(1, int(duration_s / 3 / tick_s))
    chaos = ChaosConfig(
        tick_s=tick_s,
        cut_at_tick=third_ticks,
        outage_ticks=third_ticks,
        victim="p0",
    )

    async def run_all() -> list[Row]:
        with tempfile.TemporaryDirectory() as tmp:
            rows = [
                await variant(
                    "clean", None, str(Path(tmp) / "clean.jsonl")
                ),
                await variant(
                    "chaos (p0 cut mid-run)",
                    chaos,
                    str(Path(tmp) / "chaos.jsonl"),
                ),
            ]
        return rows

    return asyncio.run(run_all())


# ---------------------------------------------------------------------------
# E20 -- kill-safe campaigns: chaos self-test digest stability
# ---------------------------------------------------------------------------


def experiment_killsafe(
    trials: int = 24,
    n: int = 4,
    workers: tuple[int, ...] = (1, 2),
    root_seed: int = 0,
    kill_rate: float = 0.25,
) -> list[Row]:
    """E20: Corollary 11's campaigns survive ``kill -9``, end to end.

    Each row runs the built-in chaos self-test
    (:func:`repro.campaign.run_chaos_selftest`) over the same campaign
    matrix: a clean in-process run stamps the reference content hash,
    then the campaign re-runs against a durable journal while a seeded
    chaos hook SIGKILLs workers mid-trial and the coordinator itself is
    SIGKILLed at seeded delays and resumed until it completes.  The
    ``digest_match`` column is the claim: the resumed run's stamped
    artifact hash is bit-identical to the uninterrupted one's, at every
    worker count (``workers=1`` exercises the serial fallback under
    coordinator kills alone).
    """
    import tempfile

    from repro.campaign import (
        CampaignSpec,
        run_chaos_selftest,
        single_spec_matrix,
    )

    spec = CampaignSpec(
        algorithm="ra",
        n=n,
        root_seed=root_seed,
        fault_start=20,
        fault_stop=80,
        confirm_window=120,
        max_steps=900,
    )
    rows: list[Row] = []
    for count in workers:
        matrix = single_spec_matrix(spec, trials, name="killsafe")
        with tempfile.TemporaryDirectory() as store:
            report = run_chaos_selftest(
                matrix,
                store,
                workers=count,
                seed=root_seed + count,
                kill_rate=kill_rate,
            )
        rows.append(
            {
                "workers": count,
                "trials": trials,
                "coordinator_kills": report.coordinator_kills,
                "rounds": report.rounds,
                "resumed": report.resumed_results,
                "digest": report.reference_hash.removeprefix("sha256:")[:12],
                "digest_match": report.digests_match,
            }
        )
    return rows
