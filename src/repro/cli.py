"""Command-line interface: ``python -m repro <command>``.

A handful of commands cover the common workflows without writing any
Python:

``run``
    Simulate a TME system (optionally wrapped, optionally under the
    standard fault campaign) and print the full verification bundle.

``experiment``
    Regenerate one of the EXPERIMENTS.md tables (E2-E20) at a chosen
    repetition count; ``--json`` also writes the rows as a stamped
    artifact (schema version + content hash).

``figure1``
    Decide the Figure 1 relations and print the verdicts.

``explore``
    Run the unified exploration engine over a TME system's global (or one
    process's local) state space and print the full
    :class:`~repro.explore.ExplorationStats` instrumentation.

``campaign``
    Run a parallel Monte-Carlo fault-injection campaign
    (:mod:`repro.campaign`): seeded randomized trials, convergence-latency
    distribution, stamped JSON artifact, plus ``--replay``/``--shrink``
    for bit-for-bit trial reproduction and counterexample minimization.
    ``--spec`` expands a declarative experiment file into a multi-config
    trial matrix; ``--store-dir`` journals every trial durably so
    ``--resume`` finishes a killed campaign to the bit-identical content
    hash, and ``--chaos-selftest`` proves exactly that by SIGKILLing
    workers and the coordinator at seeded points.

``lint``
    Statically verify action purity, determinism, and graybox
    non-interference (:mod:`repro.lint`); ``--dynamic`` adds the
    instrumented cross-check run.

Everything is seeded; identical invocations produce identical output.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable, Sequence
from pathlib import Path

EXPERIMENTS: dict[str, tuple[str, str]] = {
    "E2": ("experiment_stabilization", "Theorem 8: W stabilizes RA/Lamport"),
    "E3": ("experiment_deadlock", "Section-4 deadlock, bare vs wrapped"),
    "E4": ("experiment_timeout", "W' timeout sweep"),
    "E5": ("experiment_scaling", "stabilization vs system size"),
    "E6": ("experiment_reuse", "wrapper reuse matrix"),
    "E7": ("experiment_verification_cost", "graybox vs whitebox surfaces"),
    "E8": ("experiment_everywhere", "Theorems 9/10: everywhere implementation"),
    "E9": ("experiment_interference", "Lemma 6: interference freedom"),
    "E10": ("experiment_theorem5", "Theorem 5: Lspec => TME Spec"),
    "E12": ("experiment_synthesis", "automatic wrapper synthesis"),
    "E13": ("experiment_fifo_ablation", "FIFO assumption ablation"),
    "E14": ("experiment_refinement", "basic vs refined wrapper"),
    "E16": ("experiment_campaign", "Monte-Carlo convergence-latency campaign"),
    "E17": ("experiment_churn", "crash-restart/partition churn with recovery"),
    "E18": ("experiment_parallel", "out-of-core exploration and resume"),
    "E19": ("experiment_service", "live lock service under load and chaos"),
    "E20": ("experiment_killsafe", "kill/resume campaign digest stability"),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (separate for testability)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graybox Stabilization (DSN 2001) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a TME system and verify it")
    run.add_argument(
        "--algorithm",
        default="ra",
        choices=["ra", "ra-count", "lamport", "token"],
    )
    run.add_argument("--n", type=int, default=3, help="number of processes")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--steps", type=int, default=3000)
    run.add_argument(
        "--theta",
        type=int,
        default=None,
        help="attach the wrapper W' with this timeout (omit for bare)",
    )
    run.add_argument(
        "--faults",
        nargs=2,
        type=int,
        metavar=("START", "STOP"),
        default=None,
        help="inject the standard fault campaign in this step window",
    )
    run.add_argument(
        "--grace",
        type=int,
        default=400,
        help="liveness grace horizon for the verdicts",
    )

    exp = sub.add_parser("experiment", help="regenerate an EXPERIMENTS.md table")
    exp.add_argument("id", choices=sorted(EXPERIMENTS), help="experiment id")
    exp.add_argument(
        "--seeds",
        type=int,
        default=2,
        help="repetitions per configuration (where applicable)",
    )
    exp.add_argument(
        "--json",
        type=Path,
        metavar="PATH",
        default=None,
        help="also write the rows as a stamped JSON artifact",
    )

    sub.add_parser("figure1", help="decide the Figure 1 relations")

    explore = sub.add_parser(
        "explore",
        help="explore a TME state space and print engine statistics",
    )
    explore.add_argument(
        "--algorithm",
        default="ra",
        choices=["ra", "ra-count", "lamport", "token"],
    )
    explore.add_argument("--n", type=int, default=3, help="number of processes")
    explore.add_argument(
        "--local",
        metavar="PID",
        default=None,
        help="explore this process's local space instead of the global one",
    )
    explore.add_argument("--max-depth", type=int, default=8)
    explore.add_argument("--max-states", type=int, default=200_000)
    explore.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="wall-time budget for the exploration",
    )
    explore.add_argument(
        "--max-clock",
        type=int,
        default=6,
        help="clock bound for the local message alphabet (with --local)",
    )
    explore.add_argument(
        "--symmetry",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=(
            "deduplicate process-permutation orbits: the full symmetric "
            "group for ra/ra-count/lamport, ring rotations for token, "
            "peer permutations with --local (default: off, exact space)"
        ),
    )
    explore.add_argument(
        "--store-dir",
        "--checkpoint",
        dest="store_dir",
        type=Path,
        metavar="DIR",
        default=None,
        help=(
            "spill visited states to an append-only journal in DIR and "
            "checkpoint every BFS level (out-of-core exploration; "
            "global space only)"
        ),
    )
    explore.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue a killed run from the last committed level in "
            "--store-dir instead of starting over"
        ),
    )
    explore.add_argument(
        "--profile",
        action="store_true",
        help=(
            "break the run's wall-clock into engine phases "
            "(expand/canonicalize/store/dedup)"
        ),
    )
    explore.add_argument(
        "--json",
        type=Path,
        metavar="PATH",
        default=None,
        help="also write the stats (and profile, if any) as JSON",
    )

    campaign = sub.add_parser(
        "campaign",
        help="run a parallel Monte-Carlo fault-injection campaign",
    )
    campaign.add_argument(
        "--algorithm",
        default="ra",
        choices=["ra", "ra-count", "lamport", "token"],
    )
    campaign.add_argument("--n", type=int, default=8, help="number of processes")
    campaign.add_argument("--trials", type=int, default=100)
    campaign.add_argument(
        "--root-seed",
        type=int,
        default=0,
        help="root of the hierarchical per-trial seed derivation",
    )
    campaign.add_argument(
        "--theta",
        type=int,
        default=4,
        help="wrapper W' timeout (ignored with --bare)",
    )
    campaign.add_argument(
        "--bare",
        action="store_true",
        help="run the bare algorithm, no wrapper",
    )
    campaign.add_argument(
        "--faults",
        nargs=2,
        type=int,
        metavar=("START", "STOP"),
        default=(40, 160),
        help="fault window in steps (default 40 160)",
    )
    campaign.add_argument(
        "--fault-scale",
        type=float,
        default=1.0,
        help="scale the standard per-step fault rates by this factor",
    )
    campaign.add_argument(
        "--churn",
        type=float,
        default=0.0,
        metavar="SCALE",
        help="crash-restart/partition churn: scale the standard churn "
        "rates by this factor (0 = off, pre-churn digests unchanged)",
    )
    campaign.add_argument(
        "--downtime",
        type=int,
        default=40,
        help="steps a crash-restarted process stays down (with --churn)",
    )
    campaign.add_argument(
        "--heal-after",
        type=int,
        default=60,
        help="steps before an injected partition auto-heals (with --churn)",
    )
    campaign.add_argument(
        "--recovery",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="attach the self-healing recovery subsystem "
        "(default: on iff --churn > 0)",
    )
    campaign.add_argument(
        "--stall-window",
        type=int,
        default=None,
        help="recovery watchdog stall threshold (default: scales with n)",
    )
    campaign.add_argument(
        "--confirm-window",
        type=int,
        default=None,
        help="legitimacy confirmation window (default: scales with n)",
    )
    campaign.add_argument(
        "--max-steps",
        type=int,
        default=None,
        help="per-trial step budget (default: scales with the window)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = in-process serial)",
    )
    campaign.add_argument(
        "--trial-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per trial before it is killed",
    )
    campaign.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the campaign artifact (spec + per-trial results) here",
    )
    campaign.add_argument(
        "--replay",
        type=int,
        metavar="ID",
        default=None,
        help="replay one trial id from its recorded decisions and verify "
        "the digest matches the free run",
    )
    campaign.add_argument(
        "--shrink",
        type=int,
        metavar="ID",
        default=None,
        help="delta-debug one failing trial id to a minimal counterexample",
    )
    campaign.add_argument(
        "--require-full-convergence",
        action="store_true",
        help="exit nonzero unless every trial converges (CI gate)",
    )
    campaign.add_argument(
        "--spec",
        type=Path,
        metavar="PATH",
        default=None,
        help="declarative experiment spec (JSON): base parameters plus "
        "sweep axes or named configs, expanded into a trial matrix "
        "(overrides the flat flags)",
    )
    campaign.add_argument(
        "--store-dir",
        type=Path,
        metavar="DIR",
        default=None,
        help="journal every lease/result durably in DIR (torn-tail "
        "tolerant append-only log; required for --resume)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="replay the journal in --store-dir and finish only the "
        "missing trials; the final content hash is bit-identical to an "
        "uninterrupted run's",
    )
    campaign.add_argument(
        "--partial-every",
        type=int,
        default=0,
        metavar="N",
        help="stream a stamped partial artifact to --store-dir every N "
        "completed trials (0 = off)",
    )
    campaign.add_argument(
        "--chaos-selftest",
        action="store_true",
        help="prove kill-safety: SIGKILL workers and the coordinator at "
        "seeded points, resume, and assert the content hash matches an "
        "uninterrupted run",
    )
    campaign.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos self-test's kill schedule",
    )

    lint = sub.add_parser(
        "lint",
        help="statically verify action purity, determinism, and "
        "graybox non-interference",
    )
    lint.add_argument(
        "targets",
        nargs="*",
        default=[],
        metavar="TARGET",
        help="'tme' / src/repro/tme for the built-in catalog, or "
        "module[:attr] / path/to/file.py exposing programs "
        "(default: tme when no --package/--all is given)",
    )
    lint.add_argument(
        "--package",
        action="append",
        default=[],
        metavar="PKG",
        dest="packages",
        help="run the asyncio pass (races, blocking calls, determinism, "
        "replay safety, fork hygiene) over a package: a dotted name "
        "like repro.service or a directory of .py files; repeatable",
    )
    lint.add_argument(
        "--all",
        action="store_true",
        help="shorthand for --package over every concurrent layer: "
        "repro.service, repro.campaign, repro.explore, repro.recovery",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings, not just errors (CI gate)",
    )
    lint.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full report (findings, proofs, cross-checks) here",
    )
    lint.add_argument(
        "--n", type=int, default=3, help="system size for the TME catalog"
    )
    lint.add_argument(
        "--theta", type=int, default=4, help="wrapper timeout for the catalog"
    )
    lint.add_argument(
        "--dynamic",
        action="store_true",
        help="also run the instrumented simulations and check "
        "observed access sets against the static inference; with "
        "--package repro.service, boots an instrumented live cluster "
        "and checks observed writes/concurrency the same way",
    )
    lint.add_argument(
        "--steps",
        type=int,
        default=300,
        help="simulation steps per dynamic cross-check",
    )
    lint.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the live lock service: a wrapped TME cluster on "
        "localhost sockets (see repro.service)",
    )
    serve.add_argument(
        "--algorithm",
        default="ra",
        choices=["ra", "ra-count", "lamport", "token"],
    )
    serve.add_argument("--n", type=int, default=3, help="number of nodes")
    serve.add_argument(
        "--theta", type=int, default=8, help="wrapper W' timeout"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=7400,
        help="base port; node i listens on port+i (0 = ephemeral)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds to serve before shutting down (default: forever)",
    )
    serve.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="persist the live event trace (JSONL) here",
    )
    serve.add_argument(
        "--verdict-json",
        metavar="PATH",
        default=None,
        help="write the stamped monitor verdict artifact here on exit",
    )
    serve.add_argument(
        "--recovery",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="attach the self-healing recovery subsystem",
    )
    serve.add_argument(
        "--chaos-cut-at",
        type=float,
        metavar="SECONDS",
        default=None,
        help="deterministic chaos: cut one node away at this time",
    )
    serve.add_argument(
        "--chaos-outage",
        type=float,
        metavar="SECONDS",
        default=1.0,
        help="how long a deterministic cut lasts before healing",
    )
    serve.add_argument(
        "--chaos-victim",
        metavar="PID",
        default=None,
        help="node the deterministic cut isolates (default: p0)",
    )
    serve.add_argument(
        "--chaos-probability",
        type=float,
        default=0.0,
        help="random chaos monkey: per-tick cut probability (seeded)",
    )
    serve.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos monkey RNG seed"
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive lock clients against a running service and measure "
        "grant throughput and latency",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument(
        "--ports",
        type=int,
        nargs="+",
        required=True,
        metavar="PORT",
        help="node ports to spread clients over",
    )
    loadgen.add_argument("--clients", type=int, default=50)
    loadgen.add_argument(
        "--duration",
        type=float,
        default=None,
        help="wall-time bound in seconds",
    )
    loadgen.add_argument(
        "--ops",
        type=int,
        default=None,
        help="acquire/release cycles per client",
    )
    loadgen.add_argument(
        "--hold",
        type=float,
        default=0.0,
        help="seconds a client holds the lock",
    )
    loadgen.add_argument(
        "--think",
        type=float,
        default=0.0,
        help="seconds a client thinks between cycles",
    )
    loadgen.add_argument(
        "--acquire-timeout",
        type=float,
        default=5.0,
        help="seconds before a stalled acquire counts as a timeout",
    )
    loadgen.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the stamped loadgen artifact here",
    )
    loadgen.add_argument(
        "--require-grants",
        type=int,
        default=None,
        metavar="N",
        help="exit nonzero unless at least N grants landed (CI gate)",
    )

    listing = sub.add_parser("list", help="list available experiments")
    del listing
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.tme import (
        WrapperConfig,
        build_simulation,
        standard_fault_campaign,
    )
    from repro.verification import verify_run

    wrapper = WrapperConfig(theta=args.theta) if args.theta is not None else None
    hook = None
    if args.faults is not None:
        start, stop = args.faults
        hook = standard_fault_campaign(seed=args.seed + 1, start=start, stop=stop)
    sim = build_simulation(
        args.algorithm,
        n=args.n,
        seed=args.seed,
        wrapper=wrapper,
        fault_hook=hook,
    )
    label = f"{args.algorithm} n={args.n} seed={args.seed}"
    label += f" wrapper={wrapper.variant_name}" if wrapper else " (bare)"
    print(f"Running {label} for {args.steps} steps...")
    trace = sim.run(args.steps)
    if hook is not None:
        print(f"Faults injected: {len(trace.fault_step_indices())}")
    programs = {pid: proc.program for pid, proc in sim.processes.items()}
    bundle = verify_run(
        trace,
        programs,
        liveness_grace=args.grace,
        check_fcfs=args.algorithm != "token",
    )
    print(bundle.describe())
    return 0 if bundle.convergence.converged else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    import repro.analysis as analysis
    from repro.analysis.tables import _cell

    fn_name, title = EXPERIMENTS[args.id]
    fn: Callable = getattr(analysis, fn_name)
    seeds = tuple(range(1, args.seeds + 1))
    kwargs = {}
    if "seeds" in fn.__code__.co_varnames:
        kwargs["seeds"] = seeds
    rows = fn(**kwargs)
    analysis.print_table(rows, f"{args.id} -- {title}")
    if args.json is not None:
        from repro.campaign.stats import experiment_artifact, write_artifact

        native = (int, float, str, bool)
        plain = [
            {
                key: (
                    value
                    if value is None or isinstance(value, native)
                    else _cell(value)
                )
                for key, value in row.items()
            }
            for row in rows
        ]
        payload = experiment_artifact(args.id, title, plain)
        write_artifact(args.json, payload)
        print(
            f"artifact written to {args.json} "
            f"(content hash {payload['content_hash']})"
        )
    return 0


def _cmd_figure1() -> int:
    from repro.core import (
        everywhere_implements,
        figure1_A,
        figure1_C,
        implements,
        is_stabilizing_to,
    )

    A, C = figure1_A(), figure1_C()
    for report in (
        implements(C, A),
        is_stabilizing_to(A, A),
        is_stabilizing_to(C, A),
        everywhere_implements(C, A),
    ):
        print(report.describe())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.explore import (
        GlobalSimulatorSpace,
        LocalProcessSpace,
        default_message_alphabet,
        explore,
    )
    from repro.tme import ClientConfig, tme_programs

    if args.resume and args.store_dir is None:
        print("--resume needs --store-dir (the journal to resume from)")
        return 2
    programs = tme_programs(
        args.algorithm, args.n, ClientConfig(think_delay=1, eat_delay=1)
    )
    if args.local is not None:
        if args.local not in programs:
            print(f"unknown pid {args.local!r}; have {sorted(programs)}")
            return 2
        if args.store_dir is not None or args.resume:
            print("--store-dir/--resume apply to the global space only")
            return 2
        pids = tuple(sorted(programs))
        space = LocalProcessSpace(
            programs[args.local],
            args.local,
            pids,
            default_message_alphabet(
                (p for p in pids if p != args.local),
                ("request", "reply"),
                args.max_clock,
            ),
            args.max_clock,
            symmetry=args.symmetry,
        )
        result = explore(
            space,
            max_depth=args.max_depth,
            max_states=args.max_states,
            max_seconds=args.max_seconds,
            profile=args.profile,
        )
        surface = f"local space of {args.local}"
        digest = evaluations = None
    else:
        # The token ring's nxt topology only survives rotations; every
        # other TME algorithm is a pid-template, so the full group is
        # sound (see repro.explore.canon).
        symmetry = None
        if args.symmetry:
            symmetry = "ring" if args.algorithm == "token" else "full"
        space = GlobalSimulatorSpace(programs, symmetry=symmetry)
        result = explore(
            space,
            max_depth=args.max_depth,
            max_states=args.max_states,
            max_seconds=args.max_seconds,
            profile=args.profile,
            store_dir=(
                None if args.store_dir is None else str(args.store_dir)
            ),
            resume=args.resume,
        )
        surface = "global space"
        digest = result.content_digest()
        evaluations = space.local_evaluations
    line = (
        f"{args.algorithm} n={args.n}: {surface}, "
        f"{result.states} distinct states"
    )
    if evaluations is not None:
        # Section 1's sum vs product: what expansion evaluated vs found.
        line += (
            f" from {evaluations[0]} + {evaluations[1]} local evaluations "
            "(internal + deliver)"
        )
    print(line)
    if digest is not None:
        print(f"content digest: {digest}")
    print(result.stats.describe())
    if args.resume:
        print(
            f"journal: kept {result.stats.journal_kept_bytes} bytes, discarded "
            f"{result.stats.journal_discarded_bytes} behind the last commit"
        )
    if result.stats.profile is not None:
        print(result.stats.profile.describe())
    if args.json is not None:
        import dataclasses

        from repro.durable import write_json

        payload = {
            "algorithm": args.algorithm,
            "n": args.n,
            "surface": surface,
            "symmetry": bool(args.symmetry),
            "states": result.states,
            "content_digest": digest,
            "stats": dataclasses.asdict(result.stats),
        }
        if evaluations is not None:
            payload["stats"]["local_evaluations"] = {
                "internal": evaluations[0],
                "deliver": evaluations[1],
            }
        write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0


def _campaign_spec(args: argparse.Namespace):
    from repro.campaign import CampaignSpec, ChurnRates, FaultRates
    from repro.recovery import RecoveryConfig

    start, stop = args.faults
    churn = None
    if args.churn > 0:
        churn = ChurnRates(
            downtime=args.downtime, heal_after=args.heal_after
        ).scaled(args.churn)
    with_recovery = (
        args.recovery if args.recovery is not None else churn is not None
    )
    recovery = (
        RecoveryConfig(stall_window=args.stall_window)
        if with_recovery
        else None
    )
    return CampaignSpec(
        algorithm=args.algorithm,
        n=args.n,
        root_seed=args.root_seed,
        theta=None if args.bare else args.theta,
        fault_start=start,
        fault_stop=stop,
        rates=FaultRates().scaled(args.fault_scale),
        confirm_window=args.confirm_window,
        max_steps=args.max_steps,
        churn=churn,
        recovery=recovery,
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import (
        SchedulerConfig,
        artifact,
        load_experiment_spec,
        matrix_artifact,
        replay_trial,
        run_matrix,
        run_trial,
        shrink_trial,
        single_spec_matrix,
        summarize,
        write_artifact,
    )
    from repro.campaign.journal import PARTIAL_NAME
    from repro.campaign.stats import CAMPAIGN_SCHEMA_VERSION
    from repro.durable import verify_stamp

    if args.spec is not None and (
        args.replay is not None or args.shrink is not None
    ):
        print("campaign: --replay/--shrink use the flat flags, not --spec")
        return 2
    if args.resume and args.store_dir is None:
        print("campaign: --resume requires --store-dir")
        return 2

    spec = _campaign_spec(args)

    if args.replay is not None:
        free = run_trial(spec, args.replay, keep_decisions="always")
        scripted = replay_trial(spec, args.replay, free.decisions)
        match = free.digest == scripted.digest
        print(
            f"trial {args.replay}: free {free.outcome} "
            f"({free.steps} steps, digest {free.digest[:16]}...)"
        )
        print(
            f"scripted replay: {scripted.outcome} "
            f"(digest {scripted.digest[:16]}...) -> "
            f"{'MATCH' if match else 'MISMATCH'}"
        )
        return 0 if match else 1

    if args.shrink is not None:
        try:
            result = shrink_trial(spec, args.shrink)
        except ValueError as exc:
            print(f"cannot shrink: {exc}")
            return 2
        print(result.render(spec))
        return 0

    if args.spec is not None:
        try:
            matrix = load_experiment_spec(args.spec).expand()
        except ValueError as exc:
            print(f"campaign: {exc}")
            return 2
    else:
        matrix = single_spec_matrix(spec, args.trials)

    if args.chaos_selftest:
        return _campaign_chaos_selftest(args, matrix)

    if args.spec is not None:
        print(f"campaign: {matrix.describe()}, workers={args.workers}")
    else:
        label = "bare" if spec.theta is None else f"W'(theta={spec.theta})"
        extras = ""
        if spec.churn is not None:
            extras += f", churn x{args.churn:g}"
        if spec.recovery is not None:
            extras += ", recovery on"
        print(
            f"campaign: {spec.algorithm} n={spec.n} {label} "
            f"x{args.trials} trials, root_seed={spec.root_seed}, "
            f"faults [{spec.fault_start},{spec.fault_stop}), "
            f"workers={args.workers}{extras}"
        )

    if args.resume:
        # A dying run may have left a streamed partial artifact; verify
        # its stamp before trusting the journal it summarizes.
        partial = args.store_dir / PARTIAL_NAME
        if partial.exists():
            try:
                verify_stamp(
                    json.loads(partial.read_text(encoding="utf-8")),
                    CAMPAIGN_SCHEMA_VERSION,
                )
            except ValueError as exc:
                print(f"campaign: partial artifact failed its stamp: {exc}")
                return 2
            print(f"  partial artifact stamp verified ({partial})")

    total = len(matrix)
    done = 0

    def progress(result) -> None:
        nonlocal done
        done += 1
        if done % 50 == 0 or done == total:
            print(f"  {done}/{total} trials done", flush=True)

    try:
        run = run_matrix(
            matrix,
            SchedulerConfig(
                workers=args.workers,
                trial_timeout=args.trial_timeout,
                partial_every=args.partial_every,
            ),
            store_dir=(
                str(args.store_dir) if args.store_dir is not None else None
            ),
            resume=args.resume,
            on_result=progress,
        )
    except ValueError as exc:
        print(f"campaign: {exc}")
        return 2
    stats = run.stats
    if args.resume:
        print(
            f"  resumed {stats.resumed_results}/{total} trials from the "
            f"journal: kept {stats.journal_kept_bytes} bytes, discarded "
            f"{stats.journal_discarded_bytes} behind the valid prefix"
        )
    summary = summarize(
        run.results, run.wall_seconds, requeues=stats.requeues
    )
    print(summary.describe())
    incidents = (
        stats.worker_deaths
        + stats.lease_reclaims
        + stats.timeouts
        + stats.serial_fallback_tasks
    )
    if incidents:
        print(
            f"execution:   {stats.worker_deaths} worker deaths, "
            f"{stats.lease_reclaims} lease reclaims, "
            f"{stats.respawns} respawns, {stats.timeouts} timeouts, "
            f"{stats.serial_fallback_tasks} trials finished serially"
        )
    failing = [
        (task.config, task.trial_id)
        for task, result in zip(matrix.tasks, run.results)
        if not result.converged
    ]
    if failing:
        shown = ", ".join(
            str(trial) if len(matrix.configs) == 1 else f"{config}:{trial}"
            for config, trial in failing[:10]
        )
        more = "" if len(failing) <= 10 else f" (+{len(failing) - 10} more)"
        print(f"failing trials: {shown}{more}  (use --shrink ID to minimize)")
    if args.json is not None:
        if args.spec is not None:
            payload = matrix_artifact(
                matrix, run.results, run.wall_seconds,
                execution=stats.as_dict(),
            )
        else:
            payload = artifact(
                spec, run.results, summary, execution=stats.as_dict()
            )
        write_artifact(args.json, payload)
        print(
            f"artifact written to {args.json} "
            f"(content hash {payload['content_hash']})"
        )
    if args.require_full_convergence and failing:
        return 1
    return 0


def _campaign_chaos_selftest(args: argparse.Namespace, matrix) -> int:
    import tempfile

    from repro.campaign import run_chaos_selftest

    if args.trial_timeout is not None:
        print("campaign: --chaos-selftest forbids --trial-timeout")
        return 2
    print(f"chaos self-test: {matrix.describe()}, workers={args.workers}")
    with tempfile.TemporaryDirectory() as scratch:
        store = (
            str(args.store_dir) if args.store_dir is not None else scratch
        )
        try:
            report = run_chaos_selftest(
                matrix,
                store,
                workers=args.workers,
                seed=args.chaos_seed,
            )
        except (AssertionError, ValueError) as exc:
            print(f"chaos self-test FAILED: {exc}")
            return 1
    print(
        f"  {report.coordinator_kills} coordinator SIGKILLs over "
        f"{report.rounds} rounds; {report.resumed_results}/{report.tasks} "
        "trials recovered from the journal"
    )
    print(
        "  clean-run hash   " + report.reference_hash + "\n"
        "  kill/resume hash " + report.resumed_hash
    )
    print("chaos self-test PASSED: digests are bit-identical")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import DEFAULT_PACKAGES, run_lint

    packages = list(args.packages)
    if args.all:
        packages.extend(p for p in DEFAULT_PACKAGES if p not in packages)
    try:
        report = run_lint(
            args.targets,
            n=args.n,
            theta=args.theta,
            dynamic=args.dynamic,
            steps=args.steps,
            seed=args.seed,
            packages=packages,
        )
    except ValueError as exc:
        print(f"lint: {exc}")
        return 2
    print(report.render_text())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.render_json())
        print(f"report written to {args.json}")
    return report.exit_code(strict=args.strict)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.durable import write_json
    from repro.service import ChaosConfig, ClusterConfig, LocalCluster

    chaos = None
    if args.chaos_cut_at is not None or args.chaos_probability > 0:
        tick_s = 0.05
        chaos = ChaosConfig(
            tick_s=tick_s,
            cut_at_tick=(
                max(1, round(args.chaos_cut_at / tick_s))
                if args.chaos_cut_at is not None
                else None
            ),
            outage_ticks=max(1, round(args.chaos_outage / tick_s)),
            victim=args.chaos_victim,
            cut_probability=args.chaos_probability,
            seed=args.chaos_seed,
        )
    cluster = LocalCluster(
        ClusterConfig(
            algorithm=args.algorithm,
            n=args.n,
            theta=args.theta,
            host=args.host,
            base_port=args.port,
            recovery=args.recovery,
            trace_path=args.trace,
        ),
        chaos=chaos,
    )

    async def serve() -> int:
        addresses = await cluster.start()
        ports = ",".join(
            str(addresses[pid][1]) for pid in sorted(addresses)
        )
        print(f"serving {args.algorithm} n={args.n} on ports {ports}", flush=True)
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                while True:
                    await asyncio.sleep(3600)
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        report = await cluster.stop()
        print(f"verdict: {report.summary()}")
        print(f"grants served: {cluster.total_grants()}")
        if args.verdict_json is not None:
            payload = cluster.verdict_artifact(report)
            write_json(args.verdict_json, payload)
            print(f"verdict artifact written to {args.verdict_json}")
        return 0 if not report.me1 and not report.me3 else 1

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.durable import write_json
    from repro.service import LoadgenConfig, run_loadgen

    if args.duration is None and args.ops is None:
        print("loadgen: set --duration and/or --ops")
        return 2
    config = LoadgenConfig(
        ports=tuple(args.ports),
        host=args.host,
        clients=args.clients,
        duration_s=args.duration,
        ops_per_client=args.ops,
        hold_s=args.hold,
        think_s=args.think,
        acquire_timeout_s=args.acquire_timeout,
    )
    result = asyncio.run(run_loadgen(config))
    print(result.describe())
    if args.json is not None:
        write_json(args.json, result.artifact())
        print(f"loadgen artifact written to {args.json}")
    if args.require_grants is not None and result.grants < args.require_grants:
        print(
            f"FAIL: {result.grants} grants < required {args.require_grants}"
        )
        return 1
    return 0


def _cmd_list() -> int:
    for exp_id in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
        _fn, title = EXPERIMENTS[exp_id]
        print(f"{exp_id:>4}  {title}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "figure1":
        return _cmd_figure1()
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "lint":
        return _cmd_lint(args)
    if args.command == "list":
        return _cmd_list()
    raise AssertionError(f"unhandled command {args.command!r}")
