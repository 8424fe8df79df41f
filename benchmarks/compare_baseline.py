#!/usr/bin/env python
"""Performance gate: measure, emit, and compare to baseline.

Runs a fixed set of exploration cases plus one Monte-Carlo campaign case,
writes the measurements to ``BENCH_explore.json``, and compares them
against the committed ``benchmarks/baseline.json``:

* **deterministic fields** (state counts, orbit-rewrite counts, campaign
  convergence counts and trace digests) -- any mismatch fails the gate
  outright, because it means the engine computes something different than
  it used to;
* **throughput fields** (states/second, trials/second; best of
  ``--repeats`` runs) may regress by at most ``--tolerance`` (default
  30%) before the gate fails.

Each baseline entry is compared on the fields it actually carries, so
entry kinds with different shapes coexist in one baseline file.

Refresh the baseline after an intentional change with::

    PYTHONPATH=src python benchmarks/compare_baseline.py --update

CI machines are not the machine the baseline was recorded on; the state
counts transfer exactly, and the throughput tolerance plus best-of-N
repeats absorb scheduler noise (override with ``--tolerance`` or the
``BENCH_TOLERANCE`` environment variable if a runner class is simply
slower).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE / "baseline.json"

#: (case name, algorithm, n, symmetry, max_depth) -- bounded so the whole
#: suite stays in tens of seconds even on a slow runner.
CASES = (
    ("ra_n3_exact", "ra", 3, None, 6),
    ("ra_n3_sym", "ra", 3, "full", 6),
    ("ra_n4_sym", "ra", 4, "full", 6),
    ("token_n3_ring", "token", 3, "ring", 6),
    ("lamport_n3_sym", "lamport", 3, "full", 6),
)


#: The campaign gate case: small enough for CI, large enough that a
#: throughput regression in the trial loop is visible.
CAMPAIGN_CASE = ("campaign_ra_n4", "ra", 4, 24, 2025)

#: Deterministic per-entry fields: exact match required when present.
EXACT_FIELDS = ("states", "orbit_reductions", "trials", "converged", "digest")

#: Throughput per-entry fields: bounded regression when present.
THROUGHPUT_FIELDS = ("states_per_sec", "trials_per_sec", "canon_per_sec")


def run_canon_case(repeats: int) -> dict[str, dict]:
    """Raw packed-canonicalization throughput over the RA n=3 surface.

    Exploration throughput can mask a canonicalizer regression behind
    expansion cost, so this case times the canonicalizer alone: two
    passes over the exact reachable set (pass one cold, pass two served
    by the orbit cache) through a fresh
    :class:`~repro.explore.packed.PackedGlobalCanonicalizer` per run.
    """
    import time

    from repro.explore import GlobalSimulatorSpace, explore
    from repro.tme import ClientConfig, tme_programs

    programs = tme_programs(
        "ra", 3, ClientConfig(think_delay=1, eat_delay=1)
    )
    states = list(
        explore(
            GlobalSimulatorSpace(programs), max_depth=6, max_states=20_000
        ).visited
    )
    best = None
    canon = None
    for _ in range(repeats):
        space = GlobalSimulatorSpace(programs, symmetry="full")
        canon = space.packed_canon
        started = time.perf_counter()
        for state in states:
            canon.canonicalize(state)
        for state in states:
            canon.canonicalize(state)
        rate = (2 * len(states)) / (time.perf_counter() - started)
        best = rate if best is None else max(best, rate)
    return {
        "canon_ra_n3": {
            "states": len(states),
            "canon_per_sec": round(best, 1),
            "cache_hit_rate": round(canon.stats.hit_rate, 3),
        }
    }


def run_parallel_scaling_case(repeats: int) -> dict[str, dict]:
    """The deep symmetric case: RA n=4 under full symmetry to depth 10.

    The largest exploration the gate runs: its state count and content
    digest pin the symmetric quotient well past the depth-6 cases, and
    its throughput gates like every other case.  (The name is the
    baseline key it has carried since it also timed the sharded engine,
    which lost to this serial run and was deleted -- DESIGN decision 12.)
    """
    import time

    from repro.explore import GlobalSimulatorSpace, explore
    from repro.tme import ClientConfig, tme_programs

    programs = tme_programs(
        "ra", 4, ClientConfig(think_delay=1, eat_delay=1)
    )
    best = best_rate = None
    for _ in range(repeats):
        started = time.perf_counter()
        run = explore(
            GlobalSimulatorSpace(programs, symmetry="full"), max_depth=10
        )
        rate = run.states / (time.perf_counter() - started)
        if best_rate is None or rate > best_rate:
            best, best_rate = run, rate
    return {
        "parallel_scaling": {
            "states": best.states,
            "digest": best.content_digest(),
            "states_per_sec": round(best_rate, 1),
        }
    }


def run_campaign_case(repeats: int) -> dict[str, dict]:
    import hashlib
    import time

    from repro.campaign import CampaignSpec, run_campaign

    name, algo, n, trials, root_seed = CAMPAIGN_CASE
    spec = CampaignSpec(
        algorithm=algo,
        n=n,
        root_seed=root_seed,
        fault_start=20,
        fault_stop=80,
        confirm_window=120,
        max_steps=800,
    )
    best = None
    results = None
    for _ in range(repeats):
        started = time.perf_counter()
        results = run_campaign(spec, trials)
        rate = trials / (time.perf_counter() - started)
        best = rate if best is None else max(best, rate)
    digest = hashlib.sha256(
        "".join(r.digest for r in results).encode()
    ).hexdigest()[:16]
    return {
        name: {
            "trials": trials,
            "converged": sum(r.converged for r in results),
            "digest": digest,
            "trials_per_sec": round(best, 1),
        }
    }


def run_cases(repeats: int) -> dict[str, dict]:
    from repro.explore import GlobalSimulatorSpace, explore
    from repro.tme import ClientConfig, tme_programs

    client = ClientConfig(think_delay=1, eat_delay=1)
    results: dict[str, dict] = {}
    for name, algo, n, symmetry, max_depth in CASES:
        programs = tme_programs(algo, n, client)
        best = None
        for _ in range(repeats):
            run = explore(
                GlobalSimulatorSpace(programs, symmetry=symmetry),
                max_depth=max_depth,
                max_states=20_000,
            )
            if best is None or (
                run.stats.states_per_second
                > best.stats.states_per_second
            ):
                best = run
        results[name] = {
            "states": best.states,
            "orbit_reductions": best.stats.orbit_reductions,
            "states_per_sec": round(best.stats.states_per_second, 1),
            "bytes_per_state": round(best.stats.bytes_per_state, 1),
        }
    return results


def compare(
    current: dict[str, dict], baseline: dict[str, dict], tolerance: float
) -> list[str]:
    """Gate violations (empty = pass)."""
    failures = []
    for name, base in baseline.items():
        if name not in current:
            failures.append(f"{name}: case missing from current run")
            continue
        cur = current[name]
        for field in EXACT_FIELDS:
            if field in base and cur.get(field) != base[field]:
                failures.append(
                    f"{name}: {field} mismatch -- baseline {base[field]}, "
                    f"current {cur.get(field)} (the result is no longer "
                    f"deterministic or the computation changed)"
                )
        for field in THROUGHPUT_FIELDS:
            if field not in base:
                continue
            floor = base[field] * (1.0 - tolerance)
            if cur.get(field, 0.0) < floor:
                failures.append(
                    f"{name}: throughput regression -- baseline "
                    f"{base[field]:.0f} {field}, current "
                    f"{cur.get(field, 0.0):.0f} (floor {floor:.0f} at "
                    f"{tolerance:.0%} tolerance)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite benchmarks/baseline.json from this run",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "0.30")),
        help="allowed fractional throughput regression (default 0.30)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="runs per case; the best throughput is kept (default 3)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_explore.json"),
        help="where to write the measurement report",
    )
    args = parser.parse_args(argv)

    current = run_cases(args.repeats)
    current.update(run_canon_case(args.repeats))
    current.update(run_parallel_scaling_case(args.repeats))
    current.update(run_campaign_case(args.repeats))
    report = {"cases": current, "tolerance": args.tolerance}

    if args.update:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baseline updated: {BASELINE_PATH}")
        report["baseline"] = "updated"
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --update first")
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = compare(current, baseline, args.tolerance)
    report["failures"] = failures
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    for name, cur in current.items():
        base = baseline.get(name, {})
        if "states_per_sec" in cur:
            print(
                f"  {name}: {cur['states']} states, "
                f"{cur['states_per_sec']:.0f} states/s "
                f"(baseline {base.get('states_per_sec', 0):.0f})"
            )
        elif "canon_per_sec" in cur:
            print(
                f"  {name}: {cur['states']} states, "
                f"{cur['canon_per_sec']:.0f} canon/s, "
                f"{cur['cache_hit_rate']:.0%} cache hits "
                f"(baseline {base.get('canon_per_sec', 0):.0f})"
            )
        else:
            print(
                f"  {name}: {cur['converged']}/{cur['trials']} converged, "
                f"{cur['trials_per_sec']:.1f} trials/s "
                f"(baseline {base.get('trials_per_sec', 0):.1f})"
            )
    if failures:
        print("\nbaseline gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("baseline gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
