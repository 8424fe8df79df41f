"""Canonicalization micro-benchmark: the symmetry fast path pays off.

E15's claim is only interesting if the quotient is *cheaper to compute*
than the surface it avoids: the packed-token canonicalizer
(:mod:`repro.explore.packed`) must make symmetry-reduced exploration
beat exact exploration on wall-clock, not just on state counts.  This
benchmark times both sides of that race for the E15 cases (RA_ME at
n = 3 and n = 4, depth 6) and reports the orbit-cache hit rate the
engine observed -- the cache is what turns the 50-80% duplicate
successor rate into dict hits instead of repeated canonicalizations.

The race is asserted where the quotient is worth having: RA n=4 at
depth 11 (71 505 exact states against 4 788 representatives), where
the canonicalizer's cold-start cost -- the per-permutation images --
is amortised and the quotient wins by ~5x.  At depth 6 the surfaces
are a few hundred states and an exact state costs ~20 us (DESIGN
section 3, decision 7), so the two are about level there; those rows
are held to a bounded symmetric/exact ratio instead, so the quotient
cannot drift arbitrarily far behind.  Raw throughput is gated by
``compare_baseline.py``'s ``canon_ra_n3`` case, so a >30% regression of
canonicalization throughput fails CI even when exploration throughput
hides it.
"""

import time

from repro.explore import GlobalSimulatorSpace, explore
from repro.tme import ClientConfig, tme_programs

from common import record

CLIENT = ClientConfig(think_delay=1, eat_delay=1)

#: Depth at which RA n=4 is large enough (71 505 exact states) that
#: symmetry must win outright; shallower rows only bound the ratio.
RACE_DEPTH = 11
#: Symmetric wall-clock may be at most this multiple of exact at depth 6
#: (measured 0.8-1.5x; the pre-packed canonicalizer sat at ~45x).
MAX_SHALLOW_RATIO = 3.0

#: (algorithm, n, symmetry mode, depth) -- the E15 pair plus the two
#: other symmetric baseline systems at depth 6 like the baseline gate,
#: and the deep RA row the race is asserted on.
CASES = (
    ("ra", 3, "full", 6),
    ("ra", 4, "full", 6),
    ("token", 3, "ring", 6),
    ("lamport", 3, "full", 6),
    ("ra", 4, "full", RACE_DEPTH),
)


def _timed(space, max_depth, max_states=200_000):
    started = time.perf_counter()
    run = explore(space, max_depth=max_depth, max_states=max_states)
    return run, time.perf_counter() - started


def canon_rows(cases=CASES, repeats=3):
    rows = []
    for algo, n, symmetry, depth in cases:
        programs = tme_programs(algo, n, CLIENT)
        best_exact = best_sym = None
        sym_run = None
        for _ in range(repeats):
            # Fresh spaces each round: the canonicalizer's caches live
            # on the space, and the race is cold-start vs cold-start.
            exact, t_exact = _timed(GlobalSimulatorSpace(programs), depth)
            run, t_sym = _timed(
                GlobalSimulatorSpace(programs, symmetry=symmetry), depth
            )
            exact_states, sym_states = exact.states, run.states
            if best_exact is None or t_exact < best_exact:
                best_exact = t_exact
            if best_sym is None or t_sym < best_sym:
                best_sym, sym_run = t_sym, run
        stats = sym_run.stats
        rows.append(
            {
                "case": f"{algo} n={n} d={depth}",
                "exact_states": exact_states,
                "sym_states": sym_states,
                "exact_ms": f"{best_exact * 1000:.1f}",
                "sym_ms": f"{best_sym * 1000:.1f}",
                "speedup": f"{best_exact / best_sym:.2f}x",
                "sym_states_per_sec": f"{stats.states_per_second:.0f}",
                "cache_hit_rate": f"{stats.canon_cache_hit_rate:.0%}",
                "_sym_wins": best_sym < best_exact,
                "_ratio": best_sym / best_exact,
                "_algo": algo,
                "_depth": depth,
                "_hit_rate": stats.canon_cache_hit_rate,
            }
        )
    return rows


def test_canon_fast_path(benchmark):
    rows = benchmark.pedantic(canon_rows, iterations=1, rounds=1)
    record(
        "E15_canon_throughput",
        [
            {k: v for k, v in row.items() if not k.startswith("_")}
            for row in rows
        ],
        "E15 -- symmetry-reduced vs exact wall-clock "
        "(packed canonicalization)",
    )
    # RA_ME must win the wall-clock race outright once the quotient is
    # large, and stay within a bounded factor of exact where it is not.
    for row in rows:
        if row["_algo"] != "ra":
            continue
        if row["_depth"] == RACE_DEPTH:
            assert row["_sym_wins"], (
                f"{row['case']}: symmetry {row['sym_ms']}ms did not beat "
                f"exact {row['exact_ms']}ms"
            )
        else:
            assert row["_ratio"] <= MAX_SHALLOW_RATIO, (
                f"{row['case']}: symmetry {row['sym_ms']}ms is more than "
                f"{MAX_SHALLOW_RATIO:.0f}x exact {row['exact_ms']}ms"
            )
    # The orbit cache must actually serve repeats: every system here
    # revisits states through duplicate successor edges.
    for row in rows:
        assert row["_hit_rate"] > 0.1, (
            f"{row['case']}: orbit cache hit rate "
            f"{row['cache_hit_rate']} -- caching is not engaged"
        )
