"""Wall time and peak RSS of the graph kernel's exact verdicts at scale.

Runs each case in a fresh interpreter and prints one line per case:

* ``leads_to_ring_4000`` / ``leads_to_ring_100000`` -- ``holds_leads_to``
  (``true |-> at 0``) on an n-state ring, which holds;
* ``fair_random_330k`` -- ``is_stabilizing_to_fair`` with 3 weakly fair
  actions (two seeded random program actions and one recovery action) on
  a 330 000-state graph of out-degree 3, which holds only under fairness
  (see ``_fair_random``).

``setup_s`` / ``setup_rss_mb`` cover building the inputs; ``verdict_s``
covers the call alone, indexing included; ``peak_rss_mb`` is the process
peak after the call and ``delta_mb`` its rise over the setup peak.  Exits
non-zero if a verdict is wrong or a case fails.  Stdlib only::

    PYTHONPATH=src python benchmarks/graph_kernel_scale.py
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import time

from repro.core import TransitionSystem, holds_leads_to, is_stabilizing_to_fair

SEED = 2025


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ring(n: int):
    system = TransitionSystem("ring", {i: {(i + 1) % n} for i in range(n)})
    return lambda: holds_leads_to(system, lambda s: True, lambda s: s == 0), True


def _fair_random(n: int):
    """A box W at scale: A moves every state but 0 along two seeded random
    program actions among states 1..n-1 and holds 0, its one legitimate
    state; W's recovery action leads every other state to 0.  The
    recovery is enabled throughout A's cycles and never taken inside them,
    so weak fairness, and only weak fairness, makes A box W stabilize."""
    rng = random.Random(SEED)
    children = [[rng.randrange(1, n) for _ in range(2)] for _ in range(n)]
    spec = {s: set(succ) for s, succ in enumerate(children)}
    spec[0] = {0}
    abstract = TransitionSystem("A", spec, initial=[0])
    composed = {s: spec[s] | {0} for s in spec}
    del spec
    concrete = TransitionSystem("A box W", composed, initial=[0])
    del composed
    actions = [
        {(s, succ[k]) for s, succ in enumerate(children) if s} for k in range(2)
    ]
    actions.append({(s, 0) for s in range(1, n)})
    del children
    return (
        lambda: bool(is_stabilizing_to_fair(concrete, abstract, actions)),
        True,
    )


CASES = {
    "leads_to_ring_4000": lambda: _ring(4_000),
    "leads_to_ring_100000": lambda: _ring(100_000),
    "fair_random_330k": lambda: _fair_random(330_000),
}


def run_case(name: str) -> None:
    start = time.perf_counter()
    call, expected = CASES[name]()
    setup_s = time.perf_counter() - start
    setup_rss = _rss_mb()
    start = time.perf_counter()
    verdict = call()
    verdict_s = time.perf_counter() - start
    peak = _rss_mb()
    print(
        f"{name}: verdict={verdict} verdict_s={verdict_s:.3f} "
        f"setup_s={setup_s:.2f} setup_rss_mb={setup_rss:.0f} "
        f"peak_rss_mb={peak:.0f} delta_mb={peak - setup_rss:.0f}",
        flush=True,
    )
    if expected is not None and verdict != expected:
        sys.exit(f"{name}: expected verdict {expected}, got {verdict}")


def main() -> int:
    if len(sys.argv) > 1:
        run_case(sys.argv[1])
        return 0
    failed = 0
    for name in CASES:
        failed |= subprocess.run([sys.executable, __file__, name]).returncode
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
