"""E8 -- Theorems 9 and 10: RA_ME and Lamport_ME everywhere implement Lspec.

Paper claim: ``[RA_ME => Lspec]`` and ``[Lamport_ME => Lspec]`` (from every
state).  Measured two ways: (a) fault-free runs from randomly corrupted
starts with every Lspec clause monitored -- zero safety violations;
(b) exhaustive small-scope transition checking over all local states with
bounded clocks -- zero violations.
"""

import pytest

from repro.analysis import experiment_everywhere
from repro.verification import exhaustive_lspec_check

from common import record


def test_everywhere_sampled(benchmark):
    rows = benchmark.pedantic(
        experiment_everywhere,
        kwargs=dict(n=3, runs=8, steps=1000, grace=300),
        iterations=1,
        rounds=1,
    )
    record(
        "E8_everywhere_sampled",
        rows,
        "E8a -- Lspec conformance from corrupted starts (fault-free runs)",
    )
    for row in rows:
        assert row["safety_violations"] == "none", row


@pytest.mark.parametrize("algorithm", ["ra", "lamport"])
def test_everywhere_exhaustive(benchmark, algorithm):
    result = benchmark.pedantic(
        exhaustive_lspec_check,
        kwargs=dict(algorithm=algorithm, max_clock=2),
        iterations=1,
        rounds=1,
    )
    rows = [
        {
            "algorithm": algorithm,
            "local_states": result.states_checked,
            "transitions": result.transitions_checked,
            "violations": result.violation_count,
        }
    ]
    record(
        f"E8_everywhere_exhaustive_{algorithm}",
        rows,
        f"E8b -- exhaustive small-scope transition check ({algorithm})",
    )
    assert result.ok, result.violations
