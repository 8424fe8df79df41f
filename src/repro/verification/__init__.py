"""Verification: refinement checks, runtime monitoring, stabilization
checking.  Bounded exploration of the global/local surfaces is
:func:`repro.explore.explore` over a :class:`~repro.explore.
GlobalSimulatorSpace` / :class:`~repro.explore.LocalProcessSpace`."""

from repro.verification.monitor import VerificationBundle, verify_run
from repro.verification.refinement import (
    EverywhereReport,
    ExhaustiveResult,
    count_local_states,
    everywhere_implements_lspec,
    exhaustive_lspec_check,
)
from repro.verification.stabilization import (
    ConvergenceResult,
    check_stabilization,
)

__all__ = [
    "ConvergenceResult",
    "EverywhereReport",
    "ExhaustiveResult",
    "VerificationBundle",
    "check_stabilization",
    "count_local_states",
    "everywhere_implements_lspec",
    "exhaustive_lspec_check",
    "verify_run",
]
