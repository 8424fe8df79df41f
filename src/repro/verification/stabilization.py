"""Operational stabilization checking (Theorem 8 / Corollary 11).

*C is stabilizing to A* means every computation of C has a suffix that is a
computation suffix of A.  Operationally, on a recorded run whose faults
cease at some step (the paper's "finite number of faults"), we must find a
convergence point after the last fault from which the remainder of the run
satisfies TME Spec: no mutual exclusion violation, no FCFS violation,
progress resumed, and no process starving.

:func:`check_stabilization` locates the earliest such point and reports the
convergence latency (steps from the last fault to the convergence point)
-- the headline metric of experiments E2-E5.

This check is *trace-analytic*: it scans one recorded run and performs no
state-space search of its own.  The searches it complements -- bounded
exploration of the global/local surfaces
(:func:`repro.explore.explore`) and reachability for the exact
Section-2 relation checks (:meth:`~repro.core.system.TransitionSystem.
reachable_from`) -- all run on the unified exploration engine
(:mod:`repro.explore`); its own verdicts are independent of that engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.runtime.trace import Trace
from repro.tme.spec import check_tme_spec


@dataclass(frozen=True)
class ConvergenceResult:
    """Did the run stabilize, and how fast?

    ``convergence_step`` is the earliest index ``c`` at or after the fault
    horizon such that ``states[c:]`` is TME-clean; ``latency`` counts steps
    from the first post-fault state to ``c``.
    """

    converged: bool
    trace_length: int
    last_fault_step: int | None
    convergence_step: int | None
    latency: int | None
    entries_after: int
    violations_after_faults: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.converged


def check_stabilization(
    trace: Trace,
    liveness_grace: int = 150,
    check_fcfs: bool = True,
    require_entries: int = 1,
) -> ConvergenceResult:
    """Locate the convergence point of a run (see module docstring).

    ``liveness_grace``: how many trailing steps an unserved hunger may span
    before it counts as starvation (finite traces cannot prove liveness;
    they can bound it).
    ``require_entries``: CS entries demanded after convergence -- guards
    against declaring a deadlocked tail "clean" vacuously.
    """
    last_fault = trace.last_fault_index()
    horizon = 0 if last_fault is None else last_fault + 1
    post_fault = check_tme_spec(trace, start=horizon)
    violation_indices = sorted(
        list(post_fault.me1)
        + ([v.entry_index for v in post_fault.me3] if check_fcfs else [])
    )
    candidate = (
        horizon if not violation_indices else violation_indices[-1] + 1
    )
    if candidate >= len(trace.states):
        return ConvergenceResult(
            converged=False,
            trace_length=len(trace.states),
            last_fault_step=last_fault,
            convergence_step=None,
            latency=None,
            entries_after=0,
            violations_after_faults=len(violation_indices),
            detail="violations continue to the end of the trace",
        )
    suffix = check_tme_spec(trace, start=candidate)
    entries = sum(r.entries for r in suffix.me2)
    starving = [
        r.pid for r in suffix.me2 if not r.satisfied(liveness_grace)
    ]
    converged = not starving and entries >= require_entries
    detail = ""
    if starving:
        detail = f"starving after candidate point: {starving}"
    elif entries < require_entries:
        detail = (
            f"only {entries} CS entries after convergence candidate "
            f"(required {require_entries}); system may be deadlocked"
        )
    return ConvergenceResult(
        converged=converged,
        trace_length=len(trace.states),
        last_fault_step=last_fault,
        convergence_step=candidate if converged else None,
        latency=(candidate - horizon) if converged else None,
        entries_after=entries,
        violations_after_faults=len(violation_indices),
        detail=detail,
    )
