"""Parallel Monte-Carlo fault-injection campaigns (statistical stabilization).

The exhaustive exploration engine (:mod:`repro.explore`) substantiates the
paper's theorems up to n~5; beyond that, *statistical* evidence takes over.
A **campaign** runs thousands of seeded randomized trials -- each one a
(algorithm, n, scheduler, :class:`~repro.faults.injector.Windowed` fault
burst, seed) execution on the existing
:class:`~repro.runtime.simulator.Simulator` -- and reports the distribution
of convergence latency after the fault window closes (Theorems 8/9/10 at
scales n=8..32, the Section 3.1 fault model realized by random bursts).

Layers:

* :mod:`repro.campaign.seeds`   -- the hierarchical seed scheme: one root
  seed deterministically derives every per-trial RNG stream, so any trial
  replays bit-for-bit from ``(root_seed, trial_id)`` alone;
* :mod:`repro.campaign.record`  -- decision recording and scripted replay
  (scheduler choices + concrete fault operations);
* :mod:`repro.campaign.faults`  -- the deciding fault injector: rolls the
  Section 3.1 fault classes (loss / duplication / corruption / state
  corruption, plus crash-restart / crash-stop / partition / heal churn
  when :class:`ChurnRates` is set) into *concrete, replayable* operations;
* :mod:`repro.campaign.trial`   -- the deterministic single-trial runner
  with an online legitimacy monitor and a canonical trace digest;
* :mod:`repro.campaign.spec`    -- the declarative experiment layer: a
  serializable :class:`ExperimentSpec` (base parameters, sweep axes or
  named configs) expands into a deterministic :class:`TrialMatrix`
  whose ``matrix_digest`` pins the experiment's identity;
* :mod:`repro.campaign.sched`   -- the kill-safe work-stealing scheduler:
  lease-based claims with heartbeat liveness, capped-backoff requeue of
  environmental deaths, graceful fan-out degradation, and resume to a
  bit-identical artifact digest;
* :mod:`repro.campaign.journal` -- the durable campaign journal behind
  it (append-only, torn-tail tolerant, same framing as the exploration
  logs);
* :mod:`repro.campaign.chaos`   -- the built-in chaos self-test that
  SIGKILLs workers and the coordinator at seeded points and asserts the
  resumed digest equals a clean run's;
* :mod:`repro.campaign.runner`  -- the stable single-spec front door
  (``run_campaign``), now a thin wrapper over the scheduler (a dead
  worker fails its trial, not the campaign);
* :mod:`repro.campaign.shrink`  -- delta-debugging of failing trials down
  to a locally minimal fault/schedule decision list, rendered via
  :mod:`repro.core.counterexample`;
* :mod:`repro.campaign.stats`   -- latency distributions (mean/p50/p95/max,
  empirical CDF) and the stamped JSON artifacts behind EXPERIMENTS.md
  E16/E20.
"""

from repro.campaign.faults import (
    ChurnRates,
    CrashProcess,
    DecidingFaults,
    FaultRates,
    HealNet,
    PartitionNet,
    ReplayFaults,
)
from repro.campaign.record import (
    FaultDecision,
    RecordingScheduler,
    SchedDecision,
    ScriptedScheduler,
)
from repro.campaign.chaos import ChaosReport, run_chaos_selftest
from repro.campaign.journal import CampaignJournal, replay_journal
from repro.campaign.runner import run_campaign
from repro.campaign.sched import (
    MatrixRun,
    SchedStats,
    SchedulerConfig,
    run_matrix,
)
from repro.campaign.seeds import derive_seed, spawn_rng
from repro.campaign.shrink import (
    ShrinkResult,
    ddmin,
    is_locally_minimal,
    shrink_trial,
)
from repro.campaign.spec import (
    ExperimentSpec,
    TrialMatrix,
    TrialTask,
    load_experiment_spec,
    parse_experiment_spec,
    single_spec_matrix,
)
from repro.campaign.stats import (
    CampaignSummary,
    LatencySummary,
    artifact,
    ecdf,
    matrix_artifact,
    quantile,
    summarize,
    write_artifact,
)
from repro.campaign.trial import (
    CampaignSpec,
    TrialResult,
    replay_trial,
    run_trial,
)
from repro.durable import stamp_artifact, verify_stamp

__all__ = [
    "CampaignJournal",
    "CampaignSpec",
    "CampaignSummary",
    "ChaosReport",
    "ChurnRates",
    "CrashProcess",
    "DecidingFaults",
    "ExperimentSpec",
    "FaultDecision",
    "FaultRates",
    "HealNet",
    "LatencySummary",
    "MatrixRun",
    "PartitionNet",
    "RecordingScheduler",
    "ReplayFaults",
    "SchedDecision",
    "SchedStats",
    "SchedulerConfig",
    "ScriptedScheduler",
    "ShrinkResult",
    "TrialMatrix",
    "TrialResult",
    "TrialTask",
    "artifact",
    "ddmin",
    "derive_seed",
    "ecdf",
    "is_locally_minimal",
    "load_experiment_spec",
    "matrix_artifact",
    "parse_experiment_spec",
    "quantile",
    "replay_journal",
    "replay_trial",
    "run_campaign",
    "run_chaos_selftest",
    "run_matrix",
    "run_trial",
    "shrink_trial",
    "single_spec_matrix",
    "spawn_rng",
    "stamp_artifact",
    "summarize",
    "verify_stamp",
    "write_artifact",
]
