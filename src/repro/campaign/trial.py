"""The deterministic single-trial runner.

A **trial** is one seeded randomized execution: build the (optionally
wrapped) TME system, drive it with a :class:`RandomScheduler` whose RNG is
derived from ``(root_seed, trial_id)``, inject a
:class:`~repro.faults.injector.Windowed` burst of Section 3.1 faults whose
RNG is derived from the *same* pair on an independent stream, and run until
the wrapped specification's legitimacy predicate has held continuously for
a confirmation window (or a step budget runs out).

Legitimacy is monitored online, so trials can stop early and never
accumulate a trace: a state is legitimate when at most one process eats
(ME1), and the run has *converged* at candidate point ``c`` -- the first
state after both the fault horizon and the last ME1 violation -- once a
full confirmation window passes ``c`` with at least one CS entry and no
process left hungry for longer than the window (the operational analogue
of :func:`repro.verification.stabilization.check_stabilization`, which is
trace-analytic and therefore unusable at campaign scale).

Determinism is checked, not assumed: every trial folds its schedule, fault
descriptions, and periodic state snapshots into a canonical SHA-256
**trace digest** that is independent of interpreter hash randomization, so
``run_trial(spec, i)`` in any process -- or a scripted
:func:`replay_trial` of its recorded decisions -- must reproduce the exact
digest.
"""

from __future__ import annotations

import hashlib
import time
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field, replace

from repro.campaign.faults import (
    ChurnRates,
    DecidingFaults,
    FaultRates,
    ReplayFaults,
)
from repro.campaign.record import (
    FaultDecision,
    RecordingScheduler,
    SchedDecision,
    ScriptedScheduler,
)
from repro.campaign.seeds import FAULTS_STREAM, SCHEDULER_STREAM, spawn_rng
from repro.faults.injector import Composite, FaultInjector, Windowed
from repro.recovery import RecoveryConfig, RecoveryManager
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulator import Simulator
from repro.runtime.trace import StepRecord
from repro.tme.client import ClientConfig
from repro.tme.interfaces import EATING, HUNGRY
from repro.tme.scenarios import tme_programs
from repro.tme.wrapper import WrapperConfig

Decision = SchedDecision | FaultDecision


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a campaign's trials share; one spec + trial id = one run.

    ``theta=None`` runs the bare algorithm (no wrapper); any int attaches
    ``W'(theta)``.  ``confirm_window`` and ``max_steps`` default to
    ``None`` = scale with ``n`` (CS entries serialize, so a fixed window
    would starve large rings).
    """

    algorithm: str = "ra"
    n: int = 8
    root_seed: int = 0
    theta: int | None = 4
    fault_start: int = 40
    fault_stop: int = 160
    rates: FaultRates = field(default_factory=FaultRates)
    confirm_window: int | None = None
    max_steps: int | None = None
    deliver_bias: float = 2.0
    think_delay: int = 2
    eat_delay: int = 1
    digest_every: int = 64
    #: ``None`` = no crash/partition churn (the pre-churn RNG stream and
    #: digests are bit-for-bit preserved in that case).
    churn: ChurnRates | None = None
    #: ``None`` = no recovery subsystem attached.
    recovery: RecoveryConfig | None = None

    def __post_init__(self) -> None:
        if self.fault_stop < self.fault_start:
            raise ValueError("fault_stop must be >= fault_start")

    @property
    def effective_confirm_window(self) -> int:
        """Confirmation window: explicit, or ~one full service rotation.

        CS entries serialize and cost O(n) messages each, so under full
        contention a hungry process legitimately waits O(n^2) steps for
        all peers to be served (measured fault-free: ~9.5 n^2 worst
        hunger at n=16).  12 n^2 covers that with margin; anything
        linear in n misclassifies healthy large systems as diverged.
        """
        if self.confirm_window is not None:
            return self.confirm_window
        return max(120, 12 * self.n * self.n)

    @property
    def effective_max_steps(self) -> int:
        """Step budget: explicit, or horizon + several windows."""
        if self.max_steps is not None:
            return self.max_steps
        return self.fault_stop + max(1200, 3 * self.effective_confirm_window)

    @property
    def effective_avail_window(self) -> int:
        """A step is *served* if the last CS entry is at most this old
        (given demand); a quarter of the confirmation window keeps the
        availability measure strictly harder than the convergence one."""
        return max(30, self.effective_confirm_window // 4)


@dataclass(frozen=True)
class TrialResult:
    """One trial's verdict, measurements, and reproducibility evidence."""

    trial_id: int
    outcome: str  # "converged" | "diverged" | "timeout" | "crashed"
    steps: int
    latency: int | None  # steps from the fault horizon to convergence
    wall_seconds: float
    wall_latency: float | None  # seconds from the fault horizon
    entries: int
    faults: int
    me1_after_horizon: int
    digest: str
    detail: str = ""
    decisions: tuple[Decision, ...] | None = None
    # -- robustness measurements (defaults keep pre-churn artifacts valid) --
    availability: float | None = None
    dropped: int = 0
    corrupted: int = 0
    detections: tuple[int, ...] = ()
    recoveries: tuple[int, ...] = ()
    recovery_stages: tuple[tuple[str, int], ...] = ()
    sched_fallbacks: int = 0
    ops_skipped: int = 0

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"


# ---------------------------------------------------------------------------
# Canonical digesting (hash-randomization independent)
# ---------------------------------------------------------------------------


#: Exact types whose ``repr`` is their rendering (no subclass: a subclass
#: may be a container, or override ``__repr__``).
_ATOMS = frozenset({str, int, bool, float, type(None)})


def canonical_repr(obj: object) -> str:
    """A repr that is stable across processes: sets are sorted, dicts are
    ordered by key, everything else trusts its (deterministic) ``repr``."""
    # Snapshots are tuples of atoms nearly all the way down: settle those
    # two on the exact type before the general ``isinstance`` ladder.
    kind = type(obj)
    if kind is tuple:
        return "(" + ",".join(map(canonical_repr, obj)) + ")"
    if kind in _ATOMS:
        return repr(obj)
    if isinstance(obj, (frozenset, set)):
        return "{" + ",".join(sorted(map(canonical_repr, obj))) + "}"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: canonical_repr(kv[0]))
        return (
            "{"
            + ",".join(
                f"{canonical_repr(k)}:{canonical_repr(v)}" for k, v in items
            )
            + "}"
        )
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(map(canonical_repr, obj)) + ")"
    return repr(obj)


class TraceDigest:
    """Rolling SHA-256 over step records plus periodic state snapshots.

    What is hashed is defined by :func:`canonical_repr`: per step, the
    record's eight fields as one tuple; per state, the snapshot's
    ``(processes, channels)``.  Every digest ever recorded (artifacts,
    journals, the benchmark's pins) depends on those bytes, so they may
    not change.

    A state is rendered incrementally: between two state digests most
    variables are still bound to the object they were bound to and most
    channels are empty, so :meth:`update_state` keeps the last rendering
    of each ``(name, value)`` pair and of each channel key, reuses it only
    for the *same object* -- values are immutable (the snapshot contract),
    whereas an equal object need not render alike (``1 == True``) -- and
    assembles the same string without building a ``GlobalState``.  Step
    records are rendered afresh: a shape cache that is exact about types
    costs as much as :func:`canonical_repr` does on eight short fields.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        #: (pid, variable) -> (name, value, rendering of the pair)
        self._pairs: dict[tuple, tuple[object, object, str]] = {}
        #: channel key -> (key, its rendering)
        self._links: dict[tuple, tuple[tuple, str]] = {}

    def update_step(self, record: StepRecord) -> None:
        self._hash.update(
            canonical_repr(
                (
                    record.index,
                    record.kind,
                    record.pid,
                    record.action,
                    record.delivered_kind,
                    record.delivered_from,
                    record.sends,
                    record.faults,
                )
            ).encode()
        )

    def update_state(self, simulator: Simulator) -> None:
        pairs = self._pairs
        processes = []
        for pid, proc in sorted(simulator.processes.items()):
            rendered = []
            for pair in proc.snapshot():
                name, value = pair
                known = pairs.get((pid, name))
                if (
                    known is None
                    or known[0] is not name
                    or known[1] is not value
                ):
                    known = pairs[pid, name] = (
                        name,
                        value,
                        canonical_repr(pair),
                    )
                rendered.append(known[2])
            processes.append(
                f"({canonical_repr(pid)},({','.join(rendered)}))"
            )
        links = self._links
        channels = []
        for key, content in simulator.network.snapshot():
            known = links.get(key)
            if known is None or known[0] is not key:
                known = links[key] = (key, canonical_repr(key))
            messages = ",".join(
                [canonical_repr((m.kind, m.payload)) for m in content]
            )
            channels.append(f"({known[1]},({messages}))")
        self._hash.update(
            f"(({','.join(processes)}),({','.join(channels)}))".encode()
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# ---------------------------------------------------------------------------
# The online legitimacy monitor
# ---------------------------------------------------------------------------


class _Monitor:
    """Track ME1 cleanliness, CS entries, and open hungers step by step."""

    def __init__(
        self, simulator: Simulator, horizon: int, avail_window: int = 0
    ):
        self.horizon = horizon
        self.phases = {
            pid: proc.variables.get("phase")
            for pid, proc in simulator.processes.items()
        }
        self.hungry_since = {
            pid: (0 if phase == HUNGRY else None)
            for pid, phase in self.phases.items()
        }
        self.last_bad = -1
        self.me1_total = 0
        self.me1_after_horizon = 0
        self.entry_indices: list[int] = []
        self.avail_window = avail_window
        self.served_steps = 0
        self.observed_steps = 0

    def observe(self, simulator: Simulator, state_index: int) -> None:
        eating = 0
        for pid, proc in simulator.processes.items():
            phase = proc.variables.get("phase")
            if phase == EATING:
                eating += 1
            previous = self.phases[pid]
            if phase != previous:
                if previous == HUNGRY and phase == EATING:
                    self.entry_indices.append(state_index)
                if phase == HUNGRY:
                    self.hungry_since[pid] = state_index
                elif previous == HUNGRY:
                    self.hungry_since[pid] = None
                self.phases[pid] = phase
        if eating >= 2:
            self.last_bad = state_index
            self.me1_total += 1
            if state_index > self.horizon:
                self.me1_after_horizon += 1
        if self.avail_window:
            # A step is served if nobody wants the CS, or somebody entered
            # it recently enough (grace from step 0 before the first entry).
            self.observed_steps += 1
            demand = any(
                since is not None for since in self.hungry_since.values()
            )
            last_entry = self.entry_indices[-1] if self.entry_indices else 0
            if not demand or state_index - last_entry <= self.avail_window:
                self.served_steps += 1

    @property
    def availability(self) -> float | None:
        """Fraction of observed steps that were served (None untracked)."""
        if not self.avail_window or not self.observed_steps:
            return None
        return self.served_steps / self.observed_steps

    def converged_at(self, state_index: int, window: int) -> int | None:
        """The convergence candidate, once a window confirms it."""
        candidate = max(self.horizon, self.last_bad + 1)
        if state_index - candidate < window:
            return None
        if not self.entry_indices or self.entry_indices[-1] < candidate:
            return None
        for since in self.hungry_since.values():
            if since is not None and state_index - since > window:
                return None
        return candidate


# ---------------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------------


def build_trial_simulator(
    spec: CampaignSpec,
    scheduler,
    fault_hook,
) -> Simulator:
    """The trial's system: programs + scheduler + faults, lean recording."""
    wrapper = (
        WrapperConfig(theta=spec.theta) if spec.theta is not None else None
    )
    programs = tme_programs(
        spec.algorithm,
        spec.n,
        ClientConfig(think_delay=spec.think_delay, eat_delay=spec.eat_delay),
        wrapper,
    )
    sim = Simulator(
        programs, scheduler, fault_hook=fault_hook, record_states=False
    )
    # Campaign trials digest step records on the fly; accumulating the
    # trace (and its event log) would be O(steps) memory per trial.
    sim.record_trace = False
    return sim


def _attach_recovery(
    spec: CampaignSpec, hook: FaultInjector
) -> tuple[FaultInjector, RecoveryManager | None]:
    """Compose the recovery manager behind the trial's fault hook.

    The composition is identical in free runs and replays (the manager is
    deterministic and RNG-free, so it needs no recorded decisions).
    """
    if spec.recovery is None:
        return hook, None
    manager = RecoveryManager(spec.recovery)
    return Composite([hook, manager]), manager


def _execute(
    spec: CampaignSpec,
    trial_id: int,
    scheduler,
    fault_hook,
    fault_count,
    log: list | None,
    keep_decisions: str,
    recovery_manager: RecoveryManager | None = None,
) -> TrialResult:
    started = time.perf_counter()
    sim = build_trial_simulator(spec, scheduler, fault_hook)
    monitor = _Monitor(
        sim,
        horizon=spec.fault_stop,
        avail_window=spec.effective_avail_window,
    )
    digest = TraceDigest()
    window = spec.effective_confirm_window
    max_steps = spec.effective_max_steps
    horizon_wall = started if spec.fault_stop == 0 else None

    outcome = "diverged"
    latency: int | None = None
    wall_latency: float | None = None
    steps = 0
    for index in range(max_steps):
        record = sim.step()
        state_index = index + 1
        steps = state_index
        digest.update_step(record)
        if spec.digest_every and state_index % spec.digest_every == 0:
            digest.update_state(sim)
        monitor.observe(sim, state_index)
        if horizon_wall is None and state_index >= spec.fault_stop:
            horizon_wall = time.perf_counter()
        if state_index >= spec.fault_stop:
            candidate = monitor.converged_at(state_index, window)
            if candidate is not None:
                outcome = "converged"
                latency = candidate - spec.fault_stop
                wall_latency = time.perf_counter() - horizon_wall
                break
    digest.update_state(sim)

    keep = keep_decisions == "always" or (
        keep_decisions == "failure" and outcome != "converged"
    )
    detections: tuple[int, ...] = ()
    recoveries: tuple[int, ...] = ()
    recovery_stages: tuple[tuple[str, int], ...] = ()
    if recovery_manager is not None:
        metrics = recovery_manager.metrics()
        detections = metrics.detection_latencies
        recoveries = metrics.recovery_latencies
        recovery_stages = metrics.stage_counts
    return TrialResult(
        trial_id=trial_id,
        outcome=outcome,
        steps=steps,
        latency=latency,
        wall_seconds=time.perf_counter() - started,
        wall_latency=wall_latency,
        entries=len(monitor.entry_indices),
        faults=fault_count(),
        me1_after_horizon=monitor.me1_after_horizon,
        digest=digest.hexdigest(),
        detail=(
            f"me1_total={monitor.me1_total} "
            f"window={window} max_steps={max_steps}"
        ),
        decisions=tuple(log) if keep and log is not None else None,
        availability=monitor.availability,
        dropped=sim.network.total_dropped(),
        corrupted=sim.network.total_corrupted(),
        detections=detections,
        recoveries=recoveries,
        recovery_stages=recovery_stages,
    )


def run_trial(
    spec: CampaignSpec,
    trial_id: int,
    keep_decisions: str = "failure",
) -> TrialResult:
    """One free (RNG-driven) trial, fully determined by
    ``(spec.root_seed, trial_id)``.

    ``keep_decisions``: attach the recorded decision log to the result
    ``"always"``, only on ``"failure"`` (the default -- that is what the
    shrinker needs), or ``"never"``.
    """
    log: list[Decision] = []
    scheduler = RecordingScheduler(
        RandomScheduler(
            spawn_rng(spec.root_seed, trial_id, SCHEDULER_STREAM),
            deliver_bias=spec.deliver_bias,
        ),
        log,
    )
    deciding = DecidingFaults(
        spawn_rng(spec.root_seed, trial_id, FAULTS_STREAM),
        spec.rates,
        log,
        churn=spec.churn,
    )
    hook, manager = _attach_recovery(
        spec, Windowed(deciding, spec.fault_start, spec.fault_stop)
    )
    return _execute(
        spec,
        trial_id,
        scheduler,
        hook,
        lambda: deciding.count,
        log,
        keep_decisions,
        recovery_manager=manager,
    )


def replay_trial(
    spec: CampaignSpec,
    trial_id: int,
    decisions: Sequence[Decision],
    masked: Collection[Decision] = (),
) -> TrialResult:
    """A scripted re-run of a recorded decision list (minus ``masked``).

    With the full list and no mask this reproduces the free run's digest
    bit-for-bit; with masks it is the executable variant the shrinker
    probes.  No RNG is consumed at all.
    """
    sched_decisions = [d for d in decisions if isinstance(d, SchedDecision)]
    fault_decisions = [d for d in decisions if isinstance(d, FaultDecision)]
    scheduler = ScriptedScheduler(sched_decisions, masked)
    replayer = ReplayFaults(fault_decisions, masked)
    hook, manager = _attach_recovery(spec, replayer)
    result = _execute(
        spec,
        trial_id,
        scheduler,
        hook,
        lambda: replayer.count,
        None,
        "never",
        recovery_manager=manager,
    )
    extra = (
        f" fallbacks={scheduler.fallbacks} skipped_ops={replayer.skipped}"
    )
    return replace(
        result,
        detail=result.detail + extra,
        sched_fallbacks=scheduler.fallbacks,
        ops_skipped=replayer.skipped,
    )
