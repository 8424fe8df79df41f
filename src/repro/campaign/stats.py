"""Campaign statistics: latency distributions, summaries, JSON artifacts.

The quantity of interest (after *Ideal Stabilization*'s framing) is the
per-burst recovery cost: how many steps after the fault window closes until
the legitimacy predicate holds for good.  A campaign yields its empirical
distribution -- mean/p50/p95/max plus an empirical CDF -- per configuration,
and the JSON artifact (``BENCH_campaign.json`` in CI) records enough to
regenerate every number: the spec, the root seed, and per-trial outcomes
with digests.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.campaign.trial import CampaignSpec, TrialResult
from repro.durable import stamp_artifact, write_json


def summarize_outcomes(results: Sequence[TrialResult]) -> dict[str, int]:
    """Outcome -> count (stable key order: worst news first)."""
    order = ("converged", "diverged", "timeout", "crashed")
    counts = {key: 0 for key in order}
    for result in results:
        counts[result.outcome] = counts.get(result.outcome, 0) + 1
    return {key: count for key, count in counts.items() if count}


def quantile(values: Sequence[float], q: float) -> float:
    """Empirical quantile (linear interpolation between order statistics)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def ecdf(values: Sequence[float], points: int = 11) -> list[tuple[float, float]]:
    """``points`` samples of the empirical CDF as (value, P[X <= value])."""
    if not values:
        return []
    ordered = sorted(values)
    out = []
    for i in range(points):
        q = i / (points - 1) if points > 1 else 1.0
        out.append((quantile(ordered, q), q))
    return out


@dataclass(frozen=True)
class LatencySummary:
    """Distribution of convergence latency over the converged trials."""

    count: int
    mean: float
    p50: float
    p95: float
    maximum: float
    cdf: tuple[tuple[float, float], ...]

    @staticmethod
    def of(latencies: Sequence[int]) -> "LatencySummary":
        if not latencies:
            return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, ())
        return LatencySummary(
            count=len(latencies),
            mean=sum(latencies) / len(latencies),
            p50=quantile(latencies, 0.50),
            p95=quantile(latencies, 0.95),
            maximum=float(max(latencies)),
            cdf=tuple(ecdf(latencies)),
        )


@dataclass(frozen=True)
class CampaignSummary:
    """A whole campaign, aggregated."""

    trials: int
    outcomes: dict[str, int]
    convergence_rate: float
    latency: LatencySummary
    wall_latency_mean: float
    mean_steps: float
    total_faults: int
    wall_seconds: float
    trials_per_second: float
    # -- robustness aggregates (defaults keep pre-churn callers valid) -----
    availability_mean: float | None = None
    detection: LatencySummary | None = None
    recovery: LatencySummary | None = None
    total_dropped: int = 0
    total_corrupted: int = 0
    requeues: int = 0

    def describe(self) -> str:
        lines = [
            f"trials:      {self.trials}  {self.outcomes}",
            f"convergence: {self.convergence_rate:.1%}",
        ]
        if self.availability_mean is not None:
            lines.append(f"availability: {self.availability_mean:.1%} mean")
        if self.detection is not None and self.detection.count:
            lines.append(
                "detection:   "
                f"mean {self.detection.mean:.1f}  p50 {self.detection.p50:.0f}  "
                f"p95 {self.detection.p95:.0f} steps "
                f"({self.detection.count} incidents)"
            )
        if self.recovery is not None and self.recovery.count:
            lines.append(
                "recovery:    "
                f"mean {self.recovery.mean:.1f}  p50 {self.recovery.p50:.0f}  "
                f"p95 {self.recovery.p95:.0f} steps "
                f"({self.recovery.count} episodes)"
            )
        if self.latency.count:
            lines.append(
                "latency:     "
                f"mean {self.latency.mean:.1f}  p50 {self.latency.p50:.0f}  "
                f"p95 {self.latency.p95:.0f}  max {self.latency.maximum:.0f} "
                f"steps  ({self.wall_latency_mean * 1000:.1f} ms mean wall)"
            )
            cdf = "  ".join(
                f"{value:.0f}:{p:.0%}" for value, p in self.latency.cdf
            )
            lines.append(f"latency CDF: {cdf}")
        lines.append(
            f"throughput:  {self.trials_per_second:.1f} trials/s "
            f"({self.wall_seconds:.1f}s wall, "
            f"{self.mean_steps:.0f} mean steps/trial, "
            f"{self.total_faults} faults dealt)"
        )
        if self.total_dropped or self.total_corrupted:
            lines.append(
                f"channels:    {self.total_dropped} dropped, "
                f"{self.total_corrupted} corrupted"
            )
        if self.requeues:
            lines.append(f"requeues:    {self.requeues} worker respawns")
        return "\n".join(lines)


def summarize(
    results: Sequence[TrialResult],
    wall_seconds: float,
    requeues: int = 0,
) -> CampaignSummary:
    """Aggregate a campaign's results (``wall_seconds``: end-to-end time)."""
    latencies = [r.latency for r in results if r.latency is not None]
    wall_latencies = [
        r.wall_latency for r in results if r.wall_latency is not None
    ]
    converged = sum(1 for r in results if r.converged)
    availabilities = [
        r.availability for r in results if r.availability is not None
    ]
    detections = [d for r in results for d in r.detections]
    recoveries = [d for r in results for d in r.recoveries]
    return CampaignSummary(
        trials=len(results),
        outcomes=summarize_outcomes(results),
        convergence_rate=converged / len(results) if results else 0.0,
        latency=LatencySummary.of(latencies),
        wall_latency_mean=(
            sum(wall_latencies) / len(wall_latencies)
            if wall_latencies
            else 0.0
        ),
        mean_steps=(
            sum(r.steps for r in results) / len(results) if results else 0.0
        ),
        total_faults=sum(r.faults for r in results),
        wall_seconds=wall_seconds,
        trials_per_second=len(results) / wall_seconds if wall_seconds else 0.0,
        availability_mean=(
            sum(availabilities) / len(availabilities)
            if availabilities
            else None
        ),
        detection=LatencySummary.of(detections) if detections else None,
        recovery=LatencySummary.of(recoveries) if recoveries else None,
        total_dropped=sum(r.dropped for r in results),
        total_corrupted=sum(r.corrupted for r in results),
        requeues=requeues,
    )


#: Campaign artifact schema: version 2 restructured the payload into a
#: deterministic core (``spec``/``summary``/``trials``, covered by the
#: content hash) plus volatile ``timing``/``execution`` sections, and
#: stamped it -- the content hash of a resumed campaign is bit-identical
#: to the uninterrupted run's.
CAMPAIGN_SCHEMA_VERSION = 2

#: Top-level artifact fields excluded from the content hash: wall-clock
#: measurements and execution incidents (requeues, lease reclaims) vary
#: between runs that computed bit-identical results.
CAMPAIGN_VOLATILE_FIELDS = ("timing", "execution")


def latency_dict(latency: LatencySummary | None) -> dict | None:
    if latency is None:
        return None
    return {
        "count": latency.count,
        "mean": latency.mean,
        "p50": latency.p50,
        "p95": latency.p95,
        "max": latency.maximum,
        "cdf": [list(point) for point in latency.cdf],
    }


def summary_dict(summary: CampaignSummary) -> dict:
    """The deterministic half of a summary (no wall-clock, no requeues)."""
    return {
        "trials": summary.trials,
        "outcomes": summary.outcomes,
        "convergence_rate": summary.convergence_rate,
        "latency": latency_dict(summary.latency),
        "mean_steps": summary.mean_steps,
        "total_faults": summary.total_faults,
        "availability_mean": summary.availability_mean,
        "detection": latency_dict(summary.detection),
        "recovery": latency_dict(summary.recovery),
        "total_dropped": summary.total_dropped,
        "total_corrupted": summary.total_corrupted,
    }


def timing_dict(summary: CampaignSummary) -> dict:
    """The wall-clock half of a summary (volatile; never hashed)."""
    return {
        "wall_seconds": summary.wall_seconds,
        "trials_per_second": summary.trials_per_second,
        "wall_latency_mean_s": summary.wall_latency_mean,
    }


def trial_rows(results: Sequence[TrialResult]) -> list[dict]:
    """Per-trial artifact rows (deterministic fields only)."""
    return [
        {
            "id": r.trial_id,
            "outcome": r.outcome,
            "steps": r.steps,
            "latency": r.latency,
            "entries": r.entries,
            "faults": r.faults,
            "digest": r.digest,
            "dropped": r.dropped,
            "corrupted": r.corrupted,
            "availability": r.availability,
            "detections": len(r.detections),
            "recoveries": len(r.recoveries),
        }
        for r in results
    ]


def spec_dict(spec: CampaignSpec) -> dict:
    out = asdict(spec)
    out["rates"] = asdict(spec.rates)
    return out


def artifact(
    spec: CampaignSpec,
    results: Sequence[TrialResult],
    summary: CampaignSummary,
    execution: dict | None = None,
) -> dict:
    """The stamped campaign artifact (CI's BENCH_campaign.json).

    The content hash covers ``spec`` + ``summary`` + ``trials`` -- a
    pure function of the trial matrix, because every hashed field of a
    :class:`TrialResult` is deterministic in ``(spec, trial_id)``.
    ``timing`` and ``execution`` (wall clocks, requeues, lease
    reclaims, resume provenance) are declared volatile, so an
    interrupted-and-resumed campaign stamps the *identical* hash as an
    uninterrupted one.
    """
    payload = {
        "spec": spec_dict(spec),
        "summary": summary_dict(summary),
        "trials": trial_rows(results),
        "timing": timing_dict(summary),
        "execution": {"requeues": summary.requeues, **(execution or {})},
    }
    return stamp_artifact(
        payload, CAMPAIGN_SCHEMA_VERSION, volatile=CAMPAIGN_VOLATILE_FIELDS
    )


def matrix_artifact(
    matrix,
    results: Sequence[TrialResult | None],
    wall_seconds: float,
    execution: dict | None = None,
    partial: bool = False,
) -> dict:
    """The stamped artifact of a (possibly multi-config) trial matrix.

    ``matrix`` is a :class:`repro.campaign.spec.TrialMatrix`;
    ``results[task_id]`` holds each finished task's result (``None``
    entries mark tasks a *partial* artifact has not seen yet -- final
    artifacts must be complete).  Each config gets its own summary over
    its own trials; the content hash covers the matrix identity and
    every deterministic row, with ``timing``/``execution`` volatile as
    in :func:`artifact`.
    """
    by_config: dict[str, list[TrialResult]] = {}
    done = 0
    for task, result in zip(matrix.tasks, results):
        if result is None:
            if not partial:
                raise ValueError(
                    f"final artifact missing task {task.task_id}"
                )
            continue
        done += 1
        by_config.setdefault(task.config, []).append(result)
    configs = {}
    for name, spec in matrix.configs:
        config_results = by_config.get(name, [])
        summary = summarize(config_results, wall_seconds)
        configs[name] = {
            "spec": spec_dict(spec),
            "summary": summary_dict(summary),
            "trials": trial_rows(config_results),
        }
    payload = {
        "campaign": matrix.name,
        "matrix_digest": matrix.matrix_digest,
        "partial": partial,
        "tasks": len(matrix),
        "completed": done,
        "configs": configs,
        "timing": {
            "wall_seconds": wall_seconds,
            "trials_per_second": (
                done / wall_seconds if wall_seconds else 0.0
            ),
        },
        "execution": dict(execution or {}),
    }
    return stamp_artifact(
        payload, CAMPAIGN_SCHEMA_VERSION, volatile=CAMPAIGN_VOLATILE_FIELDS
    )


def write_artifact(path: str | Path, payload: dict) -> None:
    """Write a campaign artifact as pretty-printed JSON (atomically)."""
    write_json(path, payload)


#: EXPERIMENTS.md table artifact schema (``repro experiment --json``).
EXPERIMENT_SCHEMA_VERSION = 1


def experiment_artifact(
    experiment_id: str, title: str, rows: Sequence[dict]
) -> dict:
    """The stamped artifact of an EXPERIMENTS.md table.

    ``rows`` must already be JSON-native (the CLI renders any rich cell
    values to their table strings first).  Experiment rows are
    deterministic, so the whole payload is hashed -- no volatile fields.
    """
    return stamp_artifact(
        {"experiment": experiment_id, "title": title, "rows": list(rows)},
        EXPERIMENT_SCHEMA_VERSION,
    )
