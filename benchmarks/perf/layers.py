"""The layer boundaries of ``repro`` and the per-layer metrics they yield.

Layer = module name.  ``<layer>.<x>_s`` is *self* time inside the traced
region, ``<layer>.<x>_n`` a count.  Every traced run installs every
boundary, so a layer a workload never enters reports an observed zero,
not a missing value; that is what the bypass predictions in README.md
are checked against.
"""

from __future__ import annotations

from collections.abc import Mapping

from spans import COUNTED, ITER, Boundary, SpanStat

_WIRE = "repro.service.wire:"
_LEN_PREFIX = 4  # bytes of frame length before each body


def _frame_bytes(_args: tuple, frame: bytes) -> int:
    return len(frame)


def _body_bytes(args: tuple, _obj: object) -> int:
    return len(args[0]) + _LEN_PREFIX


BOUNDARIES: tuple[Boundary, ...] = (
    # -- runtime: the simulator step loop ---------------------------------
    Boundary("repro.runtime.simulator:Simulator.step", "runtime.step"),
    Boundary(
        "repro.runtime.simulator:Simulator.candidate_steps",
        "runtime.guard_eval",
    ),
    Boundary(
        "repro.runtime.process:ProcessRuntime.enabled_internal_actions",
        "runtime.guard_eval",
    ),
    Boundary(
        "repro.runtime.network:Network.deliverable_channels",
        "runtime.guard_eval",
    ),
    Boundary(
        "repro.dsl.guards:GuardedAction.enabled", "runtime.guard_calls", COUNTED
    ),
    Boundary(
        "repro.tme.interfaces:explicit_adapter", "tme.lspec_view_builds", COUNTED
    ),
    Boundary(
        "repro.campaign.record:RecordingScheduler.choose", "runtime.schedule"
    ),
    Boundary(
        "repro.runtime.scheduler:RandomScheduler.choose", "runtime.schedule"
    ),
    Boundary("repro.runtime.simulator:Simulator.execute", "runtime.execute"),
    Boundary(
        "repro.runtime.process:ProcessRuntime.execute_receive",
        "runtime.execute",
    ),
    Boundary(
        "repro.runtime.process:ProcessRuntime.execute_internal",
        "runtime.execute",
    ),
    # The exploration space forks one process and a few channels per
    # successor instead of whole simulators, so all three count as forks.
    Boundary("repro.runtime.simulator:Simulator.fork", "runtime.fork"),
    Boundary("repro.runtime.process:ProcessRuntime.fork", "runtime.fork"),
    Boundary("repro.runtime.network:Network.fork_channels", "runtime.fork"),
    Boundary("repro.runtime.simulator:Simulator.snapshot", "runtime.snapshot"),
    Boundary(
        "repro.runtime.process:ProcessRuntime.snapshot", "runtime.snapshot"
    ),
    # -- faults and recovery ----------------------------------------------
    Boundary("repro.faults.injector:Windowed.before_step", "faults.inject"),
    Boundary("repro.faults.injector:Composite.before_step", "faults.inject"),
    Boundary(
        "repro.recovery.manager:RecoveryManager.before_step", "recovery.hook"
    ),
    # -- campaign ---------------------------------------------------------
    Boundary("repro.campaign.trial:run_trial", "campaign.trial"),
    Boundary("repro.campaign.trial:build_trial_simulator", "campaign.build"),
    Boundary("repro.campaign.trial:TraceDigest.update_step", "campaign.digest"),
    Boundary(
        "repro.campaign.trial:TraceDigest.update_state", "campaign.digest"
    ),
    Boundary("repro.campaign.trial:TraceDigest.hexdigest", "campaign.digest"),
    Boundary(
        "repro.campaign.journal:CampaignJournal.lease",
        "campaign.journal_append",
    ),
    Boundary(
        "repro.campaign.journal:CampaignJournal.result",
        "campaign.journal_append",
    ),
    Boundary(
        "repro.campaign.journal:CampaignJournal.requeue",
        "campaign.journal_append",
    ),
    Boundary("repro.campaign.journal:encode_result", "campaign.result_codec"),
    Boundary("repro.campaign.journal:decode_result", "campaign.result_codec"),
    # -- explore ----------------------------------------------------------
    Boundary("repro.explore.engine:explore", "explore.engine"),
    Boundary(
        "repro.explore.spaces:GlobalSimulatorSpace.successors",
        "explore.expand",
        ITER,
    ),
    Boundary("repro.explore.spaces:GlobalSimulatorSpace.key", "explore.key"),
    Boundary(
        "repro.explore.packed:PackedGlobalCanonicalizer.canonicalize",
        "explore.canonicalize",
    ),
    Boundary(
        "repro.explore.store:GlobalStateCodec.encode_tokens", "explore.encode"
    ),
    Boundary("repro.explore.store:GlobalStateCodec.encode", "explore.encode"),
    Boundary("repro.explore.store:InternedStateStore.add", "explore.store"),
    Boundary(
        "repro.explore.store:InternedStateStore.add_packed", "explore.store"
    ),
    Boundary(
        "repro.explore.store:InternedStateStore.contains_packed",
        "explore.store",
    ),
    # -- service ----------------------------------------------------------
    Boundary(_WIRE + "encode_frame", "service.wire_codec", weigh=_frame_bytes),
    Boundary(_WIRE + "decode_body", "service.wire_codec", weigh=_body_bytes),
    Boundary(_WIRE + "message_frame", "service.wire_message"),
    Boundary(_WIRE + "frame_message", "service.wire_message"),
    Boundary(
        "repro.service.transport:SocketTransport.send",
        "service.transport_send",
    ),
    Boundary(
        "repro.service.node:ServiceNode.step_batch", "service.node_step_batch"
    ),
    Boundary("repro.service.lockapi:LockFrontend.poll", "service.lockapi_poll"),
    Boundary(
        "repro.service.monitor:LiveMonitor.on_event", "service.monitor_on_event"
    ),
    Boundary("repro.service.monitor:TraceWriter.event", "service.trace_write"),
)

#: The same ``ProcessRuntime`` methods are the simulator's time under
#: ``Simulator.step`` and the node loop's time under ``step_batch``.
RENAME_UNDER = {
    ("runtime.guard_eval", "service.node_step_batch"): "service.node_guard_eval",
    ("runtime.execute", "service.node_step_batch"): "service.node_execute",
}

_OPS = frozenset({"ops.failed_ratio", "ops.host_speed"})
_CAMPAIGN = _OPS | {
    "campaign.trials_per_s",
    "campaign.worker_busy_ratio",
    "campaign.coord_overhead_s",
    "campaign.first_result_s",
    "campaign.requeues_n",
    "campaign.worker_deaths_n",
    "campaign.journal_bytes",
}
_EXPLORE = _OPS | {
    "explore.expansions_n",
    "explore.transitions_n",
    "explore.peak_frontier_n",
    "explore.canon_cache_hit_rate",
    "explore.orbit_reductions_n",
    "explore.dedup_hit_rate",
    "explore.bytes_per_state",
}
_SERVICE = _OPS | {
    "service.trace_bytes",
    "service.transport_sent_n",
    "service.transport_dropped_n",
    "service.msgs_per_grant",
    "service.node_steps_n",
    "service.steps_per_grant",
    "service.monitor_events_n",
    "service.loop_cpu_s",
    "service.loop_cpu_ratio",
    "service.grant_p90_ms",
    "service.grant_p99_ms",
    "service.grant_max_ms",
    "service.timeouts_n",
    "service.errors_n",
}

#: The metrics each workload computes itself (everything that is not a
#: span).  A workload that stops producing one of its own is an error; only
#: another workload's metric may read 0 for "layer not entered".
NON_SPAN_METRICS: dict[str, frozenset[str]] = {
    "campaign_burst": _CAMPAIGN,
    "campaign_fleet": _CAMPAIGN,
    "explore_exact": _EXPLORE,
    "explore_sym": _EXPLORE,
    "service_closed": _SERVICE | {"service.revalidate_s"},
    "service_paced": _SERVICE
    | {
        "service.grant_p90_ms.r150",
        "service.grant_p90_ms.r600",
        "service.max_rate_ok",
        "service.sched_lag_p99_ms",
        "service.loop_cpu_ratio.r150",
    },
}

#: Per-layer metrics that are rates or the load generator's view of the
#: service.  Tracing distorts them (it adds CPU to a loop whose queueing
#: delay is the measurement), so they are taken from the untraced runs.
UNTRACED_LAYER_METRICS = frozenset(
    {
        "service.grant_p90_ms",
        "service.grant_p99_ms",
        "service.grant_max_ms",
        "service.grant_p90_ms.r150",
        "service.grant_p90_ms.r600",
        "service.max_rate_ok",
        "service.sched_lag_p99_ms",
        "service.timeouts_n",
        "service.errors_n",
        "service.loop_cpu_ratio",
        "service.loop_cpu_ratio.r150",
        "campaign.trials_per_s",
        "ops.failed_ratio",
        "ops.host_speed",
    }
)

#: What must hold on every commit, checked on the medians of a run: the
#: layers a workload bypasses stay bypassed, the books of the traced run
#: balance, and a paced run measured the service -- not a generator that
#: woke late, and not a queue that the gated rate overloads.
LIMITS: dict[str, tuple[tuple[str, str, float], ...]] = {
    "campaign_burst": (
        ("campaign.journal_records_n", "==", 0),
        ("trace.unattributed_ratio", "<=", 0.15),
    ),
    "campaign_fleet": (("campaign.worker_deaths_n", "==", 0),),
    "explore_exact": (
        ("explore.canonicalize_n", "==", 0),
        ("trace.unattributed_ratio", "<=", 0.15),
    ),
    "explore_sym": (("trace.unattributed_ratio", "<=", 0.15),),
    "service_closed": (("service.loop_cpu_ratio", ">=", 0.85),),
    "service_paced": (
        ("service.trace_bytes", "==", 0),
        ("service.loop_cpu_ratio.r150", "<", 0.5),
        ("service.sched_lag_p99_ms", "<=", 5.0),
        ("service.max_rate_ok", ">=", 300),
    ),
}

#: span name -> (self-time metric, count metric); ``None`` = not reported.
#: Two spans may feed one self-time metric (their times add).
SPAN_METRICS: dict[str, tuple[str | None, str | None]] = {
    "runtime.step": ("runtime.step_self_s", "runtime.step_n"),
    "runtime.guard_eval": ("runtime.guard_eval_s", None),
    "runtime.guard_calls": (None, "runtime.guard_calls_n"),
    "tme.lspec_view_builds": (None, "tme.lspec_view_builds_n"),
    "runtime.schedule": ("runtime.schedule_s", None),
    "runtime.execute": ("runtime.execute_s", None),
    "runtime.fork": ("runtime.fork_s", "runtime.fork_n"),
    "runtime.snapshot": ("runtime.snapshot_s", "runtime.snapshot_n"),
    "faults.inject": ("faults.inject_s", None),
    "recovery.hook": ("recovery.hook_s", None),
    "campaign.trial": ("campaign.trial_self_s", "campaign.trial_n"),
    "campaign.build": ("campaign.build_s", None),
    "campaign.digest": ("campaign.digest_s", None),
    "campaign.journal_append": (
        "campaign.journal_append_s",
        "campaign.journal_records_n",
    ),
    "campaign.result_codec": ("campaign.result_codec_s", None),
    "explore.engine": ("explore.engine_self_s", None),
    "explore.expand": ("explore.expand_self_s", None),
    "explore.key": ("explore.key_s", None),
    "explore.canonicalize": (
        "explore.canonicalize_s",
        "explore.canonicalize_n",
    ),
    "explore.encode": ("explore.encode_s", None),
    "explore.store": ("explore.store_s", "explore.store_add_n"),
    "service.wire_codec": ("service.wire_codec_s", "service.wire_frames_n"),
    "service.wire_message": ("service.wire_codec_s", None),
    "service.transport_send": ("service.transport_send_s", None),
    "service.node_step_batch": (
        "service.node_step_batch_s",
        "service.node_batches_n",
    ),
    "service.node_guard_eval": ("service.node_guard_eval_s", None),
    "service.node_execute": ("service.node_execute_s", None),
    "service.lockapi_poll": (
        "service.lockapi_poll_s",
        "service.lockapi_poll_n",
    ),
    "service.monitor_on_event": ("service.monitor_on_event_s", None),
    "service.trace_write": ("service.trace_write_s", None),
}


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def span_metrics(
    summary: Mapping[str, SpanStat], wall_s: float, speed: float
) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced region, times in
    reference seconds (raw seconds x ``speed``).

    ``trace.unattributed_s`` is the region's wall time minus every
    span's self time, so the ``_s`` metrics plus it add up to
    ``trace.wall_s`` by construction.
    """
    out: dict[str, float] = {}
    attributed = 0.0
    for span, (self_metric, count_metric) in SPAN_METRICS.items():
        stat = summary.get(span, SpanStat())
        attributed += stat.self_s
        if self_metric is not None:
            out[self_metric] = out.get(self_metric, 0.0) + stat.self_s * speed
        if count_metric is not None:
            out[count_metric] = stat.count
    unknown = set(summary) - set(SPAN_METRICS)
    if unknown:
        raise KeyError(f"spans without a metric: {sorted(unknown)}")
    steps = out["runtime.step_n"]
    out["runtime.guard_calls_per_step"] = ratio(
        out["runtime.guard_calls_n"], steps
    )
    out["tme.lspec_view_builds_per_step"] = ratio(
        out["tme.lspec_view_builds_n"], steps
    )
    wire = summary.get("service.wire_codec", SpanStat())
    out["service.wire_bytes"] = wire.weight
    out["trace.wall_s"] = wall_s * speed
    out["trace.unattributed_s"] = (wall_s - attributed) * speed
    out["trace.unattributed_ratio"] = ratio(wall_s - attributed, wall_s)
    return out
