"""The six benchmark workloads, one per fresh subprocess.

``python workloads.py NAME --seed N [--trace 1]`` runs one workload once
and prints one JSON object on its last line; ``run.py`` starts it,
repeats it and aggregates.  A fresh process per run is deliberate: cold
caches and imports are what a CLI user pays, and peak RSS is
per-workload.

Each workload sets its scheduler, fault burst and sizes as constants and
derives every random choice from ``--seed``.  ``run_workload(scale=...)``
shrinks the sizes for the unit tests only; the pins in ``pins.json`` hold
at scale 1.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from layers import BOUNDARIES, NON_SPAN_METRICS, RENAME_UNDER, ratio, span_metrics
from openloop import OpenLoopResult, poisson_schedule, run_open_loop
from spans import Tracer

DEFAULT_SEED = 2025

#: Journals and trace files go here and are removed after the run: the
#: benchmark may write only inside its checkout.
WORK_ROOT = Path(__file__).resolve().parent / ".work"

# -- sizes (scale 1) --------------------------------------------------------
# The issue's sizes scaled by one common factor of about 1/3 (the live
# service: 1/6), so that one run is 1.5-3 s of measured work on the 2-cpu
# reference container and four to seven fresh processes fit into one 15-s
# driver run: its medians, the set-up time's too, need several, and the
# service, which the host-speed readings below follow least well, needs most.
BURST_TRIALS = 12
FLEET_TRIALS_PER_CONFIG = 30
FLEET_WORKERS = 2
EXACT_DEPTH = 10
SYM_DEPTH = 11
#: what ``scale < 1`` truncates the explorations to (states at scale 1)
EXACT_STATES = 17_409
SYM_STATES = 4_788
SERVICE_CONNECTIONS = 2
#: acquire-release cycles per connection: about 0.3 and 1.5 s.  A count,
#: not a duration: a request cut off by a deadline would be a failed one.
CLOSED_WARMUP_CYCLES = 150
CLOSED_CYCLES = 750
#: arrivals per second -> seconds; the rate whose latency is gated gets
#: most of the time (450 arrivals, so 45 samples beyond its p90; the
#: other two have at least ten)
PACED_WINDOWS_S = {150: 0.7, 300: 1.5, 600: 0.4}
#: the rate whose latency is ``latency_ms`` and ``service.grant_p90/p99_ms``
PACED_GATED_RATE = 300
#: ``max_rate_ok``: the highest rate whose p90 from due to grant is within
#: this limit, and that leaves no more requests ungranted at the close of
#: its window than the limit itself allows in flight (rate x limit)
LATENCY_LIMIT_MS = 20.0


# -- reference seconds --------------------------------------------------------
#
# The reference container's cores change speed by a factor of up to 2 for
# seconds to minutes at a time (other tenants on the same silicon), which
# no run length averages out.  So all through a run a background thread
# times a fixed pure-Python kernel, and *every* duration the run reports,
# gated or per-layer, is in reference seconds: what it would have taken on
# a host that runs one kernel slice in ``KERNEL_REF_S`` (the constant only
# fixes the unit).  ``host_speed`` is in every record, so raw seconds can
# be recovered; README.md shows what this does to the run-to-run spread.
KERNEL_ITERATIONS = 20_000
KERNEL_REF_S = 0.0012
#: between two slices; with the slice itself, about 4 % of one CPU
SAMPLE_GAP_S = 0.03


class HostSpeed(threading.Thread):
    """Samples how fast this host runs Python while a workload runs.

    A slice is timed in the thread's own CPU time, so waiting for the GIL
    or for a CPU is not counted; it holds the GIL for about a millisecond,
    which is the longest it can delay the service's event loop.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.slices_s: list[float] = []
        self._done = threading.Event()

    def run(self) -> None:
        while True:
            started = time.thread_time()
            acc = 0
            for i in range(KERNEL_ITERATIONS):
                acc += i * i % 7
            self.slices_s.append(time.thread_time() - started)
            if self._done.wait(SAMPLE_GAP_S):
                return

    def finish(self) -> float:
        """Stop sampling; the speed over the run, 1.0 = the reference."""
        self._done.set()
        self.join()
        return KERNEL_REF_S / statistics.fmean(self.slices_s)


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int
    failed: int
    #: deterministic outputs: equal for equal seeds, traced or not
    pins: dict[str, object]
    #: operations per reference second
    work_per_s: float
    #: what the caller of one operation waits, in reference milliseconds
    latency_ms: float
    #: per-layer metrics that do not come from spans
    layers: dict[str, float] = field(default_factory=dict)


class Run:
    """One child process's clock, tracer and scratch directory."""

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        scale: float = 1.0,
        tracer: Tracer | None = None,
        spawned_at: float | None = None,
        work_dir: str | None = None,
    ):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        self.spawned_at = time.time() if spawned_at is None else spawned_at
        self.work_dir = work_dir
        self.began = self.ended = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.speed: float | None = None
        self._setup_raw_s: float | None = None
        self._host_speed = HostSpeed()
        self._host_speed.start()

    def scaled(self, size: float) -> int:
        return max(1, round(size * self.scale))

    def ready(self) -> None:
        """Set-up is over (imports, program build, cluster start, connect)."""
        if self._setup_raw_s is None:
            self._setup_raw_s = time.time() - self.spawned_at

    def begin(self) -> None:
        """The first measured operation starts now."""
        self.ready()
        if self.tracer is not None:
            self.tracer.clear()
        self.cpu_s = time.thread_time()
        self.began = time.perf_counter()

    def end(self) -> None:
        self.ended = time.perf_counter()
        self.cpu_s = time.thread_time() - self.cpu_s
        if self.tracer is not None:
            self.tracer.uninstall()
        # before any checking of outputs: re-reading a trace file is the
        # benchmark's memory, not the service's
        self.peak_rss_mb = peak_rss_mb()
        self.speed = self._host_speed.finish()

    @property
    def wall_s(self) -> float:
        return self.ended - self.began

    def ref(self, seconds: float) -> float:
        """``seconds`` of this run in reference seconds."""
        return seconds * self.speed

    @property
    def setup_s(self) -> float:
        return self.ref(self._setup_raw_s)


# ---------------------------------------------------------------------------
# campaign_burst / campaign_fleet
# ---------------------------------------------------------------------------


def _campaign_layers(run: Run, results, workers: int, stats: dict,
                     first_result_at: list[float], journal_bytes: int) -> dict:
    busy = sum(result.wall_seconds for result in results)
    return {
        "campaign.trials_per_s": len(results) / run.ref(run.wall_s),
        "campaign.worker_busy_ratio": busy / (workers * run.wall_s),
        "campaign.coord_overhead_s": run.ref(run.wall_s - busy / workers),
        "campaign.first_result_s": run.ref(first_result_at[0] - run.began),
        "campaign.requeues_n": stats["requeues"],
        "campaign.worker_deaths_n": stats["worker_deaths"],
        "campaign.journal_bytes": journal_bytes,
    }


def _trial_ms(run: Run, results) -> float:
    """What a trial of 1 000 simulator steps takes, wherever it ran (per
    step, because how long a trial runs depends on the seed)."""
    return run.ref(
        statistics.median(r.wall_seconds / r.steps for r in results)
    ) * 1e6


def _crashed(results) -> int:
    return sum(1 for result in results if result.outcome == "crashed")


def campaign_burst(run: Run) -> Outcome:
    """Long wrapped-RA n=8 trials in-process: the simulator step loop."""
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec("ra", n=8, root_seed=run.seed)
    trials = run.scaled(BURST_TRIALS)
    first: list[float] = []
    stats: dict = {}
    run.begin()
    results = run_campaign(
        spec,
        trials,
        workers=1,
        on_result=lambda _r: first or first.append(time.perf_counter()),
        retry_stats=stats,
    )
    run.end()
    digests = hashlib.sha256(
        "".join(result.digest for result in results).encode()
    ).hexdigest()
    return Outcome(
        attempted=trials,
        failed=_crashed(results),
        pins={
            "steps": sum(result.steps for result in results),
            "converged": sum(1 for result in results if result.converged),
            "digests_sha256": digests,
        },
        work_per_s=sum(r.steps for r in results) / run.ref(run.wall_s),
        latency_ms=_trial_ms(run, results),
        layers=_campaign_layers(run, results, 1, stats, first, 0),
    )


def campaign_fleet(run: Run) -> Outcome:
    """Many short trials through the fork fleet and the durable journal."""
    from repro.campaign import ExperimentSpec, SchedulerConfig, run_matrix
    from repro.campaign.journal import JOURNAL_NAME

    matrix = ExperimentSpec(
        name="perf_fleet",
        root_seed=run.seed,
        trials=run.scaled(FLEET_TRIALS_PER_CONFIG),
        base={
            "n": 4,
            "fault_start": 20,
            "fault_stop": 80,
            "confirm_window": 120,
            "max_steps": 800,
        },
        axes={"algorithm": ["ra", "lamport"], "churn_scale": [0, 1]},
    ).expand()
    store = os.path.join(run.work_dir, "fleet")
    first: list[float] = []
    run.begin()
    done = run_matrix(
        matrix,
        SchedulerConfig(workers=FLEET_WORKERS),
        store_dir=store,
        on_result=lambda _r: first or first.append(time.perf_counter()),
    )
    run.end()
    journal_bytes = os.path.getsize(os.path.join(store, JOURNAL_NAME))
    return Outcome(
        attempted=len(matrix),
        failed=_crashed(done.results),
        pins={
            "steps": sum(result.steps for result in done.results),
            "artifact_content_hash": done.artifact()["content_hash"],
        },
        work_per_s=sum(r.steps for r in done.results) / run.ref(run.wall_s),
        latency_ms=_trial_ms(run, done.results),
        layers=_campaign_layers(
            run,
            done.results,
            FLEET_WORKERS,
            done.stats.as_dict(),
            first,
            journal_bytes,
        ),
    )


# ---------------------------------------------------------------------------
# explore_exact / explore_sym
# ---------------------------------------------------------------------------


def _explore(run: Run, programs, symmetry, depth: int, states: int) -> Outcome:
    from repro.explore import GlobalSimulatorSpace
    from repro.explore import engine

    space = GlobalSimulatorSpace(programs, symmetry=symmetry)
    run.begin()
    # looked up on the module at call time, so the traced run times it
    found = engine.explore(
        space,
        max_depth=depth,
        max_states=None if run.scale >= 1 else run.scaled(states),
    )
    run.end()
    stats = found.stats
    return Outcome(
        attempted=stats.expansions,
        failed=0,
        pins={
            "states": found.states,
            "transitions": stats.transitions,
            "content_digest": found.content_digest(),
        },
        work_per_s=found.states / run.ref(run.wall_s),
        # the caller asked one question and waits for the whole answer
        latency_ms=run.ref(run.wall_s) * 1000.0,
        layers={
            "explore.expansions_n": stats.expansions,
            "explore.transitions_n": stats.transitions,
            "explore.peak_frontier_n": stats.peak_frontier,
            "explore.canon_cache_hit_rate": stats.canon_cache_hit_rate,
            "explore.orbit_reductions_n": stats.orbit_reductions,
            "explore.dedup_hit_rate": stats.dedup_hit_rate,
            "explore.bytes_per_state": stats.bytes_per_state,
        },
    )


def explore_exact(run: Run) -> Outcome:
    """Wrapped RA n=3 without symmetry: expansion and the state store."""
    from repro.tme import ClientConfig, WrapperConfig, tme_programs

    programs = tme_programs(
        "ra", 3, ClientConfig(1, 1), WrapperConfig(theta=4)
    )
    return _explore(run, programs, None, EXACT_DEPTH, EXACT_STATES)


def explore_sym(run: Run) -> Outcome:
    """RA n=4 under full symmetry: the packed canonicalizer."""
    from repro.tme import ClientConfig, tme_programs

    programs = tme_programs("ra", 4, ClientConfig(1, 1))
    return _explore(run, programs, "full", SYM_DEPTH, SYM_STATES)


# ---------------------------------------------------------------------------
# service_closed / service_paced
# ---------------------------------------------------------------------------


def _service_counters(cluster) -> dict[str, int]:
    return {
        "grants": cluster.total_grants(),
        "sent": cluster.network.total_sent(),
        "dropped": cluster.network.total_dropped(),
        "steps": sum(node.steps_executed for node in cluster.nodes.values()),
        "events": cluster.monitor.events_seen,
    }


def _service_layers(
    run: Run, before: dict, after: dict, trace_path: str | None
) -> dict[str, float]:
    delta = {key: after[key] - before[key] for key in after}
    return {
        "service.trace_bytes": (
            os.path.getsize(trace_path) if trace_path is not None else 0
        ),
        "service.transport_sent_n": delta["sent"],
        "service.transport_dropped_n": delta["dropped"],
        "service.msgs_per_grant": ratio(delta["sent"], delta["grants"]),
        "service.node_steps_n": delta["steps"],
        "service.steps_per_grant": ratio(delta["steps"], delta["grants"]),
        "service.monitor_events_n": delta["events"],
        "service.loop_cpu_s": run.ref(run.cpu_s),
        "service.loop_cpu_ratio": run.cpu_s / run.wall_s,
    }


def _serve(run: Run, trace_path: str | None, load: Callable):
    """Start the n=3 cluster, run ``load(cluster, ports)`` on the same
    event loop (one CPU-bound thread serves and generates), stop it."""
    from repro.service import ClusterConfig, LocalCluster

    async def session():
        cluster = LocalCluster(
            ClusterConfig("ra", n=3, theta=8, trace_path=trace_path)
        )
        await cluster.start()
        try:
            # p2 gets no clients: it only replies to its peers' requests
            ports = cluster.client_ports()[:SERVICE_CONNECTIONS]
            loaded = await load(cluster, ports)
        finally:
            report = await cluster.stop()
        return cluster, loaded, report

    return asyncio.run(session())


def _verdict_pins(report, cluster) -> dict[str, object]:
    frontends = cluster.frontend_stats().values()
    return {
        "me1": len(report.me1),
        "me3": len(report.me3),
        "grants_equal_releases": (
            cluster.total_grants() == sum(f["releases"] for f in frontends)
        ),
    }


def service_closed(run: Run) -> Outcome:
    """Saturation: two closed-loop callers, every layer is throughput."""
    from repro.campaign.stats import quantile
    from repro.service import LoadgenConfig, run_loadgen
    from repro.service.monitor import revalidate_trace

    trace_path = os.path.join(run.work_dir, "trace.jsonl")

    async def load(cluster, ports):
        def closed_loop(cycles: int) -> LoadgenConfig:
            return LoadgenConfig(
                ports=tuple(ports),
                clients=SERVICE_CONNECTIONS,
                ops_per_client=cycles,
            )

        run.ready()
        await run_loadgen(closed_loop(CLOSED_WARMUP_CYCLES))
        before = _service_counters(cluster)
        run.begin()
        result = await run_loadgen(closed_loop(run.scaled(CLOSED_CYCLES)))
        run.end()
        return result, before, _service_counters(cluster)

    cluster, (result, before, after), report = _serve(run, trace_path, load)
    started = time.perf_counter()
    offline = revalidate_trace(trace_path)
    revalidate_s = run.ref(time.perf_counter() - started)
    pins = _verdict_pins(report, cluster)
    pins["offline_equals_online"] = (
        offline.me1 == report.me1
        and offline.me2 == report.me2
        and offline.me3 == report.me3
        and offline.trace_length == report.trace_length
    )

    def p_ms(q: float) -> float:
        return run.ref(quantile(result.latencies_ms, q))

    layers = _service_layers(run, before, after, trace_path)
    layers.update(
        {
            "service.revalidate_s": revalidate_s,
            "service.grant_p90_ms": p_ms(0.90),
            "service.grant_p99_ms": p_ms(0.99),
            "service.grant_max_ms": run.ref(max(result.latencies_ms)),
            "service.timeouts_n": result.timeouts,
            "service.errors_n": result.errors,
        }
    )
    return Outcome(
        attempted=result.grants + result.timeouts + result.errors,
        failed=result.timeouts + result.errors,
        pins=pins,
        work_per_s=result.grants / run.ref(result.wall_s),
        # a closed loop's wait is its throughput seen from one connection
        latency_ms=SERVICE_CONNECTIONS * run.ref(result.wall_s)
        * 1000.0 / result.grants,
        layers=layers,
    )


def service_paced(run: Run) -> Outcome:
    """Open loop at fixed rates: latency is round trips and queueing."""
    from repro.campaign.stats import quantile
    from repro.service import LockClient

    async def load(cluster, ports):
        clients = [LockClient() for _ in ports]
        for client, port in zip(clients, ports):
            await client.connect("127.0.0.1", port)
        run.ready()
        try:
            for client in clients:  # warm every code path once per node
                await client.release(await client.acquire())
            before = _service_counters(cluster)
            run.begin()
            by_rate: dict[int, OpenLoopResult] = {}
            for rate, seconds in PACED_WINDOWS_S.items():
                window_s = seconds * run.scale
                schedule = poisson_schedule(
                    random.Random(f"{run.seed}:{rate}"), rate, window_s
                )
                by_rate[rate] = await run_open_loop(
                    clients, schedule, window_s
                )
            run.end()
            return by_rate, before, _service_counters(cluster)
        finally:
            for client in clients:
                await client.close()

    cluster, (by_rate, before, after), report = _serve(run, None, load)

    def p_ms(rate: int, q: float) -> float:
        return run.ref(quantile(by_rate[rate].latencies_s, q)) * 1000.0

    def failures(result: OpenLoopResult) -> int:
        return result.timeouts + result.errors

    ok_rates = [
        rate
        for rate, result in by_rate.items()
        if p_ms(rate, 0.90) <= LATENCY_LIMIT_MS
        and result.backlog_at_end <= rate * LATENCY_LIMIT_MS / 1000.0
        and not failures(result)
    ]
    gated = by_rate[PACED_GATED_RATE]
    lowest = by_rate[min(by_rate)]
    layers = _service_layers(run, before, after, None)
    layers.update(
        {
            "service.grant_p90_ms": p_ms(PACED_GATED_RATE, 0.90),
            "service.grant_p99_ms": p_ms(PACED_GATED_RATE, 0.99),
            "service.grant_max_ms": run.ref(max(gated.latencies_s)) * 1000.0,
            "service.grant_p90_ms.r150": p_ms(150, 0.90),
            "service.grant_p90_ms.r600": p_ms(600, 0.90),
            "service.max_rate_ok": max(ok_rates, default=0),
            # the rates pooled: the short windows alone have fewer than
            # ten samples beyond their p99
            "service.sched_lag_p99_ms": run.ref(
                quantile(
                    [lag for r in by_rate.values() for lag in r.lags_s], 0.99
                )
            ) * 1000.0,
            "service.loop_cpu_ratio.r150": lowest.cpu_s / lowest.wall_s,
            "service.timeouts_n": sum(r.timeouts for r in by_rate.values()),
            "service.errors_n": sum(r.errors for r in by_rate.values()),
        }
    )
    granted = sum(len(result.latencies_s) for result in by_rate.values())
    return Outcome(
        attempted=sum(result.due_n for result in by_rate.values()),
        failed=sum(failures(result) for result in by_rate.values()),
        pins=_verdict_pins(report, cluster),
        # Goodput under the offered load.  Arrivals follow the wall
        # clock, not the host, so this one rate is per raw second; it
        # falls only when the service cannot keep up, and what gates a
        # slower service here is ``latency_ms``.
        work_per_s=granted / run.wall_s,
        latency_ms=p_ms(PACED_GATED_RATE, 0.50),
        layers=layers,
    )


WORKLOADS: dict[str, Callable[[Run], Outcome]] = {
    "campaign_burst": campaign_burst,
    "campaign_fleet": campaign_fleet,
    "explore_exact": explore_exact,
    "explore_sym": explore_sym,
    "service_closed": service_closed,
    "service_paced": service_paced,
}


# ---------------------------------------------------------------------------
# one run, in this process
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def run_workload(
    name: str,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    traced: bool = False,
    spawned_at: float | None = None,
) -> dict:
    """Run one workload here and return its JSON-ready record."""
    tracer = Tracer(BOUNDARIES) if traced else None
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=name + "-", dir=WORK_ROOT)
    run = Run(seed, scale, tracer, spawned_at, work_dir)
    try:
        if tracer is not None:
            tracer.install()
        outcome = WORKLOADS[name](run)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    layers = dict(outcome.layers)
    layers["ops.failed_ratio"] = outcome.failed / outcome.attempted
    layers["ops.host_speed"] = run.speed
    if set(layers) != NON_SPAN_METRICS[name]:
        raise KeyError(
            f"{name}: metrics differ from layers.NON_SPAN_METRICS: "
            f"{sorted(set(layers) ^ NON_SPAN_METRICS[name])}"
        )
    if tracer is not None:
        summary = tracer.summary(end=run.ended, rename_under=RENAME_UNDER)
        layers.update(span_metrics(summary, run.wall_s, run.speed))
        # the service mostly waits, so its books are kept in CPU time
        attributed = layers["trace.wall_s"] - layers["trace.unattributed_s"]
        layers["service.unattributed_s"] = (
            layers["service.loop_cpu_s"] - attributed
            if "service.loop_cpu_s" in layers
            else 0.0
        )
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "host_speed": run.speed,
        "pins": outcome.pins,
        "e2e": {
            "setup_s": run.setup_s,
            "work_per_s": outcome.work_per_s,
            "latency_ms": outcome.latency_ms,
            "peak_rss_mb": run.peak_rss_mb,
        },
        "layers": layers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    record = run_workload(
        args.workload,
        args.seed,
        traced=bool(args.trace),
        spawned_at=args.spawned_at,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
