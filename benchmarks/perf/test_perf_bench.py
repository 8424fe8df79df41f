"""Tests of the benchmark harness itself.

Run with ``python -m pytest benchmarks/perf``; tier-1 collects ``tests/``
only, so these cost it nothing.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import layers
import openloop
import run as harness
import workloads
from spans import COUNTED, ITER, Boundary, BoundaryError, Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
E2E_NAMES = {entry["name"] for entry in SPEC["end_to_end"]}
LAYER_NAMES = {entry["name"] for entry in SPEC["per_layer"]}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


@pytest.fixture
def synth():
    """A two-module package: ``user`` binds ``lib.leaf`` by from-import."""
    lib = types.ModuleType("perfsynth.lib")
    user = types.ModuleType("perfsynth.user")
    exec(
        "import time\n"
        "REGISTRY = {}\n"
        "def leaf(s):\n"
        "    time.sleep(s)\n"
        "    return s\n"
        "class Box:\n"
        "    def outer(self, a, b):\n"
        "        time.sleep(a)\n"
        "        leaf(b)\n"
        "        return leaf(b)\n"
        "    def stream(self, n):\n"
        "        for i in range(n):\n"
        "            time.sleep(0.01)\n"
        "            yield i\n"
        "    def tick(self):\n"
        "        return 1\n",
        lib.__dict__,
    )
    user.leaf = lib.leaf  # what ``from perfsynth.lib import leaf`` does
    lib.REGISTRY["default"] = lib.leaf
    package = types.ModuleType("perfsynth")
    modules = {
        "perfsynth": package,
        "perfsynth.lib": lib,
        "perfsynth.user": user,
    }
    sys.modules.update(modules)
    yield lib, user
    for name in modules:
        del sys.modules[name]


SYNTH_BOUNDARIES = (
    Boundary("perfsynth.lib:Box.outer", "outer"),
    Boundary("perfsynth.lib:leaf", "leaf"),
    Boundary("perfsynth.lib:Box.stream", "stream", ITER),
    Boundary("perfsynth.lib:Box.tick", "tick", COUNTED),
)


def test_self_time_is_total_minus_children_and_parents_link(synth):
    lib, _user = synth
    with Tracer(SYNTH_BOUNDARIES, prefix="perfsynth") as tracer:
        lib.Box().outer(0.03, 0.02)
    spans = tracer.spans()
    assert [name for name, *_ in spans] == ["outer", "leaf", "leaf"]
    assert [parent for *_, parent in spans] == [-1, 0, 0]
    stats = tracer.summary()
    outer, leaf = stats["outer"], stats["leaf"]
    assert (outer.count, leaf.count) == (1, 2)
    assert leaf.self_s == pytest.approx(leaf.total_s)
    assert outer.self_s == pytest.approx(outer.total_s - leaf.total_s)
    assert 0.04 <= leaf.total_s < 0.06
    assert 0.03 <= outer.self_s < 0.045
    assert 0.07 <= outer.total_s < 0.1


def test_generator_spans_close_at_each_yield_and_counts_count(synth):
    lib, _user = synth
    box = lib.Box()
    with Tracer(SYNTH_BOUNDARIES, prefix="perfsynth") as tracer:
        for _item in box.stream(3):
            lib.leaf(0.0)  # runs between two next() calls: not a child
            box.tick()
    stats = tracer.summary()
    # three items and the final StopIteration
    assert stats["stream"].count == 4
    assert stats["stream"].self_s == pytest.approx(stats["stream"].total_s)
    assert 0.03 <= stats["stream"].total_s < 0.05
    assert {parent for *_, parent in tracer.spans()} == {-1}
    assert stats["tick"].count == 3
    assert stats["tick"].total_s == 0.0


def test_summary_end_filter_and_rename_under(synth):
    lib, _user = synth
    with Tracer(SYNTH_BOUNDARIES, prefix="perfsynth") as tracer:
        lib.leaf(0.0)
        lib.Box().outer(0.0, 0.0)
        cut = time.perf_counter()
        lib.leaf(0.0)
    stats = tracer.summary(end=cut, rename_under={("leaf", "outer"): "inner"})
    assert stats["leaf"].count == 1  # the bare one before the cut
    assert stats["inner"].count == 2
    assert stats["outer"].count == 1


def test_every_wrapper_is_removed_including_rebound_imports(synth):
    lib, user = synth
    original_leaf, original_outer = lib.leaf, lib.Box.__dict__["outer"]
    tracer = Tracer(SYNTH_BOUNDARIES, prefix="perfsynth")
    tracer.install()
    assert lib.leaf is not original_leaf
    assert user.leaf is lib.leaf  # the from-import binding follows
    assert lib.REGISTRY["default"] is lib.leaf
    late = types.ModuleType("perfsynth.late")
    late.leaf = lib.leaf  # imported while tracing: binds the wrapper
    lib.REGISTRY["late"] = lib.leaf
    sys.modules["perfsynth.late"] = late
    try:
        user.leaf(0.0)
        assert tracer.summary()["leaf"].count == 1
        tracer.uninstall()
        assert lib.leaf is original_leaf
        assert user.leaf is original_leaf
        assert late.leaf is original_leaf
        assert set(lib.REGISTRY.values()) == {original_leaf}
        assert lib.Box.__dict__["outer"] is original_outer
        assert lib.Box.__dict__["tick"].__name__ == "tick"
        assert not hasattr(lib.Box.__dict__["tick"], "__wrapped__")
    finally:
        del sys.modules["perfsynth.late"]


def test_missing_boundary_raises_and_installs_nothing(synth):
    lib, _user = synth
    original = lib.leaf
    for target in (
        "perfsynth.lib:Box.renamed",
        "perfsynth.lib:gone",
        "perfsynth.nowhere:leaf",
        "perfsynth.lib:REGISTRY",
    ):
        tracer = Tracer(
            (Boundary("perfsynth.lib:leaf", "leaf"), Boundary(target, "x")),
            prefix="perfsynth",
        )
        with pytest.raises(BoundaryError):
            tracer.install()
        assert lib.leaf is original


def test_repro_boundaries_resolve_and_restore():
    from repro.runtime.simulator import Simulator
    from repro.service import lockapi, transport, wire

    step, encode = Simulator.__dict__["step"], wire.encode_frame
    with Tracer(layers.BOUNDARIES):
        assert Simulator.__dict__["step"] is not step
        assert lockapi.encode_frame is transport.encode_frame
        assert lockapi.encode_frame is not encode
    assert Simulator.__dict__["step"] is step
    assert lockapi.encode_frame is transport.encode_frame is encode


# ---------------------------------------------------------------------------
# the open-loop generator
# ---------------------------------------------------------------------------


class _StallingLock:
    """Grants at once, except that one acquire stalls."""

    def __init__(self, stall_at: int, stall_s: float):
        self.stall_at, self.stall_s, self.calls = stall_at, stall_s, 0

    async def acquire(self) -> int:
        self.calls += 1
        if self.calls == self.stall_at:
            await asyncio.sleep(self.stall_s)
        return self.calls

    async def release(self, req_id: int) -> None:
        pass


def test_open_loop_times_from_the_due_instant():
    schedule = [0.01 * i for i in range(1, 11)]  # due every 10 ms
    lock = _StallingLock(stall_at=3, stall_s=0.05)
    result = asyncio.run(openloop.run_open_loop([lock], schedule, 0.11))
    latencies = result.latencies_s
    assert len(latencies) == 10 and not result.timeouts
    assert max(latencies[:2]) < 0.03  # well under the stall, on a busy host too
    assert latencies[2] >= 0.05
    # the stall is inherited by the requests that were due behind it ...
    assert latencies[3] >= 0.035 and latencies[4] >= 0.025
    assert latencies[3] > latencies[4] > latencies[5]
    # ... until the connection has caught up with the schedule
    assert max(latencies[8:]) < 0.03
    # no sleep, so no lag sample, for requests that were already overdue
    assert len(result.lags_s) < 10


def test_open_loop_counts_backlog_and_timeouts():
    lock = _StallingLock(stall_at=2, stall_s=10.0)
    result = asyncio.run(
        openloop.run_open_loop([lock], [0.0, 0.01, 0.02], 0.05, drain_s=0.05)
    )
    assert len(result.latencies_s) == 1
    assert (result.timeouts, result.errors) == (2, 0)
    assert result.backlog_at_end == 2


def test_poisson_schedule_is_seeded_and_has_the_rate():
    import random

    one = openloop.poisson_schedule(random.Random("7:300"), 300, 5.0)
    two = openloop.poisson_schedule(random.Random("7:300"), 300, 5.0)
    assert one == two and one == sorted(one)
    assert 1350 < len(one) < 1650 and one[-1] < 5.0


# ---------------------------------------------------------------------------
# the workloads and the report
# ---------------------------------------------------------------------------


def test_host_speed_is_sampled_while_the_main_thread_works():
    sampler = workloads.HostSpeed()
    sampler.start()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:  # holds the GIL, as a workload does
        sum(range(1000))
    speed = sampler.finish()
    assert not sampler.is_alive()
    assert len(sampler.slices_s) >= 3
    assert 0.05 < speed < 20


@pytest.fixture(scope="module")
def small_runs():
    """Every workload once, traced, at 1/20 size."""
    return {
        name: workloads.run_workload(name, scale=0.05, traced=True)
        for name in workloads.WORKLOADS
    }


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert set(harness.load_pins()) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(small_runs, name):
    record = small_runs[name]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert set(record["e2e"]) == E2E_NAMES
    assert all(value > 0 for value in record["e2e"].values())
    metrics = harness.summarize([record], record, SPEC)
    assert set(metrics) == E2E_NAMES | LAYER_NAMES
    line = json.loads(harness.driver_line(
        {"attempted": 1, "failed": 0, "metrics": metrics}, "per_layer"
    ))
    assert set(line["metrics"]) == LAYER_NAMES
    units = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}
    assert all(
        metric["unit"] == units[metric_name]
        for metric_name, metric in line["metrics"].items()
    )
    # the books balance: self times and the remainder make up the wall
    layer = record["layers"]
    self_metrics = {
        self_metric
        for self_metric, _count in layers.SPAN_METRICS.values()
        if self_metric is not None
    }
    assert sum(layer[m] for m in self_metrics) + layer[
        "trace.unattributed_s"
    ] == pytest.approx(layer["trace.wall_s"])


def test_every_listed_layer_metric_is_produced_somewhere(small_runs):
    produced = set().union(*(set(r["layers"]) for r in small_runs.values()))
    assert produced | {"trace.overhead_ratio"} == LAYER_NAMES


def test_layers_a_workload_bypasses_read_zero(small_runs):
    burst, exact = small_runs["campaign_burst"], small_runs["explore_exact"]
    assert burst["layers"]["campaign.journal_records_n"] == 0
    assert burst["layers"]["runtime.step_n"] == burst["pins"]["steps"]
    assert burst["layers"]["runtime.guard_eval_s"] > 0
    assert exact["layers"]["explore.canonicalize_n"] == 0
    assert exact["layers"]["explore.store_add_n"] > 0
    assert small_runs["explore_sym"]["layers"]["explore.canonicalize_n"] > 0
    fleet = small_runs["campaign_fleet"]["layers"]
    assert fleet["campaign.journal_records_n"] > 0
    assert fleet["runtime.step_n"] == 0  # trials ran in the forked workers
    paced = small_runs["service_paced"]["layers"]
    assert paced["service.trace_bytes"] == 0
    assert paced["service.node_guard_eval_s"] > 0
    assert paced["runtime.guard_eval_s"] == 0
    assert small_runs["service_closed"]["layers"]["service.trace_bytes"] > 0


def test_traced_and_untraced_runs_agree_on_the_outputs(small_runs):
    untraced = workloads.run_workload("campaign_burst", scale=0.05)
    assert untraced["pins"] == small_runs["campaign_burst"]["pins"]
    assert "runtime.step_n" not in untraced["layers"]
    pins = {"campaign_burst": {"seed": None, "pins": untraced["pins"]}}
    harness.check_pins(
        "campaign_burst", 1, [untraced, small_runs["campaign_burst"]], pins
    )
    pins["campaign_burst"]["pins"] = {**untraced["pins"], "steps": 1}
    with pytest.raises(harness.BenchmarkError, match="pins.json"):
        harness.check_pins("campaign_burst", 1, [untraced], pins)


def test_a_workload_may_not_drop_one_of_its_own_metrics(small_runs):
    record = small_runs["service_closed"]
    for dropped in ("service.revalidate_s", "service.wire_codec_s"):
        broken = dict(record, layers=dict(record["layers"]))
        del broken["layers"][dropped]
        with pytest.raises(KeyError, match=dropped):
            harness.summarize([record], broken, SPEC)
    # ... while another workload's layer reads an observed zero
    metrics = harness.summarize([record], record, SPEC)
    assert metrics["service.sched_lag_p99_ms"]["median"] == 0
    assert not workloads.WORK_ROOT.exists()


def test_limits_are_checked_on_the_medians(small_runs):
    paced = small_runs["service_paced"]

    def with_lag(ms: float) -> dict:
        layer = dict(paced["layers"])
        layer["service.sched_lag_p99_ms"] = ms
        layer["service.max_rate_ok"] = 600
        layer["service.loop_cpu_ratio.r150"] = 0.3
        return dict(paced, layers=layer)

    # one late run in three is an outlier; two are a generator-bound result
    harness.check_limits(
        "service_paced", [with_lag(1.0), with_lag(9.0), with_lag(2.0)], None
    )
    with pytest.raises(harness.BenchmarkError, match="sched_lag_p99_ms"):
        harness.check_limits(
            "service_paced", [with_lag(1.0), with_lag(9.0), with_lag(8.0)], None
        )
    exact = small_runs["explore_exact"]
    harness.check_limits("explore_exact", [exact], exact)
    entered = dict(exact, layers={**exact["layers"], "explore.canonicalize_n": 3})
    with pytest.raises(harness.BenchmarkError, match="canonicalize_n"):
        harness.check_limits("explore_exact", [exact], entered)


def test_run_py_fails_without_the_program(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    target = tmp_path / "benchmarks" / "perf"
    shutil.copytree(
        HERE, target, ignore=shutil.ignore_patterns(".work", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload",
         "explore_sym", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "{" not in done.stdout
