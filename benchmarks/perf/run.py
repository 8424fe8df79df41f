#!/usr/bin/env python3
"""The repo's performance benchmark: six workloads, timed end to end and
layer by layer.

    PYTHONPATH=src python benchmarks/perf/run.py [--workload NAME]
        [--seed 2025] [--repeats 3] [--json OUT] [--check-repeat]

runs each workload in a fresh subprocess ``repeats`` times untraced plus
once traced, checks the deterministic outputs against ``pins.json``, and
prints every metric by name with unit, median, quartiles and sample
count.  End-to-end metrics come only from the untraced runs; the traced
run gives the per-layer numbers and must reproduce the same outputs.

The benchmark driver calls it as

    python3 benchmarks/perf/run.py --workload NAME --seed N
        --seconds S --trace 0|1

and reads one JSON object from the last line: the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``, as many untraced repeats as fit in
``S`` seconds, medians) or its per-layer metrics (``--trace 1``, the
default ``repeats`` untraced runs and one traced).  Any failed check exits
non-zero before a metric is printed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: a driver run may take this share of ``--seconds`` beyond it
OVERRUN = 1.25
#: a child that runs longer than this is stuck (the driver allows 180 s)
CHILD_TIMEOUT_S = 150.0
ARTIFACT_SCHEMA_VERSION = 1


class BenchmarkError(RuntimeError):
    """A workload failed, or its outputs are not the pinned ones."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# running workloads
# ---------------------------------------------------------------------------


def spawn(workload: str, seed: int, traced: bool) -> dict:
    """One run of ``workload`` in a fresh subprocess; its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    # Hash randomization is one more random input: it moved explore_sym
    # by 4 % between identical processes, and 1 % without it.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "workloads.py"),
        workload,
        "--seed", str(seed),
        "--trace", "1" if traced else "0",
        "--spawned-at", repr(time.time()),
    ]
    try:
        done = subprocess.run(
            command,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: no result in {exc.timeout}s") from exc
    if done.returncode != 0:
        raise BenchmarkError(
            f"{workload}: exit {done.returncode}\n{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_pins(workload: str, seed: int, records: list[dict], pins: dict) -> None:
    """Every run of one seed must produce the same deterministic outputs,
    and the pinned ones where ``pins.json`` covers the seed."""
    produced = records[0]["pins"]
    for record in records[1:]:
        if record["pins"] != produced:
            raise BenchmarkError(
                f"{workload}: outputs differ between runs of seed {seed} "
                f"(traced={record['traced']}): {record['pins']} != {produced}"
            )
    entry = pins[workload]
    if entry["seed"] is None or entry["seed"] == seed:
        if produced != entry["pins"]:
            raise BenchmarkError(
                f"{workload}: outputs differ from pins.json: "
                f"{produced} != {entry['pins']}"
            )
    for record in records:
        if record["failed"]:
            raise BenchmarkError(
                f"{workload}: {record['failed']} of {record['attempted']} "
                "operations failed; the workloads are sized so none does"
            )


_RELATIONS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">=": operator.ge,
}


def check_limits(workload: str, records: list[dict], traced: dict | None) -> None:
    """``layers.LIMITS`` on the medians of the untraced runs and, where a
    metric only exists in a traced run, on that run."""
    from layers import LIMITS, UNTRACED_LAYER_METRICS

    for name, relation, limit in LIMITS[workload]:
        if name in UNTRACED_LAYER_METRICS:
            value = statistics.median(r["layers"][name] for r in records)
        elif traced is not None:
            value = traced["layers"][name]
        else:
            continue
        if not _RELATIONS[relation](value, limit):
            raise BenchmarkError(
                f"{workload}: {name} = {value:.5g}, must be {relation} {limit}"
            )


def untraced_runs(
    workload: str, seed: int, repeats: int | None, seconds: float | None
) -> list[dict]:
    """``repeats`` untraced runs, or as many as fit in ``seconds`` (two at
    least, so that every metric, set-up too, is a median)."""
    started = time.perf_counter()
    records: list[dict] = []
    while True:
        records.append(spawn(workload, seed, traced=False))
        if repeats is not None:
            if len(records) >= repeats:
                return records
            continue
        elapsed = time.perf_counter() - started
        per_run = elapsed / len(records)
        if len(records) >= 2 and elapsed + per_run > seconds * OVERRUN:
            return records


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(records: list[dict], traced: dict | None, spec: dict) -> dict:
    """Every listed metric of one workload: end-to-end from the untraced
    records, per-layer from the traced one (or, for the load generator's
    view, from the untraced ones)."""
    from layers import NON_SPAN_METRICS, UNTRACED_LAYER_METRICS, ratio

    out: dict[str, dict] = {}

    def add(entry: dict, values: list[float], kind: str) -> None:
        q1, median, q3 = quartiles(values)
        out[entry["name"]] = {
            "kind": kind,
            "unit": entry["unit"],
            "better": entry["better"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(values),
        }

    for entry in spec["end_to_end"]:
        add(entry, [r["e2e"][entry["name"]] for r in records], "end_to_end")
    if traced is None:
        return out
    work = statistics.median(r["e2e"]["work_per_s"] for r in records)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = ratio(work, traced["e2e"]["work_per_s"])
    listed = {entry["name"] for entry in spec["per_layer"]}
    if set(layers) - listed:
        raise BenchmarkError(
            f"metrics missing from BENCHMARK.json: {sorted(set(layers) - listed)}"
        )
    # Spans are installed on every workload, so a traced run has every
    # span metric; of the others, only another workload's may be absent,
    # and that reads 0: this workload never enters that layer.
    foreign = (
        set().union(*NON_SPAN_METRICS.values())
        - NON_SPAN_METRICS[traced["workload"]]
    )
    for entry in spec["per_layer"]:
        name = entry["name"]
        if name in foreign:
            values = [0]
        elif name in UNTRACED_LAYER_METRICS:
            values = [r["layers"][name] for r in records]
        else:
            values = [layers[name]]
        add(entry, values, "per_layer")
    return out


def measure(
    workload: str,
    seed: int,
    spec: dict,
    pins: dict,
    repeats: int | None = None,
    seconds: float | None = None,
    trace: bool = True,
) -> dict:
    """Run, check and summarize one workload."""
    records = untraced_runs(workload, seed, repeats, seconds)
    traced = spawn(workload, seed, traced=True) if trace else None
    check_pins(
        workload, seed, records + ([traced] if traced else []), pins
    )
    check_limits(workload, records, traced)
    return {
        "workload": workload,
        "seed": seed,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "host_speed": [r["host_speed"] for r in records],
        "metrics": summarize(records, traced, spec),
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
    }


def print_report(result: dict) -> None:
    print(
        f"\n== {result['workload']}  seed {result['seed']}  "
        f"attempted {result['attempted']}  failed {result['failed']}  "
        f"failed_ratio {result['failed'] / result['attempted']:.4f}"
    )
    print(
        f"{'metric':<36} {'unit':<6} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'n':>3}"
    )
    idle = []
    for name, m in result["metrics"].items():
        if m["kind"] == "per_layer" and not (m["median"] or m["q3"]):
            idle.append(name)
            continue
        print(
            f"{name:<36} {m['unit']:<6} {m['median']:>12.5g} "
            f"{m['q1']:>12.5g} {m['q3']:>12.5g} {m['n']:>3}"
        )
    if idle:
        print("zero (layer not entered):", " ".join(idle))


def check_repeat(first: list[dict], second: list[dict], spec: dict) -> bool:
    """Compare two sets of runs of the same code, metric by metric."""
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    print(
        f"\n{'workload':<16} {'metric':<14} {'first':>11} {'second':>11} "
        f"{'diff':>8} {'bound':>6}"
    )
    agree = True
    for one, two in zip(first, second):
        for name, bound in bounds.items():
            a = one["metrics"][name]["median"]
            b = two["metrics"][name]["median"]
            diff = abs(b - a) / a
            flag = "" if diff <= bound else "  EXCEEDS"
            agree = agree and diff <= bound
            print(
                f"{one['workload']:<16} {name:<14} {a:>11.5g} {b:>11.5g} "
                f"{diff:>8.3f} {bound:>6.2f}{flag}"
            )
    return agree


def driver_line(result: dict, kind: str) -> str:
    """The one JSON object the benchmark driver reads."""
    return json.dumps(
        {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
                if m["kind"] == kind
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", default=None, metavar="OUT")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    pins = load_pins()
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    chosen = names if args.workload is None else [args.workload]

    try:
        if args.trace is not None:  # called by the benchmark driver
            if args.workload is None or args.seconds is None:
                parser.error("--trace needs --workload and --seconds")
            if args.trace:
                result = measure(
                    args.workload, args.seed, spec, pins, args.repeats
                )
            else:
                result = measure(
                    args.workload, args.seed, spec, pins,
                    seconds=args.seconds, trace=False,
                )
            print_report(result)
            print(driver_line(result, "per_layer" if args.trace else "end_to_end"))
            return 0

        def one_set() -> list[dict]:
            results = []
            for name in chosen:
                result = measure(name, args.seed, spec, pins, args.repeats)
                print_report(result)
                results.append(result)
            return results

        results = one_set()
        agree = True
        if args.check_repeat:
            second = one_set()
            agree = check_repeat(results, second, spec)
            results += second
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.json is not None:
        from repro.campaign.stats import stamp_artifact, write_artifact

        payload = {"environment": environment(), "results": results}
        write_artifact(
            args.json, stamp_artifact(payload, ARTIFACT_SCHEMA_VERSION)
        )
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
