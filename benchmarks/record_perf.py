"""Append one record of ``benchmarks/perf`` to the committed trajectory.

    python benchmarks/record_perf.py LABEL [--claim WORKLOAD PARENT_CHECKOUT]

``BENCH_perf.json`` (repository root) holds one stamped JSON object per
line, appended and never rewritten: every workload's end-to-end medians and
traced per-layer values (``run.py --json``, zeros -- layer not entered --
left out) and, for a claimed workload, PAIRS alternating runs of the driver's
command here and in the parent's checkout, each pair in the order it ran,
with each side's median and quartiles.  Prose cites the record.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks", "perf", "run.py")
DRIVER_ARGS = ("--seconds", "15", "--trace", "0")
PAIRS = 10


def all_workloads() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "perf.json")
        subprocess.run([sys.executable, ROOT / RUN, "--json", out], check=True)
        artifact = json.loads(out.read_text(encoding="utf-8"))
    workloads = {}
    for result in artifact["results"]:
        medians = {name: m["median"] for name, m in result["metrics"].items()}
        workloads[result["workload"]] = {k: v for k, v in medians.items() if v}
    return {"environment": artifact["environment"], "workloads": workloads}


def driver_run(checkout: Path, workload: str) -> dict[str, float]:
    command = [sys.executable, checkout / RUN, "--workload", workload, *DRIVER_ARGS]
    done = subprocess.run(command, check=True, capture_output=True, text=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def paired(workload: str, parent: Path) -> dict:
    sides = {"parent": parent.resolve(), "change": ROOT}
    orders = (("parent", "change"), ("change", "parent")) * (PAIRS // 2)
    runs = [{s: driver_run(sides[s], workload) for s in order} for order in orders]
    claim = {"workload": workload, "run_args": DRIVER_ARGS, "pairs": runs}
    for side in sides:
        claim[side] = {}
        for name in runs[0][side]:
            values = [run[side][name] for run in runs]
            q1, median, q3 = quantiles(values, n=4, method="inclusive")
            claim[side][name] = {"median": median, "q1": q1, "q3": q3}
    return claim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="the change this records, e.g. 'PR 17'")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "PARENT_CHECKOUT"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from repro.durable import stamp_artifact
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    record = {"label": args.label, "recorded_at": stamp, **all_workloads()}
    if args.claim is not None:
        record["claim"] = paired(args.claim[0], Path(args.claim[1]))
    with open(ROOT / "BENCH_perf.json", "a", encoding="utf-8") as trajectory:
        trajectory.write(json.dumps(stamp_artifact(record, 1)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
