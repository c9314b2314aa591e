#!/usr/bin/env python3
"""Self-test of the benchmark: traced counts repeat exactly, a second seed runs cleanly.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload it makes two traced runs with seed 0 and one with seed 1.
The two same-seed runs must report identical counts (``*_calls``,
``signal.hankel_mb``, ``subspace.max_input_cells``,
``harness.gpe_accept_ratio``).  Every run must exit 0 with ``correct`` true
and report every per-layer metric BENCHMARK.json declares.  Exits 1 on any
mismatch.  The full set takes about six minutes on two cores, most of it long-data.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("signal.hankel_mb", "subspace.max_input_cells", "harness.gpe_accept_ratio")
WORKLOADS = ("proptest", "long-data", "long-horizon")
SEEDS = (0, 0, 1)  # two same-seed runs, then a second seed


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )  # fmt: skip
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def counts(report: dict) -> dict:
    return {
        name: m["value"]
        for name, m in report["metrics"].items()
        if name.endswith("_calls") or name in COUNTS
    }


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}

    problems = []
    for workload in WORKLOADS:
        runs = [traced_run(workload, seed) for seed in SEEDS]
        for (report, summary), seed in zip(runs, SEEDS):
            if not summary["correct"]:
                problems.append(f"{workload} seed {seed}: output gate failed")
            missing = declared - set(summary["metrics"])
            if missing:
                problems.append(f"{workload} seed {seed}: missing {sorted(missing)}")
        first, second = counts(runs[0][0]), counts(runs[1][0])
        if first != second:
            diff = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
                    if first.get(k) != second.get(k)}  # fmt: skip
            problems.append(f"{workload}: counts differ between same-seed runs: {diff}")
        print(f"{workload}: {len(first)} counts compared, "
              f"failed ops {[r[1]['failed'] for r in runs]}", flush=True)  # fmt: skip
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
