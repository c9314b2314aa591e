#!/usr/bin/env python3
"""canonctrl benchmark: check, synth, oracle and proptest-case latency.

Run from the repository root:

    python3 perfbench/run.py --workload long-data --seed 0 --seconds 50 --trace 0

Workloads (fixed models of the sizes below; data or cases drawn from --seed):

* ``long-data``    -- (q_w,q_c,n,L,T)=(4,3,12,60,8000): the ROADMAP Open item 2
  false-negative reproducer and the next draw of its sequence.  Tall Hankel
  SVDs and the T x T hidden annihilator dominate.
* ``long-horizon`` -- (2,2,4,120) instances with T = harness.gpe_length.
  Dense d x d projector algebra (d = 480) and the oracle dominate.
* ``proptest``     -- harness cases (build_case + evaluate_case) alternating
  closed_loop/adversarial like ``run_batch``, plus check/synth through the
  CLI and check_model on the same cases.  Oracle loops dominate.  Not listed
  in BENCHMARK.json: on a shared two-core host its run medians drifted with
  the host's speed by more than the bounds allow.

One process, closed loop, one caller: each operation starts after the
previous one ends.  BLAS runs on one thread (see `single_thread_blas`).
Set-up (inputs, CSVs, the output gate) runs several times and reports the
median.  With ``--trace 0`` a tracemalloc pass measures peak memory, then
whole passes over the instances repeat while another fits in --seconds
(at least one pass, so every run covers every instance equally).  With ``--trace 1``
one untraced pass is followed by traced passes; the difference is reported
as the tracing overhead, and per-layer metrics come from the spans.

Output: the line before last is a JSON report with every metric, sample
counts, percentiles, failures and run metadata; the last line is the
summary ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics declared in BENCHMARK.json.  ``correct`` is true when the output gate
(hand fixtures with exact known answers) passes.  ``attempted`` counts the
distinct operations of a run: the gate's and those of one pass.  Later
passes repeat them for timing and are checked the same way; an operation
counts once, as failed if any of its runs failed.  So both counts follow
from the workload and seed alone, and oracle disagreements stay visible.
Timings and memory peaks come from answered operations only; the times of
aborted ones (see workloads.py) are listed in the report as ``aborted_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 7
#: instances measured in the tracemalloc pass (long-data's take 12 s each)
MEMORY_INSTANCES = {"proptest": 10, "long-data": 1, "long-horizon": 2}
WORKLOADS = ("proptest", "long-data", "long-horizon")


def declared_metrics(trace: int) -> list[str]:
    """Metric names BENCHMARK.json declares for the summary line."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description="canonctrl benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def single_thread_blas() -> None:
    """Run BLAS/OpenMP on one thread; call before numpy loads.

    The load is one caller in a closed loop.  On two cores a second BLAS
    thread made long-data no faster and long-horizon about 15% slower, and
    each multi-threaded BLAS call stalls whenever the host preempts either
    core, which widens the spread between runs.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")) + sorted(libs.glob("libopenblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):  # fmt: skip
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def instance_median(by_instance: dict[str, list[float]]) -> float:
    return statistics.median(statistics.median(v) for v in by_instance.values())


def summarize(name: str, by_instance: dict[str, list[float]]) -> dict[str, dict]:
    """`name`: the median; `name.pXX`: the highest percentile with >= 10 samples beyond it.

    The median is taken per instance first, then across instances, so an
    instance measured several times weighs as much as one measured once.
    """
    samples = [x for values in by_instance.values() for x in values]
    out = {name: {"value": instance_median(by_instance), "samples": len(samples)}}
    for p in (99.9, 99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"{name}.p{p:g}"] = {
                "value": cuts[round(p * 10) - 1], "samples": len(samples), "unit": "s"
            }
            break
    return out


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Run:
    """Set-up, timed passes and bookkeeping for one benchmark invocation."""

    def __init__(self, args, work: Path):
        import workloads  # imports canonctrl, which main() has put on sys.path

        self.w = workloads
        self.args = args
        self.work = work
        #: operation key -> first failure of that operation, or None
        self.outcomes: dict[tuple, dict | None] = {}
        #: op kind -> seconds of each aborted operation
        self.aborted: dict[str, list[float]] = defaultdict(list)
        self.gate_ok = True

    def record(self, key: tuple, kind: str, label: str, ok: bool, reason: str) -> None:
        """Count operation `key` once, however often it runs; it fails if any run fails.

        The operations of a run are fixed by the workload and seed, so
        `attempted` and `failed` do not depend on how many passes fit in
        --seconds.  A repeat that fails where the first run answered
        correctly marks the operation failed.
        """
        if not ok and self.outcomes.get(key) is None:
            self.outcomes[key] = {"op": kind, "instance": label, "reason": reason}
        else:
            self.outcomes.setdefault(key, None)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failures(self) -> list[dict]:
        return [f for f in self.outcomes.values() if f is not None]

    def setup(self) -> float:
        times = []
        for rep in range(SETUP_REPS):
            rep_dir = self.work / f"setup{rep}"
            rep_dir.mkdir(parents=True)
            start = perf_counter()
            self.instances = self.w.SETUPS[self.args.workload](self.args.seed, rep_dir)
            gate = self.w.output_gate(rep_dir)
            times.append(perf_counter() - start)
            for name, ok, reason in gate:
                self.record(("gate", name), name, "hand-fixture", ok, reason)
                self.gate_ok &= ok
        return statistics.median(times)

    def passes(self, seconds: float, tracer=None) -> dict[str, dict[str, list[float]]]:
        """Whole passes over the instances within `seconds` (at least one).

        Another pass starts only if one more of the slowest pass so far fits
        in the time left, so a run's length stays close to `seconds` even
        when a pass takes most of it (long-data's takes 25-35 s on two cores).

        Returns op kind -> instance label -> seconds per answered operation.
        """
        got: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        start = perf_counter()
        slowest = 0.0
        while True:
            pass_start = perf_counter()
            for position, (kind, inst) in enumerate(self.w.pass_ops(self.instances)):
                if tracer is None:
                    elapsed, ok, reason, answered = self.w.timed(kind, inst)
                else:
                    with tracer.operation(kind):
                        elapsed, ok, reason, answered = self.w.timed(kind, inst)
                if answered:
                    got[kind][inst.label].append(elapsed)
                else:
                    self.aborted[kind].append(elapsed)
                self.record(("pass", position), kind, inst.label, ok, reason)
            now = perf_counter()
            slowest = max(slowest, now - pass_start)
            if now - start + slowest > seconds:
                return got

    def memory_peaks(self) -> dict[str, dict]:
        """tracemalloc peak (MB) of one check and one synth, median over instances.

        Instances are taken in order until MEMORY_INSTANCES operations of each
        kind have answered; an aborted operation's peak is left out.
        """
        import tracemalloc

        with_inputs = [i for i in self.instances if not i.build_error]
        peaks: dict[str, list[float]] = defaultdict(list)
        tracemalloc.start()
        try:
            for kind in ("check", "synth"):
                for inst in with_inputs:
                    if len(peaks[kind]) == MEMORY_INSTANCES[self.args.workload]:
                        break
                    if kind not in inst.ops:
                        continue
                    base = tracemalloc.get_traced_memory()[0]
                    tracemalloc.reset_peak()
                    if self.w.timed(kind, inst)[3]:
                        peaks[kind].append((tracemalloc.get_traced_memory()[1] - base) / 1e6)
        finally:
            tracemalloc.stop()
        return {
            f"{k}_peak_mb": {"value": statistics.median(v), "samples": len(v)}
            for k, v in peaks.items()
        }

    def hidden_basis_peak(self) -> float | None:
        """tracemalloc peak (MB) of one `hidden_basis` call on the first instance."""
        import tracemalloc

        from canonctrl import implementability

        inst = next((i for i in self.instances if i.plant_traj is not None), None)
        if inst is None:
            return None
        tracemalloc.start()
        try:
            implementability.hidden_basis(inst.plant_traj, inst.partition, inst.L)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def measure(args, work: Path) -> tuple[dict, dict]:
    from tracer import Tracer

    run = Run(args, work)
    metrics: dict[str, dict] = {}
    metrics["setup_s"] = {"value": run.setup(), "samples": SETUP_REPS}
    report: dict = {}
    if args.trace == 0:
        metrics.update(run.memory_peaks())
        got = run.passes(args.seconds)
        for kind, values in got.items():
            metrics.update(summarize(f"{kind}_s", values))
        if "case" in got:
            case_times = [x for values in got["case"].values() for x in values]
            metrics["cases_per_s"] = {
                "value": len(case_times) / sum(case_times),
                "samples": len(case_times),
            }
    else:
        untraced = run.passes(0)
        tracer = Tracer()
        with tracer.installed():
            traced = run.passes(args.seconds, tracer)
        metrics.update(tracer.layer_metrics())
        peak = run.hidden_basis_peak()
        if peak is not None:
            metrics["implementability.hidden_basis_peak_mb"] = {"value": peak, "samples": 1}
        report["tracing_overhead_s"] = {
            f"{kind}_s": instance_median(traced[kind]) - instance_median(untraced[kind])
            for kind in ("case", "check", "synth", "oracle")
            if kind in traced and kind in untraced
        }
        report["share_of_op_time"] = tracer.breakdown()
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
    for name, m in metrics.items():
        m.setdefault("unit", metric_unit(name))
    declared = declared_metrics(args.trace)
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"workload {args.workload} produced no value for {missing}")
    failed = len(run.failures)
    report.update(
        {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "metadata": run_metadata(args.seed),
            "metrics": metrics,
            "attempted": run.attempted,
            "failed": failed,
            "failed_frac": failed / run.attempted,
            "failures": run.failures,
            "aborted_s": run.aborted,
        }
    )
    summary = {
        "correct": run.gate_ok,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": metrics[name]["unit"]}
            for name in declared
        },
    }
    return report, summary


def run_metadata(seed: int) -> dict:
    import numpy as np

    return {
        "seed": seed,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    single_thread_blas()
    if not (SRC / "canonctrl" / "__init__.py").is_file():
        print(f"error: canonctrl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import canonctrl

    if Path(canonctrl.__file__).resolve().parent.parent != SRC:
        print(f"error: canonctrl imported from {canonctrl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        report, summary = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
