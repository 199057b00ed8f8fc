"""Benchmark of the orthoate CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload forest-estimate --seed 1 --seconds 20 --trace 0

One run is one fresh process.  It sets up the workload's inputs several
times in child processes (``make_inputs.py``), then calls
``orthoate.cli.main`` in process, one operation after another, until the
next operation would end past ``--seconds``; at least one operation
always runs.  With ``--trace 1`` untraced and traced operations
alternate and the per-layer metrics come from the traced ones.

Every operation is checked: each CLI call must exit 0, the summary's
eps_ate values must be finite, and the report bytes (files plus stdout,
the sweep summary's ``generated_at`` blanked) must equal those of the
run's first operation, traced or not, and traced operations must repeat
their counts exactly.  An operation failing any check counts in
``failed``.

The last line of stdout is the result object; the line before it holds
details: samples, report digest, eps values and machine info.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import COUNTS, SELF_TIME_SPANS, Tracer, median_layer_metrics
from workloads import EPS_LABELS, WORKLOADS, inputs_digest, report_digest

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")
TRACE_DIR = Path(".perfbench_trace")
BLAS_THREADS = "1"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    **{name: "count" for name in COUNTS},
    "learners.predict.reuse_ratio": "ratio",
    **{f"estimators.{name}": "ratio" for name in EPS_LABELS},
    "bench.trace_overhead_s": "s",
}


def _pin_threads() -> None:
    # Must happen before numpy loads; sweeps stay serial.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("ORTHOATE_WORKERS", None)


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
    }


def set_up(workload, seed: int, work: Path) -> tuple:
    """Write the inputs SETUP_REPEATS times; returns (seconds, input digests)."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work / "inputs", ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "make_inputs.py"), workload.name, str(seed), str(work)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up of {workload.name} exited {proc.returncode}")
        digests.append(inputs_digest(work))
    return times, digests


class Measurement:
    """Runs and checks the operations of one benchmark run."""

    def __init__(self, workload, work: Path, cli):
        self.workload = workload
        self.work = work
        self.cli = cli
        self.tracer = Tracer()
        self.walls = {False: [], True: []}
        self.layers: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.digest = None
        self.eps = None

    def _cli_main(self, argv):
        # Looked up per call, so a traced operation calls the wrapper.
        return self.cli.main(argv)

    def operation(self, traced: bool) -> None:
        self.attempted += 1
        label = f"operation {self.attempted} ({'traced' if traced else 'untraced'})"
        self.workload.clear_outputs(self.work)
        try:
            if traced:
                with self.tracer.traced(run_id=self.attempted):
                    start = time.perf_counter()
                    codes, out, err = self.workload.run(self.work, self._cli_main)
                    wall = time.perf_counter() - start
            else:
                start = time.perf_counter()
                codes, out, err = self.workload.run(self.work, self._cli_main)
                wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            self.failed += 1
            self.failures.append(f"{label}: raised")
            return
        problems = []
        if any(code != 0 for code in codes):
            problems.append(f"exit codes {codes}: {err.strip()}")
        if self.workload.has_eps:
            eps = self.workload.eps(self.work)
            if not all(math.isfinite(v) for v in eps.values()):
                problems.append(f"non-finite eps_ate {eps}")
            self.eps = self.eps or eps
        digest = report_digest(self.work, out)
        self.digest = self.digest or digest
        if digest != self.digest:
            problems.append("report bytes differ from the first operation's")
        if traced:
            layers = self.tracer.layer_metrics()
            if self.layers and any(layers[c] != self.layers[0][c] for c in COUNTS):
                problems.append("layer counts differ from the first traced operation's")
            self.layers.append(layers)
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]
        else:
            self.walls[traced].append(wall)

    def run(self, seconds: float, trace: bool) -> None:
        modes = (False, True) if trace else (False,)
        start = time.perf_counter()
        while True:
            for traced in modes:
                self.operation(traced)
            if any(not self.walls[m] for m in modes):
                break  # an operation failed outright; more would fail the same way
            predicted = sum(statistics.median(self.walls[m]) for m in modes)
            if time.perf_counter() - start + predicted > seconds:
                break

    def layer_metrics(self) -> dict:
        metrics = median_layer_metrics(self.layers)
        distinct = metrics["learners.predict.distinct_rows"]
        metrics["learners.predict.reuse_ratio"] = (
            metrics["learners.predict.rows"] / distinct if distinct else 0.0
        )
        for name in EPS_LABELS:
            # Not applicable on a workload without an estimate summary.
            metrics[f"estimators.{name}"] = self.eps[name] if self.eps else 0.0
        metrics["bench.trace_overhead_s"] = statistics.median(self.walls[True]) - statistics.median(
            self.walls[False]
        )
        return metrics


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-{seed}.json"
    fields = ["name", "start", "end", "parent", "run_id"]
    path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "orthoate" / "cli.py").is_file():
        print("error: src/orthoate not found; run from the repository root", file=sys.stderr)
        return 2
    _pin_threads()
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{workload.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, setup_digests = set_up(workload, args.seed, work)
        sys.path.insert(0, str(src.resolve()))
        import orthoate.cli

        bench = Measurement(workload, work, orthoate.cli)
        # Each set-up is an operation too; a repeat must write the same inputs.
        bench.attempted += len(setup_digests)
        for i, digest in enumerate(setup_digests):
            if digest != setup_digests[0]:
                bench.failed += 1
                bench.failures.append(f"set-up {i + 1}: inputs differ from the first set-up's")
        bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    if args.trace:
        spans_path = write_spans(bench.tracer, workload.name, args.seed)
        values = bench.layer_metrics() if bench.layers and bench.walls[False] else {}
        units = PER_LAYER_UNITS
    else:
        spans_path = None
        values = {
            "wall_s": statistics.median(bench.walls[False]) if bench.walls[False] else None,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "samples": len(bench.walls[False]),
        "wall_s_samples": bench.walls[False],
        "traced_wall_s_samples": bench.walls[True],
        "setup_s_samples": setup_times,
        "inputs_digest": setup_digests[0],
        "report_digest": bench.digest,
        "eps_ate": bench.eps,
        "spans_file": str(spans_path) if spans_path else None,
        "failures": bench.failures,
        "machine": machine_info(),
    }
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": values.get(name), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
