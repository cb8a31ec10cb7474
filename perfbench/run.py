"""renyi_lab benchmark: one workload per process, closed loop, BLAS on one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-qubit --seed 1 --seconds 22 --trace 0

`--trace 0` measures the end-to-end metrics with tracing off.  `--trace 1`
first repeats that untraced measurement, then runs the same operations with
every traced layer wrapped, and reports the per-layer metrics.  The last line
of standard output is the JSON result; run records and spans go to
`.bench_out/` in the checkout.  Exit code 2 means the benchmark could not run
(no `src/renyi_lab` next to it, or an unknown workload).
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before numpy loads; the setup children inherit this.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sweep-qubit", "solve-anchored", "closed-wide")
SETUP_REPS = 7
WARMUP_SECONDS = 3.0
SETUP_TIMEOUT_S = 60


def _die(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def _import_time(modules) -> float:
    """Import time of `modules` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import {}; "
            "print(repr(time.perf_counter() - t))").format(", ".join(modules))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(modules) -> list[tuple[float, float]]:
    """(workload import, reference import) times, each in a fresh interpreter.

    One unmeasured pair first compiles the sources and warms the file cache;
    the order within a pair alternates.
    """
    _import_time(modules)
    _import_time(calibration.REFERENCE_IMPORT)
    pairs = []
    for rep in range(SETUP_REPS):
        if rep % 2:
            ref = _import_time(calibration.REFERENCE_IMPORT)
            prog = _import_time(modules)
        else:
            prog = _import_time(modules)
            ref = _import_time(calibration.REFERENCE_IMPORT)
        pairs.append((prog, ref))
    return pairs


class Runner:
    """Closed-loop executor: one operation at a time, timed from outside.

    Only the program call is timed; input generation and output checks are
    not.  Measurement runs whole cycles, so every run measures the same mix.
    """

    def __init__(self, workload, seed: int, tracer=None):
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.probes_ms: list[float] = []   # calibration probe after every measured cycle

    def _execute(self, op, index: int, cycle: int) -> tuple:
        import workloads
        if self.tracer is not None:
            self.tracer.op = index
        error = None
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:
            out, error = None, traceback.format_exc()
        ms = (time.perf_counter() - t0) * 1e3
        if error is None:
            try:
                outcome = op.check(out)
            except Exception:
                outcome, error = workloads.FAILED, traceback.format_exc()
        else:
            outcome = workloads.FAILED
        if self.tracer is not None:
            self.tracer.op = -1
        return op.label, ms, outcome, error, cycle

    def run(self, phase: int, seconds: float | None = None, cycles: int | None = None):
        """Whole cycles until `seconds` of operation time, or exactly `cycles`.

        Phase 0 is measured, and the calibration probe runs after each of
        its cycles; phase 1 (warm-up) draws other inputs.
        Returns ([(label, ms, outcome, error text, cycle)], cycles run).
        """
        records, busy, k = [], 0.0, 0
        while (cycles is None and busy < seconds) or (cycles is not None and k < cycles):
            for op in self.workload.cycle(self.seed, phase, k):
                records.append(self._execute(op, len(records), k))
                busy += records[-1][1] / 1e3
            if phase == 0:
                self.probes_ms.append(calibration.probe())
            k += 1
        return records, k


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def summary(records, probes_ms=None) -> dict:
    """End-to-end figures of a list of operation records.

    With `probes_ms` (one calibration probe per cycle), every time is first
    put at reference host speed (calibration.py); without, times are raw.
    Throughput is that of the median cycle, so a rare multi-second trial
    shows in the run record but does not decide the run's figure.
    """
    factors = calibration.cycle_factors(probes_ms) if probes_ms else None
    ms = [r[1] * (factors[r[4]] if factors else 1.0) for r in records]
    cycle_ms, cycle_ops = {}, {}
    for r, t in zip(records, ms):
        cycle_ms[r[4]] = cycle_ms.get(r[4], 0.0) + t
        cycle_ops[r[4]] = cycle_ops.get(r[4], 0) + 1
    failed = sum(r[2].failed for r in records)
    missed = sum(r[2].missed and not r[2].failed for r in records)
    errs = [abs(r[2].err_bits) for r in records if r[2].err_bits is not None]
    return {
        "ops": len(records),
        "failed": failed,
        "missed": missed,
        "op_ms.p50": percentile(ms, 50),
        "op_ms.p90": percentile(ms, 90),
        "ops_per_s": statistics.median(1e3 * cycle_ops[c] / cycle_ms[c] for c in cycle_ms),
        "ok_share": 1.0 - (failed + missed) / len(records),
        "anchor_err_bits": max(errs) if errs else 0.0,
    }


def environment(args) -> dict:
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    return env


def end_to_end(workload, args) -> tuple[dict, dict, list]:
    import workloads
    setup = measure_setup(workloads.IMPORTS[args.workload])
    runner = Runner(workload, args.seed)
    runner.run(phase=1, seconds=WARMUP_SECONDS)
    records, cycles = runner.run(phase=0, seconds=args.seconds)
    values = summary(records, runner.probes_ms)
    values["setup_s"] = calibration.setup_scaled(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = summary(records)
    raw["setup_s"] = statistics.median(prog for prog, _ in setup)
    extra = {"setup_pairs_s": setup, "cycles": cycles, "probes_ms": runner.probes_ms,
             "raw": {k: raw[k] for k in ("setup_s", "op_ms.p50", "op_ms.p90", "ops_per_s")}}
    return values, extra, records


def traced(workload, args, package) -> tuple[dict, dict, list]:
    import tracing
    from renyi_lab import cli
    runner = Runner(workload, args.seed)
    runner.run(phase=1, seconds=WARMUP_SECONDS)
    plain, cycles = runner.run(phase=0, seconds=args.seconds)
    csv_before = getattr(workload, "csv_bytes", 0)
    tracer = tracing.Tracer()
    traced_runner = Runner(workload, args.seed, tracer)
    tracer.install(package)
    try:
        records, _ = traced_runner.run(phase=0, cycles=cycles)
    finally:
        tracer.uninstall()
    s_plain = summary(plain, runner.probes_ms)
    s_traced = summary(records, traced_runner.probes_ms)
    speed = calibration.REFERENCE_PROBE_MS / statistics.median(traced_runner.probes_ms)
    layers = tracer.layer_metrics(len(records), speed)
    layers["cli.csv_bytes"] = (getattr(workload, "csv_bytes", 0) - csv_before) / len(records)
    factors = calibration.cycle_factors(runner.probes_ms)
    for tag in cli.ALL_SUITES:
        ms = [r[1] * factors[r[4]] for r in plain if r[0] == tag]
        layers[f"suite.{tag}.op_ms"] = percentile(ms, 50) if ms else 0.0
    layers["anchor_err_bits"] = s_plain["anchor_err_bits"]
    layers["trace.overhead_ms"] = s_traced["op_ms.p50"] - s_plain["op_ms.p50"]
    tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"),
                       [r[0] for r in records])
    extra = {"untraced": s_plain, "traced": s_traced, "cycles": cycles,
             "probes_ms": runner.probes_ms, "traced_probes_ms": traced_runner.probes_ms}
    return layers, extra, plain + records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if not (SRC / "renyi_lab" / "__init__.py").is_file():
        return _die(f"no renyi_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import renyi_lab
    if Path(renyi_lab.__file__).resolve().parent != SRC / "renyi_lab":
        return _die(f"renyi_lab imported from {renyi_lab.__file__}, not from {SRC}")
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, str(OUT / f"csv-{args.workload}-seed{args.seed}"))
    if args.trace:
        values, extra, records = traced(workload, args, renyi_lab)
    else:
        values, extra, records = end_to_end(workload, args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}

    failed = sum(r[2].failed for r in records)
    env = environment(args)
    record = {"environment": env, "summary": extra, "metrics": metrics,
              "ops": [{"label": r[0], "raw_ms": r[1], "cycle": r[4], "failed": r[2].failed,
                       "missed": r[2].missed, "err_bits": r[2].err_bits, "error": r[3]}
                      for r in records]}
    with open(OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print("environment: " + json.dumps(env))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"operations: {len(records)} attempted, {failed} failed")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
