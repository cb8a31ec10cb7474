"""Machine-speed probe: puts every operation time at a reference host speed.

On the shared 2-vCPU Xeon virtual machine the baseline was measured on,
speed drifted by 20-40 % over seconds to minutes, with bursts of several
times slower.  Over ten 30 s runs per workload, raw op_ms.p50 spread by
0.17-0.35 (quartile distance over median), more than any useful regression
bound.

The probe is a fixed mix of interpreter work and small batched numpy linear
algebra, the kind of work the operations do, and never touches `renyi_lab`,
so no change to the program can move it.  It runs once after every measured
cycle of operations.  A cycle's operation times are multiplied by
REFERENCE_PROBE_MS / (mean of the probes just before and just after it),
which reads as "ms on a host where the probe takes REFERENCE_PROBE_MS".
Recomputed this way, the same runs spread by 0.05-0.08 on op_ms.p50.
Raw times and probe times stay in the run record.

Set-up time gets the same treatment with a probe of its own kind: each fresh
interpreter that imports the workload's modules is paired with one that
imports only REFERENCE_IMPORT (numpy and scipy.optimize, fixed whatever the
program imports), and setup_s is REFERENCE_IMPORT_S times the median of the
per-pair ratios.  Unscaled, the median import time of two sets of ten runs
moved from 0.50 s to 0.64 s with the host alone.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_PROBE_MS = 5.0
REFERENCE_IMPORT = ("numpy", "scipy.optimize")
REFERENCE_IMPORT_S = 0.4

# Bound at import, before the tracer wraps numpy.linalg.eigh.
_EIGH = np.linalg.eigh
_rng = np.random.default_rng(20210618)
_STACK = _rng.standard_normal((16, 4, 4)) + 1j * _rng.standard_normal((16, 4, 4))
_STACK = _STACK + _STACK.conj().swapaxes(-1, -2)


def probe() -> float:
    """Run the fixed probe once; returns its wall time in ms."""
    t0 = time.perf_counter()
    for _ in range(30):
        w, v = _EIGH(_STACK)
        e = np.exp(w - w.max(axis=-1, keepdims=True))
        e /= e.sum(axis=-1, keepdims=True)
        m = (v * e[..., None, :]) @ v.conj().swapaxes(-1, -2)
        float(np.einsum("kij,kji->k", m, _STACK).real.sum())
    acc = 0
    for i in range(20000):
        acc += i
    return (time.perf_counter() - t0) * 1e3


def cycle_factors(probes_ms: list[float]) -> list[float]:
    """Per-cycle factor that puts that cycle's times at reference speed.

    `probes_ms[c]` ran right after cycle c, so cycle c lies between probes
    c - 1 and c (cycle 0 has only the probe after it).
    """
    return [REFERENCE_PROBE_MS / statistics.fmean(probes_ms[max(0, c - 1):c + 1])
            for c in range(len(probes_ms))]


def setup_scaled(pairs: list[tuple[float, float]]) -> float:
    """Set-up time at reference speed from (workload import, reference import) pairs."""
    return REFERENCE_IMPORT_S * statistics.median(prog / ref for prog, ref in pairs)
