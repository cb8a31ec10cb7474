"""Span tracer for the traced benchmark run.

`Tracer.install` wraps the public functions of the traced `renyi_lab`
modules and rebinds every name that refers to them in each `renyi_lab`
module namespace, so calls made inside the package are seen too.  It also
wraps `numpy.linalg.eigh`/`eigvalsh`, the objective handed to
`entropies.optimize_density`, and reads the sampler arguments.  Spans are
kept in memory and written out by `write_spans`; `layer_metrics` turns them
into the per-layer figures listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("linalg", "states", "orders", "entropies", "inequalities", "uncertainty", "cli")

EIG_NAMES = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
SOLVE = "entropies.optimize_density"
OBJECTIVE = "entropies.objective"
SAMPLERS = {"states.random_density", "states.random_pure", "states.random_onb"}
ORDER_DRAWS = {"orders.sample_triple", "orders.noncond_orders"}
MI_DOWN = "entropies.mutual_info_down"
GEN_MI = "entropies.gen_mutual_info"
CLOSED_QUANTITIES = {f"entropies.{n}" for n in (
    "classical_renyi_entropy", "classical_renyi_divergence", "quantum_relative_entropy",
    "sandwiched_divergence", "renyi_entropy", "weighted_norm", "gen_cond_entropy",
    "cond_entropy_down")}
BOUNDS = {f"uncertainty.{n}" for n in (
    "q_mu", "q_rho", "q_delta", "q_delta_oriented", "q_delta_state_independent",
    "hall_bound", "r_xz", "r_cp", "r_grudka")}
CSV_WRITE = "cli.write_csv"

COMPLEX_BYTES = 16


class Tracer:
    """Spans as parallel columns (op, parent, name id, start ns, end ns).

    Columns are flat int64 arrays so that a run of a few million spans stays
    small in memory.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_col, self.parent_col, self.name_col = array("q"), array("q"), array("q")
        self.start_col, self.end_col = array("q"), array("q")
        self.stack: list[int] = []
        self.op = -1
        # per-span extras: iterations of a solve, objective calls/rows, sampler bytes
        self.extra: dict[int, dict] = {}
        self.eig_mats: dict[int, tuple[int, int]] = {}
        self._restore: list = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.op_col)
            if before is not None:
                args, kwargs = before(idx, args, kwargs)
            tracer.op_col.append(tracer.op)
            tracer.parent_col.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.name_col.append(nid)
            tracer.start_col.append(0)
            tracer.end_col.append(0)
            tracer.stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.start_col[idx] = t0
                tracer.end_col[idx] = t1
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        return traced

    def _count_objective(self, solve_idx: int, objective):
        extra = self.extra.setdefault(solve_idx, {"obj_calls": 0, "obj_mats": 0})

        def counted(sigmas):
            extra["obj_calls"] += 1
            extra["obj_mats"] += int(sigmas.shape[0]) if np.ndim(sigmas) == 3 else 1
            return objective(sigmas)

        return self._wrap(OBJECTIVE, counted)

    def _solve_before(self, idx, args, kwargs):
        if args:
            args = (self._count_objective(idx, args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, objective=self._count_objective(idx, kwargs["objective"]))
        return args, kwargs

    def _solve_after(self, idx, args, kwargs, out):
        self.extra[idx]["iters"] = int(out.iterations)

    def _sampler_bytes(self, idx, args, kwargs):
        # random_density(dim, rank, ...) builds the (dim*rank)^2 outer product
        dim = kwargs.get("dim", args[0] if args else 0)
        rank = kwargs.get("rank", args[1] if len(args) > 1 else 0)
        self.extra[idx] = {"bytes": COMPLEX_BYTES * (int(dim) * int(rank)) ** 2}
        return args, kwargs

    def _eig_before(self, idx, args, kwargs):
        a = np.asarray(args[0] if args else kwargs["a"])
        n = a.shape[-1]
        self.eig_mats[idx] = (int(np.prod(a.shape[:-2], dtype=np.int64)), int(n))
        return args, kwargs

    # -- install / remove ----------------------------------------------------

    def install(self, package) -> None:
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                full = f"{short}.{name}"
                before = after = None
                if full == SOLVE:
                    before, after = self._solve_before, self._solve_after
                elif full == "states.random_density":
                    before = self._sampler_bytes
                wrapped[id(obj)] = self._wrap(full, obj, before, after)
        prefix = package.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, w)
        for name in ("eigh", "eigvalsh"):
            orig = getattr(np.linalg, name)
            self._restore.append((np.linalg, name, orig))
            setattr(np.linalg, name, self._wrap(f"numpy.linalg.{name}", orig, self._eig_before))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {name: np.frombuffer(col, dtype=np.int64) if len(col) else np.zeros(0, np.int64)
                for name, col in (("op", self.op_col), ("parent", self.parent_col),
                                  ("name", self.name_col), ("start_ns", self.start_col),
                                  ("end_ns", self.end_col))}

    def write_spans(self, path: str, op_labels) -> None:
        """Span columns, name table, op labels and per-span extras as one .npz."""
        extras = {str(i): dict(e) for i, e in self.extra.items()}
        for i, (mats, n) in self.eig_mats.items():
            extras.setdefault(str(i), {}).update(mats=mats, n=n)
        np.savez_compressed(path, names=np.array(self.names), op_labels=np.array(op_labels),
                            extras=np.array(json.dumps(extras)), **self.columns())

    def _has_ancestor_in(self, parent: np.ndarray, member: np.ndarray) -> np.ndarray:
        found = np.zeros(parent.size, dtype=bool)
        anc = parent.copy()
        live = anc >= 0
        while live.any():
            found[live] |= member[anc[live]]
            anc[live] = parent[anc[live]]
            live = anc >= 0
        return found

    def layer_metrics(self, n_ops: int, ms_scale: float = 1.0) -> dict[str, float]:
        """Per-operation layer figures over the spans recorded inside operations.

        Span durations are multiplied by `ms_scale`, the run's calibration
        factor, so that layer times are on the same scale as op_ms.
        """
        c = self.columns()
        parent, nid = c["parent"], c["name"]
        dur_ms = (c["end_ns"] - c["start_ns"]) * (ms_scale / 1e6)
        child_ms = np.zeros(parent.size)
        nested = parent >= 0
        np.add.at(child_ms, parent[nested], dur_ms[nested])
        self_ms = dur_ms - child_ms
        in_op = c["op"] >= 0

        def member(names) -> np.ndarray:
            ids = [self._name_ids[n] for n in names if n in self._name_ids]
            return np.isin(nid, ids)

        def layer(prefix: str) -> np.ndarray:
            return member([n for n in self.names if n.startswith(prefix + ".")])

        def outermost_ms(names) -> float:
            m = member(names)
            return float(dur_ms[m & in_op & ~self._has_ancestor_in(parent, m)].sum())

        eig = member(EIG_NAMES) & in_op
        eig_idx = np.flatnonzero(eig)
        mats = np.array([self.eig_mats[i][0] for i in eig_idx], dtype=float)
        sizes = np.array([self.eig_mats[i][1] for i in eig_idx], dtype=float)

        solve_idx = np.flatnonzero(member([SOLVE]) & in_op)
        solve_ms = dur_ms[solve_idx]
        iters = sum(self.extra[i].get("iters", 0) for i in solve_idx)
        obj_calls = sum(self.extra[i]["obj_calls"] for i in solve_idx)
        obj_mats = sum(self.extra[i]["obj_mats"] for i in solve_idx)

        sampler_idx = np.flatnonzero(member(SAMPLERS) & in_op)
        sample_bytes = sum(self.extra.get(i, {}).get("bytes", 0) for i in sampler_idx)

        mi_down = member([MI_DOWN])
        mi_down_calls = int((mi_down & in_op).sum())
        gen_mi_in_down = int((member([GEN_MI]) & in_op & self._has_ancestor_in(parent, mi_down)).sum())

        unc_checks = member([n for n in self.names if n.startswith("uncertainty.check_")
                             or n == "uncertainty.suite_trial"])
        per_op = 1.0 / max(n_ops, 1)
        return {
            "linalg.eig_calls": eig_idx.size * per_op,
            "linalg.eig_mats": float(mats.sum()) * per_op,
            "linalg.eig_work": float((mats * sizes ** 3).sum()) * per_op,
            "linalg.eig_ms": float(dur_ms[eig].sum()) * per_op,
            "linalg.self_ms": float(self_ms[layer("linalg") & in_op].sum()) * per_op,
            "states.sample_ms": outermost_ms(SAMPLERS) * per_op,
            "states.sample_bytes": sample_bytes * per_op,
            "orders.sample_ms": outermost_ms(ORDER_DRAWS) * per_op,
            "orders.draws": int((member(ORDER_DRAWS) & in_op).sum()) * per_op,
            "entropies.solves": solve_idx.size * per_op,
            "entropies.solve_ms.p50": float(np.percentile(solve_ms, 50)) if solve_ms.size else 0.0,
            "entropies.solve_ms.p90": float(np.percentile(solve_ms, 90)) if solve_ms.size else 0.0,
            "entropies.iters": iters * per_op,
            "entropies.obj_calls": obj_calls * per_op,
            "entropies.obj_mats": obj_mats * per_op,
            "entropies.obj_mats_per_iter": obj_mats / iters if iters else 0.0,
            "entropies.mi_down_rounds": gen_mi_in_down / 2.0 / mi_down_calls if mi_down_calls else 0.0,
            "entropies.closed_ms": outermost_ms(CLOSED_QUANTITIES) * per_op,
            "uncertainty.bound_ms": outermost_ms(BOUNDS) * per_op,
            "inequalities.check_self_ms": float(self_ms[layer("inequalities") & in_op].sum()) * per_op,
            "uncertainty.check_self_ms": float(self_ms[unc_checks & in_op].sum()) * per_op,
            "cli.csv_ms": float(dur_ms[member([CSV_WRITE]) & in_op].sum()) * per_op,
            "trace.spans_per_op": int(in_op.sum()) * per_op,
        }
