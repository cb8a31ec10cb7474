"""Command-line entry point: suite sweeps with CSV output, bound tables for
measurement pairs, per-state entropy tables, and the limit checks.

Exit codes: 0 all pass, 1 a failed check or computation, 2 configuration error, 141 pipe closed.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import report
from .entropies import cond_entropy_down, cond_entropy_up, mutual_info_down, mutual_info_up, renyi_entropy
from .inequalities import SUITES, run_suite
from .linalg import SystemLayout
from .states import DensityOperator, MeasurementBasis, random_density, trial_rng
from .uncertainty import (
    MeasurementPair,
    hall_bound,
    mub_pair,
    q_delta,
    q_delta_state_independent,
    q_mu,
    r_cp,
    r_grudka,
    r_xz,
    random_pair,
)

ENV_SEED = "RENYI_LAB_SEED"
ALL_SUITES = tuple(SUITES)

CSV_COLUMNS = ("trial_id", "seed", "dim_a", "dim_b", "dim_c", "alpha", "beta", "gamma",
               "delta", "direction", "lhs_bits", "rhs_bits", "gap_bits", "verdict",
               "opt_iters", "opt_residual", "stop_reason", "note")

CONFIG_KEYS = {"suite": str, "trials": int, "dim_a": int, "dim_b": int, "dim_c": int,
               "seed": int, "tol": float, "out": str}   # each key's value type


class ConfigError(ValueError):
    pass


def _read(convert, text, name: str):
    """convert(text); a text it rejects is a ConfigError that names the setting."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.12g}" if isinstance(x, float) else str(x)   # nan prints as "nan"


def _trial_seed_value(master_seed: int, i: int) -> int:
    return int(np.random.SeedSequence([int(master_seed), int(i)]).generate_state(1)[0])


def write_csv(path: str, reports, master_seed: int) -> None:
    rows = [CSV_COLUMNS]
    for i, r in enumerate(reports):
        dims = tuple(r.dims) + (1, 1, 1)
        rows.append((
            str(i), str(_trial_seed_value(master_seed, r.trial_seed)),
            str(dims[0]), str(dims[1]), str(dims[2]),
            _fmt(float(r.alpha)), _fmt(None if r.beta is None else float(r.beta)),
            _fmt(float(r.gamma)), _fmt(None if r.delta is None else float(r.delta)),
            r.direction, _fmt(float(r.lhs)), _fmt(float(r.rhs)), _fmt(float(r.gap)),
            r.verdict, str(r.opt_iters), _fmt(float(r.opt_residual)), r.stop, r.note,
        ))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


# ---------------------------------------------------------------------------
# file formats: first line "dim d", then one "re im" pair per entry, row-major
# ---------------------------------------------------------------------------

def _read_matrix_file(path: str, build):
    """`build` of the file's matrix; a malformed file, or a matrix that `build`
    rejects, is a ConfigError that names the file."""
    with open(path) as fh:
        tokens = [line.split("#")[0].strip() for line in fh]
    tokens = [t for t in tokens if t]
    try:
        head = tokens[0].split() if tokens else []
        if len(head) != 2 or head[0] != "dim" or not head[1].isdigit() or int(head[1]) < 1:
            raise ValueError("first line must be 'dim d' with d >= 1")
        d = int(head[1])
        entries = []
        for t in tokens[1:]:
            parts = t.split()
            if len(parts) != 2:
                raise ValueError(f"expected 're im' rows, got {t!r}")
            entries.append(complex(float(parts[0]), float(parts[1])))
        if len(entries) != d * d:
            raise ValueError(f"expected {d * d} entries, found {len(entries)}")
        return build(np.array(entries, dtype=complex).reshape(d, d))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def read_state_file(path: str, dims=None) -> DensityOperator:
    return _read_matrix_file(path, lambda m: DensityOperator(
        m, SystemLayout(tuple(dims)) if dims else SystemLayout((m.shape[0],))))


def read_basis_file(path: str) -> MeasurementBasis:
    return _read_matrix_file(path, MeasurementBasis)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            cfg[key] = _read(CONFIG_KEYS[key], val, f"{path}:{ln}: {key}")
    return cfg


def _default_seed(args_seed) -> int:
    if args_seed is not None:
        return args_seed
    return _read(int, os.environ.get(ENV_SEED) or "0", ENV_SEED)


def cmd_sweep(args) -> int:
    cfg = load_config(args.config) if args.config else {}
    suites = args.suite if args.suite else cfg.get("suite", "").split(",") if cfg.get("suite") else []
    suites = [s for s in suites if s]
    if not suites:
        raise ConfigError("no suites selected (use --suite)")
    for s in suites:
        if s not in ALL_SUITES:
            raise ConfigError(f"unknown suite {s!r}; known: {', '.join(ALL_SUITES)}")
    trials = args.trials if args.trials is not None else cfg.get("trials", 100)
    dim_a = args.dim_a if args.dim_a is not None else cfg.get("dim_a", 2)
    dim_b = args.dim_b if args.dim_b is not None else cfg.get("dim_b", 2)
    dim_c = args.dim_c if args.dim_c is not None else cfg.get("dim_c", 2)
    seed = _default_seed(args.seed if args.seed is not None else cfg.get("seed"))
    tol = args.tol if args.tol is not None else cfg.get("tol", report.BASE_TOL)
    out = args.out if args.out is not None else cfg.get("out", "sweep-out")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol!r}")
    # a subsystem of 16 admits cq states of 16 blocks of 4 and of 4 blocks of
    # 16; the product cap keeps states no larger than (8, 8, 8)
    if not all(2 <= d <= 16 for d in (dim_a, dim_b, dim_c)) or dim_a * dim_b * dim_c > 512:
        raise ConfigError("subsystem dimensions must lie in [2, 16], their product at most 512")

    os.makedirs(out, exist_ok=True)
    any_fail = False
    for tag in suites:
        reports, summary = run_suite(tag, trials, (dim_a, dim_b, dim_c), seed, tol)
        write_csv(os.path.join(out, f"{tag}.csv"), reports, seed)
        print(summary.line())
        if summary.failed:
            any_fail = True
    return 1 if any_fail else 0


def _resolve_pair(args) -> MeasurementPair:
    if args.pair:
        kind, _, arg = args.pair.partition(":")
        if kind not in ("mub", "random"):
            raise ConfigError(f"unknown named pair {args.pair!r} (use mub:d or random:d)")
        d = _read(int, arg or "2", f"pair dimension in {args.pair!r}")
        if d < 1:
            raise ConfigError(f"pair dimension must be >= 1, got {d} in {args.pair!r}")
        return mub_pair(d) if kind == "mub" else random_pair(d, trial_rng(_default_seed(args.seed), 0))
    if args.basis_x and args.basis_z:
        return MeasurementPair.from_bases(read_basis_file(args.basis_x), read_basis_file(args.basis_z))
    raise ConfigError("provide --pair or both --basis-x and --basis-z")


def _orders(text: str, name: str) -> list[float]:
    """Comma-separated orders; inf is an order, nan is not."""
    orders = [_read(float, x, name) for x in text.split(",")]
    if any(math.isnan(x) for x in orders):
        raise ConfigError(f"{name} must be numbers, got {text!r}")
    return orders


def cmd_bounds(args) -> int:
    pair = _resolve_pair(args)
    deltas = _orders(args.deltas, "deltas") if args.deltas else [0.5, 2.0]
    rng = trial_rng(_default_seed(args.seed), 1)
    rho = random_density(pair.d, pair.d, rng)
    print(f"measurement pair on dimension {pair.d}; max overlap c = {pair.c:.10f}")
    rows = [
        ("q_MU", q_mu(pair)),
        ("q(rho) [random rho]", q_delta(rho, pair, 1.0)),
        ("r_H", hall_bound(pair)),
        ("r(X,Z)", r_xz(pair)),
        ("r(Z,X)", r_xz(pair.swapped())),
        ("r_CP", r_cp(pair)),
        ("r_G", r_grudka(pair)),
    ]
    for d in deltas:
        rows.append((f"q_delta(rho) delta={d:g}", q_delta(rho, pair, d)))
        rows.append((f"q_delta_SI delta={d:g}", q_delta_state_independent(pair, d)))
    width = max(len(r[0]) for r in rows)
    for name, val in rows:
        print(f"  {name:<{width}}  {round(val, 10) + 0.0: .10f} bits")   # + 0.0: a rounded 0 is unsigned
    return 0


def cmd_state(args) -> int:
    dims = tuple(_read(int, x, "dims") for x in args.dims.split(",")) if args.dims else None
    rho = read_state_file(args.state, dims)
    orders = _orders(args.orders, "orders") if args.orders else [0.0, 0.5, 1.0, 2.0, math.inf]
    if min(orders) < 0:
        raise ConfigError(f"orders must be >= 0, got {args.orders!r}")
    print(f"state on dimension {rho.dim} (layout {rho.layout.dims})")
    for a in orders:
        line = f"  H_{a:g} = {round(renyi_entropy(rho, a), 10) + 0.0: .10f}"   # unsigned 0, as in bounds
        if len(rho.layout.dims) == 2 and a >= 0.5:
            values = (cond_entropy_down(rho, a), cond_entropy_up(rho, a).value,
                      mutual_info_up(rho, a).value, mutual_info_down(rho, a).value)
            down, up, mi_up, mi_dn = (round(v, 8) + 0.0 for v in values)
            line += (f"   Hdn(A|B) = {down: .8f}  Hup(A|B) = {up: .8f}"
                     f"  Iup = {mi_up: .8f}  Idn = {mi_dn: .8f}")
        print(line)
    return 0


def cmd_limits(args) -> int:
    seed = _default_seed(args.seed)
    n = args.count
    if n < 1:
        raise ConfigError(f"count must be >= 1, got {n}")
    worst_alpha = worst_d1 = worst_d0 = 0.0
    for i in range(n):
        rng = trial_rng(seed, i)
        rho = random_density(2, 2, rng)
        vn = renyi_entropy(rho, 1.0)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            worst_alpha = max(worst_alpha, abs(renyi_entropy(rho, a) - vn))
        pair = random_pair(2, rng)
        q1 = q_delta(rho, pair, 1.0)
        qmu = q_mu(pair)
        for d in (1.0 - 1e-4, 1.0 + 1e-4):
            worst_d1 = max(worst_d1, abs(q_delta(rho, pair, d) - q1))
        for d in (-1e-4, 1e-4):
            worst_d0 = max(worst_d0, abs(q_delta(rho, pair, d) - qmu))
    print(f"alpha->1 entropy residual over {n} states:   {worst_alpha:.3e}  (bound 1e-3)")
    print(f"delta->1 bound residual over {n} instances:  {worst_d1:.3e}  (bound 1e-3)")
    print(f"delta->0 bound residual over {n} instances:  {worst_d0:.3e}  (bound 1e-3)")
    ok = worst_alpha <= 1e-3 and worst_d1 <= 1e-3 and worst_d0 <= 1e-3
    print("limits:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="renyi-lab",
                                 description="Renyi divergence inequality verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run verification suites and write CSV reports")
    sweep.add_argument("--suite", action="append",
                       help=f"suite tag (repeatable); one of: {', '.join(ALL_SUITES)}")
    sweep.add_argument("--trials", type=int)
    sweep.add_argument("--dim-a", type=int, dest="dim_a")
    sweep.add_argument("--dim-b", type=int, dest="dim_b")
    sweep.add_argument("--dim-c", type=int, dest="dim_c")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--tol", type=float)
    sweep.add_argument("--out")
    sweep.add_argument("--config", help="key=value config file; flags override")
    sweep.set_defaults(func=cmd_sweep)

    bounds = sub.add_parser("bounds", help="print uncertainty/exclusion bound constants")
    bounds.add_argument("--pair", help="named pair: mub:d or random:d (d defaults to 2)")
    bounds.add_argument("--basis-x", dest="basis_x")
    bounds.add_argument("--basis-z", dest="basis_z")
    bounds.add_argument("--deltas", help="comma-separated delta orders")
    bounds.add_argument("--seed", type=int)
    bounds.set_defaults(func=cmd_bounds)

    state = sub.add_parser("state", help="entropy table for a state file")
    state.add_argument("state", help="state file ('dim d' header, 're im' rows)")
    state.add_argument("--orders", help="comma-separated Renyi orders")
    state.add_argument("--dims", help="comma-separated subsystem dimensions")
    state.set_defaults(func=cmd_state)

    limits = sub.add_parser("limits", help="order->1 and delta->{0,1} limit residuals")
    limits.add_argument("--count", type=int, default=100)
    limits.add_argument("--seed", type=int)
    limits.set_defaults(func=cmd_limits)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: stop quietly; devnull keeps the exit-time flush from raising
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError, RuntimeError) as exc:   # numpy's LinAlgError is a ValueError
        print(f"computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
