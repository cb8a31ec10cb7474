import csv
import math
import os
import re
import subprocess
import sys

import pytest

from renyi_lab import cli, entropies, inequalities, report
from renyi_lab.cli import ALL_SUITES, main, write_csv
from renyi_lab.inequalities import SUITES, run_suite
from renyi_lab.linalg import InvalidOrder, NotPositiveSemidefinite
from renyi_lab.states import random_density, trial_rng
from renyi_lab.uncertainty import q_delta, random_pair


def _entropy_raises_below_order_one(monkeypatch):
    """Make decomp's H_gamma(rho_B) raise at gamma < 1, as a bad trial would."""
    def entropy(rho, order):
        if order < 1:
            raise InvalidOrder("entropy order below one")
        return entropies.renyi_entropy(rho, order)

    monkeypatch.setattr(inequalities, "renyi_entropy", entropy)


def test_explore_sweep_survives_bad_trials(tmp_path, monkeypatch):
    _entropy_raises_below_order_one(monkeypatch)
    out = str(tmp_path)
    code = main(["sweep", "--suite", "decomp", "--trials", "60", "--out", out])
    assert code == 1   # error rows count as failures
    with open(os.path.join(out, "decomp.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    errors = [r for r in rows if r["verdict"] == report.ERROR]
    assert errors and all(r["note"] == "InvalidOrder: entropy order below one" for r in errors)
    assert any(r["verdict"] == report.PASS for r in rows)


def test_explore_is_not_an_option(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--suite", "general", "--explore", "--trials", "1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"suite = general\ntrials = 1\nexplore = 1\nout = {tmp_path}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "unknown key 'explore'" in capsys.readouterr().err


def test_csv_note_with_commas_is_quoted(tmp_path):
    path = str(tmp_path / "notes.csv")
    note = "ValueError: variant must be xz, zx, or both"
    write_csv(path, [report.errored("sdgbur", 0, (2, 2), note)], 0)
    with open(path, newline="") as fh:
        text = fh.read()
    assert text.endswith(',"' + note + '"\n')
    with open(path, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["note"] == note and row["verdict"] == report.ERROR


def test_report_keeps_the_worst_stop_of_its_solves(tmp_path):
    def solve(stop, iterations=5, residual=1e-11):
        return entropies.OptimizerResult(None, 0.0, iterations, residual, stop)

    def finish(solves):
        inst = report.Instance("ier", (2, 2), 1.2, 0.8, 0.9, None, "reverse", None)
        return report.finish(inst, 0, 0.5, 1.0, solves, report.BASE_TOL)

    assert finish([]).stop == ""
    assert finish([solve("ftol")]).stop == "ftol"
    worst = finish([solve("gradient"), solve("no_step", 7, 2e-10), solve("ftol")])
    assert (worst.stop, worst.opt_iters, worst.opt_residual) == ("no_step", 17, 2e-10)
    assert finish([solve("max_iter"), solve("no_step")]).stop == "max_iter"
    path = str(tmp_path / "stops.csv")
    write_csv(path, [worst, finish([])], 0)
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header[-2:] == ["stop_reason", "note"]
    assert [r[-2] for r in rows] == ["no_step", ""]


def test_error_trials_are_recorded_and_counted_as_failed(monkeypatch):
    _entropy_raises_below_order_one(monkeypatch)
    reports, summary = run_suite("decomp", 60, (2, 2), 0)
    errors = [r for r in reports if r.verdict == report.ERROR]
    assert errors and all("entropy order below one" in r.note for r in errors)
    assert all(math.isnan(r.gap) for r in errors)
    assert summary.failed >= len(errors)
    assert summary.trials == 60


def test_suite_registry_is_the_cli_suite_list():
    assert tuple(SUITES) == ALL_SUITES
    assert {tag for tag, (*_, arity) in SUITES.items() if arity == 3} == {"chain", "chain-dup"}
    assert all(arity in (2, 3) for *_, arity in SUITES.values())
    # one sides function per relation shape, not per tag
    assert len({sides for _, sides, _ in SUITES.values()}) == 10


def test_opt_iters_counts_every_solve(monkeypatch):
    # master seed 2024, trials 0-2 draw both iier-opt variants
    iters = []
    solve = entropies._optimize_weight

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        iters.append(res.iterations)
        return res

    monkeypatch.setattr(entropies, "_optimize_weight", counted)
    for tag, (draw, sides, arity) in SUITES.items():
        for i in range(3):
            iters.clear()
            inst = draw(tag, trial_rng(2024, i), (2, 2, 2)[:arity])
            rep = report.finish(inst, i, *sides(inst), report.BASE_TOL)
            assert rep.opt_iters == sum(iters), (tag, i)


def test_run_suite_rejects_too_few_dims():
    with pytest.raises(ValueError, match="needs 3"):
        run_suite("chain", 1, (2, 2))


def test_unknown_suite_is_rejected(tmp_path, capsys):
    assert main(["sweep", "--suite", "nope", "--trials", "1", "--out", str(tmp_path)]) == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown suite tag"):
        run_suite("nope", 1)


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_is_rejected(tmp_path, capsys, tol):
    out = str(tmp_path / "out")
    assert main(["sweep", "--suite", "general", "--trials", "1", "--tol", tol, "--out", out]) == 2
    assert "tol must be a finite number >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"suite = general\ntrials = 1\ntol = {tol}\nout = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "tol must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("pair", ["mub:0", "random:0", "random:-2"])
def test_pair_dimension_below_one_is_rejected(capsys, pair):
    assert main(["bounds", "--pair", pair]) == 2
    err = capsys.readouterr().err
    assert "pair dimension must be >= 1" in err and repr(pair) in err


@pytest.mark.parametrize("dims, code", [
    (("4", "16", "2"), 0), (("16", "4", "2"), 0),
    (("1", "2", "2"), 2), (("17", "2", "2"), 2), (("16", "16", "4"), 2),
])
def test_sweep_dimensions_are_bounded(tmp_path, capsys, dims, code):
    # a subsystem up to 16, the state up to the 512 of (8, 8, 8)
    args = ["sweep", "--suite", "hall-classical", "--trials", "1", "--out", str(tmp_path)]
    assert main(args + ["--dim-a", dims[0], "--dim-b", dims[1], "--dim-c", dims[2]]) == code
    assert ("must lie in [2, 16]" in capsys.readouterr().err) == (code == 2)


def test_sweep_gives_each_suite_its_arity_of_dims(tmp_path):
    out = str(tmp_path)
    code = main(["sweep", "--suite", "chain", "--suite", "general", "--dim-c", "3",
                 "--trials", "2", "--seed", "3", "--out", out])
    assert code == 0
    for tag, dim_c in (("chain", "3"), ("general", "1")):
        with open(os.path.join(out, f"{tag}.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 and all(r["dim_c"] == dim_c for r in rows)


def test_random_pair_takes_its_dimension(capsys):
    assert main(["bounds", "--pair", "random:3"]) == 0
    assert "measurement pair on dimension 3;" in capsys.readouterr().out
    # a bare `random` stays the qubit pair it always was
    assert main(["bounds", "--pair", "random"]) == 0
    bare = capsys.readouterr().out
    assert main(["bounds", "--pair", "random:2"]) == 0
    assert "measurement pair on dimension 2;" in bare and bare == capsys.readouterr().out


BELL_FILE = os.path.join(os.path.dirname(__file__), "data", "bell_state.txt")


def test_state_command_on_a_bell_state(capsys):
    assert main(["state", BELL_FILE, "--dims", "2,2"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split()[0] for line in lines] == ["H_0", "H_0.5", "H_1", "H_2", "H_inf"]
    for line in lines:
        values = [float(x) for x in re.findall(r"= *(\S+)", line)]
        # H_a of a pure state is 0; from order 1/2 up, Hdn = Hup = -1 and Iup = Idn = 2
        expected = [0.0] if line.startswith("  H_0 ") else [0.0, -1.0, -1.0, 2.0, 2.0]
        assert values == pytest.approx(expected, abs=1e-7), line


def test_limits_command_passes(capsys):
    assert main(["limits", "--count", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "limits: pass"


@pytest.mark.parametrize("argv, message", [
    (["limits", "--count", "0"], "count must be >= 1"),
    (["limits", "--count", "-2"], "count must be >= 1"),
    (["state", BELL_FILE, "--orders", "1,nan"], "orders must be numbers"),
    (["bounds", "--pair", "mub:2", "--deltas", "nan"], "deltas must be numbers"),
])
def test_vacuous_checks_are_rejected(capsys, argv, message):
    # a count below one checks nothing, and a nan order can only print nan rows
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_infinite_orders_stay_valid(capsys):
    assert main(["state", BELL_FILE, "--orders", "inf"]) == 0
    assert main(["bounds", "--pair", "mub:2", "--deltas", "inf"]) == 0
    assert "nan" not in capsys.readouterr().out


def test_values_that_round_to_zero_print_without_a_sign(capsys):
    # q_delta on dimension 1 and H_a of a pure state are 0 up to rounding
    assert main(["bounds", "--pair", "mub:1"]) == 0
    assert main(["state", BELL_FILE, "--orders", "0.3,0.49"]) == 0
    assert main(["state", BELL_FILE, "--dims", "2,2", "--orders", "0.5,2"]) == 0
    out = capsys.readouterr().out
    assert "-0.0000" not in out
    assert out.count(" 0.0000000000") == 11 + 2 + 2 and "Hdn(A|B) = -1.00000000" in out


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("target, exc, argv", [
    ("renyi_entropy", NotPositiveSemidefinite("eigenvalue below clamp tolerance"),
     ["state", BELL_FILE, "--dims", "2,2"]),
    ("q_delta_state_independent", entropies.OptimizerDiverged("no finite optimum"),
     ["bounds", "--pair", "random:3"]),
])
def test_computation_error_is_a_failure_not_a_configuration_error(monkeypatch, capsys,
                                                                   target, exc, argv):
    monkeypatch.setattr(cli, target, _raise(exc))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("computation error: ") and str(exc) in err


@pytest.mark.parametrize("argv, message", [
    (["state", BELL_FILE, "--orders=-1"], "orders must be >= 0"),
    (["state", BELL_FILE, "--orders", "1,x"], "orders: could not convert"),
    (["state", BELL_FILE, "--dims", "2,x"], "dims: invalid literal"),
    (["bounds", "--pair", "random:x"], "pair dimension in 'random:x'"),
])
def test_unreadable_settings_are_configuration_errors(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("configuration error: ") and message in err


def test_unreadable_seed_variable_is_a_configuration_error(monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_SEED, "x")
    assert main(["limits", "--count", "1"]) == 2
    assert f"{cli.ENV_SEED}: invalid literal" in capsys.readouterr().err


def test_unreadable_config_value_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("suite = general\ntrials = many\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert f"{cfg}:2: trials: invalid literal" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "first line must be 'dim d'"),
    ("# a comment and nothing else\n", "first line must be 'dim d'"),
    ("dim 2\n-1 0\n0 0\n0 0\n2 0\n", "eigenvalue -1.000e+00 below clamp tolerance"),
    ("dim 2\n1 0\n0 0\n0 0\n1 0\n", "differs from 1"),
], ids=["empty", "comment-only", "not-psd", "trace-two"])
def test_malformed_state_file_names_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "state.txt"
    path.write_text(text)
    assert main(["state", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err


@pytest.mark.parametrize("text, message", [
    ("", "first line must be 'dim d'"),
    ("dim 2\n1 0\n1 0\n0 0\n1 0\n", "not orthonormal"),
], ids=["empty", "not-orthonormal"])
def test_malformed_basis_file_names_the_file(tmp_path, capsys, text, message):
    good, bad = tmp_path / "z.txt", tmp_path / "x.txt"
    good.write_text("dim 2\n1 0\n0 0\n0 0\n1 0\n")
    bad.write_text(text)
    assert main(["bounds", "--basis-x", str(bad), "--basis-z", str(good)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and message in err


def test_bounds_q_rho_row_is_q_delta_at_one(capsys):
    assert main(["bounds", "--pair", "random:3", "--seed", "4"]) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines() if "q(rho)" in line]
    pair = random_pair(3, trial_rng(4, 0))
    rho = random_density(3, 3, trial_rng(4, 1))
    assert row.split()[-2] == f"{q_delta(rho, pair, 1.0):.10f}"


class _ClosedPipe:
    """A stdout whose reader has gone; fileno() is a temporary file's descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_ends_quietly(tmp_path, monkeypatch, capsys):
    with open(tmp_path / "out", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        code = main(["bounds", "--pair", "mub:2"])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_stderr_empty():
    # the read end is closed before the command starts, so every write fails,
    # the flush at interpreter exit included
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("PYTHONUNBUFFERED", None)   # block-buffered, the write fails only at a flush
    proc = subprocess.run([sys.executable, "-m", "renyi_lab.cli", "bounds", "--pair", "mub:2"],
                          stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def _fields(rep):
    return [rep.alpha, rep.beta, rep.gamma, rep.lhs, rep.rhs, rep.verdict, rep.direction]


def test_chain_dup_is_chain():
    plain, dup = (run_suite(tag, 6, (2, 2, 2), 0)[0] for tag in ("chain", "chain-dup"))
    for x, y in zip(plain, dup):
        assert _fields(x) == _fields(y)


# ---------------------------------------------------------------------------
# the package runs on numpy alone; scipy is a test oracle only
# ---------------------------------------------------------------------------

def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)


def test_importing_the_package_loads_no_scipy():
    proc = _fresh_python("import sys, renyi_lab, renyi_lab.cli\n"
                         "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr


@pytest.mark.parametrize("argv", [
    ["bounds", "--pair", "random:4", "--deltas=-1.5,0.3,1,3"],
    ["sweep", "--suite", "sigbur", "--suite", "sdgbur", "--trials", "2"],
])
def test_commands_run_with_scipy_blocked(tmp_path, argv):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path)]
    # a None entry makes every import of scipy raise ImportError
    proc = _fresh_python("import sys\nsys.modules['scipy'] = None\n"
                         f"from renyi_lab import cli\nsys.exit(cli.main({argv!r}))")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_refuses_a_delta_float64_cannot_resolve(capsys):
    # at delta = 0.001 the state-independent bound's weights span beyond float64
    assert main(["bounds", "--pair", "random:3", "--deltas=0.001,0.01"]) == 1
    captured = capsys.readouterr()
    assert "computation error: q_delta_state_independent at delta = 0.001" in captured.err
    assert "inf" not in captured.out and "nan" not in captured.out
