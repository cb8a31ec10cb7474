import csv
import math
import os

import pytest

from renyi_lab import entropies, report
from renyi_lab.cli import ALL_SUITES, main, write_csv
from renyi_lab.inequalities import SUITES, run_suite
from renyi_lab.states import trial_rng


def test_explore_sweep_survives_bad_trials(tmp_path):
    # explore mode draws gamma <= 0 for decomp, which the entropy rejects
    out = str(tmp_path)
    code = main(["sweep", "--suite", "decomp", "--explore", "--trials", "60", "--out", out])
    assert code == 0
    with open(os.path.join(out, "decomp.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    errors = [r for r in rows if r["verdict"] == report.ERROR]
    assert errors and all(r["note"] == "InvalidOrder: entropy order must be nonnegative"
                          for r in errors)


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


def test_error_trials_are_recorded_and_counted_as_failed():
    reports, summary = run_suite("decomp", 60, (2, 2), 0, explore=True)
    errors = [r for r in reports if r.verdict == report.ERROR]
    assert errors and all("entropy order must be nonnegative" in r.note for r in errors)
    assert all(math.isnan(r.gap) for r in errors)
    assert summary.failed >= len(errors)
    assert summary.trials == 60


def test_suite_registry_is_the_cli_suite_list():
    assert tuple(SUITES) == ALL_SUITES
    assert {tag for tag, (_, arity) in SUITES.items() if arity == 3} == {"chain", "chain-dup"}
    assert all(arity in (2, 3) for _, arity in SUITES.values())


def test_opt_iters_counts_every_solve(monkeypatch):
    # master seed 2024, trials 0-2 draw both iier-opt variants
    iters = []
    solve = entropies.optimize_density

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        iters.append(res.iterations)
        return res

    monkeypatch.setattr(entropies, "optimize_density", counted)
    for tag, (trial, arity) in SUITES.items():
        for i in range(3):
            iters.clear()
            rep = trial(tag, trial_rng(2024, i), (2, 2, 2)[:arity], report.BASE_TOL, i, False)
            assert rep.opt_iters == sum(iters), (tag, i)


def test_run_suite_rejects_too_few_dims():
    with pytest.raises(ValueError, match="needs 3"):
        run_suite("chain", 1, (2, 2))


def test_unknown_suite_is_rejected(tmp_path, capsys):
    assert main(["sweep", "--suite", "nope", "--trials", "1", "--out", str(tmp_path)]) == 2
    assert "unknown suite 'nope'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown suite tag"):
        run_suite("nope", 1)


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
