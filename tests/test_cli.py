import csv
import math
import os

from renyi_lab import report
from renyi_lab.cli import main
from renyi_lab.inequalities import run_suite


def test_explore_sweep_survives_bad_trials(tmp_path):
    # explore mode draws gamma <= 0 for decomp, which the entropy rejects
    out = str(tmp_path)
    code = main(["sweep", "--suite", "decomp", "--explore", "--trials", "60", "--out", out])
    assert code == 0
    with open(os.path.join(out, "decomp.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 60
    assert any(r["verdict"] == report.ERROR for r in rows)


def test_error_trials_are_recorded_and_counted_as_failed():
    reports, summary = run_suite("decomp", 60, (2, 2), 0, explore=True)
    errors = [r for r in reports if r.verdict == report.ERROR]
    assert errors and all("entropy order must be nonnegative" in r.note for r in errors)
    assert all(math.isnan(r.gap) for r in errors)
    assert summary.failed >= len(errors)
    assert summary.trials == 60
