"""Rerun the golden command-line runs and compare with their recorded outputs.

The runs, their configs and the expected outputs are described in
`tests/golden/write.py`, which rewrites them.  Exit codes, stderr, labels
and all other non-numeric text must match exactly.  Every number, in a CSV
cell or inside stdout, must lie within RTOL * max(1, |expected|) of the
recorded one: the CSV tables are written at %.17g, and moving between 1 and 2 BLAS
threads changed entries by at most 4e-15 absolute, so 1e-12 leaves room for
another BLAS build but not for a changed formula.
"""

import csv
import importlib.util
import json
import math
import pathlib
import re

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_write", GOLDEN / "write.py")
write = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(write)

RTOL = 1e-12

with open(write.MANIFEST) as fh:
    RUNS = {r["id"]: r for r in json.load(fh)["runs"]}

# a number standing alone (not inside a name such as mu_1 or tau_0.5)
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|inf|nan))(?!\w)")


def _close(got, want):
    g, w = float(got), float(want)
    if math.isnan(w):
        return math.isnan(g)
    return g == w or abs(g - w) <= RTOL * max(1.0, abs(w))


def _same_text(got, want):
    """Equal text, numbers compared within RTOL; the first difference, or None."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return "%r != %r" % (got, want)
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if (g != w) if i % 2 == 0 else not _close(g, w):
            return "%r != %r in %r" % (g, w, want)
    return None


def _number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _same_table(got_path, want_path):
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    if [len(row) for row in got] != [len(row) for row in want]:
        return "shape %s != %s" % ([len(row) for row in got], [len(row) for row in want])
    for r, (grow, wrow) in enumerate(zip(got, want)):
        for c, (g, w) in enumerate(zip(grow, wrow)):
            same = _close(g, w) if _number(w) and _number(g) else g == w
            if not same:
                return "row %d column %d: %r != %r" % (r, c, g, w)
    return None


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_run(tmp_path, name):
    want = RUNS[name]
    out = tmp_path / "out"
    code, stdout, stderr = write.run(want["argv"], out)
    assert code == want["exit"]
    assert stderr == want["stderr"]
    diff = _same_text(stdout, want["stdout"])
    assert diff is None, "stdout: %s" % diff
    tables = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert tables == want["csv"]
    for table in tables:
        diff = _same_table(out / table, GOLDEN / "expected" / name / table)
        assert diff is None, "%s: %s" % (table, diff)


def test_golden_runs_cover_every_exit_code():
    codes = sorted({r["exit"] for r in RUNS.values()})
    assert codes == [0, 2, 3, 4]
    assert len(RUNS) == sum(len(ops) for ops in write.RUNS.values())


def test_comparison_allows_round_off_only():
    assert _same_text("tau* = 1.5, wrote x", "tau* = 1.5000000000000004, wrote x") is None
    assert _same_text("tau* = 1.5001, wrote x", "tau* = 1.5, wrote x") is not None
    assert _same_text("mu_1 = 2", "mu_2 = 2") is not None
    assert _same_text("[-0.  1.]", "[-0.  1.]") is None
    assert _same_text("nan", "nan") is None and _same_text("0", "nan") is not None
    assert _close("1e-13", "0") and not _close("2e-12", "0")
