"""Output checks, run outside the timed region.

Every CSV a command writes must parse, and every number in it must be
finite.  `coeffs`, `mean-flow` and
`steady` are compared with the exact oracle on the benchmark's own
representation of the analysed algebra; `validate`, `composite` and
`oracle` must report every row as passed.
"""

from __future__ import annotations

import csv
import math
import os
from types import SimpleNamespace

import numpy as np

from quasilin import oracle, qsde

TOL = 1e-8

OUTPUTS = {
    "validate": ("validate.csv",),
    "coeffs": ("coeffs.csv",),
    "mean-flow": ("mean_flow.csv",),
    "steady": ("steady.csv",),
    "qcf": ("qcf.csv",),
    "spectrum": ("spectrum.csv", "spectrum_flow.csv"),
    "modes": ("modes.csv",),
    "decoherence": ("decoherence.csv",),
    "weak": ("weak.csv", "weak_asymptotics.csv"),
    "composite": ("composite.csv",),
    "oracle": ("oracle.csv",),
    "oracle --composite": ("oracle.csv",),
}


class CheckFailed(Exception):
    """An output is missing, malformed, or disagrees with the oracle."""


def _cell(text):
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        raise ValueError("non-finite entry %r" % text)
    return value


def read_table(path):
    """(header, rows): numeric cells as floats, which must be finite; other cells stay text."""
    name = os.path.basename(path)
    try:
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        rows = [[_cell(v) for v in row] for row in body]
    except (OSError, ValueError) as e:
        raise CheckFailed("%s: %s" % (name, e))
    if not rows or any(len(row) != len(header) for row in rows):
        raise CheckFailed("%s: no rows, or rows of the wrong width" % name)
    return header, rows


def _near(label, got, want, tol=TOL):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    scale = max(1.0, float(np.max(np.abs(want))))
    if not err <= tol * scale:
        raise CheckFailed("%s differs from the oracle by %.3g (bound %.3g)" % (label, err, tol * scale))


class Checker:
    """Checks one workload's outputs against the oracle for the analysed system."""

    def __init__(self, algebra):
        self.rep = algebra.rep
        self.constants = algebra.constants

    def check(self, op, out_dir, system_cfg):
        tables = {name: read_table(os.path.join(out_dir, name)) for name in OUTPUTS[op]}
        if op in ("validate", "composite", "oracle", "oracle --composite"):
            header, rows = tables[OUTPUTS[op][0]]
            col = header.index("passed" if op == "validate" else "pass")
            failing = [row[0] for row in rows if row[col] != 1.0]
            if failing:
                raise CheckFailed("%s reports failed rows %s" % (op, failing))
        if op in ("coeffs", "mean-flow", "steady"):
            spec = qsde.system_spec(
                self.constants, system_cfg["E"], np.array(system_cfg["M"]), system_cfg["N"]
            )
            getattr(self, "_" + op.replace("-", "_"))(spec, tables)

    def _coeffs(self, spec, tables):
        n = self.constants.n
        a = np.zeros((n, n), dtype=complex)
        b = np.zeros(n, dtype=complex)
        for block, row, col, re, im in tables["coeffs.csv"][1]:
            if block == "a":
                a[int(row), int(col)] = complex(re, im)
            elif block == "b":
                b[int(row)] = complex(re, im)
        resid = oracle.generator_identity_check(self.rep, spec, SimpleNamespace(a=a, b=b))
        _near("coeffs.csv drift (generator identity)", resid, 0.0)

    def _mean_flow(self, spec, tables):
        rows = tables["mean_flow.csv"][1]
        t, mu = float(rows[-1][0]), rows[-1][1:]
        rho0 = np.eye(self.rep.dim) / self.rep.dim
        rho_t, _ = oracle.lindblad_propagate(self.rep, spec, rho0, t)
        _near("mean_flow.csv at t=%g" % t, mu, oracle.moments(self.rep, rho_t).real)

    def _steady(self, spec, tables):
        mu = [row[1] for row in tables["steady.csv"][1]]
        rho = oracle.stationary_state(self.rep, spec)
        _near("steady.csv", mu, oracle.moments(self.rep, rho).real)
