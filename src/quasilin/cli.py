"""Command line front end.

Reads a JSON config describing systems (structure constants plus E, M, N),
optional composites, and analysis settings; each subcommand runs one slice
of the toolkit and writes a CSV table next to a short stdout summary.  All
math lives in the library modules; this file only parses, dispatches and
formats.

Commands return (label, value, bound) check rows.  Exit codes: 0 every row
has value <= bound, 2 config or schema problem, 3 capability limit exceeded,
4 numeric failure or a row that fails (a NaN value fails).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from itertools import chain

import numpy as np

from . import composite as composite_mod
from . import decoherence as deco_mod
from . import model
from . import modes as modes_mod
from . import oracle as oracle_mod
from . import qsde
from . import second_moment
from . import weak as weak_mod
from .model import CapabilityLimit

__all__ = ["main", "run"]

_MAX_GRID_STEPS = 100_000  # time grid points; refused before any grid array is allocated
_MAX_BUDGET = 4096  # decoherence bound evaluations (128 batches of 32 shifts); refused before any solve


class ConfigError(Exception):
    """Malformed configuration or command line."""


def _array(x, what, ndim):
    """Nested lists of depth `ndim` as an array: float, or complex when an
    entry has a non-zero imaginary part.  Entries are numbers or [re, im]
    pairs; the lists are checked level by level, then the leaves converted."""
    level, shape = [x], []
    for depth in range(ndim):
        if not all(isinstance(r, list) and (r or depth == ndim - 1) for r in level):
            raise ConfigError(("%s must be a list" if ndim == 1 else "%s must be a list of rows") % what)
        lengths = set(map(len, level))
        if len(lengths) > 1:
            raise ConfigError("%s has ragged rows" % what)
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    imag = {}
    try:
        for i in [i for i, v in enumerate(level) if type(v) is not float]:
            v = level[i]
            if isinstance(v, bool):
                raise ConfigError("%s must be a number, got a boolean" % what)
            if isinstance(v, (int, float)):
                level[i] = float(v)
            elif isinstance(v, list) and len(v) == 2 and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in v):
                level[i] = float(v[0])
                if v[1] != 0:
                    imag[i] = v[1]
            else:
                raise ConfigError("%s must be a number or [re, im] pair, got %r" % (what, v))
        out = np.array(level, dtype=float)
        if imag:
            out = out.astype(complex)
            out.imag[list(imag)] = list(imag.values())
    except OverflowError:
        raise ConfigError("%s has an integer too large for a float" % what)
    return out.reshape(shape)


def _constants(cfg):
    """The constants of a config entry and their oracle representation, or None."""
    if cfg == "pauli":
        rep = oracle_mod.pauli_representation()
        return rep.constants, rep
    if not isinstance(cfg, dict) or "alpha" not in cfg or "beta" not in cfg:
        raise ConfigError('constants must be "pauli" or {"alpha": ..., "beta": [...]}')
    alpha = _array(cfg["alpha"], "alpha", 2)
    if not isinstance(cfg["beta"], list) or not cfg["beta"]:
        raise ConfigError("beta must be a non-empty list of sections")
    beta = _array(cfg["beta"], "beta section", 3)
    try:
        return model.structure_constants(alpha, beta), None
    except ValueError as e:
        raise ConfigError(str(e))


def _system(cfg, name):
    if not isinstance(cfg, dict):
        raise ConfigError("system %r must be an object" % name)
    for key in ("constants", "E", "M"):
        if key not in cfg:
            raise ConfigError("system %r is missing %r" % (name, key))
    constants, rep = _constants(cfg["constants"])
    energy = _array(cfg["E"], "E", 1)
    coupling = _array(cfg["M"], "M", 2)
    offset = _array(cfg["N"], "N", 1) if "N" in cfg else None
    try:
        spec = qsde.system_spec(constants, energy, coupling, offset)
    except ValueError as e:
        raise ConfigError("system %r: %s" % (name, e))
    return spec, rep


class Config:
    def __init__(self, raw, path):
        if not isinstance(raw, dict):
            raise ConfigError("top level of %s must be an object" % path)
        systems = raw.get("systems")
        if not isinstance(systems, dict) or not systems:
            raise ConfigError('config needs a non-empty "systems" object')
        self.systems = {name: _system(cfg, name) for name, cfg in systems.items()}
        self.composites, composites = {}, raw.get("composites") or {}
        if not isinstance(composites, dict):
            raise ConfigError('"composites" must be an object')
        for name, cfg in composites.items():
            if not isinstance(cfg, dict) or "systems" not in cfg or "E12" not in cfg:
                raise ConfigError('composite %r needs "systems" and "E12"' % name)
            pair = cfg["systems"]
            if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(s, str) for s in pair):
                raise ConfigError("composite %r must name two systems" % name)
            for s in pair:
                if s not in self.systems:
                    raise ConfigError("composite %r references unknown system %r" % (name, s))
            e12 = _array(cfg["E12"], "E12", 2)
            (spec1, rep1), (spec2, rep2) = (self.systems[s] for s in pair)
            try:
                cspec = composite_mod.composite_spec(spec1, spec2, e12)
            except ValueError as e:
                raise ConfigError("composite %r: %s" % (name, e))
            self.composites[name] = cspec, None if rep1 is None or rep2 is None else (rep1, rep2)
        self.analysis = raw.get("analysis") or {}
        if not isinstance(self.analysis, dict):
            raise ConfigError('"analysis" must be an object')

    def system(self):
        """The selected system as (name, spec, coefficients, representation or None)."""
        name, (spec, rep) = self._pick("system", self.systems)
        return name, spec, qsde.build_coefficients(spec), rep

    def composite(self):
        """The selected composite as (name, (spec, factor representations or None))."""
        return self._pick("composite", self.composites)

    def setting(self, args, key, default):
        """(value, name): the --key flag unless absent or empty, else analysis[key] or `default`."""
        flag = getattr(args, key)
        if flag is not None and flag != "":
            return flag, "--" + key
        return self.analysis.get(key, default), "analysis." + key

    def _pick(self, key, table):
        """The entry named by analysis[key], or the only entry when it is unset."""
        name = self.analysis.get(key)
        if name is None:
            if not table:
                raise ConfigError('config has no "%ss" section' % key)
            if len(table) != 1:
                raise ConfigError("several %ss defined; set analysis.%s" % (key, key))
            name = next(iter(table))
        if not isinstance(name, str):
            raise ConfigError("analysis.%s must be a string, got %r" % (key, name))
        if name not in table:
            raise ConfigError("unknown %s %r" % (key, name))
        return name, table[name]


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid JSON: %s" % (path, e))
    return Config(raw, path)


def _cells(column):
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype.kind == "f":
        return map("%.17g".__mod__, column.tolist())
    return map(str, column.tolist())


def _write_csv(out_dir, name, header, columns):
    """Write a table given column by column: a list of strings as it is, a
    float array as %.17g and an integer array through str."""
    path = os.path.join(out_dir, name)
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(zip(*map(_cells, columns)))
    except OSError as e:
        raise ConfigError("cannot write %s: %s" % (path, e))
    return path


def _grid(args, cfg):
    spec, name = cfg.setting(args, "grid", [0.0, 5.0, 41])
    if name == "--grid":
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError("--grid must be T0:T1:STEPS")
        try:
            spec = [float(parts[0]), float(parts[1]), int(parts[2])]
        except ValueError:
            raise ConfigError("--grid must be T0:T1:STEPS with numeric fields")
    if not isinstance(spec, list) or len(spec) != 3:
        raise ConfigError("analysis.grid must be [t0, t1, steps]")
    t0, t1 = (_number(t, name + " time") for t in spec[:2])
    if t0 < 0:
        raise ConfigError("%s must start at t0 >= 0, got %r" % (name, t0))
    steps = _number(spec[2], name + " steps", integer=True)
    if steps < 2 or t1 <= t0:
        raise ConfigError("grid needs t1 > t0 and at least 2 steps")
    if steps > _MAX_GRID_STEPS:
        raise CapabilityLimit("grid of %d steps exceeds %d" % (steps, _MAX_GRID_STEPS))
    return np.linspace(t0, t1, steps)


def _number(v, what, integer=False, low=None):
    """A JSON or command-line number as a finite float, or with `integer` as an
    int (an integral float counts), refused below `low`; booleans and strings
    are refused too."""
    if integer:
        ok = isinstance(v, int) or isinstance(v, float) and v.is_integer()
    else:
        ok = isinstance(v, (int, float)) and abs(v) <= sys.float_info.max
    if isinstance(v, bool) or not ok or low is not None and v < low:
        bound = "" if low is None else " >= %g" % low
        raise ConfigError("%s must be %s%s, got %r" % (what, "an integer" if integer else "a finite number", bound, v))
    return int(v) if integer else float(v)


def _eps_list(args, cfg):
    vals, name = cfg.setting(args, "eps", [0.2, 0.1, 0.05])
    if name == "--eps":
        try:
            vals = [float(v) for v in vals.split(",")]
        except ValueError:
            raise ConfigError("--eps must be a comma separated float list")
    if not isinstance(vals, list):
        raise ConfigError("analysis.eps must be a list of numbers, got %r" % (vals,))
    vals = [_number(v, name + " value") for v in vals]
    if not vals or any(v <= 0 for v in vals):
        raise ConfigError("eps values must be positive")
    for v in vals:
        try:
            weak_mod.strength_squared(v)
        except ValueError as e:
            raise ConfigError("%s: %s" % (name, e))
    return vals


def _tol(args, cfg):
    return _number(*cfg.setting(args, "tol", 1e-8), low=0.0)


def _seed(args, cfg):
    return _number(*cfg.setting(args, "seed", 0), integer=True, low=0)


def _real_mu(cfg, n):
    mu0 = cfg.analysis.get("mu0")
    if mu0 is None:
        return np.zeros(n)
    vec = _array(mu0, "mu0", 1)
    if vec.shape != (n,) or np.iscomplexobj(vec) or not np.all(np.isfinite(vec)):
        raise ConfigError("mu0 must be a finite real vector of length %d" % n)
    return vec


def cmd_validate(cfg, args, out_dir):
    kw = {} if args.tol is None else {"tol": _tol(args, cfg)}  # without --tol, the default composite applies to each factor
    reports = {name: model.validate(spec.constants, **kw) for name, (spec, _) in cfg.systems.items()}
    for name, rep in reports.items():
        print(
            "system %s: %s (%d violations, alpha PSD: %s)"
            % (name, "PASS" if rep.passed else "FAIL", len(rep.violations), "yes" if rep.alpha_psd else "no")
        )
    flags = np.array([(r.passed, len(r.violations), r.alpha_psd, r.independence_assumed) for r in reports.values()], dtype=int)
    header = ["system", "passed", "violations", "alpha_psd", "independence_assumed"]
    _write_csv(out_dir, "validate.csv", header, [list(cfg.systems), *flags.T])
    return [(name, len(r.violations), 0) for name, r in reports.items()]


def cmd_coeffs(cfg, args, out_dir):
    name, _, coeffs, _ = cfg.system()
    n = coeffs.n
    values = np.concatenate([coeffs.a.ravel(), coeffs.a0.ravel(), coeffs.atilde.ravel(), coeffs.b])
    blocks = ["a"] * n * n + ["a0"] * n * n + ["atilde"] * n * n + ["b"] * n
    flat = np.arange(3 * n * n)
    rows = np.concatenate([flat // n % n, np.arange(n)])
    cols = np.concatenate([flat % n, np.zeros(n, dtype=int)])
    columns = [blocks, rows, cols, values.real, values.imag]
    path = _write_csv(out_dir, "coeffs.csv", ["block", "row", "col", "re", "im"], columns)
    print("system %s: drift abscissa %.6g, wrote %s" % (name, qsde.spectral_abscissa(coeffs.a), path))
    return []


def cmd_mean_flow(cfg, args, out_dir):
    name, _, coeffs, _ = cfg.system()
    times = _grid(args, cfg)
    mu0 = _real_mu(cfg, coeffs.n)
    flow = np.real(qsde.mean_flow(coeffs, mu0, times))
    header = ["t"] + ["mu_%d" % (j + 1) for j in range(coeffs.n)]
    path = _write_csv(out_dir, "mean_flow.csv", header, [times, *flow.T])
    print("system %s: %d grid points, wrote %s" % (name, len(times), path))
    return []


def cmd_steady(cfg, args, out_dir):
    name, _, coeffs, _ = cfg.system()
    tol = _tol(args, cfg)
    mu = qsde.steady_mean(coeffs)
    resid = float(np.linalg.norm(coeffs.a @ mu + coeffs.b))
    _write_csv(out_dir, "steady.csv", ["component", "value"], [np.arange(1, coeffs.n + 1), mu])
    print("system %s: steady mean %s, residual %.3g" % (name, np.array2string(mu, precision=8), resid))
    return [("steady_residual", resid, tol)]


def cmd_qcf(cfg, args, out_dir):
    name, spec, coeffs, _ = cfg.system()
    mu = qsde.steady_mean(coeffs)
    us = cfg.analysis.get("qcf_u")
    vectors = np.eye(coeffs.n) if us is None else _array(us, "qcf_u", 2)
    if np.iscomplexobj(vectors):
        raise ConfigError("qcf_u entries must be real")
    if not np.all(np.isfinite(vectors)):
        raise ConfigError("qcf_u entries must be finite")
    if vectors.shape[1] != coeffs.n:
        raise ConfigError("qcf_u vectors must have length %d, got %d" % (coeffs.n, vectors.shape[1]))
    vals = qsde.qcf(spec.constants, mu, vectors)
    header = ["u_%d" % (j + 1) for j in range(coeffs.n)] + ["re", "im"]
    path = _write_csv(out_dir, "qcf.csv", header, [*vectors.T, vals.real, vals.imag])
    print("system %s: %d characteristic values, wrote %s" % (name, len(vals), path))
    return []


def cmd_spectrum(cfg, args, out_dir):
    name, spec, coeffs, _ = cfg.system()
    tol = _tol(args, cfg)
    times = _grid(args, cfg)
    op = second_moment.lambda_operator(spec, coeffs)
    drift = np.linalg.eigvals(coeffs.a)
    moment = np.linalg.eigvals(op)
    sa, herm = float(np.max(drift.real)), float(np.max(moment.real))
    ev = np.concatenate([drift, moment])
    kinds = ["drift"] * len(drift) + ["second-moment"] * len(moment)
    index = np.concatenate([np.arange(len(drift)), np.arange(len(moment))])
    _write_csv(out_dir, "spectrum.csv", ["kind", "index", "re", "im"], [kinds, index, ev.real, ev.imag])

    flow = second_moment.pi_trace_flow(op, times)
    props = qsde.propagate(coeffs.a, np.eye(coeffs.n), times)
    # squared per matrix: squaring the array of norms differs in the last bit
    lower = np.array([np.linalg.norm(prop) ** 2 for prop in props])
    worst = np.max(lower - flow, initial=0.0)
    _write_csv(out_dir, "spectrum_flow.csv", ["t", "trace", "squared_norm_lower"], [times, flow, lower])
    print(
        "system %s: abscissa %.6g, restricted abscissa %.6g, sandwich slack %.3g"
        % (name, sa, herm, worst)
    )
    return [("sandwich_slack", worst, tol), ("twice_abscissa_excess", 2 * sa - herm, tol)]


def cmd_modes(cfg, args, out_dir):
    name, spec, coeffs, _ = cfg.system()
    md = modes_mod.eigenmodes(coeffs.a0, spec.constants.alpha)
    period = modes_mod.oscillation_period(md)
    k = len(md.omegas)
    vec = md.vectors.T.ravel()
    columns = [np.repeat(np.arange(k), k), np.tile(np.arange(k), k), np.repeat(md.omegas, k), vec.real, vec.imag]
    path = _write_csv(out_dir, "modes.csv", ["mode", "component", "omega", "vec_re", "vec_im"], columns)
    print(
        "system %s: frequencies %s, period %s, wrote %s"
        % (name, np.array2string(md.omegas, precision=8), "none" if period is None else "%.8g" % period, path)
    )
    return []


def cmd_decoherence(cfg, args, out_dir):
    name, spec, coeffs, _ = cfg.system()
    budget = _number(cfg.analysis.get("budget", 64), "analysis.budget", integer=True, low=1)
    if budget > _MAX_BUDGET:
        raise CapabilityLimit("analysis.budget of %d exceeds %d" % (budget, _MAX_BUDGET))
    mu = qsde.steady_mean(coeffs)
    ccr = model.dot_product(spec.constants.theta, mu)
    tau = deco_mod.tau_star(coeffs.a, ccr)
    search = deco_mod.optimize_tau_bound(coeffs.a, ccr, budget=budget, seed=_seed(args, cfg))
    floats = np.array([[tau], [search.bound], [search.lam]])
    ints = np.array([[search.seed], [search.evaluations]])
    header = ["tau_star", "best_bound", "lam", "k_label", "seed", "evaluations"]
    _write_csv(out_dir, "decoherence.csv", header, [*floats, [search.k_label], *ints])
    print(
        "system %s: tau* = %.8g, certified bound %.8g (lam %.6g, %s, seed %d)"
        % (name, tau, search.bound, search.lam, search.k_label, search.seed)
    )
    return [("tau_star", tau, search.bound)]


def cmd_weak(cfg, args, out_dir):
    name, spec, coeffs, _ = cfg.system()
    md = modes_mod.eigenmodes(coeffs.a0, spec.constants.alpha)
    result = weak_mod.stability_and_thresholds(coeffs, md)
    eps_list = _eps_list(args, cfg)
    table = weak_mod.eigenvalue_asymptotics_check(coeffs, md, eps_list)

    scalars = {
        "stable_for_small_eps": float(result.stable_for_small_eps),
        "abscissa_coefficient": result.abscissa_coefficient,
        "tau_hat_coefficient": result.tau_hat_coefficient,
        "eps_hat": result.eps_hat,
        "eps_tilde": result.eps_tilde,
    }
    scalars = {label: v for label, v in scalars.items() if v is not None}
    for label in [label for label, v in scalars.items() if np.isinf(v)]:
        print("%s is unbounded (a decay rate vanishes); left out of weak.csv" % label)
        del scalars[label]
    try:
        limit = weak_mod.invariant_mean_limit(coeffs, md)
    except ValueError as e:
        print("invariant-mean limit not applicable: %s" % e)
        limit = np.zeros(0)
    labels = ["nu_%d" % (k + 1) for k in range(len(result.nu))] + list(scalars)
    labels += ["invariant_limit_%d" % (j + 1) for j in range(len(limit))]
    values = np.concatenate([result.nu, list(scalars.values()), limit])
    _write_csv(out_dir, "weak.csv", ["quantity", "value", "imag"], [labels, values.real, values.imag])

    counts = [len(row.residuals) for row in table]
    matched = np.concatenate([row.matched for row in table])
    eps = np.repeat([row.eps for row in table], counts)
    mode = np.concatenate([np.arange(c) for c in counts])
    residuals = np.concatenate([row.residuals for row in table])
    ambiguous = np.repeat([int(row.ambiguous) for row in table], counts)
    header = ["eps", "mode", "eig_re", "eig_im", "scaled_residual", "ambiguous"]
    columns = [eps, mode, matched.real, matched.imag, residuals, ambiguous]
    path = _write_csv(out_dir, "weak_asymptotics.csv", header, columns)
    print(
        "system %s: max Re nu = %.8g, stable for small eps: %s, wrote %s"
        % (name, result.abscissa_coefficient, result.stable_for_small_eps, path)
    )
    return []


def _passes(value, bound):
    return value <= bound  # the one pass rule of every check row: a NaN value fails


def _check_table(out_dir, name, checks):
    """CSV of (label, residual, bar, pass) rows; returns its path."""
    labels, resid, bars = zip(*checks)
    passed = list(map(int, map(_passes, resid, bars)))
    return _write_csv(out_dir, name, ["check", "residual", "tol", "pass"], [labels, np.array(resid), np.array(bars), passed])


def cmd_composite(cfg, args, out_dir):
    name, (cspec, _) = cfg.composite()
    tol = _tol(args, cfg)
    block = composite_mod.composite_coefficients(cspec)
    augmented = composite_mod.augmented_system(cspec)
    generic = qsde.build_coefficients(augmented)

    rng = np.random.default_rng(_seed(args, cfg))
    x = rng.uniform(-1.0, 1.0, block.n)
    disp_block = composite_mod.composite_dispersion(cspec, x)
    disp_generic = qsde.dispersion(augmented, x)

    checks = [
        ("drift", float(np.max(np.abs(block.a - generic.a))), tol),
        ("drift_isolated", float(np.max(np.abs(block.a0 - generic.a0))), tol),
        ("affine", float(np.max(np.abs(block.b - generic.b))), tol),
        ("dispersion", float(np.max(np.abs(disp_block - disp_generic))), tol),
    ]
    path = _check_table(out_dir, "composite.csv", checks)
    worst = np.max([r for _, r, _ in checks])  # np.max, not max: a NaN residual shows
    print("composite %s: worst path residual %.3g, wrote %s" % (name, worst, path))
    return checks


def cmd_oracle(cfg, args, out_dir):
    tol = _tol(args, cfg)
    if args.composite:
        name, (cspec, reps) = cfg.composite()
        if reps is None:
            raise ConfigError("oracle only has representations for pauli-based systems")
        rep = oracle_mod.tensor_representation(*reps)
        spec = composite_mod.augmented_system(cspec)
        coeffs = composite_mod.composite_coefficients(cspec)
    else:
        name, spec, coeffs, rep = cfg.system()
        if rep is None:
            raise ConfigError("oracle only has representations for the builtin pauli constants")

    # built once and shared by the three checks that apply the generator
    sup = oracle_mod.heisenberg_superoperator(rep, spec)
    checks = [("representation", oracle_mod.representation_check(rep), 1e-12)]
    checks.append(("generator_identity", oracle_mod.generator_identity_check(rep, spec, coeffs, heisenberg=sup), 1e-10))

    lags = [0.5, 1.0, 2.0]
    stationary = ["steady_mean"] + ["two_point_tau_%g" % tau for tau in lags]
    try:
        mu = qsde.steady_mean(coeffs)
    except np.linalg.LinAlgError:
        raise
    except ValueError as e:  # steady_mean refused a drift that is not Hurwitz: no stationary state to compare
        print("skipped %s: %s" % (", ".join(stationary), e))
    else:
        rho = oracle_mod.stationary_state(rep, spec, heisenberg=sup)
        resid = float(np.max(np.abs(oracle_mod.moments(rep, rho).real - mu)))
        checks.append((stationary[0], resid, tol))

        rho0 = np.eye(rep.dim) / rep.dim
        s = 1.0
        mu_s = qsde.mean_flow(coeffs, oracle_mod.moments(rep, rho0).real, [s])[0]
        lhs = oracle_mod.two_point_commutator(rep, spec, rho0, s, lags, heisenberg=sup)
        rhs = qsde.mean_two_point_ccr(coeffs, spec.constants, mu_s, lags)
        checks += [(label, float(np.max(diff)), tol) for label, diff in zip(stationary[1:], np.abs(lhs - rhs))]

    path = _check_table(out_dir, "oracle.csv", checks)
    print("oracle vs %s: %d checks, wrote %s" % (name, len(checks), path))
    return checks


COMMANDS = {
    "validate": cmd_validate,
    "coeffs": cmd_coeffs,
    "mean-flow": cmd_mean_flow,
    "steady": cmd_steady,
    "qcf": cmd_qcf,
    "spectrum": cmd_spectrum,
    "modes": cmd_modes,
    "decoherence": cmd_decoherence,
    "weak": cmd_weak,
    "composite": cmd_composite,
    "oracle": cmd_oracle,
}


_PARSER = argparse.ArgumentParser(prog="quasilin", description=__doc__)
_PARSER.add_argument("command", choices=sorted(COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to the JSON config")
_PARSER.add_argument("--out", default=".", help="directory for CSV output")
_PARSER.add_argument("--seed", type=int, default=None, help="override analysis.seed")
_PARSER.add_argument("--tol", type=float, default=None, help="override analysis.tol")
_PARSER.add_argument("--eps", default=None, help="comma separated strengths for weak analysis")
_PARSER.add_argument("--grid", default=None, help="time grid T0:T1:STEPS")
_PARSER.add_argument(
    "--composite",
    action="store_true",
    help="run the oracle against the configured composite instead of a single system",
)


def run(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    cfg = _load_config(args.config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as e:
        raise ConfigError("cannot write %s: %s" % (args.out, e))
    failed = [row for row in COMMANDS[args.command](cfg, args, args.out) if not _passes(*row[1:])]
    print("".join("FAIL: %s = %s is not <= %s\n" % row for row in failed), end="")
    return 4 if failed else 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except CapabilityLimit as e:
        print("capability limit: %s" % e, file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
