"""Command line front end.

Reads a JSON config describing systems (structure constants plus E, M, N),
optional composites, and analysis settings; each subcommand runs one slice
of the toolkit and writes a CSV table next to a short stdout summary.  All
math lives in the library modules; this file only parses, dispatches and
formats.

Exit codes: 0 all requested residuals within tolerance, 2 config or schema
problem, 3 capability limit exceeded, 4 numeric failure or residual beyond
tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

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


class ConfigError(Exception):
    """Malformed configuration or command line."""


def _number(x, what="number"):
    if isinstance(x, bool):
        raise ConfigError("%s must be a number, got a boolean" % what)
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, list) and len(x) == 2 and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x):
        return complex(x[0], x[1]) if x[1] != 0 else float(x[0])
    raise ConfigError("%s must be a number or [re, im] pair, got %r" % (what, x))


def _vector(x, what="vector"):
    if not isinstance(x, list):
        raise ConfigError("%s must be a list" % what)
    return np.array([_number(v, what) for v in x])


def _matrix(x, what="matrix"):
    if not isinstance(x, list) or not x or not all(isinstance(r, list) for r in x):
        raise ConfigError("%s must be a list of rows" % what)
    rows = [[_number(v, what) for v in r] for r in x]
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError("%s has ragged rows" % what)
    return np.array(rows)


def _constants(cfg):
    if cfg == "pauli":
        return model.pauli_constants(), True
    if not isinstance(cfg, dict) or "alpha" not in cfg or "beta" not in cfg:
        raise ConfigError('constants must be "pauli" or {"alpha": ..., "beta": [...]}')
    alpha = _matrix(cfg["alpha"], "alpha")
    sections = cfg["beta"]
    if not isinstance(sections, list):
        raise ConfigError("beta must be a list of sections")
    beta = np.stack([_matrix(s, "beta section") for s in sections])
    try:
        return model.structure_constants(alpha, beta), False
    except ValueError as e:
        raise ConfigError(str(e))


def _system(cfg, name):
    if not isinstance(cfg, dict):
        raise ConfigError("system %r must be an object" % name)
    for key in ("constants", "E", "M"):
        if key not in cfg:
            raise ConfigError("system %r is missing %r" % (name, key))
    constants, is_pauli = _constants(cfg["constants"])
    energy = _vector(cfg["E"], "E")
    coupling = _matrix(cfg["M"], "M")
    offset = _vector(cfg["N"], "N") if "N" in cfg else None
    try:
        spec = qsde.system_spec(constants, energy, coupling, offset)
    except ValueError as e:
        raise ConfigError("system %r: %s" % (name, e))
    return {"spec": spec, "is_pauli": is_pauli}


class Config:
    def __init__(self, raw, path):
        if not isinstance(raw, dict):
            raise ConfigError("top level of %s must be an object" % path)
        systems = raw.get("systems")
        if not isinstance(systems, dict) or not systems:
            raise ConfigError('config needs a non-empty "systems" object')
        self.systems = {name: _system(cfg, name) for name, cfg in systems.items()}
        self.composites = {}
        for name, cfg in (raw.get("composites") or {}).items():
            if not isinstance(cfg, dict) or "systems" not in cfg or "E12" not in cfg:
                raise ConfigError('composite %r needs "systems" and "E12"' % name)
            pair = cfg["systems"]
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError("composite %r must name two systems" % name)
            for s in pair:
                if s not in self.systems:
                    raise ConfigError("composite %r references unknown system %r" % (name, s))
            e12 = _matrix(cfg["E12"], "E12")
            try:
                cspec = composite_mod.composite_spec(
                    self.systems[pair[0]]["spec"], self.systems[pair[1]]["spec"], e12
                )
            except ValueError as e:
                raise ConfigError("composite %r: %s" % (name, e))
            self.composites[name] = {
                "spec": cspec,
                "pauli_pair": self.systems[pair[0]]["is_pauli"] and self.systems[pair[1]]["is_pauli"],
            }
        self.analysis = raw.get("analysis") or {}
        if not isinstance(self.analysis, dict):
            raise ConfigError('"analysis" must be an object')

    def system(self, name=None):
        name = name or self.analysis.get("system")
        if name is None:
            if len(self.systems) == 1:
                name = next(iter(self.systems))
            else:
                raise ConfigError("several systems defined; set analysis.system")
        if name not in self.systems:
            raise ConfigError("unknown system %r" % name)
        return name, self.systems[name]

    def composite(self, name=None):
        name = name or self.analysis.get("composite")
        if name is None:
            if len(self.composites) == 1:
                name = next(iter(self.composites))
            else:
                raise ConfigError("set analysis.composite to pick a composite")
        if name not in self.composites:
            raise ConfigError("unknown composite %r" % name)
        return name, self.composites[name]


def _load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ConfigError("config %s is not valid JSON: %s" % (path, e))
    return Config(raw, path)


def _fmt(v):
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _write_csv(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    return path


def _grid(args, cfg):
    if args.grid:
        parts = args.grid.split(":")
        if len(parts) != 3:
            raise ConfigError("--grid must be T0:T1:STEPS")
        try:
            t0, t1, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError("--grid must be T0:T1:STEPS with numeric fields")
    else:
        spec = cfg.analysis.get("grid", [0.0, 5.0, 41])
        if not isinstance(spec, list) or len(spec) != 3:
            raise ConfigError("analysis.grid must be [t0, t1, steps]")
        try:
            t0, t1, steps = float(spec[0]), float(spec[1]), int(spec[2])
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("analysis.grid must be [t0, t1, steps] with numeric fields")
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ConfigError("grid times must be finite, got %r:%r" % (t0, t1))
    if steps < 2 or t1 <= t0:
        raise ConfigError("grid needs t1 > t0 and at least 2 steps")
    return np.linspace(t0, t1, steps)


def _eps_list(args, cfg):
    if args.eps:
        try:
            vals = [float(v) for v in args.eps.split(",")]
        except ValueError:
            raise ConfigError("--eps must be a comma separated float list")
    else:
        vals = [float(v) for v in cfg.analysis.get("eps", [0.2, 0.1, 0.05])]
    if not vals or any(v <= 0 for v in vals):
        raise ConfigError("eps values must be positive")
    return vals


def _tol(args, cfg):
    if args.tol is not None:
        return float(args.tol)
    return float(cfg.analysis.get("tol", 1e-8))


def _seed(args, cfg):
    if args.seed is not None:
        return int(args.seed)
    return int(cfg.analysis.get("seed", 0))


def _real_mu(cfg, n):
    mu0 = cfg.analysis.get("mu0")
    if mu0 is None:
        return np.zeros(n)
    vec = _vector(mu0, "mu0")
    if vec.shape != (n,) or np.iscomplexobj(vec):
        raise ConfigError("mu0 must be a real vector of length %d" % n)
    return vec.astype(float)


def cmd_validate(cfg, args, out_dir):
    tol = args.tol if args.tol is not None else 1e-10
    rows = []
    ok = True
    for name, entry in cfg.systems.items():
        rep = model.validate(entry["spec"].constants, tol=tol)
        rows.append(
            (name, int(rep.passed), len(rep.violations), int(rep.alpha_psd), int(rep.independence_assumed))
        )
        ok = ok and rep.passed
        print(
            "system %s: %s (%d violations, alpha PSD: %s)"
            % (name, "PASS" if rep.passed else "FAIL", len(rep.violations), "yes" if rep.alpha_psd else "no")
        )
    _write_csv(out_dir, "validate.csv", ["system", "passed", "violations", "alpha_psd", "independence_assumed"], rows)
    return 0 if ok else 4


def cmd_coeffs(cfg, args, out_dir):
    name, entry = cfg.system()
    coeffs = qsde.build_coefficients(entry["spec"])
    rows = []
    for label, mat in (("a", coeffs.a), ("a0", coeffs.a0), ("atilde", coeffs.atilde)):
        for i in range(coeffs.n):
            for j in range(coeffs.n):
                rows.append((label, i, j, float(np.real(mat[i, j])), float(np.imag(mat[i, j]))))
    for i in range(coeffs.n):
        rows.append(("b", i, 0, float(np.real(coeffs.b[i])), float(np.imag(coeffs.b[i]))))
    path = _write_csv(out_dir, "coeffs.csv", ["block", "row", "col", "re", "im"], rows)
    print("system %s: drift abscissa %.6g, wrote %s" % (name, qsde.spectral_abscissa(coeffs.a), path))
    return 0


def cmd_mean_flow(cfg, args, out_dir):
    name, entry = cfg.system()
    coeffs = qsde.build_coefficients(entry["spec"])
    times = _grid(args, cfg)
    mu0 = _real_mu(cfg, coeffs.n)
    flow = qsde.mean_flow(coeffs, mu0, times)
    header = ["t"] + ["mu_%d" % (j + 1) for j in range(coeffs.n)]
    rows = [(float(t),) + tuple(float(np.real(v)) for v in flow[i]) for i, t in enumerate(times)]
    path = _write_csv(out_dir, "mean_flow.csv", header, rows)
    print("system %s: %d grid points, wrote %s" % (name, len(times), path))
    return 0


def cmd_steady(cfg, args, out_dir):
    name, entry = cfg.system()
    tol = _tol(args, cfg)
    coeffs = qsde.build_coefficients(entry["spec"])
    mu = qsde.steady_mean(coeffs)
    resid = float(np.linalg.norm(coeffs.a @ mu + coeffs.b))
    rows = [(j + 1, float(mu[j])) for j in range(coeffs.n)]
    _write_csv(out_dir, "steady.csv", ["component", "value"], rows)
    print("system %s: steady mean %s, residual %.3g" % (name, np.array2string(mu, precision=8), resid))
    return 0 if resid <= tol else 4


def cmd_qcf(cfg, args, out_dir):
    name, entry = cfg.system()
    coeffs = qsde.build_coefficients(entry["spec"])
    constants = entry["spec"].constants
    mu = qsde.steady_mean(coeffs)
    us = cfg.analysis.get("qcf_u")
    if us is None:
        vectors = [np.eye(coeffs.n)[j] for j in range(coeffs.n)]
    else:
        vectors = [_vector(u, "qcf_u entry").astype(float) for u in us]
    rows = []
    for u in vectors:
        val = qsde.qcf(constants, mu, u)
        rows.append(tuple(float(x) for x in u) + (val.real, val.imag))
    header = ["u_%d" % (j + 1) for j in range(coeffs.n)] + ["re", "im"]
    path = _write_csv(out_dir, "qcf.csv", header, rows)
    print("system %s: %d characteristic values, wrote %s" % (name, len(rows), path))
    return 0


def cmd_spectrum(cfg, args, out_dir):
    name, entry = cfg.system()
    tol = _tol(args, cfg)
    times = _grid(args, cfg)
    coeffs = qsde.build_coefficients(entry["spec"])
    op = second_moment.lambda_operator(coeffs)
    sa = qsde.spectral_abscissa(coeffs.a)
    herm = second_moment.lambda_hermitian_abscissa(op)
    rows = []
    for i, ev in enumerate(np.linalg.eigvals(coeffs.a)):
        rows.append(("drift", i, float(ev.real), float(ev.imag)))
    for i, ev in enumerate(np.linalg.eigvals(second_moment.lambda_matrix(op))):
        rows.append(("second-moment", i, float(ev.real), float(ev.imag)))
    _write_csv(out_dir, "spectrum.csv", ["kind", "index", "re", "im"], rows)

    flow = second_moment.pi_trace_flow(op, times)
    frows = []
    worst = 0.0
    props = qsde.propagate(coeffs.a, np.eye(coeffs.n), times)
    for t, tr, prop in zip(times, flow, props):
        lower = float(np.linalg.norm(prop) ** 2)
        worst = max(worst, lower - tr)
        frows.append((float(t), float(tr), lower))
    _write_csv(out_dir, "spectrum_flow.csv", ["t", "trace", "squared_norm_lower"], frows)
    print(
        "system %s: abscissa %.6g, restricted abscissa %.6g, sandwich slack %.3g"
        % (name, sa, herm, worst)
    )
    ok = worst <= tol and 2 * sa <= herm + tol
    return 0 if ok else 4


def cmd_modes(cfg, args, out_dir):
    name, entry = cfg.system()
    coeffs = qsde.build_coefficients(entry["spec"])
    md = modes_mod.eigenmodes(coeffs.a0, entry["spec"].constants.alpha)
    period = modes_mod.oscillation_period(md)
    rows = []
    for k in range(len(md.omegas)):
        for c in range(len(md.omegas)):
            rows.append(
                (k, c, float(md.omegas[k]), float(md.vectors[c, k].real), float(md.vectors[c, k].imag))
            )
    path = _write_csv(out_dir, "modes.csv", ["mode", "component", "omega", "vec_re", "vec_im"], rows)
    print(
        "system %s: frequencies %s, period %s, wrote %s"
        % (name, np.array2string(md.omegas, precision=8), "none" if period is None else "%.8g" % period, path)
    )
    return 0


def cmd_decoherence(cfg, args, out_dir):
    name, entry = cfg.system()
    coeffs = qsde.build_coefficients(entry["spec"])
    mu = qsde.steady_mean(coeffs)
    ccr = model.dot_product(entry["spec"].constants.theta, mu)
    tau = deco_mod.tau_star(coeffs.a, ccr)
    budget = int(cfg.analysis.get("budget", 64))
    search = deco_mod.optimize_tau_bound(coeffs.a, ccr, budget=budget, seed=_seed(args, cfg))
    rows = [(tau, search.bound, search.lam, search.k_label, search.seed, search.evaluations)]
    _write_csv(
        out_dir,
        "decoherence.csv",
        ["tau_star", "best_bound", "lam", "k_label", "seed", "evaluations"],
        rows,
    )
    print(
        "system %s: tau* = %.8g, certified bound %.8g (lam %.6g, %s, seed %d)"
        % (name, tau, search.bound, search.lam, search.k_label, search.seed)
    )
    return 0 if tau <= search.bound else 4


def cmd_weak(cfg, args, out_dir):
    name, entry = cfg.system()
    spec = entry["spec"]
    shape = weak_mod.coupling_shape(spec.constants, spec.energy, spec.coupling, spec.offset)
    a0, _, _ = weak_mod.shape_drift(shape)
    md = modes_mod.eigenmodes(a0, spec.constants.alpha)
    result = weak_mod.stability_and_thresholds(shape, md)
    eps_list = _eps_list(args, cfg)
    table = weak_mod.eigenvalue_asymptotics_check(shape, md, eps_list)

    rows = [
        ("nu_%d" % (k + 1), float(result.nu[k].real), float(result.nu[k].imag))
        for k in range(len(result.nu))
    ]
    rows.append(("stable_for_small_eps", float(result.stable_for_small_eps), 0.0))
    rows.append(("abscissa_coefficient", result.abscissa_coefficient, 0.0))
    if result.tau_hat_coefficient is not None:
        rows.append(("tau_hat_coefficient", result.tau_hat_coefficient, 0.0))
    if result.eps_hat is not None:
        rows.append(("eps_hat", result.eps_hat, 0.0))
    if result.eps_tilde is not None:
        rows.append(("eps_tilde", result.eps_tilde, 0.0))
    try:
        limit = weak_mod.invariant_mean_limit(shape, md)
        for j in range(len(limit)):
            rows.append(("invariant_limit_%d" % (j + 1), float(limit[j]), 0.0))
    except ValueError as e:
        print("invariant-mean limit not applicable: %s" % e)
    _write_csv(out_dir, "weak.csv", ["quantity", "value", "imag"], rows)

    arows = []
    for row in table:
        for k in range(len(row.residuals)):
            arows.append(
                (
                    row.eps,
                    k,
                    float(row.matched[k].real),
                    float(row.matched[k].imag),
                    float(row.residuals[k]),
                    int(row.ambiguous),
                )
            )
    path = _write_csv(
        out_dir,
        "weak_asymptotics.csv",
        ["eps", "mode", "eig_re", "eig_im", "scaled_residual", "ambiguous"],
        arows,
    )
    print(
        "system %s: max Re nu = %.8g, stable for small eps: %s, wrote %s"
        % (name, result.abscissa_coefficient, result.stable_for_small_eps, path)
    )
    return 0


def cmd_composite(cfg, args, out_dir):
    name, entry = cfg.composite()
    tol = _tol(args, cfg)
    cspec = entry["spec"]
    block = composite_mod.composite_coefficients(cspec)
    generic = qsde.build_coefficients(composite_mod.augmented_system(cspec))
    order = composite_mod.paired_channel_order(cspec.sys1.m, cspec.sys2.m)

    rng = np.random.default_rng(_seed(args, cfg))
    x = rng.uniform(-1.0, 1.0, block.n)
    disp_block = composite_mod.composite_dispersion(cspec, x)[:, order]
    disp_generic = qsde.dispersion(generic, x)

    checks = [
        ("drift", float(np.max(np.abs(block.a - generic.a)))),
        ("drift_isolated", float(np.max(np.abs(block.a0 - generic.a0)))),
        ("affine", float(np.max(np.abs(block.b - generic.b)))),
        ("dispersion", float(np.max(np.abs(disp_block - disp_generic)))),
    ]
    rows = [(label, resid, tol, int(resid <= tol)) for label, resid in checks]
    path = _write_csv(out_dir, "composite.csv", ["check", "residual", "tol", "pass"], rows)
    worst = max(r for _, r in checks)
    print("composite %s: worst path residual %.3g, wrote %s" % (name, worst, path))
    return 0 if worst <= tol else 4


def cmd_oracle(cfg, args, out_dir):
    tol = _tol(args, cfg)
    comp_name = cfg.analysis.get("composite") if args.composite else None
    if args.composite:
        name, entry = cfg.composite(comp_name)
        if not entry["pauli_pair"]:
            raise ConfigError("oracle only has representations for pauli-based systems")
        rep = oracle_mod.tensor_representation(
            oracle_mod.pauli_representation(), oracle_mod.pauli_representation()
        )
        spec = composite_mod.augmented_system(entry["spec"])
        coeffs = composite_mod.composite_coefficients(entry["spec"])
    else:
        name, entry = cfg.system()
        if not entry["is_pauli"]:
            raise ConfigError("oracle only has representations for the builtin pauli constants")
        rep = oracle_mod.pauli_representation()
        spec = entry["spec"]
        coeffs = qsde.build_coefficients(spec)

    checks = [("representation", oracle_mod.representation_check(rep), 1e-12)]
    checks.append(("generator_identity", oracle_mod.generator_identity_check(rep, spec, coeffs), 1e-10))

    sa = qsde.spectral_abscissa(coeffs.a)
    if sa < -1e-10:
        mu = qsde.steady_mean(coeffs)
        rho = oracle_mod.stationary_state(rep, spec)
        resid = float(np.max(np.abs(oracle_mod.moments(rep, rho).real - mu)))
        checks.append(("steady_mean", resid, tol))

        rho0 = np.eye(rep.dim) / rep.dim
        s = 1.0
        mu_s = qsde.mean_flow(coeffs, oracle_mod.moments(rep, rho0).real, [s])[0]
        for tau in (0.5, 1.0, 2.0):
            lhs = oracle_mod.two_point_commutator(rep, spec, rho0, s, s + tau)
            rhs = qsde.mean_two_point_ccr(coeffs, spec.constants, mu_s, tau)
            checks.append(("two_point_tau_%g" % tau, float(np.max(np.abs(lhs - rhs))), tol))

    rows = [(label, resid, bar, int(resid <= bar)) for label, resid, bar in checks]
    path = _write_csv(out_dir, "oracle.csv", ["check", "residual", "tol", "pass"], rows)
    worst_fail = [label for label, resid, bar in checks if resid > bar]
    print("oracle vs %s: %s, wrote %s" % (name, "all pass" if not worst_fail else "FAIL %s" % worst_fail, path))
    return 0 if not worst_fail else 4


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


def _parser():
    p = argparse.ArgumentParser(prog="quasilin", description=__doc__)
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", default=".", help="directory for CSV output")
    p.add_argument("--seed", type=int, default=None, help="override analysis.seed")
    p.add_argument("--tol", type=float, default=None, help="override analysis.tol")
    p.add_argument("--eps", default=None, help="comma separated strengths for weak analysis")
    p.add_argument("--grid", default=None, help="time grid T0:T1:STEPS")
    p.add_argument(
        "--composite",
        action="store_true",
        help="run the oracle against the configured composite instead of a single system",
    )
    return p


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    cfg = _load_config(args.config)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    return COMMANDS[args.command](cfg, args, out_dir)


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
