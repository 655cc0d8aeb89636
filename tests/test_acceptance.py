"""End-to-end acceptance checks, one test per release criterion.

Each test evaluates its full criterion first and then records a single
PASS/FAIL line (echoed in the terminal summary) before asserting.
"""

import numpy as np
from scipy.linalg import expm

from quasilin import (
    composite,
    decoherence,
    model,
    modes,
    oracle,
    qsde,
    second_moment,
    weak,
)
from conftest import ACCEPTANCE_LINES, random_pauli_spec

PAULI = model.pauli_constants()
M_REF = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _record(num, label, ok, detail):
    line = "criterion %2d %s - %s: %s" % (num, "PASS" if ok else "FAIL", label, detail)
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _reference():
    spec = qsde.system_spec(PAULI, [0.0, 0.0, 1.0], M_REF, [0.0, 0.0])
    return spec, qsde.build_coefficients(spec)


def _reference_modes(coeffs):
    return modes.eigenmodes(coeffs.a0, PAULI.alpha)


def _steady_ccr(coeffs):
    mu = qsde.steady_mean(coeffs)
    return 2j * np.tensordot(mu, coeffs.theta, axes=([0], [0]))


def _random_composite(rng, m1, m2):
    s1 = random_pauli_spec(rng, m=m1)
    s2 = random_pauli_spec(rng, m=m2)
    return composite.composite_spec(s1, s2, rng.uniform(-1.0, 1.0, (3, 3)))


def test_criterion_01_generator_identity():
    rep = oracle.pauli_representation()
    rng = np.random.default_rng(1)
    worst = 0.0
    for i in range(200):
        spec = random_pauli_spec(rng, m=2 if i % 2 else 4)
        worst = max(worst, oracle.generator_identity_check(rep, spec, qsde.build_coefficients(spec)))
    trep = oracle.tensor_representation(rep, rep)
    rng = np.random.default_rng(11)
    for i in range(25):
        cspec = _random_composite(rng, 2 if i % 2 else 4, 2)
        co = composite.composite_coefficients(cspec)
        aug = composite.augmented_system(cspec)
        worst = max(worst, oracle.generator_identity_check(trep, aug, co))
    _record(
        1,
        "generator identity on 200 single + 25 composite specs",
        worst <= 1e-10,
        "worst residual %.3e (tol 1e-10)" % worst,
    )


def test_criterion_02_reference_qubit_values():
    spec, coeffs = _reference()
    checks = []

    a_ref = np.array([[-2.0, -2.0, 0.0], [2.0, -2.0, 0.0], [0.0, 0.0, -4.0]])
    checks.append(("A", np.abs(coeffs.a - a_ref).max() <= 1e-12))
    checks.append(("b", np.abs(coeffs.b - np.array([0.0, 0.0, 4.0])).max() <= 1e-12))

    mu_star = qsde.steady_mean(coeffs)
    checks.append(("mu*", np.abs(mu_star - [0.0, 0.0, 1.0]).max() <= 1e-12))
    checks.append(("sigma(A)", abs(qsde.spectral_abscissa(coeffs.a) - (-2.0)) <= 1e-12))

    md = _reference_modes(coeffs)
    nu = weak.nu_values(coeffs, md)
    nu_sorted = np.sort_complex(nu)
    checks.append(("nu", np.abs(nu_sorted - np.array([-4.0, -2.0, -2.0])).max() <= 1e-12))

    res = weak.stability_and_thresholds(coeffs, md)
    checks.append(("tau_hat", abs(res.tau_hat_coefficient - 0.25) <= 1e-12))
    eps_ref = np.sqrt(1.0 / (2.0 * np.pi))
    checks.append(("eps_hat", abs(res.eps_hat - eps_ref) <= 1e-9))
    checks.append(("eps_tilde", abs(res.eps_tilde - eps_ref) <= 1e-9))

    limit = weak.invariant_mean_limit(coeffs, md)
    checks.append(("limit", np.abs(limit - [0.0, 0.0, 1.0]).max() <= 1e-12))

    # oracle reproduction: stationary state moments and exact eigensolve
    rep = oracle.pauli_representation()
    rho = oracle.stationary_state(rep, spec)
    checks.append(("oracle mu*", np.abs(oracle.moments(rep, rho) - mu_star).max() <= 1e-10))
    checks.append(("oracle A,b", oracle.generator_identity_check(rep, spec, coeffs) <= 1e-12))
    ev = np.linalg.eigvals(coeffs.a)
    checks.append(("eigensolve sigma", abs(ev.real.max() - (-2.0)) <= 1e-10))
    # A = A0 + sA with commuting blocks, so lambda = i omega + nu exactly
    # and the matched eigensolve residual vanishes already at strength 1
    row = weak.eigenvalue_asymptotics_check(coeffs, md, [1.0])[0]
    checks.append(("eigensolve nu", max(row.residuals) <= 1e-10))

    failed = [name for name, ok in checks if not ok]
    _record(
        2,
        "reference qubit frozen values, oracle reproduced",
        not failed,
        "all %d value checks hold" % len(checks) if not failed else "failed: %s" % failed,
    )


def test_criterion_03_two_point_ccr_decay():
    spec, coeffs = _reference()
    rep = oracle.pauli_representation()
    rho0 = np.eye(2, dtype=complex) / 2.0

    worst = 0.0
    specs = [spec]
    rng = np.random.default_rng(3)
    tries = 0
    while len(specs) < 21 and tries < 400:
        tries += 1
        cand = random_pauli_spec(rng, m=2)
        if qsde.spectral_abscissa(qsde.build_coefficients(cand).a) < -1e-3:
            specs.append(cand)
    for sp in specs:
        co = qsde.build_coefficients(sp)
        mu_s = qsde.mean_flow(co, np.zeros(3), [1.0])[0]
        for tau in (0.5, 1.0, 2.0):
            table = oracle.two_point_commutator(rep, sp, rho0, 1.0, 1.0 + tau)
            pred = qsde.mean_two_point_ccr(co, sp.constants, mu_s, tau)
            worst = max(worst, float(np.abs(table - pred).max()))

    mu_s = qsde.mean_flow(coeffs, np.zeros(3), [1.0])[0]
    taus = np.linspace(2.0, 6.0, 21)
    norms = [np.linalg.norm(qsde.mean_two_point_ccr(coeffs, PAULI, mu_s, t)) for t in taus]
    slope = float(np.polyfit(taus, np.log(norms), 1)[0])

    ok = worst <= 1e-8 and abs(slope - (-2.0)) <= 0.05 and len(specs) == 21
    _record(
        3,
        "two-point CCR vs oracle and log-norm slope",
        ok,
        "worst entry diff %.3e (tol 1e-8), slope %.4f (target -2 within 0.05)" % (worst, slope),
    )


def test_criterion_04_second_moment_sandwich():
    _, coeffs = _reference()
    op = second_moment.lambda_operator(coeffs)
    times = np.linspace(0.0, 4.0, 50)
    tr = second_moment.pi_trace_flow(op, times)
    lower = np.array([np.linalg.norm(expm(t * coeffs.a), "fro") ** 2 for t in times])
    slack = float((tr - lower).min())

    ha = second_moment.lambda_hermitian_abscissa(op)
    sa = qsde.spectral_abscissa(coeffs.a)
    ok = slack >= -1e-9 and 2.0 * sa <= ha + 1e-9 and ha < 0.0
    _record(
        4,
        "second-moment trace sandwich and restricted abscissa",
        ok,
        "min slack %.3e (>= -1e-9), 2 sigma(A) = %.6f <= %.6f = restricted abscissa < 0" % (slack, 2 * sa, ha),
    )


def test_criterion_05_isolated_spectrum():
    rng = np.random.default_rng(5)
    worst_re = 0.0
    worst_omega = 0.0
    for _ in range(100):
        e = rng.uniform(-1.0, 1.0, 3)
        spec = qsde.system_spec(PAULI, e, np.zeros((2, 3)), np.zeros(2))
        a0 = qsde.build_coefficients(spec).a0
        worst_re = max(worst_re, float(np.abs(np.linalg.eigvals(a0).real).max()))
        md = modes.eigenmodes(a0, PAULI.alpha)
        worst_omega = max(worst_omega, abs(md.omegas[0] - 2.0 * np.linalg.norm(e)))
    ok = worst_re <= 1e-10 and worst_omega <= 1e-10
    _record(
        5,
        "isolated spectrum on 100 random energies",
        ok,
        "max |Re eig(A0)| %.3e, max |omega_1 - 2|E|| %.3e (tol 1e-10)" % (worst_re, worst_omega),
    )


def test_criterion_06_perturbation_asymptotics():
    spec, coeffs = _reference()
    md = _reference_modes(coeffs)
    ref_rows = weak.eigenvalue_asymptotics_check(coeffs, md, [0.2, 0.1, 0.05])
    ref_worst = max(max(r.residuals) for r in ref_rows)

    rng = np.random.default_rng(6)
    shapes = 0
    monotone = 0
    tries = 0
    while shapes < 20 and tries < 400:
        tries += 1
        sp = random_pauli_spec(rng, m=2 if tries % 2 else 4)
        sh = qsde.build_coefficients(sp)
        try:
            md_r = modes.eigenmodes(sh.a0, PAULI.alpha)
            rows = weak.eigenvalue_asymptotics_check(sh, md_r, [0.2, 0.1, 0.05])
        except ValueError:
            continue
        shapes += 1
        worst = [max(r.residuals) for r in rows]
        if worst[0] > worst[1] > worst[2]:
            monotone += 1

    ok = shapes == 20 and monotone == 20 and ref_worst <= 1e-10
    _record(
        6,
        "eigenvalue asymptotics residual trend",
        ok,
        "reference residual %.3e (tol 1e-10), %d/%d shapes monotone over eps {0.2, 0.1, 0.05}" % (ref_worst, monotone, shapes),
    )


def test_criterion_07_decoherence_bound():
    rng = np.random.default_rng(7)
    found = 0
    tries = 0
    bound_ok = True
    contraction_ok = True
    worst_gap = np.inf
    while found < 30 and tries < 400:
        tries += 1
        spec = random_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        if qsde.spectral_abscissa(coeffs.a) >= -1e-3:
            continue
        z0 = _steady_ccr(coeffs)
        if np.linalg.norm(z0) < 1e-12:
            continue
        found += 1
        ts = decoherence.tau_star(coeffs.a, z0)
        search = decoherence.optimize_tau_bound(coeffs.a, z0, budget=64, seed=0)
        worst_gap = min(worst_gap, search.bound - ts)
        if ts > search.bound + 1e-12:
            bound_ok = False
        g = decoherence.lyapunov_G(coeffs.a, search.lam, search.k_matrix)
        for tau in (0.1, 1.0, 5.0):
            cn = decoherence.contraction_norm(coeffs.a, g, tau)
            if cn > np.exp(-search.lam * tau) + 1e-9:
                contraction_ok = False
    ok = found == 30 and bound_ok and contraction_ok
    _record(
        7,
        "tau* within certified bound on 30 Hurwitz systems",
        ok,
        "min(bound - tau*) %.3e, contraction envelope at tau {0.1, 1, 5}: %s" % (worst_gap, "holds" if contraction_ok else "violated"),
    )


def test_criterion_08_composite_path_equivalence():
    rng = np.random.default_rng(8)
    worst = 0.0
    for i in range(10):
        spec = _random_composite(rng, 2 if i % 2 else 4, 2)
        blocks = composite.composite_coefficients(spec)
        generic = qsde.build_coefficients(composite.augmented_system(spec))
        worst = max(worst, float(np.abs(blocks.a - generic.a).max()))
        worst = max(worst, float(np.abs(blocks.a0 - generic.a0).max()))
        worst = max(worst, float(np.abs(blocks.b - generic.b).max()))
        x = rng.uniform(-1.0, 1.0, 15)
        disp = composite.composite_dispersion(spec, x)
        worst = max(worst, float(np.abs(disp - qsde.dispersion(generic, x)).max()))
    report = model.validate(composite.augment_constants(PAULI, PAULI))
    ok = worst <= 1e-10 and report.passed
    _record(
        8,
        "composite block assembly vs generic path on 10 specs",
        ok,
        "worst entry diff %.3e (tol 1e-10), augmented constants valid: %s" % (worst, report.passed),
    )


def test_criterion_09_invariant_mean_limit():
    # composite draws: the zero frequency always has multiplicity three, so
    # the limit refuses on every one; the qualifying pool is the odd
    # single-system family, sampled at small coupling shape per the frozen
    # protocol (the limit itself is invariant under shape rescaling)
    rng_c = np.random.default_rng(91)
    refusals = 0
    for i in range(5):
        cspec = _random_composite(rng_c, 2, 2)
        cco = composite.composite_coefficients(cspec)
        aug = composite.augment_constants(PAULI, PAULI)
        md = modes.eigenmodes(cco.a0, aug.alpha)
        zero_count = int(np.sum(np.abs(md.omegas) <= md.zero_tol))
        try:
            weak.invariant_mean_limit(cco, md)
        except ValueError:
            if zero_count == 3:
                refusals += 1

    rng = np.random.default_rng(20260819)
    qualifying = 0
    tries = 0
    worst = 0.0
    while qualifying < 10 and tries < 200:
        tries += 1
        e = rng.uniform(-1.0, 1.0, 3)
        m = 2 if tries % 2 else 4
        sm = 0.02 * rng.uniform(-1.0, 1.0, (m, 3))
        sn = 0.02 * rng.uniform(-1.0, 1.0, m)
        shape = qsde.system_spec(PAULI, e, sm, sn)
        try:
            unit = qsde.build_coefficients(shape)
            md = modes.eigenmodes(unit.a0, PAULI.alpha)
            res = weak.stability_and_thresholds(unit, md)
            if not res.stable_for_small_eps:
                continue
            limit = weak.invariant_mean_limit(unit, md)
            mu = qsde.steady_mean(weak.scaled_coefficients(shape, 0.01))
        except ValueError:
            continue
        qualifying += 1
        worst = max(worst, float(np.linalg.norm(mu - limit)))

    ok = refusals == 5 and qualifying == 10 and worst <= 1e-6
    _record(
        9,
        "invariant-mean limit at eps = 0.01",
        ok,
        "10 qualifying shapes, worst ||steady - limit|| %.3e (tol 1e-6); composite pool: 5/5 multiplicity-three refusals" % worst,
    )


def test_criterion_10_closed_form_rate_discrepancy():
    spec, coeffs = _reference()
    md = _reference_modes(coeffs)
    nu = weak.nu_values(coeffs, md)
    normative = float(nu[0].real)

    # exact eigensolve at finite strength: the reference blocks commute, so
    # Re lambda_1(eps)/eps^2 is the pair rate with no truncation error
    eps = 0.5
    ev = np.linalg.eigvals(weak.scaled_coefficients(spec, eps).a)
    rotating = ev[np.argmax(ev.imag)]
    eigensolve = float(rotating.real / eps**2)

    gamma = weak.pauli_gamma(M_REF, energy=spec.energy)
    ok = (
        abs(normative - eigensolve) <= 1e-10
        and abs(gamma.rotating_rate - normative) <= 1e-10
        and abs(gamma.rotating_rate_tabulated - 2.0 * gamma.rotating_rate) <= 1e-12
        and abs(gamma.static_rate - float(nu[1].real)) <= 1e-10
    )
    _record(
        10,
        "closed-form pair rate: normative vs eigensolve, doubled form diagnostic",
        ok,
        "normative %.6f == eigensolve %.6f (tol 1e-10); doubled closed form %.6f kept as diagnostic" % (normative, eigensolve, gamma.rotating_rate_tabulated),
    )
