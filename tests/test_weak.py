import os
import re
from dataclasses import replace

import numpy as np
import pytest

from quasilin import cli, model, modes, qsde, weak
from conftest import random_stable_pauli_spec

REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "pauli.json")
M_REF = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


@pytest.fixture()
def reference(pauli):
    spec = qsde.system_spec(pauli, [0.0, 0.0, 1.0], M_REF, [0.0, 0.0])
    a0 = qsde.build_coefficients(spec.at_strength(0.0)).a0
    return spec, modes.eigenmodes(a0, pauli.alpha)


def test_scaling_homogeneity(reference):
    spec, _ = reference
    ref = weak.scaled_coefficients(spec, 1.0)
    for eps in (0.1, 0.3, 0.5):
        sc = weak.scaled_coefficients(spec, eps)
        np.testing.assert_allclose(sc.atilde, eps**2 * ref.atilde, atol=1e-12)
        np.testing.assert_allclose(sc.b, eps**2 * ref.b, atol=1e-12)
    half = weak.scaled_coefficients(spec, 0.5)
    np.testing.assert_allclose(half.atilde, -0.5 * np.diag([1.0, 1.0, 2.0]), atol=1e-14)
    np.testing.assert_allclose(half.b, [0.0, 0.0, 1.0], atol=1e-14)


def test_reference_nu_values(reference):
    spec, md = reference
    nu = weak.nu_values(qsde.build_coefficients(spec), md)
    np.testing.assert_allclose(md.omegas, [2.0, 0.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(nu, [-2.0, -4.0, -2.0], atol=1e-12)


def test_nu_conjugation_pairs(pauli):
    rng = np.random.default_rng(21)
    for _ in range(5):
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        try:
            md = modes.eigenmodes(coeffs.a0, pauli.alpha)
            nu = weak.nu_values(coeffs, md)
        except ValueError:
            continue
        assert abs(nu[0] - np.conj(nu[2])) < 1e-10
        assert abs(nu[1].imag) < 1e-10


def test_real_part_sees_only_symmetric_drift(pauli, reference):
    spec, md = reference
    coeffs = qsde.build_coefficients(spec)
    rng = np.random.default_rng(33)
    sa = rng.normal(size=(3, 3))
    nu_full = weak.nu_values(replace(coeffs, atilde=sa), md)
    nu_sym = weak.nu_values(replace(coeffs, atilde=(sa + sa.T) / 2.0), md)
    np.testing.assert_allclose(nu_full.real, nu_sym.real, atol=1e-12)


def test_distinctness_refusal_names_the_pair(pauli):
    coeffs = qsde.build_coefficients(qsde.system_spec(pauli, np.zeros(3), M_REF, [0.0, 0.0]))
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    with pytest.raises(ValueError, match="distinct"):
        weak.nu_values(coeffs, md)


def test_pair_gaps_match_loop_reference():
    # the vectorised scan keeps the loop's values and its lexicographic pair order
    rng = np.random.default_rng(40)
    for n in (1, 2, 5):
        x = rng.choice([-1.0, 0.0, 2.0], size=n) + 1j * rng.choice([0.0, 1.0], size=n)
        gaps, j, k = weak._pair_gaps(x)
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        assert list(zip(j, k)) == pairs
        np.testing.assert_array_equal(gaps, [abs(x[a] - x[b]) for a, b in pairs])
    omegas = np.array([3.0, 1.0, 2.0, 1.0, 3.0])
    with pytest.raises(ValueError, match=r"^eigenfrequencies 0 and 4 are not distinct \(3 vs 3\)$"):
        weak._check_distinct(omegas)


def test_frequencies_closer_than_the_gap_bound_are_refused():
    # the gap bound is 1e-9: frequencies 1e-10 apart are refused, 1e-8 apart are not
    with pytest.raises(ValueError, match=r"^eigenfrequencies 1 and 2 are not distinct"):
        weak._check_distinct(np.array([0.0, 1.0, 1.0 + 1e-10]))
    weak._check_distinct(np.array([0.0, 1.0, 1.0 + 1e-8]))


def test_limit_rate_floor_boundary(reference):
    # the floor on |nu| at the zero mode is 1e-13: the reference coupling
    # scaled to a zero-mode rate of -1e-9 keeps its limit, one of -1e-14 is refused
    spec, md = reference
    unit = qsde.build_coefficients(spec)
    k0 = int(np.flatnonzero(md.omegas == 0)[0])
    assert weak.nu_values(unit, md)[k0] == -4.0
    for rate, refused in ((-1e-9, False), (-1e-14, True)):
        scale = rate / -4.0
        coeffs = replace(unit, atilde=scale * unit.atilde, b=scale * unit.b)
        assert weak.nu_values(coeffs, md)[k0] == rate
        if refused:
            with pytest.raises(ValueError, match="^zero-mode rate vanishes"):
                weak.invariant_mean_limit(coeffs, md)
        else:
            np.testing.assert_allclose(weak.invariant_mean_limit(coeffs, md), [0.0, 0.0, 1.0], atol=1e-12)


def test_asymptotics_exact_on_reference(reference):
    spec, md = reference
    rows = weak.eigenvalue_asymptotics_check(qsde.build_coefficients(spec), md, [0.2, 0.1, 0.05])
    for row in rows:
        assert not row.ambiguous
        assert max(row.residuals) < 1e-10


def test_asymptotics_residual_decreases(pauli):
    rng = np.random.default_rng(6)
    spec = random_stable_pauli_spec(rng, m=2)
    coeffs = qsde.build_coefficients(spec)
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    worst = [max(r.residuals) for r in weak.eigenvalue_asymptotics_check(coeffs, md, [0.2, 0.1, 0.05])]
    assert worst[0] > worst[1] > worst[2]


def set_scan_match(eigs, preds):
    """Reference greedy matching: repeatedly the closest free (prediction,
    eigenvalue) pair by a min over the remaining pairs."""
    n = len(preds)
    dist = np.abs(eigs[None, :] - preds[:, None])
    matched = np.zeros(n, dtype=complex)
    free_pred = set(range(n))
    free_eig = set(range(n))
    for _ in range(n):
        best = min(
            ((k, i) for k in free_pred for i in free_eig),
            key=lambda ki: dist[ki[0], ki[1]],
        )
        matched[best[0]] = eigs[best[1]]
        free_pred.remove(best[0])
        free_eig.remove(best[1])
    return matched


def matched_for_spectrum(monkeypatch, eigs, omegas, nu):
    """The `matched` row of eigenvalue_asymptotics_check at eps = 1 when the
    drift spectrum is `eigs` and the predictions are i omegas + nu."""
    n = len(omegas)
    eye = np.eye(n)
    md = modes.EigenModes(omegas=omegas, vectors=eye, sigma=eye, sigma_inv=eye)
    coeffs = qsde.QsdeCoefficients(a=np.diag(nu), a0=np.zeros((n, n)), atilde=np.diag(nu), b=np.zeros(n))
    monkeypatch.setattr(np.linalg, "eigvals", lambda _: eigs)
    return weak.eigenvalue_asymptotics_check(coeffs, md, [1.0])[0].matched


def test_sorted_matching_equals_set_scan_on_random_spectra(monkeypatch):
    rng = np.random.default_rng(33)
    for n in range(1, 13):
        omegas = np.sort(rng.uniform(-3.0, 3.0, n))[::-1]
        nu = rng.normal(size=n) + 1j * rng.normal(size=n)
        eigs = 1j * omegas + nu + 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        eigs = eigs[rng.permutation(n)]
        got = matched_for_spectrum(monkeypatch, eigs, omegas, nu)
        np.testing.assert_array_equal(got, set_scan_match(eigs, 1j * omegas + nu))


def test_sorted_matching_equals_set_scan_with_exact_ties(monkeypatch):
    # integer lattice points: many distances tie exactly (|1 + 2i| = |2 + i|,
    # repeated eigenvalues); ties go in (prediction, eigenvalue) order
    rng = np.random.default_rng(34)
    ties = 0
    for n in range(1, 13):
        for _ in range(5):
            omegas = np.sort(rng.choice(np.arange(-6.0, 7.0), n, replace=False))[::-1]
            nu = rng.integers(-2, 3, n).astype(float)
            eigs = rng.integers(-3, 4, n) + 1j * rng.integers(-6, 7, n)
            preds = 1j * omegas + nu
            dist = np.abs(eigs[None, :] - preds[:, None])
            ties += len(np.unique(dist)) < dist.size
            got = matched_for_spectrum(monkeypatch, eigs, omegas, nu)
            np.testing.assert_array_equal(got, set_scan_match(eigs, preds))
    assert ties >= 40


def sqrt_alpha_invariant_limit(coeffs, md):
    """Reference limit -(1/nu_k0) sqrt(alpha) v v^T alpha^{-1/2} sb, with the
    square roots rebuilt from Sigma V^* and V Sigma^{-1}."""
    k0 = int(np.flatnonzero(md.omegas == 0)[0])
    nu0 = weak.nu_values(coeffs, md)[k0].real
    v0 = md.vectors[:, k0].real
    root = (md.sigma @ md.vectors.conj().T).real
    iroot = (md.vectors @ md.sigma_inv).real
    return -(1.0 / nu0) * root @ np.outer(v0, v0) @ iroot @ coeffs.b


def test_invariant_limit_matches_sqrt_alpha_rebuild(pauli):
    # the qualifying shapes of acceptance criterion 9
    rng = np.random.default_rng(20260819)
    compared = 0
    for tries in range(1, 200):
        e = rng.uniform(-1.0, 1.0, 3)
        m = 2 if tries % 2 else 4
        sm = 0.02 * rng.uniform(-1.0, 1.0, (m, 3))
        sn = 0.02 * rng.uniform(-1.0, 1.0, m)
        unit = qsde.build_coefficients(qsde.system_spec(pauli, e, sm, sn))
        md = modes.eigenmodes(unit.a0, pauli.alpha)
        if not weak.stability_and_thresholds(unit, md).stable_for_small_eps:
            continue
        try:
            limit = weak.invariant_mean_limit(unit, md)
        except ValueError:
            continue
        ref = sqrt_alpha_invariant_limit(unit, md)
        assert np.max(np.abs(limit - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))
        compared += 1
        if compared == 10:
            break
    assert compared == 10


def test_reference_stability_and_thresholds(reference):
    spec, md = reference
    res = weak.stability_and_thresholds(qsde.build_coefficients(spec), md)
    assert res.stable_for_small_eps
    assert abs(res.abscissa_coefficient - (-2.0)) < 1e-12
    assert abs(res.tau_hat_coefficient - 0.25) < 1e-12
    ref = np.sqrt(1.0 / (2.0 * np.pi))
    assert abs(res.eps_hat - ref) < 1e-9
    assert abs(res.eps_tilde - ref) < 1e-9


def test_zero_coupling_is_not_strictly_stable(pauli, reference):
    _, md = reference
    flat = qsde.build_coefficients(qsde.system_spec(pauli, [0.0, 0.0, 1.0], np.zeros((2, 3)), np.zeros(2)))
    res = weak.stability_and_thresholds(flat, md)
    assert not res.stable_for_small_eps
    np.testing.assert_allclose(res.nu, np.zeros(3), atol=1e-14)


def test_reference_invariant_limit(reference):
    spec, md = reference
    limit = weak.invariant_mean_limit(qsde.build_coefficients(spec), md)
    np.testing.assert_allclose(limit, [0.0, 0.0, 1.0], atol=1e-12)
    # for this shape the steady mean sits at the limit for every strength
    for eps in (0.5, 0.1, 0.01):
        mu = qsde.steady_mean(weak.scaled_coefficients(spec, eps))
        np.testing.assert_allclose(mu, limit, atol=1e-10)


def test_limit_invariant_under_shape_scaling(pauli):
    rng = np.random.default_rng(12)
    while True:
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        md = modes.eigenmodes(coeffs.a0, pauli.alpha)
        try:
            lim = weak.invariant_mean_limit(coeffs, md)
            break
        except ValueError:
            continue
    tripled = qsde.build_coefficients(spec.at_strength(3.0))
    np.testing.assert_allclose(weak.invariant_mean_limit(tripled, md), lim, atol=1e-10)


def test_limit_converges_from_steady_means(pauli):
    rng = np.random.default_rng(14)
    spec = random_stable_pauli_spec(rng, m=4)
    small = spec.at_strength(0.05)
    coeffs = qsde.build_coefficients(small)
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    lim = weak.invariant_mean_limit(coeffs, md)
    errs = [
        np.linalg.norm(qsde.steady_mean(weak.scaled_coefficients(small, eps)) - lim)
        for eps in (0.1, 0.03, 0.01)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_limit_refusals(pauli, reference):
    _, md = reference
    # vanishing rates: nu at the zero mode is zero when the coupling is zero
    flat = qsde.build_coefficients(qsde.system_spec(pauli, [0.0, 0.0, 1.0], np.zeros((2, 3)), np.zeros(2)))
    with pytest.raises(ValueError):
        weak.invariant_mean_limit(flat, md)
    # zero multiplicity three: isolated qubit with E = 0
    null = qsde.build_coefficients(qsde.system_spec(pauli, np.zeros(3), M_REF, [0.0, 0.0]))
    md0 = modes.eigenmodes(null.a0, pauli.alpha)
    with pytest.raises(ValueError):
        weak.invariant_mean_limit(null, md0)


def test_limit_refuses_a_nan_rate(reference):
    # a NaN in the coupling drift makes the zero-mode rate NaN, which is refused, not divided by
    spec, md = reference
    unit = qsde.build_coefficients(spec)
    atilde = unit.atilde.copy()
    atilde[0, 0] = np.nan
    with pytest.raises(ValueError, match="^zero-mode rate is not real"):
        weak.invariant_mean_limit(replace(unit, atilde=atilde), md)


def test_scalar_shape_thresholds_absent():
    # one commuting variable: no oscillation, no thresholds, not strictly stable
    constants = model.structure_constants([[1.0]], [[[1.0]]])
    coeffs = qsde.build_coefficients(qsde.system_spec(constants, [0.5], [[0.3], [0.1]], [0.0, 0.0]))
    md = modes.eigenmodes(coeffs.a0, constants.alpha)
    np.testing.assert_allclose(md.omegas, [0.0], atol=1e-14)
    res = weak.stability_and_thresholds(coeffs, md)
    assert res.eps_hat is None and res.eps_tilde is None


def test_weak_command_builds_coefficients_once(tmp_path, monkeypatch):
    # the rates, thresholds, asymptotics and limit all read one unit-strength build
    calls = []
    real = qsde.build_coefficients

    def counting(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(qsde, "build_coefficients", counting)
    monkeypatch.setattr(weak, "build_coefficients", counting)
    assert cli.main(["weak", "--config", REPO_CONFIG, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_pauli_gamma_reference():
    res = weak.pauli_gamma(M_REF, energy=[0.0, 0.0, 1.0])
    np.testing.assert_allclose(res.gamma, np.diag([1.0, 1.0, 2.0]), atol=1e-14)
    assert res.identity_residual < 1e-14
    assert abs(res.rotating_rate - (-2.0)) < 1e-14
    assert abs(res.rotating_rate_tabulated - (-4.0)) < 1e-14
    assert abs(res.static_rate - (-4.0)) < 1e-14
    # frame is orthonormal with the normalized energy last
    np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(res.basis[2], [0.0, 0.0, 1.0], atol=1e-14)


def test_pauli_gamma_identity_random():
    rng = np.random.default_rng(10)
    for m in (2, 4, 6):
        res = weak.pauli_gamma(rng.normal(size=(m, 3)))
        assert res.identity_residual < 1e-12
        assert np.linalg.eigvalsh(res.gamma).min() > -1e-12
        assert res.rotating_rate is None


def test_pauli_gamma_rates_match_mode_rates(pauli):
    # closed forms agree with the perturbation coefficients from the drift
    rng = np.random.default_rng(18)
    for _ in range(5):
        e = rng.uniform(-1.0, 1.0, 3)
        m = rng.uniform(-1.0, 1.0, (4, 3))
        coeffs = qsde.build_coefficients(qsde.system_spec(pauli, e, m, np.zeros(4)))
        md = modes.eigenmodes(coeffs.a0, pauli.alpha)
        nu = weak.nu_values(coeffs, md)
        res = weak.pauli_gamma(m, energy=e)
        assert abs(res.rotating_rate - nu[0].real) < 1e-10
        assert abs(res.static_rate - nu[1].real) < 1e-10


def test_pauli_gamma_shape_errors():
    with pytest.raises(ValueError):
        weak.pauli_gamma(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        weak.pauli_gamma(M_REF, energy=np.zeros(3))


@pytest.mark.parametrize("eps", [0.0, 1e-170, 1e-160, 1e200, np.inf, np.nan])
def test_asymptotics_refuse_eps_whose_square_is_not_normal(reference, monkeypatch, eps):
    # refused before any eigensolve, naming the value
    spec, md = reference
    coeffs = qsde.build_coefficients(spec)
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a: pytest.fail("eigensolve ran"))
    with pytest.raises(ValueError, match=r"^coupling strength %s is out of range" % re.escape(repr(float(eps)))):
        weak.eigenvalue_asymptotics_check(coeffs, md, [0.1, eps])


def test_strength_squared_keeps_the_power():
    # the residual table divides by eps**2, whose last bit can differ from eps * eps
    for eps in (0.2, 0.1, 0.05, -0.3, 1.5e-154, 1.3e154):
        assert weak.strength_squared(eps) == eps**2


def test_pauli_gamma_refuses_an_energy_that_is_not_a_3_vector():
    for energy in ([0.0, 1.0], np.ones((3, 1))):
        with pytest.raises(ValueError, match="^energy must be a 3-vector$"):
            weak.pauli_gamma(M_REF, energy=energy)


def test_tau_hat_refused_when_every_rate_vanishes(pauli, reference):
    _, md = reference
    flat = qsde.build_coefficients(qsde.system_spec(pauli, [0.0, 0.0, 1.0], np.zeros((2, 3)), np.zeros(2)))
    res = weak.stability_and_thresholds(flat, md)
    assert res.tau_hat_coefficient is None


def test_limit_refuses_a_zero_mode_rate_that_is_not_real(pauli):
    # a complex coupling whose zero-mode rate has an imaginary part; system_spec
    # refuses such an M, so the spec is built directly to reach the limit's check
    m = np.array([[-0.9 + 1j, -0.8 + 1j, 0.3 + 0.4j], [0.3 + 0.3j, 0.2 + 0.4j, -0.2 - 0.2j]])
    coeffs = qsde.build_coefficients(qsde.SystemSpec(pauli, np.array([0.1, -0.4, -0.2]), m, np.array([-0.7, 0.4])))
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    with pytest.raises(ValueError, match=r"^zero-mode rate is not real: \(.*j\)$"):
        weak.invariant_mean_limit(coeffs, md)


def test_limit_refuses_a_zero_mode_that_does_not_decay(reference, monkeypatch):
    # the rates of a stable coupling with their signs flipped
    spec, md = reference
    real = weak.nu_values
    monkeypatch.setattr(weak, "nu_values", lambda coeffs, modes: -real(coeffs, modes))
    with pytest.raises(ValueError, match=r"^zero mode does not decay \(Re nu = 4\)$"):
        weak.invariant_mean_limit(qsde.build_coefficients(spec), md)


@pytest.mark.parametrize(
    "field, message",
    [("atilde", "coupling drift failed quadratic homogeneity"), ("b", "affine drift failed quadratic homogeneity")],
)
def test_scaled_coefficients_refuse_a_build_that_is_not_homogeneous(reference, monkeypatch, field, message):
    # the build at strength eps off by 1e-9 in one block, as a rounding fault would be
    spec, _ = reference
    real = weak.build_coefficients

    def faulty(s):
        coeffs = real(s)
        return coeffs if s is spec else replace(coeffs, **{field: getattr(coeffs, field) + 1e-9})

    monkeypatch.setattr(weak, "build_coefficients", faulty)
    with pytest.raises(model.ConsistencyError, match="^%s$" % message):
        weak.scaled_coefficients(spec, 0.5)
