import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilin import composite, model

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


def test_pauli_constants_shape_and_validation(pauli):
    assert pauli.n == 3
    np.testing.assert_array_equal(pauli.alpha, np.eye(3))
    report = model.validate(pauli)
    assert report.passed
    assert report.violations == []
    assert report.alpha_psd


def test_pauli_sections_match_two_by_two_products(pauli):
    # X_j X_k = alpha_jk I + sum_l beta_ljk X_l, checked against the matrices
    for j in range(3):
        for k in range(3):
            lhs = SIGMA[j] @ SIGMA[k]
            rhs = pauli.alpha[j, k] * np.eye(2, dtype=complex)
            for l in range(3):
                rhs = rhs + pauli.beta[l, j, k] * SIGMA[l]
            np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_structure_constants_rejects_bad_shapes():
    with pytest.raises(ValueError):
        model.structure_constants(np.eye(2), np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        model.structure_constants(np.ones((2, 3)), np.zeros((2, 2, 2)))


def test_scalar_algebra_any_real_pair_validates():
    # X^2 = c I + d X closes for every real (c, d)
    for c, d in [(1.0, 1.0), (-0.3, 0.7), (2.5, -4.0), (0.0, 0.0)]:
        constants = model.structure_constants([[c]], [[[d]]])
        assert model.validate(constants).passed


def test_validate_flags_perturbed_sections(pauli):
    beta = pauli.beta.copy()
    beta[0, 1, 2] += 0.01
    bad = model.structure_constants(pauli.alpha, beta)
    report = model.validate(bad)
    assert not report.passed
    labels = {v[0] for v in report.violations}
    assert "beta-herm" in labels or "assoc-const" in labels or "assoc-linear" in labels


def test_validate_flags_asymmetric_alpha(pauli):
    alpha = pauli.alpha.copy()
    alpha[0, 1] = 0.2
    report = model.validate(model.structure_constants(alpha, pauli.beta))
    assert not report.passed
    assert any(v[0] == "alpha-sym" for v in report.violations)


def test_dot_and_diam_against_index_loops(pauli):
    rng = np.random.default_rng(42)
    sections = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    u = rng.normal(size=3)
    dot = model.dot_product(sections, u)
    diam = model.diam_product(sections, u)
    dot_ref = np.zeros((3, 3), dtype=complex)
    diam_ref = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        for k in range(3):
            for l in range(3):
                dot_ref[j, k] += u[l] * sections[l, j, k]
                diam_ref[j, l] += sections[l, j, k] * u[k]
    np.testing.assert_allclose(dot, dot_ref, atol=1e-14)
    np.testing.assert_allclose(diam, diam_ref, atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dot_diam_duality(seed):
    # (u . S) v == (S <> v) u for any sections, the two contraction orders agree
    rng = np.random.default_rng(seed)
    sections = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    u = rng.normal(size=3)
    v = rng.normal(size=3)
    lhs = model.dot_product(sections, u) @ v
    rhs = model.diam_product(sections, v) @ u
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_slice_layouts_match_loops(pauli):
    rng = np.random.default_rng(3)
    sections = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    first = model.first_index_slices(sections)
    middle = model.middle_index_slices(sections)
    # storage is sections[s, r, c] for coefficient (row r, col c, linear s)
    for l in range(3):
        for j in range(3):
            for k in range(3):
                assert first[l][j, k] == sections[k, l, j]
    for k in range(3):
        for j in range(3):
            for l in range(3):
                assert middle[k][j, l] == sections[l, j, k]
    # Pauli coefficients are cyclic, so fixing the first index reproduces
    # i * theta section by section
    bt_first = model.first_index_slices(pauli.beta)
    for l in range(3):
        np.testing.assert_allclose(bt_first[l], 1j * pauli.theta[l], atol=1e-15)


def test_norm_bounds_pauli(pauli):
    tau, gamma, bounds = model.norm_bounds(pauli)
    np.testing.assert_allclose(tau, np.zeros(3), atol=1e-15)
    assert abs(gamma - np.sqrt(3.0)) < 1e-14
    np.testing.assert_allclose(bounds, np.sqrt(3.0) * np.ones(3), atol=1e-14)
    # each sigma_k has operator norm 1, safely inside the bound
    assert all(b >= 1.0 for b in bounds)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.0, 3.0, allow_nan=False),
    st.floats(-3.0, 3.0, allow_nan=False),
)
def test_norm_bound_dominates_scalar_spectrum(c, d):
    # eigenvalues of any X with X^2 = c + d X are roots of r^2 - d r - c
    disc = d * d + 4.0 * c
    constants = model.structure_constants([[c]], [[[d]]])
    if c + d * d / 4.0 < 0.0:
        with pytest.raises(ValueError):
            model.norm_bounds(constants)
        return
    tau, gamma, bounds = model.norm_bounds(constants)
    assert abs(tau[0] - d) < 1e-12
    if disc >= 0.0:
        roots = [(d + np.sqrt(disc)) / 2.0, (d - np.sqrt(disc)) / 2.0]
        assert bounds[0] >= max(abs(r) for r in roots) - 1e-12


def _affine_to_matrix(op):
    out = op.const * np.eye(2, dtype=complex)
    for l in range(3):
        out = out + op.linear[l] * SIGMA[l]
    return out


def test_affine_mul_matches_matrix_product(pauli):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = model.AffineOperator(complex(rng.normal()), rng.normal(size=3) + 0j)
        b = model.AffineOperator(complex(rng.normal()), rng.normal(size=3) + 0j)
        prod = model.affine_mul(a, b, pauli)
        np.testing.assert_allclose(
            _affine_to_matrix(prod),
            _affine_to_matrix(a) @ _affine_to_matrix(b),
            atol=1e-12,
        )


def test_reduce_monomial_pauli_words(pauli):
    # X1 X2 X1 = -X2 and X_k^2 = I
    red = model.reduce_monomial([1, 2, 1], [1, 1, 1], pauli)
    assert abs(red.const) < 1e-15
    np.testing.assert_allclose(red.linear, [0.0, -1.0, 0.0], atol=1e-15)
    for k in (1, 2, 3):
        sq = model.reduce_monomial([k], [2], pauli)
        assert abs(sq.const - 1.0) < 1e-15
        np.testing.assert_allclose(sq.linear, np.zeros(3), atol=1e-15)


def test_reduce_monomial_against_matrix_fold(pauli):
    rng = np.random.default_rng(11)
    for _ in range(10):
        idx = list(rng.integers(1, 4, size=4))
        pw = list(rng.integers(1, 3, size=4))
        red = model.reduce_monomial(idx, pw, pauli)
        ref = np.eye(2, dtype=complex)
        for j, p in zip(idx, pw):
            for _ in range(p):
                ref = ref @ SIGMA[j - 1]
        np.testing.assert_allclose(_affine_to_matrix(red), ref, atol=1e-12)


def test_quadratic_form_against_affine_chain(pauli):
    rng = np.random.default_rng(13)
    r = rng.normal(size=(3, 3))
    r = (r + r.T) / 2.0
    qf_const, qf_linear = model.quadratic_form(r, pauli)
    acc = model.AffineOperator(0.0 + 0j, np.zeros(3, dtype=complex))
    for j in range(3):
        for k in range(3):
            term = model.affine_mul(
                model.AffineOperator(0.0 + 0j, np.eye(3, dtype=complex)[j]),
                model.AffineOperator(0.0 + 0j, np.eye(3, dtype=complex)[k]),
                pauli,
            )
            acc = model.AffineOperator(
                acc.const + r[j, k] * term.const,
                acc.linear + r[j, k] * term.linear,
            )
    assert abs(qf_const - acc.const) < 1e-12
    np.testing.assert_allclose(qf_linear, acc.linear, atol=1e-12)


def test_quadratic_form_rejects_asymmetric(pauli):
    r = np.zeros((3, 3))
    r[0, 1] = 1.0
    with pytest.raises(ValueError):
        model.quadratic_form(r, pauli)


def _einsum_validate(constants, tol=1e-10):
    # reference: the closure identities as full n^4 einsums, flagged with > tol
    alpha, beta, n = constants.alpha, constants.beta, constants.n
    violations = []

    def collect(label, residual):
        for idx in np.argwhere(residual > tol):
            violations.append((label, tuple(int(i) for i in idx), float(residual[tuple(idx)])))

    collect("alpha-sym", np.abs(alpha - alpha.T))
    collect("alpha-imag", np.abs(np.imag(alpha)))
    collect("beta-herm", np.abs(beta - np.conj(np.transpose(beta, (0, 2, 1)))))
    con1 = np.einsum("ls,ljk->jks", alpha, beta) - np.einsum("jl,lks->jks", alpha, beta)
    collect("assoc-const", np.abs(con1))
    eye = np.eye(n)
    con2 = (
        np.einsum("jk,rs->jksr", alpha, eye)
        - np.einsum("ks,rj->jksr", alpha, eye)
        + np.einsum("ljk,rls->jksr", beta, beta)
        - np.einsum("lks,rjl->jksr", beta, beta)
    )
    collect("assoc-linear", np.abs(con2))
    return violations


def _gell_mann_constants(d):
    # generalized Gell-Mann matrices, Tr(X_j X_k) = 2 delta_jk, and their exact
    # constants alpha_jk = Tr(X_j X_k) / d, beta_ljk = Tr(X_l X_j X_k) / 2
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k], asym[k, j] = -1j, 1j
            mats += [sym, asym]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l], diag[l] = 1.0, -l
        mats.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    x = np.array(mats)
    alpha = np.einsum("jab,kba->jk", x, x).real / d
    beta = np.einsum("lab,jbc,kca->ljk", x, x, x) / 2.0
    return model.structure_constants(alpha, beta)


def _exact_constants(n):
    pauli = model.pauli_constants()
    return {3: pauli, 8: _gell_mann_constants(3), 15: composite.augment_constants(pauli, pauli)}[n]


def _same_violations(got, want):
    assert [v[:2] for v in got] == [v[:2] for v in want]
    np.testing.assert_allclose([v[2] for v in got], [v[2] for v in want], rtol=0, atol=1e-13)


@pytest.mark.parametrize("noise", [1e-6, 1e-9])
@pytest.mark.parametrize("n", [3, 8, 15])
def test_validate_matches_einsum_reference_on_perturbed_constants(n, noise):
    exact = _exact_constants(n)
    assert model.validate(exact).passed
    rng = np.random.default_rng(100 * n + int(-np.log10(noise)))
    alpha = exact.alpha + noise * rng.normal(size=(n, n))
    beta = exact.beta + noise * (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n)))
    constants = model.structure_constants(alpha, beta)
    report = model.validate(constants)
    assert not report.passed
    _same_violations(report.violations, _einsum_validate(constants))


def test_validate_matches_einsum_reference_across_row_blocks():
    # n = 26 spans two j-row blocks, the last one partial; alpha = 0 and a
    # sparse beta keep the violation list small
    n = 26
    rows = max(1, model._BLOCK_ENTRIES // n**3)
    assert rows < n and n % rows
    rng = np.random.default_rng(26)
    beta = (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))) * (rng.random((n, n, n)) < 0.004)
    constants = model.structure_constants(np.zeros((n, n)), beta)
    report = model.validate(constants)
    want = _einsum_validate(constants)
    assert any(v[0] == "assoc-linear" and v[1][0] >= n // 2 for v in want)
    _same_violations(report.violations, want)


@pytest.mark.parametrize("j", [0, 25])
def test_validate_reports_planted_closure_violation_row(j):
    # beta_{1,j,2} beta_{3,1,4} is the only nonzero product: it enters the
    # closure identity at (j, k, s, r) = (j, 2, 4, 3)
    n = 26
    beta = np.zeros((n, n, n), dtype=complex)
    beta[1, j, 2] = 0.5
    beta[3, 1, 4] = 0.5
    report = model.validate(model.structure_constants(np.zeros((n, n)), beta))
    linear = [v for v in report.violations if v[0] == "assoc-linear"]
    assert linear == [("assoc-linear", (j, 2, 4, 3), 0.25)]


def test_validate_memory_stays_below_one_n4_array():
    n = 40
    constants = model.structure_constants(np.zeros((n, n)), np.zeros((n, n, n)))
    tracemalloc.start()
    try:
        report = model.validate(constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 16e6  # one n^4 complex array is 41 MB


def test_validate_fails_nan_in_beta(pauli):
    beta = pauli.beta.copy()
    beta[2, 0, 1] = np.nan
    report = model.validate(model.structure_constants(pauli.alpha, beta))
    assert not report.passed
    assert {v[0] for v in report.violations} >= {"beta-herm", "assoc-linear"}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_fails_non_finite_alpha(pauli, bad):
    alpha = pauli.alpha.copy()
    alpha[1, 1] = bad
    report = model.validate(model.structure_constants(alpha, pauli.beta))
    assert not report.passed
    assert not report.alpha_psd
