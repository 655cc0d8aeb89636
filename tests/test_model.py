import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasilin import composite, model
from conftest import gell_mann_constants

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
LABELS = ["alpha-sym", "alpha-imag", "beta-herm", "assoc-const", "assoc-linear"]


@pytest.fixture
def list_all(monkeypatch):
    # reports and fills list every violation, not only the first few
    monkeypatch.setattr(model, "_KEPT", 10**9)


def test_pauli_constants_shape_and_validation(pauli):
    assert pauli.n == 3
    np.testing.assert_array_equal(pauli.alpha, np.eye(3))
    report = model.validate(pauli)
    assert report.passed
    assert report.violations == []
    assert report.counts == dict.fromkeys(LABELS, 0) and report.total == 0
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


def test_structure_constants_refuses_empty_algebra():
    with pytest.raises(ValueError, match="n = 0"):
        model.structure_constants(np.zeros((0, 0)), np.zeros((0, 0, 0)))


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_validate_refuses_bad_tol(pauli, tol):
    # untouched positions of the sparse fill read 0, which passes only tol >= 0
    with pytest.raises(ValueError, match="tol"):
        model.validate(pauli, tol=tol)


def test_gate_decides_value_against_bound():
    # one rule: value <= bound passes (value < bound when strict), a NaN fails
    # both, and an array fails when any entry fails, naming the first in C order
    def refuse(*index):
        return ValueError("refused at %r" % (tuple(map(int, index)),))

    model._gate(1.0, 1.0, refuse)
    assert model.passes(1.0, 1.0)
    with pytest.raises(ValueError, match=r"^refused at \(\)$"):
        model._gate(1.0, 1.0, refuse, strict=True)
    model._gate(1.0 - 2**-53, 1.0, refuse, strict=True)
    for strict in (False, True):
        with pytest.raises(ValueError, match=r"^refused at \(\)$"):
            model._gate(np.nan, 1.0, refuse, strict=strict)
    assert not model.passes(np.nan, 1.0) and not model.passes(np.nan, np.nan)
    with pytest.raises(ValueError, match=r"^refused at \(2,\)$"):
        model._gate(np.array([0.0, 1.0, np.nan, 3.0]), 1.0, refuse)
    with pytest.raises(ValueError, match=r"^refused at \(1, 0\)$"):
        model._gate(np.array([[0.0, 0.0], [2.0, 5.0]]), (1.0, 1.0), refuse)
    with pytest.raises(ValueError, match=r"^refused at \(1,\)$"):
        model._gate(np.array([0.5, 1.0]), 1.0, refuse, strict=True)
    assert not model.passes(np.float64(np.nan), 1.0) and model.passes(np.float64(1.0), 1.0)
    assert model.passes(np.array([0.0, 1.0]), 1.0) and not model.passes(np.array([0.0, 2.0]), 1.0)
    model._gate(np.zeros(0), 1.0, refuse)


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
    # Pauli coefficients are cyclic, so fixing the first index reproduces
    # i * theta section by section
    bt_first = np.transpose(pauli.beta, (1, 2, 0))
    for l in range(3):
        np.testing.assert_allclose(bt_first[l], 1j * pauli.theta[l], atol=1e-15)


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


def _einsum_validate(constants, tol=1e-10):
    # reference: the closure identities as full n^4 einsums; an entry fails
    # unless residual <= tol, so a NaN residual fails, as in validate
    alpha, beta, n = constants.alpha, constants.beta, constants.n
    violations = []

    def collect(label, residual):
        for idx in np.argwhere(~(residual <= tol)):
            violations.append((label, tuple(int(i) for i in idx), float(residual[tuple(idx)])))

    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN
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


def _exact_constants(n):
    pauli, qutrit = model.pauli_constants(), gell_mann_constants(3)
    if n in (3, 8):
        return {3: pauli, 8: qutrit}[n]
    return composite.augment_constants(pauli, {15: pauli, 35: qutrit}[n])


def _same_violations(got, want):
    assert [v[:2] for v in got] == [v[:2] for v in want]
    np.testing.assert_allclose([v[2] for v in got], [v[2] for v in want], rtol=0, atol=1e-13)


def _same_report(report, want):
    # a report against a full reference list: the counts, and the first
    # _KEPT violations
    assert report.counts == {label: sum(v[0] == label for v in want) for label in LABELS}
    _same_violations(report.violations, want[: model._KEPT])


@pytest.mark.parametrize("noise", [1e-6, 1e-9])
@pytest.mark.parametrize("n", [3, 8, 15])
def test_validate_matches_einsum_reference_on_perturbed_constants(list_all, n, noise):
    exact = _exact_constants(n)
    assert model.validate(exact).passed
    rng = np.random.default_rng(100 * n + int(-np.log10(noise)))
    alpha = exact.alpha + noise * rng.normal(size=(n, n))
    beta = exact.beta + noise * (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n)))
    constants = model.structure_constants(alpha, beta)
    report = model.validate(constants)
    assert not report.passed
    _same_report(report, _einsum_validate(constants))


def test_validate_matches_einsum_reference_across_row_blocks(list_all):
    # n = 26 spans two j-row blocks, the last one partial; alpha = 0 and a
    # sparse beta keep the violation list small
    n = 26
    rows = max(1, model._BLOCK_ENTRIES // (n * n * (n + 1)))
    assert rows < n and n % rows
    rng = np.random.default_rng(26)
    beta = (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))) * (rng.random((n, n, n)) < 0.004)
    constants = model.structure_constants(np.zeros((n, n)), beta)
    report = model.validate(constants)
    want = _einsum_validate(constants)
    assert any(v[0] == "assoc-linear" and v[1][0] >= n // 2 for v in want)
    _same_report(report, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["alpha", "beta"])
@pytest.mark.parametrize("n", [3, 15])
def test_validate_matches_einsum_reference_on_non_finite_constants(n, where, bad):
    # one non-finite entry at alpha[1, 1] or beta[1, 1, 1]: the counts and
    # the first violations match the reference
    exact = _exact_constants(n)
    alpha, beta = exact.alpha.copy(), exact.beta.copy()
    if where == "alpha":
        alpha[1, 1] = bad
    else:
        beta[1, 1, 1] = bad
    constants = model.structure_constants(alpha, beta)
    want = _einsum_validate(constants)
    _same_report(model.validate(constants), want)
    counts = {(3, "alpha"): (1, 0, 15, 15), (15, "beta"): (0, 1, 29, 841)}.get((n, where))
    if counts is not None:
        labels = ("alpha-sym", "beta-herm", "assoc-const", "assoc-linear")
        assert tuple(sum(v[0] == label for v in want) for label in labels) == counts


def _planted(n, j):
    # beta_{1,j,2} beta_{3,1,4} is the only nonzero product: it enters the
    # closure identity at (j, k, s, r) = (j, 2, 4, 3)
    beta = np.zeros((n, n, n), dtype=complex)
    beta[1, j, 2] = 0.5
    beta[3, 1, 4] = 0.5
    return model.structure_constants(np.zeros((n, n)), beta)


@pytest.mark.parametrize("j", [0, 25])
def test_validate_reports_planted_closure_violation_row(list_all, j):
    report = model.validate(_planted(26, j))
    linear = [v for v in report.violations if v[0] == "assoc-linear"]
    assert linear == [("assoc-linear", (j, 2, 4, 3), 0.25)]
    assert report.counts["assoc-linear"] == 1


def test_validate_memory_stays_below_one_n4_array():
    n = 40
    constants = model.structure_constants(np.zeros((n, n)), np.zeros((n, n, n)))
    report, peak = _traced_peak(lambda: model.validate(constants))
    assert report.passed
    assert peak < 16e6  # one n^4 complex array is 41 MB


def test_validate_fails_nan_in_beta(pauli):
    beta = pauli.beta.copy()
    beta[2, 0, 1] = np.nan
    report = model.validate(model.structure_constants(pauli.alpha, beta))
    assert not report.passed
    assert report.counts["beta-herm"] and report.counts["assoc-linear"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_fails_non_finite_alpha(pauli, bad):
    alpha = pauli.alpha.copy()
    alpha[1, 1] = bad
    report = model.validate(model.structure_constants(alpha, pauli.beta))
    assert not report.passed
    assert not report.alpha_psd


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_non_finite_alpha_is_silent(list_all, pauli, bad):
    # inf - inf and 0 * inf in the residuals are NaN: the entry fails, with no
    # numpy warning.  Every entry of the closure residual whose sums read
    # u_0jk = alpha_11 fails: the rows j = 1 and columns s = 1 of assoc-const,
    # and the (1, 1, s, r) and (j, 1, 1, r) of assoc-linear
    alpha = pauli.alpha.copy()
    alpha[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = model.validate(model.structure_constants(alpha, pauli.beta))
    assert not report.passed and not report.alpha_psd
    labels = [v[0] for v in report.violations]
    assert labels == ["alpha-sym"] + ["assoc-const"] * 15 + ["assoc-linear"] * 15
    assert report.counts == {"alpha-sym": 1, "alpha-imag": 0, "beta-herm": 0, "assoc-const": 15, "assoc-linear": 15}
    assert report.violations[0][1] == (1, 1)
    const = {key for key in np.ndindex(3, 3, 3) if key[0] == 1 or key[2] == 1}
    assert {v[1] for v in report.violations if v[0] == "assoc-const"} == const
    linear = {key for key in np.ndindex(3, 3, 3, 3) if key[:2] == (1, 1) or key[1:3] == (1, 1)}
    assert {v[1] for v in report.violations if v[0] == "assoc-linear"} == linear
    for label in set(labels):
        keys = [v[1] for v in report.violations if v[0] == label]
        assert keys == sorted(keys)


def _sparse_fill(constants, tol):
    return model._closure_sparse(constants, tol, model._nonzeros(constants.beta))


def _fills_agree(constants, tol=1e-10):
    # the two fills of the closure residual: for assoc-const and assoc-linear
    # the same count, the same keys in the same order, residuals within
    # round-off; returns the violations of both
    dense, sparse = model._closure_dense(constants, tol), _sparse_fill(constants, tol)
    assert list(dense) == list(sparse) == ["assoc-const", "assoc-linear"]
    for (count, first), (sparse_count, sparse_first) in zip(dense.values(), sparse.values()):
        assert sparse_count == count and len(first) == min(count, model._KEPT)
        _same_violations(sparse_first, first)
    return [v for _, first in dense.values() for v in first]


@pytest.mark.parametrize("n", [3, 8, 15, 35])
def test_fills_agree_on_exact_constants(n):
    assert _fills_agree(_exact_constants(n)) == []


@pytest.mark.parametrize("noise", [1e-6, 1e-9])
@pytest.mark.parametrize("n", [3, 8, 15, 35])
def test_fills_agree_on_pattern_confined_perturbations(list_all, n, noise):
    # perturb only beta's nonzeros and alpha, so the sparse pattern is kept
    exact = _exact_constants(n)
    rng = np.random.default_rng(10 * n + int(-np.log10(noise)))
    pattern = exact.beta != 0
    beta = exact.beta + noise * (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))) * pattern
    alpha = exact.alpha + noise * rng.normal(size=(n, n))
    assert _fills_agree(model.structure_constants(alpha, beta))


def test_dense_fill_matches_einsum_reference_across_row_blocks(list_all):
    # validate() sends this sparse beta to the sparse fill; the dense fill's
    # two j-row blocks (the last one partial) are checked here
    n = 26
    rng = np.random.default_rng(26)
    beta = (rng.normal(size=(n, n, n)) + 1j * rng.normal(size=(n, n, n))) * (rng.random((n, n, n)) < 0.004)
    constants = model.structure_constants(np.zeros((n, n)), beta)
    want = _einsum_validate(constants)
    assert any(v[0] == "assoc-linear" and v[1][0] >= n // 2 for v in want)
    for label, (count, found) in model._closure_dense(constants, 1e-10).items():
        assert count == sum(v[0] == label for v in want)
        _same_violations(found, [v for v in want if v[0] == label])


FILLS = pytest.mark.parametrize("fill", [model._closure_dense, _sparse_fill], ids=["_closure_dense", "_closure_sparse"])


@FILLS
@pytest.mark.parametrize("j", [0, 25])
def test_fills_report_planted_closure_violation_row(fill, j):
    assert fill(_planted(26, j), 1e-10) == {"assoc-const": (0, []), "assoc-linear": (1, [("assoc-linear", (j, 2, 4, 3), 0.25)])}


def _planted_const(n, j):
    # alpha_33 beta_{3,j,2} is the only product of alpha and beta: it enters
    # the r = 0 column of the closure residual, assoc-const, at (j, 2, 3)
    # through the first sum and at (3, j, 2) through the second; alpha's
    # unit terms fail assoc-linear in every row
    alpha, beta = np.zeros((n, n)), np.zeros((n, n, n), dtype=complex)
    alpha[3, 3] = beta[3, j, 2] = 0.5
    return model.structure_constants(alpha, beta)


@FILLS
@pytest.mark.parametrize("j", [0, 25])
def test_fills_report_planted_assoc_const_row(list_all, fill, j):
    constants = _planted_const(26, j)
    found = fill(constants, 1e-10)
    assert found["assoc-const"] == (2, sorted([("assoc-const", (j, 2, 3), 0.25), ("assoc-const", (3, j, 2), 0.25)]))
    want = [v for v in _einsum_validate(constants) if v[0] == "assoc-linear"]
    assert found["assoc-linear"][0] == len(want) > 0
    _same_violations(found["assoc-linear"][1], want)


def _blocks(constants, monkeypatch, count):
    # shrink the fills' block size so that the sparse fill runs in `count`
    # blocks of s values; returns the block width
    n, entries = constants.n, np.count_nonzero(constants.alpha) + np.count_nonzero(constants.beta)
    width = -(-n // count)
    assert -(-n // width) == count
    monkeypatch.setattr(model, "_BLOCK_ENTRIES", 2 * entries * width)
    return width


@pytest.mark.parametrize(
    "make",
    [
        lambda: _exact_constants(35),
        lambda: _perturbed(_exact_constants(35), 35),
        lambda: _planted(26, 0),
        lambda: _planted(26, 25),
        lambda: _planted_const(26, 0),
        lambda: _planted_const(26, 25),
    ],
    ids=["pauli-qutrit", "pauli-qutrit-perturbed", "planted-0", "planted-25", "planted-const-0", "planted-const-25"],
)
def test_sparse_fill_in_several_s_blocks(monkeypatch, make):
    # block widths below n run the sparse fill's s-block loop (one block of
    # width 61 at n = 35 otherwise): in 3 and in 4 blocks the fills agree and
    # the report matches the reference, first _KEPT or every violation
    constants = make()
    want = _einsum_validate(constants)
    n, entries = constants.n, np.count_nonzero(constants.alpha) + np.count_nonzero(constants.beta)
    for blocks, kept in [(3, 3), (4, 3), (3, 10**9)]:
        width = -(-n // blocks)
        assert -(-n // width) == blocks
        monkeypatch.setattr(model, "_BLOCK_ENTRIES", 2 * entries * width)
        monkeypatch.setattr(model, "_KEPT", kept)
        _fills_agree(constants)
        with monkeypatch.context() as mp:
            mp.setattr(model, "_closure_dense", _refuse)
            _same_report(model.validate(constants), want)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fills_agree_on_sparse_hermitian_perturbations(data):
    # dyadic perturbations of exactly representable constants keep every sum
    # exact, so the two fills must agree to the last bit at any tol
    base = data.draw(st.sampled_from(["pauli", "pauli_pauli", "zero"]))
    if base == "zero":
        n = data.draw(st.integers(1, 10))
        exact = model.structure_constants(np.zeros((n, n)), np.zeros((n, n, n)))
    else:
        exact = _exact_constants(3 if base == "pauli" else 15)
        n = exact.n
    alpha, beta = exact.alpha.copy(), exact.beta.copy()
    index = st.integers(0, n - 1)
    dyadic = st.integers(-64, 64).map(lambda i: i * 2.0**-20)
    for _ in range(data.draw(st.integers(1, 12))):
        l, j, k = data.draw(st.tuples(index, index, index))
        z = complex(data.draw(dyadic), data.draw(dyadic) if j != k else 0.0)
        beta[l, j, k] += z
        if j != k:
            beta[l, k, j] += z.conjugate()
    for _ in range(data.draw(st.integers(0, 3))):
        j, k = data.draw(st.tuples(index, index))
        d = data.draw(dyadic)
        alpha[j, k] += d
        if j != k:
            alpha[k, j] += d
    tol = data.draw(st.sampled_from([0.0, 2.0**-40, 2.0**-30, 1e-10, 1e-3]))
    constants = model.structure_constants(alpha, beta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_KEPT", 10**9)
        assert _sparse_fill(constants, tol) == model._closure_dense(constants, tol)


def _refuse(*args):
    raise AssertionError("this fill must not run")


def _perturbed_pauli_pauli():
    exact = _exact_constants(15)
    rng = np.random.default_rng(15)
    return model.structure_constants(exact.alpha, exact.beta + 1e-9 * rng.normal(size=exact.beta.shape))


def _perturbed(exact, seed):
    # noise on beta's nonzeros and on alpha: the sparse pattern is kept
    rng = np.random.default_rng(seed)
    beta = exact.beta + 1e-9 * (rng.normal(size=exact.beta.shape) + 1j * rng.normal(size=exact.beta.shape)) * (exact.beta != 0)
    return model.structure_constants(exact.alpha + 1e-9 * rng.normal(size=exact.alpha.shape), beta)


def _non_finite(which, bad):
    exact = _exact_constants(15)
    alpha, beta = exact.alpha.copy(), exact.beta.copy()
    (alpha if which == "alpha" else beta)[(1,) * (2 if which == "alpha" else 3)] = bad
    return model.structure_constants(alpha, beta)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _exact_constants(3),
        lambda: _exact_constants(8),
        _perturbed_pauli_pauli,
        lambda: _non_finite("alpha", np.nan),
        lambda: _non_finite("alpha", np.inf),
        lambda: _non_finite("beta", np.nan),
        lambda: _non_finite("beta", -np.inf),
    ],
    ids=["pauli", "qutrit", "dense-perturbed", "alpha-nan", "alpha-inf", "beta-nan", "beta-inf"],
)
def test_validate_takes_dense_fill(monkeypatch, make):
    constants = make()
    monkeypatch.setattr(model, "_closure_sparse", _refuse)
    model.validate(constants)


@pytest.mark.parametrize("n", [15, 35])
def test_validate_takes_sparse_fill_on_composites(monkeypatch, n):
    constants = _exact_constants(n)
    monkeypatch.setattr(model, "_closure_dense", _refuse)
    assert model.validate(constants).passed


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_sparse_validate_memory_stays_below_one_n4_array():
    # one n^4 complex array is 24 MB.  The peak is 8.08 MB once scipy.sparse
    # is imported (the first call imports it, 1.3 MB more), and was 9.47 MB
    # while the fill built its operands through sorts and copies
    constants = _exact_constants(35)
    model.validate(constants)
    report, peak = _traced_peak(lambda: model.validate(constants))
    assert report.passed
    assert peak < 9e6


def test_validate_counts_violations_of_random_constants():
    # alpha = I and a random complex beta at n = 35 violate almost every
    # identity: the report counts them (the dense fill), lists the first
    # _KEPT and stays small; a list of all 1,586,340 peaked at 279 MB
    n = 35
    rng = np.random.default_rng(0)
    beta = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    report, peak = _traced_peak(lambda: model.validate(model.structure_constants(np.eye(n), beta)))
    assert not report.passed and report.alpha_psd
    assert report.counts == {"alpha-sym": 0, "alpha-imag": 0, "beta-herm": 42875, "assoc-const": 42840, "assoc-linear": 1500625}
    assert report.total == 1586340
    assert [v[:2] for v in report.violations] == [("beta-herm", (0, 0, k)) for k in range(model._KEPT)]
    assert all(type(i) is int for v in report.violations for i in v[1]) and all(type(v[2]) is float for v in report.violations)
    herm = [abs(beta[0, 0, k] - np.conj(beta[0, k, 0])) for k in range(model._KEPT)]
    np.testing.assert_allclose([v[2] for v in report.violations], herm, rtol=1e-15)
    assert peak < 32e6


def test_structure_constants_store_a_complex_alpha_with_zero_imaginary_part_as_real(pauli):
    constants = model.structure_constants(pauli.alpha.astype(complex), pauli.beta)
    assert constants.alpha.dtype == np.float64
    np.testing.assert_array_equal(constants.alpha, pauli.alpha)
    kept = model.structure_constants(pauli.alpha + 1e-3j, pauli.beta)
    assert kept.alpha.dtype == np.complex128


def test_section_products_refuse_mismatched_lengths(pauli):
    with pytest.raises(ValueError, match="^section count 3 != vector length 2$"):
        model.dot_product(pauli.theta, np.ones(2))
    with pytest.raises(ValueError, match="^section width 3 != vector length 4$"):
        model.diam_product(pauli.theta, np.ones(4))


@pytest.mark.parametrize("lengths", [(2, 3), (3, 4)])
def test_affine_mul_refuses_operators_of_the_wrong_length(pauli, lengths):
    a, b = (model.AffineOperator(0.0, np.ones(k)) for k in lengths)
    with pytest.raises(ValueError, match="^operator length does not match constants$"):
        model.affine_mul(a, b, pauli)
