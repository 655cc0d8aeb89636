import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from quasilin import composite, model, qsde, second_moment
from conftest import gell_mann_constants, random_pauli_spec


def real_form(z):
    # the isometry Z -> Re Z + Im Z from Hermitian onto real matrices
    return z.real + z.imag


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z + z.conj().T


def check_apply_matches_matrix(spec, coeffs, rng):
    # matrix @ vec(R) is the real form of apply_lambda(Z), which is Hermitian
    matrix = second_moment.lambda_operator(spec, coeffs)
    n = coeffs.n
    assert matrix.dtype == np.float64 and matrix.shape == (n * n, n * n)
    for _ in range(4):
        z = random_hermitian(rng, n)
        direct = second_moment.apply_lambda(spec, coeffs, z)
        np.testing.assert_allclose(direct, direct.conj().T, atol=1e-12)
        via = (matrix @ real_form(z).flatten(order="F")).reshape((n, n), order="F")
        np.testing.assert_allclose(via, real_form(direct), atol=1e-12 * np.abs(direct).max())


def test_apply_matches_matrix_route(worked):
    check_apply_matches_matrix(*worked, np.random.default_rng(0))


def test_apply_matches_matrix_route_random_specs():
    rng = np.random.default_rng(1)
    check_apply_matches_matrix(*gell_mann_system(), rng)
    for _ in range(5):
        spec = random_pauli_spec(rng, m=4)
        check_apply_matches_matrix(spec, qsde.build_coefficients(spec), rng)


def hermitian_basis(n):
    # orthonormal Hermitian basis (Hilbert-Schmidt): diagonal units first,
    # then for each j < k the symmetric and the antisymmetric-imaginary pair
    mats = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        mats.append(e)
    r = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = r
            e[k, j] = r
            mats.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = 1j * r
            e[k, j] = -1j * r
            mats.append(e)
    return mats


def test_hermitian_basis_orthonormal():
    # the reference basis is orthonormal, and its real forms are an
    # orthonormal basis of the real matrices: Z -> Re Z + Im Z is an isometry
    basis = hermitian_basis(4)
    assert len(basis) == 16
    for p, bp in enumerate(basis):
        np.testing.assert_allclose(bp, bp.conj().T, atol=1e-15)
        for q, bq in enumerate(basis):
            ip = np.trace(bp.conj().T @ bq)
            assert abs(ip - (1.0 if p == q else 0.0)) < 1e-14
    real = np.column_stack([real_form(b).flatten(order="F") for b in basis])
    np.testing.assert_allclose(real.T @ real, np.eye(16), atol=1e-14)
    # the identity is its own real form, and traces agree
    z = random_hermitian(np.random.default_rng(3), 4)
    assert abs(np.trace(real_form(z)) - np.trace(z)) < 1e-14
    np.testing.assert_array_equal(real_form(np.eye(4, dtype=complex)), np.eye(4))


def test_reference_hermitian_abscissa(worked):
    op = second_moment.lambda_operator(*worked)
    val = qsde.spectral_abscissa(op)
    assert abs(val - (-4.0)) < 1e-9


def test_trace_flow_dominates_squared_propagator(worked):
    # Tr Pi(t) >= ||e^{tA}||_F^2, the gap is the quantum noise contribution
    spec, coeffs = worked
    op = second_moment.lambda_operator(spec, coeffs)
    times = np.linspace(0.0, 4.0, 30)
    tr = second_moment.pi_trace_flow(op, times)
    lower = np.array([np.linalg.norm(expm(t * coeffs.a), "fro") ** 2 for t in times])
    assert (tr - lower).min() > -1e-9


def test_trace_flow_starts_at_dimension(worked):
    op = second_moment.lambda_operator(*worked)
    tr = second_moment.pi_trace_flow(op, [0.0])
    assert abs(tr[0] - 3.0) < 1e-12


def test_capability_limit_on_large_systems():
    n = 17
    constants = model.structure_constants(np.eye(n), np.zeros((n, n, n)))
    spec = qsde.system_spec(constants, np.zeros(n), np.zeros((2, n)), np.zeros(2))
    coeffs = qsde.build_coefficients(spec)
    with pytest.raises(model.CapabilityLimit):
        second_moment.lambda_operator(spec, coeffs)


def gell_mann_system(seed=0):
    # qutrit (n = 8) with a Hurwitz drift drawn on [-1, 1]
    rng = np.random.default_rng(seed)
    constants = gell_mann_constants(3)
    while True:
        spec = qsde.system_spec(
            constants, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, (2, 8)), rng.uniform(-1, 1, 2)
        )
        coeffs = qsde.build_coefficients(spec)
        if qsde.spectral_abscissa(coeffs.a) < -1e-2:
            return spec, coeffs


def column_loop_lambda(spec, coeffs):
    # the complex generator on vec(Z), filled one column k*n + j at a time
    n = coeffs.n
    cross = spec.coupling.T @ qsde.ito_matrix(spec.m) @ spec.coupling
    th = spec.constants.theta
    matrix = np.kron(np.eye(n), coeffs.a).astype(complex) + np.kron(coeffs.a, np.eye(n))
    for k in range(n):
        for j in range(n):
            matrix[:, k * n + j] += -4.0 * (th[j] @ cross @ th[k]).flatten(order="F")
    return matrix


def test_apply_lambda_past_the_dense_cap():
    # Pauli x qutrit (n = 35 > MAX_DIM, m = 4) against the cross form
    # A Z + Z A^T - 4 sum_jk Z_jk theta_j M^T Omega M theta_k
    rng = np.random.default_rng(5)
    constants = composite.augment_constants(model.pauli_constants(), gell_mann_constants(3))
    n = constants.n
    spec = qsde.system_spec(constants, rng.uniform(-1, 1, n), rng.uniform(-1, 1, (4, n)), rng.uniform(-1, 1, 4))
    coeffs = qsde.build_coefficients(spec)
    z = random_hermitian(rng, n)
    cross = spec.coupling.T @ qsde.ito_matrix(spec.m) @ spec.coupling
    th = constants.theta
    noise = -4.0 * np.einsum("jk,jpq,qr,krs->ps", z, th, cross, th, optimize=True)
    want = coeffs.a @ z + z @ coeffs.a.T + noise
    got = second_moment.apply_lambda(spec, coeffs, z)
    assert n == 35 > model.MAX_DIM
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def projected_restriction(spec, coeffs):
    # w^H Lambda w in the orthonormal Hermitian basis; it must be real
    w = np.column_stack([b.flatten(order="F") for b in hermitian_basis(coeffs.n)])
    restricted = w.conj().T @ column_loop_lambda(spec, coeffs) @ w
    if np.abs(restricted.imag).max() > 1e-8:
        raise ValueError("restriction to Hermitian matrices is not real")
    return restricted.real


def reference_cases(worked):
    rng = np.random.default_rng(4)
    specs = [random_pauli_spec(rng, m=4) for _ in range(3)]
    return [worked, gell_mann_system()] + [(spec, qsde.build_coefficients(spec)) for spec in specs]


def matched_distance(got, want):
    # largest distance between two eigenvalue multisets paired optimally
    assert len(got) == len(want)
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max()


def test_lambda_operator_matches_column_loop(worked):
    # column e_c of the real generator is the real form of the column-loop
    # Lambda applied to Z = sym(E_c) + i skew(E_c)
    for spec, coeffs in reference_cases(worked):
        n = coeffs.n
        units = [e.reshape((n, n), order="F") for e in np.eye(n * n)]
        herm = np.column_stack([((e + e.T) / 2 + 1j * (e - e.T) / 2).flatten(order="F") for e in units])
        images = column_loop_lambda(spec, coeffs) @ herm
        want = images.real + images.imag
        op = second_moment.lambda_operator(spec, coeffs)
        np.testing.assert_allclose(op, want, rtol=0, atol=1e-12 * np.abs(want).max())


def test_spectrum_matches_complex_and_projected_references(worked):
    for i, (spec, coeffs) in enumerate(reference_cases(worked)):
        op = second_moment.lambda_operator(spec, coeffs)
        got = np.linalg.eigvals(op)
        proj = projected_restriction(spec, coeffs)
        scale = np.abs(got).max()
        # the worked qubit's spectrum has 2 x 2 Jordan blocks (-4, -6 +- 2i),
        # whose computed eigenvalues move by O(sqrt(eps)) under any rounding:
        # the complex and projected references differ by 2e-8 there
        tol = 1e-7 if i == 0 else 1e-12
        assert matched_distance(got, np.linalg.eigvals(column_loop_lambda(spec, coeffs))) <= tol * scale
        assert matched_distance(got, np.linalg.eigvals(proj)) <= tol * scale
        ref = qsde.spectral_abscissa(proj)
        assert abs(qsde.spectral_abscissa(op) - ref) <= 1e-12 * abs(ref)


def test_real_trace_flow_matches_complex_flow(worked):
    times = np.linspace(0.0, 5.0, 41)
    for spec, coeffs in reference_cases(worked):
        n = coeffs.n
        flow = expm(5.0 / 40 * column_loop_lambda(spec, coeffs))
        vec = np.eye(n).flatten(order="F").astype(complex)
        want = []
        for _ in times:
            want.append(np.trace(vec.reshape((n, n), order="F")))
            vec = flow @ vec
        want = np.array(want)
        assert np.abs(want.imag).max() <= 1e-12 * np.abs(want).max()
        got = second_moment.pi_trace_flow(second_moment.lambda_operator(spec, coeffs), times)
        assert np.abs(got - want.real).max() <= 1e-12 * np.abs(want).max()


def complex_coupling_system():
    # M with complex entries: Lambda no longer maps Hermitian matrices to
    # Hermitian ones.  system_spec refuses such an M, so the spec is built
    # directly to reach lambda_operator's own check
    spec = qsde.SystemSpec(
        model.pauli_constants(), np.array([0.0, 0.0, 1.0]), np.array([[1.0 + 0.3j, 0.0, 0.0], [0.0, 1.0, 0.2j]]), np.zeros(2)
    )
    return spec, qsde.build_coefficients(spec)


def test_hermitian_abscissa_rejects_non_real_restriction():
    system = complex_coupling_system()
    with pytest.raises(ValueError, match=r"not real \(max imag 4.8\)"):
        second_moment.lambda_operator(*system)
    with pytest.raises(ValueError, match="not real"):
        projected_restriction(*system)


@pytest.mark.parametrize("times", [np.linspace(0.0, 5.0, 41), [0.0, 0.3, 1.1, 2.7], [2.7, 0.3, 1.1], [0.4, 0.0, 0.5], [1.0, 1.0], [0.8], []])
def test_trace_flow_matches_per_point_expm_on_gell_mann(times, monkeypatch):
    op = second_moment.lambda_operator(*gell_mann_system())
    vec0 = np.eye(8).flatten(order="F")
    ref = [expm(float(t) * op) @ vec0 for t in times]
    for got, want in zip(qsde.propagate(op, vec0, times), ref):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    calls = []
    monkeypatch.setattr(qsde, "expm", lambda mat: calls.append(mat) or expm(mat))
    tr = second_moment.pi_trace_flow(op, times)
    want_tr = np.array([np.trace(v.reshape((8, 8), order="F")).real for v in ref])
    assert np.abs(tr - want_tr).max(initial=0.0) <= 1e-12 * np.abs(want_tr).max(initial=0.0)
    if len(times) == 41:
        assert len(calls) == 1


def test_trace_flow_refuses_nan_trace(worked, monkeypatch):
    op = second_moment.lambda_operator(*worked)
    monkeypatch.setattr(second_moment, "propagate", lambda gen, vec0, times: iter([np.full(9, np.nan)]))
    with pytest.raises(ValueError, match="nonnegative axis"):
        second_moment.pi_trace_flow(op, [0.0])


def test_lambda_operator_memory_below_four_and_a_half_n4_arrays():
    # assembly holds the complex sandwich product (two real n^4 arrays) and,
    # while the Hermitian check compares it with its permuted view, two more
    pauli = model.pauli_constants()
    constants = composite.augment_constants(pauli, pauli)
    rng = np.random.default_rng(3)
    n = constants.n
    spec = qsde.system_spec(constants, rng.uniform(-1, 1, n), rng.uniform(-1, 1, (2, n)), rng.uniform(-1, 1, 2))
    coeffs = qsde.build_coefficients(spec)
    tracemalloc.start()
    try:
        op = second_moment.lambda_operator(spec, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 15 and op.shape == (n * n, n * n)
    assert peak < 4.5 * 8 * n**4
