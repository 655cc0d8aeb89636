import numpy as np
import pytest
from scipy.linalg import expm

from quasilin import model, qsde, second_moment
from conftest import gell_mann_constants, random_pauli_spec


def test_apply_matches_matrix_route(worked):
    _, coeffs = worked
    op = second_moment.lambda_operator(coeffs)
    mat = second_moment.lambda_matrix(op)
    rng = np.random.default_rng(0)
    for _ in range(8):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direct = second_moment.apply_lambda(op, z)
        via = (mat @ z.flatten(order="F")).reshape((3, 3), order="F")
        np.testing.assert_allclose(direct, via, atol=1e-12)


def test_apply_matches_matrix_route_random_specs():
    rng = np.random.default_rng(1)
    for _ in range(5):
        coeffs = qsde.build_coefficients(random_pauli_spec(rng, m=4))
        op = second_moment.lambda_operator(coeffs)
        mat = second_moment.lambda_matrix(op)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        direct = second_moment.apply_lambda(op, z)
        via = (mat @ z.flatten(order="F")).reshape((3, 3), order="F")
        np.testing.assert_allclose(direct, via, atol=1e-12)


def test_hermitian_basis_orthonormal():
    basis = second_moment.hermitian_basis(4)
    assert len(basis) == 16
    for p, bp in enumerate(basis):
        np.testing.assert_allclose(bp, bp.conj().T, atol=1e-15)
        for q, bq in enumerate(basis):
            ip = np.trace(bp.conj().T @ bq)
            assert abs(ip - (1.0 if p == q else 0.0)) < 1e-14


def test_reference_hermitian_abscissa(worked):
    _, coeffs = worked
    op = second_moment.lambda_operator(coeffs)
    val = second_moment.lambda_hermitian_abscissa(op)
    assert abs(val - (-4.0)) < 1e-9


def test_trace_flow_dominates_squared_propagator(worked):
    # Tr Pi(t) >= ||e^{tA}||_F^2, the gap is the quantum noise contribution
    _, coeffs = worked
    op = second_moment.lambda_operator(coeffs)
    times = np.linspace(0.0, 4.0, 30)
    tr = second_moment.pi_trace_flow(op, times)
    lower = np.array([np.linalg.norm(expm(t * coeffs.a), "fro") ** 2 for t in times])
    assert (tr - lower).min() > -1e-9


def test_trace_flow_starts_at_dimension(worked):
    _, coeffs = worked
    op = second_moment.lambda_operator(coeffs)
    tr = second_moment.pi_trace_flow(op, [0.0])
    assert abs(tr[0] - 3.0) < 1e-12


def test_capability_limit_on_large_systems():
    n = 17
    constants = model.structure_constants(np.eye(n), np.zeros((n, n, n)))
    spec = qsde.system_spec(constants, np.zeros(n), np.zeros((2, n)), np.zeros(2))
    coeffs = qsde.build_coefficients(spec)
    with pytest.raises(model.CapabilityLimit):
        second_moment.lambda_operator(coeffs)


def test_hermitian_abscissa_rejects_non_real_restriction(worked):
    _, coeffs = worked
    op = second_moment.lambda_operator(coeffs)
    skew = second_moment.LambdaOperator(
        a=op.a + 1j * np.eye(3),
        theta=op.theta,
        cross=op.cross,
        matrix=op.matrix + 1j * np.eye(9),
    )
    with pytest.raises(ValueError):
        second_moment.lambda_hermitian_abscissa(skew)


def gell_mann_coeffs(seed=0):
    # qutrit (n = 8) with a Hurwitz drift drawn on [-1, 1]
    rng = np.random.default_rng(seed)
    constants = gell_mann_constants(3)
    while True:
        spec = qsde.system_spec(
            constants, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, (2, 8)), rng.uniform(-1, 1, 2)
        )
        coeffs = qsde.build_coefficients(spec)
        if qsde.spectral_abscissa(coeffs.a) < -1e-2:
            return coeffs


def column_loop_lambda(coeffs):
    # the generator filled one column k*n + j at a time
    n = coeffs.n
    cross = coeffs.coupling.T @ qsde.ito_structure(coeffs.coupling.shape[0]).omega @ coeffs.coupling
    th = coeffs.theta
    matrix = np.kron(np.eye(n), coeffs.a).astype(complex) + np.kron(coeffs.a, np.eye(n))
    for k in range(n):
        for j in range(n):
            matrix[:, k * n + j] += -4.0 * (th[j] @ cross @ th[k]).flatten(order="F")
    return matrix


def test_lambda_operator_matches_column_loop(worked):
    rng = np.random.default_rng(4)
    cases = [worked[1], gell_mann_coeffs()]
    cases += [qsde.build_coefficients(random_pauli_spec(rng, m=4)) for _ in range(3)]
    for coeffs in cases:
        op = second_moment.lambda_operator(coeffs)
        np.testing.assert_array_equal(op.matrix, column_loop_lambda(coeffs))


@pytest.mark.parametrize("times", [np.linspace(0.0, 5.0, 41), [0.0, 0.3, 1.1, 2.7], [2.7, 0.3, 1.1], [-0.4, 0.5], [1.0, 1.0], [0.8], []])
def test_trace_flow_matches_per_point_expm_on_gell_mann(times, monkeypatch):
    coeffs = gell_mann_coeffs()
    op = second_moment.lambda_operator(coeffs)
    vec0 = np.eye(8).flatten(order="F")
    ref = [expm(float(t) * op.matrix) @ vec0 for t in times]
    for got, want in zip(qsde.propagate(op.matrix, vec0, times), ref):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    calls = []
    monkeypatch.setattr(qsde, "expm", lambda mat: calls.append(mat) or expm(mat))
    tr = second_moment.pi_trace_flow(op, times)
    want_tr = np.array([np.trace(v.reshape((8, 8), order="F")).real for v in ref])
    assert np.abs(tr - want_tr).max(initial=0.0) <= 1e-12 * np.abs(want_tr).max(initial=0.0)
    if len(times) == 41:
        assert len(calls) == 1


def test_trace_flow_refuses_nan_trace(worked, monkeypatch):
    _, coeffs = worked
    op = second_moment.lambda_operator(coeffs)
    monkeypatch.setattr(second_moment, "propagate", lambda gen, vec0, times: iter([np.full(9, np.nan)]))
    with pytest.raises(ValueError, match="nonnegative axis"):
        second_moment.pi_trace_flow(op, [0.0])

