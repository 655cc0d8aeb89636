import numpy as np
import pytest

from quasilin import model, oracle, qsde
from conftest import random_pauli_spec


def test_pauli_representation_is_exact():
    rep = oracle.pauli_representation()
    assert rep.dim == 2
    assert oracle.representation_check(rep) == 0.0


def test_superoperator_matches_direct_application(worked):
    spec, _ = worked
    rep = oracle.pauli_representation()
    sup = oracle.heisenberg_superoperator(rep, spec)
    rng = np.random.default_rng(0)
    for _ in range(5):
        xi = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        direct = oracle.gksl_apply(rep, spec, xi)
        via_matrix = (sup @ xi.flatten(order="F")).reshape((2, 2), order="F")
        np.testing.assert_allclose(via_matrix, direct, atol=1e-12)


def test_state_picture_is_the_adjoint(worked):
    # Tr((G X) rho) == Tr(X (G* rho)) for the two pictures
    spec, _ = worked
    rep = oracle.pauli_representation()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gx = oracle.gksl_apply(rep, spec, x)
    sup_state = oracle.state_superoperator(rep, spec)
    grho = (sup_state @ rho.flatten(order="F")).reshape((2, 2), order="F")
    assert abs(np.trace(gx @ rho) - np.trace(x @ grho)) < 1e-12


def test_superoperator_cache_returns_same_object(worked):
    spec, _ = worked
    rep = oracle.pauli_representation()
    s1 = oracle.heisenberg_superoperator(rep, spec)
    s2 = oracle.heisenberg_superoperator(rep, spec)
    assert s1 is s2


def test_propagation_preserves_state(worked):
    spec, _ = worked
    rep = oracle.pauli_representation()
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    rho_t, residual = oracle.lindblad_propagate(rep, spec, rho0, 1.3)
    assert residual <= 1e-9
    assert abs(np.trace(rho_t) - 1.0) < 1e-10
    np.testing.assert_allclose(rho_t, rho_t.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(rho_t).min() > -1e-10


def test_stationary_state_of_reference_qubit(worked):
    # steady mean (0, 0, 1) corresponds to the pure state (I + sigma_z)/2
    spec, coeffs = worked
    rep = oracle.pauli_representation()
    rho = oracle.stationary_state(rep, spec)
    np.testing.assert_allclose(rho, np.diag([1.0, 0.0]).astype(complex), atol=1e-10)
    np.testing.assert_allclose(oracle.moments(rep, rho), qsde.steady_mean(coeffs), atol=1e-10)


def test_generator_identity_reference(worked):
    spec, coeffs = worked
    rep = oracle.pauli_representation()
    assert oracle.generator_identity_check(rep, spec, coeffs) < 1e-12


def test_generator_identity_random_specs():
    rep = oracle.pauli_representation()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        spec = random_pauli_spec(rng, m=4)
        coeffs = qsde.build_coefficients(spec)
        worst = max(worst, oracle.generator_identity_check(rep, spec, coeffs))
    assert worst < 1e-12


def test_two_point_commutator_at_equal_times(worked):
    """At tau = 0 the commutator table is the CCR matrix 2i Theta . mu_s."""
    spec, coeffs = worked
    rep = oracle.pauli_representation()
    rho0 = np.eye(2, dtype=complex) / 2.0
    s = 0.7
    table = oracle.two_point_commutator(rep, spec, rho0, s, s)
    mu_s = qsde.mean_flow(coeffs, np.zeros(3), [s])[0]
    expected = qsde.mean_two_point_ccr(coeffs, spec.constants, mu_s, 0.0)
    np.testing.assert_allclose(table, expected, atol=1e-10)


def test_two_point_commutator_requires_ordered_times(worked):
    spec, _ = worked
    rep = oracle.pauli_representation()
    with pytest.raises(ValueError):
        oracle.two_point_commutator(rep, spec, np.eye(2, dtype=complex) / 2, 1.0, 0.5)


def test_stationary_state_degenerate_kernel(pauli):
    # purely Hamiltonian dynamics: the kernel is two dimensional, so either a
    # stationary element comes back or the residual guard fires
    spec = qsde.system_spec(pauli, [0.0, 0.0, 1.0], np.zeros((2, 3)), np.zeros(2))
    rep = oracle.pauli_representation()
    sup = oracle.state_superoperator(rep, spec)
    try:
        rho = oracle.stationary_state(rep, spec)
    except ValueError:
        return
    v = rho.flatten(order="F")
    assert np.linalg.norm(sup @ v) <= 1e-8 * max(1.0, np.linalg.norm(v))


def test_tensor_representation_dim_limit():
    rep = oracle.pauli_representation()
    four = oracle.tensor_representation(rep, rep)
    assert four.dim == 4
    assert oracle.representation_check(four) < 1e-12
    # dim 16 sits exactly on the limit; realize the Pauli table there with
    # block copies rather than a 4x4 composite (whose 255-variable constants
    # would make the quartic validation einsum explode)
    sixteen = oracle.HilbertRep(
        dim=16,
        variables=tuple(np.kron(s, np.eye(8)) for s in (oracle.SIGMA_X, oracle.SIGMA_Y, oracle.SIGMA_Z)),
        constants=model.pauli_constants(),
    )
    assert oracle.representation_check(sixteen) < 1e-12
    with pytest.raises(model.CapabilityLimit):
        oracle.tensor_representation(sixteen, rep)


def test_trace_drift_raises_consistency_error(worked, monkeypatch):
    # a propagator that doubles the trace must be refused, also under python -O
    spec, _ = worked
    rep = oracle.pauli_representation()
    monkeypatch.setattr(oracle, "expm", lambda m: 2.0 * np.eye(m.shape[0]))
    with pytest.raises(model.ConsistencyError, match="trace drifted by 1"):
        oracle.lindblad_propagate(rep, spec, np.diag([0.5, 0.5]).astype(complex), 1.0)
    assert issubclass(model.ConsistencyError, ArithmeticError)
