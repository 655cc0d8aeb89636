import numpy as np
import pytest
from scipy.linalg import expm

from quasilin import composite, model, oracle, qsde
from conftest import gell_mann_constants, gell_mann_matrices, random_pauli_spec

QUBIT = oracle.pauli_representation()
QUTRIT = oracle.HilbertRep(dim=3, variables=tuple(gell_mann_matrices(3)), constants=gell_mann_constants(3))


def loop_superoperator(rep, spec):
    """Reference: the Heisenberg generator applied column by column to matrix units."""
    d = rep.dim
    mats = np.stack(rep.variables)
    h = np.tensordot(spec.energy, mats, axes=1)
    ls = [np.tensordot(row, mats, axes=1) + off * np.eye(d) for row, off in zip(spec.coupling, spec.offset)]
    omega = qsde.ito_matrix(spec.m)

    def apply(xi):
        out = 1j * (h @ xi - xi @ h)
        for j in range(len(ls)):
            for k in range(len(ls)):
                out += 0.5 * omega[j, k] * ((ls[j] @ xi - xi @ ls[j]) @ ls[k] + ls[j] @ (xi @ ls[k] - ls[k] @ xi))
        return out

    sup = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros((d, d), dtype=complex)
        unit[col % d, col // d] = 1.0
        sup[:, col] = apply(unit).flatten(order="F")
    return sup


def loop_representation_check(rep):
    alpha, beta = rep.constants.alpha, rep.constants.beta
    worst = 0.0
    for j in range(rep.constants.n):
        for k in range(rep.constants.n):
            lin = np.tensordot(beta[:, j, k], np.stack(rep.variables), axes=1)
            resid = rep.variables[j] @ rep.variables[k] - alpha[j, k] * np.eye(rep.dim) - lin
            worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def loop_two_point_commutator(rep, spec, rho0, s, t):
    d, n = rep.dim, rep.constants.n
    sup = loop_superoperator(rep, spec).conj().T
    rho_s = (expm(s * sup) @ rho0.flatten(order="F")).reshape((d, d), order="F")
    rho_s = rho_s / np.trace(rho_s)
    flow = expm((t - s) * sup)
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        comm = rep.variables[k] @ rho_s - rho_s @ rep.variables[k]
        prop = (flow @ comm.flatten(order="F")).reshape((d, d), order="F")
        for j in range(n):
            out[j, k] = np.trace(rep.variables[j] @ prop)
    return out


def tensor_rep(rep1, rep2):
    """The tensor representation carrying the product constants of its factors."""
    return oracle.tensor_representation(rep1, rep2, composite.augment_constants(rep1.constants, rep2.constants))


def random_cases(rng, count):
    """Random (rep, spec) pairs on the Pauli and Pauli (x) Pauli representations."""
    qubit = oracle.pauli_representation()
    pair = tensor_rep(qubit, qubit)
    for i in range(count):
        if i % 2:
            yield qubit, random_pauli_spec(rng, m=2 if i % 4 == 1 else 4)
        else:
            s1, s2 = random_pauli_spec(rng, m=2), random_pauli_spec(rng, m=2)
            spec = composite.composite_spec(s1, s2, rng.uniform(-1.0, 1.0, (3, 3)))
            yield pair, composite.augmented_system(spec)


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_superoperator_matches_column_loop():
    for rep, spec in random_cases(np.random.default_rng(30), 20):
        assert _rel(oracle.heisenberg_superoperator(rep, spec), loop_superoperator(rep, spec)) <= 1e-14


def test_representation_check_matches_index_loop():
    qubit = oracle.pauli_representation()
    pair = tensor_rep(qubit, qubit)
    assert oracle.representation_check(qubit) == loop_representation_check(qubit) == 0.0
    # a perturbed table, so the residual compared is not zero
    bent = oracle.HilbertRep(
        dim=4,
        variables=pair.variables,
        constants=model.structure_constants(pair.constants.alpha * 1.01, pair.constants.beta),
    )
    got, want = oracle.representation_check(bent), loop_representation_check(bent)
    assert want > 0.0 and abs(got - want) <= 1e-14 * want


def kron_loop_variables(rep1, rep2):
    """Reference: the tensor variables one np.kron at a time, in composite order."""
    i1, i2 = np.eye(rep1.dim), np.eye(rep2.dim)
    mats = [np.kron(x, i2) for x in rep1.variables]
    mats += [np.kron(i1, y) for y in rep2.variables]
    mats += [np.kron(x, y) for x in rep1.variables for y in rep2.variables]
    return [np.asarray(x, dtype=complex) for x in mats]


@pytest.mark.parametrize("rep1, rep2", [(QUBIT, QUBIT), (QUBIT, QUTRIT), (QUTRIT, QUBIT)], ids=["PxP", "PxG3", "G3xP"])
def test_tensor_variables_equal_kron_loop(rep1, rep2):
    got = tensor_rep(rep1, rep2).variables
    want = kron_loop_variables(rep1, rep2)
    assert len(got) == len(want) == (rep1.constants.n + 1) * (rep2.constants.n + 1) - 1
    assert all(x.dtype == complex and not x.flags.writeable for x in got)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("pair", [False, True], ids=["P", "PxP"])
def test_stacked_two_point_commutator_equals_single_lags(pair):
    # one stacked expm over the lags gives the single-lag matrices bit for bit
    rng = np.random.default_rng(32)
    rep = tensor_rep(QUBIT, QUBIT) if pair else QUBIT
    rho0 = np.eye(rep.dim, dtype=complex) / rep.dim
    for _ in range(5):
        if pair:
            s1, s2 = random_pauli_spec(rng), random_pauli_spec(rng)
            spec = composite.augmented_system(composite.composite_spec(s1, s2, rng.uniform(-1.0, 1.0, (3, 3))))
        else:
            spec = random_pauli_spec(rng)
        lags = [0.5, 1.0, 2.0]
        stacked = oracle.two_point_commutator(rep, spec, rho0, 1.0, lags)
        single = np.stack([oracle.two_point_commutator(rep, spec, rho0, 1.0, [lag])[0] for lag in lags])
        assert np.array_equal(stacked, single)
    n = rep.constants.n
    assert oracle.two_point_commutator(rep, spec, rho0, 1.0, []).shape == (0, n, n)


def test_two_point_commutator_matches_index_loop():
    for rep, spec in random_cases(np.random.default_rng(31), 8):
        rho0 = np.eye(rep.dim, dtype=complex) / rep.dim
        got = oracle.two_point_commutator(rep, spec, rho0, 0.6, [1.7 - 0.6])[0]
        assert _rel(got, loop_two_point_commutator(rep, spec, rho0, 0.6, 1.7)) <= 1e-14


def test_pauli_representation_is_exact():
    rep = oracle.pauli_representation()
    assert rep.dim == 2
    assert oracle.representation_check(rep) == 0.0


def test_state_picture_is_the_adjoint(worked):
    # Tr((G X) rho) == Tr(X (G* rho)) for the two pictures
    spec, _ = worked
    rep = oracle.pauli_representation()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    sup = oracle.heisenberg_superoperator(rep, spec)
    gx = (sup @ x.flatten(order="F")).reshape((2, 2), order="F")
    sup_state = oracle.state_superoperator(rep, spec)
    grho = (sup_state @ rho.flatten(order="F")).reshape((2, 2), order="F")
    assert abs(np.trace(gx @ rho) - np.trace(x @ grho)) < 1e-12


def test_propagation_preserves_state(worked):
    spec, _ = worked
    rep = oracle.pauli_representation()
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    rho_t, residual = oracle.lindblad_propagate(rep, spec, rho0, 1.3)
    assert residual <= 1e-9
    assert abs(np.trace(rho_t) - 1.0) < 1e-10
    np.testing.assert_allclose(rho_t, rho_t.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(rho_t).min() > -1e-10


def test_propagation_refuses_a_nan_state(worked):
    # a NaN in rho0 fails the Hermitian gate before any exponential is formed
    spec, _ = worked
    rho0 = np.diag([0.5, 0.5]).astype(complex)
    rho0[0, 1] = np.nan
    with pytest.raises(ValueError, match="^state is not Hermitian$"):
        oracle.lindblad_propagate(oracle.pauli_representation(), spec, rho0, 1.0)


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
    table = oracle.two_point_commutator(rep, spec, rho0, s, [0.0])
    mu_s = qsde.mean_flow(coeffs, np.zeros(3), [s])[0]
    expected = qsde.mean_two_point_ccr(coeffs, spec.constants, mu_s, [0.0])
    np.testing.assert_allclose(table, expected, atol=1e-10)


def test_two_point_commutator_requires_ordered_times(worked, monkeypatch):
    spec, _ = worked
    rep = oracle.pauli_representation()
    with pytest.raises(ValueError):
        oracle.two_point_commutator(rep, spec, np.eye(2, dtype=complex) / 2, 1.0, [-0.5])
    # a non-finite lag is refused before any exponential is formed
    monkeypatch.setattr(oracle, "expm", lambda m: pytest.fail("an exponential was formed"))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            oracle.two_point_commutator(rep, spec, np.eye(2, dtype=complex) / 2, 1.0, [0.5, bad])


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


@pytest.mark.parametrize(
    "energy, coupling, kernel",
    [
        ([0.0, 0.0, 1.0], np.zeros((2, 3)), 2),
        ([0.0, 0.0, 1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], 2),
        ([0.0, 0.0, 0.0], np.zeros((2, 3)), 4),
    ],
    ids=["zero-coupling", "pure-dephasing", "zero-generator"],
)
def test_stationary_state_refuses_degenerate_kernel(pauli, energy, coupling, kernel):
    # the first two keep every state diagonal in the sigma_z basis stationary
    spec = qsde.system_spec(pauli, energy, coupling, np.zeros(2))
    with pytest.raises(ValueError, match="kernel dimension %d" % kernel):
        oracle.stationary_state(oracle.pauli_representation(), spec)


def test_two_point_commutator_checks_the_state(worked, monkeypatch):
    spec, _ = worked
    rep = oracle.pauli_representation()
    with pytest.raises(ValueError, match="trace"):
        oracle.two_point_commutator(rep, spec, np.eye(2, dtype=complex), 0.5, [0.5])
    with pytest.raises(ValueError, match="nonnegative"):
        oracle.two_point_commutator(rep, spec, np.eye(2, dtype=complex) / 2, -0.5, [1.5])
    # a non-finite s is refused before any exponential is formed
    monkeypatch.setattr(oracle, "expm", lambda m: pytest.fail("an exponential was formed"))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="propagation time must be finite"):
            oracle.two_point_commutator(rep, spec, np.eye(2, dtype=complex) / 2, bad, [1.5])


def test_tensor_representation_dim_limit():
    rep = oracle.pauli_representation()
    four = tensor_rep(rep, rep)
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
        tensor_rep(sixteen, rep)
    with pytest.raises(ValueError, match="constants have n = 3, the representation 15 variables"):
        oracle.tensor_representation(rep, rep, rep.constants)


def test_trace_drift_raises_consistency_error(worked, monkeypatch):
    # a propagator that doubles the trace must be refused, also under python -O
    spec, _ = worked
    rep = oracle.pauli_representation()
    monkeypatch.setattr(oracle, "expm", lambda m: 2.0 * np.eye(m.shape[0]))
    with pytest.raises(model.ConsistencyError, match="trace drifted by 1"):
        oracle.lindblad_propagate(rep, spec, np.diag([0.5, 0.5]).astype(complex), 1.0)
    # a non-finite time is refused as such, not reported as a drift of nan
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="propagation time must be finite"):
            oracle.lindblad_propagate(rep, spec, np.diag([0.5, 0.5]).astype(complex), bad)
    assert issubclass(model.ConsistencyError, ArithmeticError)


@pytest.mark.parametrize(
    "rho,message",
    [
        (np.eye(3) / 3, r"state has shape \(3, 3\), expected \(2, 2\)"),
        ([[0.5, 0.5], [0.0, 0.5]], "state is not Hermitian"),
        (np.diag([1.5, -0.5]), "state has a negative eigenvalue"),
    ],
    ids=["shape", "not hermitian", "negative"],
)
def test_propagate_refuses_bad_states(worked, rho, message):
    spec, _ = worked
    with pytest.raises(ValueError, match=message):
        oracle.lindblad_propagate(oracle.pauli_representation(), spec, rho, 0.1)


def test_superoperator_refuses_a_coupling_width_that_does_not_match():
    spec = qsde.system_spec(model.structure_constants(np.eye(2), np.zeros((2, 2, 2))), [0.0, 1.0], np.eye(2))
    with pytest.raises(ValueError, match="^coupling width 2 does not match representation$"):
        oracle.heisenberg_superoperator(oracle.pauli_representation(), spec)


def test_generator_output_that_is_not_hermitian_is_refused(worked, monkeypatch):
    # a superoperator with a small imaginary factor, as a rounding fault
    # would leave it, maps the Hermitian X_j off the Hermitian matrices
    spec, coeffs = worked
    rep = oracle.pauli_representation()
    real = oracle.heisenberg_superoperator
    monkeypatch.setattr(oracle, "heisenberg_superoperator", lambda rep, spec: (1 + 1e-9j) * real(rep, spec))
    with pytest.raises(model.ConsistencyError, match="^GKSL output of a Hermitian input is not Hermitian$"):
        oracle.generator_identity_check(rep, spec, coeffs)


def test_stationary_state_refuses_a_kernel_vector_off_the_kernel(worked, monkeypatch):
    # an SVD whose last right singular vector is vec(I)/sqrt(2), which the
    # generator does not annihilate, while the singular values still show a
    # one-dimensional kernel
    spec, _ = worked
    real = np.linalg.svd

    def faulty(mat):
        u, sv, vh = real(mat)
        vh = vh.copy()
        vh[-1] = np.eye(2).ravel() / np.sqrt(2.0)
        return u, sv, vh

    monkeypatch.setattr(np.linalg, "svd", faulty)
    with pytest.raises(ValueError, match="^no stationary state found, kernel residual "):
        oracle.stationary_state(oracle.pauli_representation(), spec)


def test_superoperator_that_overflows_is_refused(pauli):
    # the offset enters the drift linearly but K = L^2 quadratically, so the
    # drift is finite and the generator is not
    spec = qsde.system_spec(pauli, [0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [-1e300, 0.0])
    assert np.isfinite(qsde.build_coefficients(spec).a).all()
    with pytest.raises(ValueError, match="^GKSL generator is not finite: the model's entries overflow it$"):
        oracle.heisenberg_superoperator(oracle.pauli_representation(), spec)
