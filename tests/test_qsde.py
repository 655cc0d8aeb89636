import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from quasilin import oracle, qsde
from conftest import random_pauli_spec, random_stable_pauli_spec

A_REF = np.array([[-2.0, -2.0, 0.0], [2.0, -2.0, 0.0], [0.0, 0.0, -4.0]])
A0_REF = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
B_REF = np.array([0.0, 0.0, 4.0])


def test_ito_structure_paired_form():
    ito = qsde.ito_structure(2)
    np.testing.assert_array_equal(ito.j_mat, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(ito.omega, np.eye(2) + 1j * ito.j_mat)
    ito4 = qsde.ito_structure(4)
    np.testing.assert_array_equal(ito4.j_mat[:2, 2:], np.eye(2))
    # J = [[0, 1], [-1, 0]] (x) I_{m/2}
    for m in (2, 4, 6, 8):
        kron = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(m // 2))
        np.testing.assert_array_equal(qsde.ito_structure(m).j_mat, kron)
        np.testing.assert_array_equal(qsde.ito_structure(m).omega, np.eye(m) + 1j * kron)
    for m in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            qsde.ito_structure(m)


def test_reference_qubit_drift(worked):
    _, coeffs = worked
    np.testing.assert_allclose(coeffs.a, A_REF, atol=1e-14)
    np.testing.assert_allclose(coeffs.a0, A0_REF, atol=1e-14)
    np.testing.assert_allclose(coeffs.atilde, A_REF - A0_REF, atol=1e-14)
    np.testing.assert_allclose(coeffs.b, B_REF, atol=1e-14)


def test_energy_row_annihilates_a0():
    # E^T A0 = 0 because A0 contracts an antisymmetric section twice with E
    rng = np.random.default_rng(5)
    for _ in range(25):
        spec = random_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        assert np.abs(spec.energy @ coeffs.a0).max() < 1e-12


def test_mean_flow_against_ode_integrator(worked):
    _, coeffs = worked
    mu0 = np.array([0.4, -0.2, 0.1])
    times = [0.0, 0.3, 1.1, 2.7]
    flow = qsde.mean_flow(coeffs, mu0, times)
    sol = solve_ivp(
        lambda _, y: coeffs.a @ y + coeffs.b,
        (0.0, times[-1]),
        mu0,
        t_eval=times,
        rtol=1e-11,
        atol=1e-12,
    )
    np.testing.assert_allclose(flow, sol.y.T, atol=1e-8)


def test_steady_mean_reference_and_flow_limit(worked):
    _, coeffs = worked
    mu_star = qsde.steady_mean(coeffs)
    np.testing.assert_allclose(mu_star, [0.0, 0.0, 1.0], atol=1e-14)
    far = qsde.mean_flow(coeffs, np.array([1.0, -1.0, 0.0]), [25.0])[0]
    np.testing.assert_allclose(far, mu_star, atol=1e-12)


def test_steady_mean_refuses_non_hurwitz(pauli):
    spec = qsde.system_spec(pauli, [0.0, 0.0, 1.0], np.zeros((2, 3)), np.zeros(2))
    coeffs = qsde.build_coefficients(spec)
    with pytest.raises(ValueError):
        qsde.steady_mean(coeffs)


def test_qcf_closed_form_along_e3(worked, pauli):
    # for u = t e3 the qubit characteristic function is cos t + i mu3 sin t
    _, coeffs = worked
    mu_star = qsde.steady_mean(coeffs)
    for t in (0.0, 0.3, 1.0, 2.5):
        val = qsde.qcf(pauli, mu_star, np.array([0.0, 0.0, t]))
        assert abs(val - (np.cos(t) + 1j * np.sin(t) * mu_star[2])) < 1e-12


def test_qcf_against_exact_state(worked, pauli):
    spec, coeffs = worked
    rep = oracle.pauli_representation()
    rho = oracle.stationary_state(rep, spec)
    mu_star = qsde.steady_mean(coeffs)
    rng = np.random.default_rng(9)
    for _ in range(6):
        u = rng.uniform(-2.0, 2.0, 3)
        xu = sum(u[k] * rep.variables[k] for k in range(3))
        ref = np.trace(rho @ expm(1j * xu))
        assert abs(qsde.qcf(pauli, mu_star, u) - ref) < 1e-10


def test_equilibrium_moments_reference(worked, pauli):
    _, coeffs = worked
    mu_star = qsde.steady_mean(coeffs)
    # X3^2 = I and X1 X2 = i X3 at mu* = e3
    assert abs(qsde.equilibrium_moment([3], [2], pauli, mu_star) - 1.0) < 1e-14
    assert abs(qsde.equilibrium_moment([1, 2], [1, 1], pauli, mu_star) - 1j) < 1e-14


def test_energy_rate_vanishes_at_steady_state(worked):
    spec, coeffs = worked
    mu_star = qsde.steady_mean(coeffs)
    assert abs(qsde.energy_rate(spec, coeffs, mu_star)) < 1e-12
    # off equilibrium the rate is the energy component of the damped flow
    mu = np.array([0.2, 0.1, -0.4])
    expected = spec.energy @ (coeffs.atilde @ mu + coeffs.b)
    assert abs(qsde.energy_rate(spec, coeffs, mu) - expected) < 1e-14


def test_dispersion_linear_in_state(worked):
    _, coeffs = worked
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    bx = qsde.dispersion(coeffs, x)
    by = qsde.dispersion(coeffs, y)
    bxy = qsde.dispersion(coeffs, 2.0 * x - 3.0 * y)
    np.testing.assert_allclose(bxy, 2.0 * bx - 3.0 * by, atol=1e-12)
    assert bx.shape == (3, 2)
    # entrywise: B(x) = 2 (Theta . x) M^T
    ref = 2.0 * np.tensordot(x, coeffs.theta, axes=([0], [0])) @ coeffs.coupling.T
    np.testing.assert_allclose(bx, ref, atol=1e-14)


def test_two_point_ccr_decay_and_start(worked, pauli):
    _, coeffs = worked
    mu_s = qsde.mean_flow(coeffs, np.zeros(3), [1.0])[0]
    start = qsde.mean_two_point_ccr(coeffs, pauli, mu_s, 0.0)
    np.testing.assert_allclose(start, 2j * np.tensordot(mu_s, pauli.theta, axes=([0], [0])), atol=1e-14)
    np.testing.assert_allclose(start, -start.T, atol=1e-14)
    with pytest.raises(ValueError):
        qsde.mean_two_point_ccr(coeffs, pauli, mu_s, -0.1)


def test_two_point_ccr_against_oracle_random():
    rng = np.random.default_rng(3)
    rep = oracle.pauli_representation()
    rho0 = np.eye(2, dtype=complex) / 2.0
    for _ in range(5):
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        mu_s = qsde.mean_flow(coeffs, np.zeros(3), [1.0])[0]
        for tau in (0.5, 2.0):
            table = oracle.two_point_commutator(rep, spec, rho0, 1.0, 1.0 + tau)
            pred = qsde.mean_two_point_ccr(coeffs, spec.constants, mu_s, tau)
            np.testing.assert_allclose(table, pred, atol=1e-10)


PROPAGATE_GRIDS = {
    "default": np.linspace(0.0, 5.0, 41),
    "ulp-steps": np.linspace(0.0, 4.0, 30),
    "uneven": [0.0, 0.3, 1.1, 2.7],
    "unsorted": [2.7, 0.3, 1.1],
    "negative-first": [-0.6, 0.2, 1.5],
    "repeated": [0.5, 0.5, 1.5, 1.5, 1.5, 2.5],
    "single": [1.7],
    "empty": [],
}


def assert_matches_per_point_expm(gen, state0, times, got):
    got = list(got)
    assert len(got) == len(times)
    for t, state in zip(times, got):
        ref = expm(float(t) * gen) @ state0
        assert np.linalg.norm(state - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("grid", sorted(PROPAGATE_GRIDS))
def test_propagate_matches_per_point_expm(worked, grid):
    _, coeffs = worked
    times = PROPAGATE_GRIDS[grid]
    rng = np.random.default_rng(11)
    for state0 in (rng.normal(size=3), np.eye(3)):
        got = qsde.propagate(coeffs.a, state0, times)
        assert_matches_per_point_expm(coeffs.a, state0, times, got)
    mu0 = rng.normal(size=3)
    aug = np.zeros((4, 4))
    aug[:3, :3], aug[:3, 3] = coeffs.a, coeffs.b
    ref = [(expm(float(t) * aug) @ np.append(mu0, 1.0))[:3] for t in times]
    flow = qsde.mean_flow(coeffs, mu0, times)
    assert flow.shape == (len(times), 3)
    for got, want in zip(flow, ref):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def count_exponentials(monkeypatch):
    calls = []

    def counting(mat):
        calls.append(mat)
        return expm(mat)

    monkeypatch.setattr(qsde, "expm", counting)
    return calls


def test_propagate_one_exponential_per_step_length(worked, monkeypatch):
    _, coeffs = worked
    calls = count_exponentials(monkeypatch)
    state0 = np.ones(3)
    expected = {
        "default": 1,
        "ulp-steps": 1,
        "uneven": 3,
        "unsorted": 3,  # restart at 2.7, restart at 0.3, step 0.8
        "negative-first": 3,  # restart at -0.6, then steps 0.8 and 1.3
        "repeated": 2,  # first step 0.5, then the 1.0 step twice
        "single": 1,
        "empty": 0,
    }
    for grid, count in expected.items():
        calls.clear()
        list(qsde.propagate(coeffs.a, state0, PROPAGATE_GRIDS[grid]))
        assert len(calls) == count, grid


def test_propagate_at_most_two_exponentials_on_linspace(worked, monkeypatch):
    _, coeffs = worked
    calls = count_exponentials(monkeypatch)
    rng = np.random.default_rng(3)
    # includes grids whose last point is not t0 + (N - 1) h bit for bit
    grids = [(0.0, 98.08372552423525, 308), (0.0, 52.540178704347824, 195), (1.0, 3.0, 2)]
    grids += [(rng.uniform(0, 5), rng.uniform(5, 50), int(rng.integers(2, 200))) for _ in range(100)]
    # a negative time takes its own exponential; the rest of the grid at most two
    grids += [(-8.828639303896113, 6.207804590918844, 438), (-1.0, 1.0, 21)]
    for t0, t1, num in grids:
        calls.clear()
        times = np.linspace(t0, t1, num)
        for state in qsde.propagate(coeffs.a, np.ones(3), times):
            pass
        assert len(calls) <= 2 + np.count_nonzero(times < 0), (t0, t1, num)
        assert np.linalg.norm(state - expm(times[-1] * coeffs.a) @ np.ones(3)) <= 1e-10 * np.linalg.norm(state)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagate_refuses_non_finite_times(worked, bad):
    _, coeffs = worked
    with pytest.raises(ValueError, match="finite"):
        list(qsde.propagate(coeffs.a, np.ones(3), [0.0, bad, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        qsde.mean_flow(coeffs, np.zeros(3), [bad])
