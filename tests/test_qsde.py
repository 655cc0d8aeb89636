import dataclasses
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from quasilin import composite, decoherence, model, oracle, qsde, second_moment
from conftest import gell_mann_constants, gell_mann_matrices, random_pauli_spec, random_stable_pauli_spec

A_REF = np.array([[-2.0, -2.0, 0.0], [2.0, -2.0, 0.0], [0.0, 0.0, -4.0]])
A0_REF = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
B_REF = np.array([0.0, 0.0, 4.0])


def test_ito_structure_paired_form():
    omega = qsde.ito_matrix(2)
    np.testing.assert_array_equal(omega.imag, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(omega, np.eye(2) + 1j * omega.imag)
    np.testing.assert_array_equal(qsde.ito_matrix(4).imag[:2, 2:], np.eye(2))
    # J = [[0, 1], [-1, 0]] (x) I_{m/2}
    for m in (2, 4, 6, 8):
        kron = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(m // 2))
        np.testing.assert_array_equal(qsde.ito_matrix(m).imag, kron)
        np.testing.assert_array_equal(qsde.ito_matrix(m), np.eye(m) + 1j * kron)
    for m in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            qsde.ito_matrix(m)


def test_coefficients_hold_only_the_drift():
    assert [f.name for f in dataclasses.fields(qsde.QsdeCoefficients)] == ["a", "a0", "atilde", "b"]


def test_reference_qubit_drift(worked):
    _, coeffs = worked
    np.testing.assert_allclose(coeffs.a, A_REF, atol=1e-14)
    np.testing.assert_allclose(coeffs.a0, A0_REF, atol=1e-14)
    np.testing.assert_allclose(coeffs.atilde, A_REF - A0_REF, atol=1e-14)
    np.testing.assert_allclose(coeffs.b, B_REF, atol=1e-14)


def loop_build_coefficients(spec):
    """Reference (a, a0, atilde, b): the drift assembled by a loop over the
    first coefficient index l of the resliced sections."""
    c = spec.constants
    th = c.theta
    m_mat = spec.coupling
    jm = qsde.ito_matrix(spec.m).imag
    fi_th = np.transpose(th, (1, 2, 0))
    fi_rb = np.transpose(c.beta.real, (1, 2, 0))
    a0 = 2.0 * model.diam_product(th, spec.energy)
    a = 2.0 * model.diam_product(th, spec.energy + m_mat.T @ (jm @ spec.offset))
    b = np.zeros(c.n, dtype=np.result_type(m_mat, float))
    mjm = m_mat.T @ jm @ m_mat
    for l in range(c.n):
        a = a + 2.0 * th[l] @ m_mat.T @ (m_mat @ fi_th[l] + jm @ m_mat @ fi_rb[l])
        b = b + 2.0 * th[l] @ (mjm @ c.alpha[:, l])
    return a, a0, a - a0, b


def _random_system(rng, constants, m=2):
    n = constants.n
    return qsde.system_spec(constants, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m))


def _qubit_qutrit(rng):
    s1 = _random_system(rng, model.pauli_constants())
    s2 = _random_system(rng, gell_mann_constants(3))
    return composite.augmented_system(composite.composite_spec(s1, s2, rng.uniform(-1.0, 1.0, (3, 8))))


BUILD_SYSTEMS = {
    "worked-qubit": lambda rng: qsde.system_spec(model.pauli_constants(), [0.0, 0.0, 1.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0]),
    "pauli-m4": lambda rng: _random_system(rng, model.pauli_constants(), m=4),
    "gellmann-3": lambda rng: _random_system(rng, gell_mann_constants(3)),
    "gellmann-4": lambda rng: _random_system(rng, gell_mann_constants(4)),
    "pauli-x-qutrit-35": _qubit_qutrit,
}


@pytest.mark.parametrize("name", sorted(BUILD_SYSTEMS))
def test_build_coefficients_matches_loop(name):
    # the coupling term as two BLAS products agrees with the per-l loop; the
    # Pauli sections hold only 0 and +-1, so there it agrees bit for bit
    rng = np.random.default_rng(21)
    for _ in range(3):
        spec = BUILD_SYSTEMS[name](rng)
        coeffs = qsde.build_coefficients(spec)
        ref = loop_build_coefficients(spec)
        got = (coeffs.a, coeffs.a0, coeffs.atilde, coeffs.b)
        if name in ("worked-qubit", "pauli-m4"):
            for x, y in zip(got, ref):
                np.testing.assert_array_equal(x, y)
        scale = max(1.0, float(np.max(np.abs(ref[0]))))
        for x, y in zip(got, ref):
            assert x.shape == y.shape
            assert np.max(np.abs(x - y)) <= 1e-14 * scale
    assert coeffs.n == {"gellmann-3": 8, "gellmann-4": 15, "pauli-x-qutrit-35": 35}.get(name, 3)


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
        val = qsde.qcf(pauli, mu_star, [[0.0, 0.0, t]])[0]
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
        assert abs(qsde.qcf(pauli, mu_star, [u])[0] - ref) < 1e-10


def _stationary(rng, constants, mats):
    """Exact stationary state and steady mean of a random system with a Hurwitz drift."""
    rep = oracle.HilbertRep(dim=len(mats[0]), variables=tuple(mats), constants=constants)
    spec = _random_system(rng, constants)
    while qsde.spectral_abscissa(qsde.build_coefficients(spec).a) >= -1e-2:
        spec = _random_system(rng, constants)
    return oracle.stationary_state(rep, spec), qsde.steady_mean(qsde.build_coefficients(spec))


@pytest.mark.parametrize("d", [3, 4])
def test_qcf_against_exact_state_on_gell_mann(d):
    # alpha = (2/d) I and a dense beta, both read off the unital structure tensor
    mats = gell_mann_matrices(d)
    constants = gell_mann_constants(d)
    rng = np.random.default_rng(d)
    rho, mu_star = _stationary(rng, constants, mats)
    for u in rng.uniform(-2.0, 2.0, (20, constants.n)):
        ref = np.trace(rho @ expm(1j * np.tensordot(u, mats, axes=1)))
        assert abs(qsde.qcf(constants, mu_star, [u])[0] - ref) < 1e-12


EXACT_ALGEBRAS = {
    "pauli": lambda: (model.pauli_constants(), oracle.pauli_representation().variables),
    "gellmann-3": lambda: (gell_mann_constants(3), gell_mann_matrices(3)),
    "gellmann-4": lambda: (gell_mann_constants(4), gell_mann_matrices(4)),
}


@pytest.mark.parametrize("which", list(EXACT_ALGEBRAS))
def test_qcf_squarings_against_exact_state(which):
    # directions scaled to ||G_u||_1 from 4 to 2000 take s = 1 .. 10 squarings
    # in the algebra, a path no default direction reaches; the reference
    # exponentiates u . X through its eigenvectors
    constants, mats = EXACT_ALGEBRAS[which]()
    rng = np.random.default_rng(11)
    rho, mu_star = _stationary(rng, constants, mats)
    targets = np.geomspace(4.0, 2000.0, 30)
    assert set(np.ceil(np.log2(targets / 3.54))) == set(range(1, 11))
    us = []
    for target in targets:
        u = rng.normal(size=constants.n)
        gen = np.einsum("ljk,k->jl", model._unital(constants)[:, :, 1:], u)
        us.append(u * target / np.abs(gen).sum(axis=0).max())
    for u, val in zip(us, qsde.qcf(constants, mu_star, us)):
        lam, vec = np.linalg.eigh(np.tensordot(u, mats, axes=1))
        ref = np.trace(rho @ (vec * np.exp(1j * lam)) @ vec.conj().T)
        assert abs(val - ref) <= 1e-12 * max(1.0, np.abs(u).sum())


def loop_qcf(constants, mu_star, us):
    """Reference: one generator and one exponential per direction."""
    vals = []
    for u in us:
        gen = np.einsum("ljk,k->jl", model._unital(constants)[:, :, 1:], u)
        vec = np.concatenate([[1.0], np.asarray(mu_star, dtype=complex)])
        vals.append(complex((expm(1j * gen) @ vec)[0]))
    return np.array(vals)


@pytest.mark.parametrize("which", ["qutrit", "pauli-qutrit"])
def test_stacked_qcf_equals_direction_loop(which):
    # a stack gives the one-row values bit for bit, and those agree with a
    # dense exponential per direction to round-off
    qutrit = gell_mann_constants(3)
    constants = qutrit if which == "qutrit" else composite.augment_constants(model.pauli_constants(), qutrit)
    rng = np.random.default_rng(5)
    mu_star = rng.uniform(-0.3, 0.3, constants.n)
    for us in (np.eye(constants.n), rng.uniform(-2.0, 2.0, (constants.n, constants.n))):
        got = qsde.qcf(constants, mu_star, us)
        assert got.shape == (constants.n,)
        rows = np.array([qsde.qcf(constants, mu_star, [u])[0] for u in us])
        assert got.tobytes() == rows.tobytes()
        want = loop_qcf(constants, mu_star, us)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_qcf_refuses_bad_stacks_and_overflow(pauli):
    mu_star = np.zeros(3)
    for us in ([0.0, 0.0, 1.0], [[0.0, 1.0]]):
        with pytest.raises(ValueError, match="expected"):
            qsde.qcf(pauli, mu_star, us)
    with pytest.raises(ValueError, match="not finite"):
        qsde.qcf(pauli, mu_star, [[0.0, 0.0, 1.0], [1e308, 0.0, 0.0]])


def test_qcf_refuses_a_generator_that_overflows(pauli):
    # ||G_u||_1 overflows (on the qutrit G_u itself does) before any Taylor
    # step, and is refused without a warning
    qutrit = gell_mann_constants(3)
    for constants, us in ((pauli, [[0.0, 0.0, 1.0], [1e308, 1e308, 0.0]]), (qutrit, np.full((1, 8), 1.7e308))):
        with pytest.raises(ValueError, match="not finite"):
            qsde.qcf(constants, np.zeros(constants.n), us)


def generator_norm(constants, u):
    """||G_u||_1, the largest column sum of the generator qcf exponentiates."""
    return np.abs(np.einsum("ljk,k->jl", model._unital(constants)[:, :, 1:], u)).sum(axis=0).max()


def test_qcf_refuses_directions_it_cannot_resolve(pauli):
    # past ||G_u||_1 = 2^52 the rounding allowance ||G_u||_1 2^-52 exceeds 1,
    # the largest |E e^{i u . X}| of a state; on Pauli, ||G_u||_1 = |c| for u = c e1
    mu_star = np.array([0.1, 0.2, 0.3])
    unit = [0.0, 0.0, 1.0]
    assert generator_norm(pauli, [2.0**52, 0.0, 0.0]) == 2.0**52
    assert np.isfinite(qsde.qcf(pauli, mu_star, [unit, [2.0**52, 0.0, 0.0]])).all()
    for c in (np.nextafter(2.0**52, np.inf), 1e16, 1e17, 1e18, 1e100):
        with pytest.raises(ValueError, match=r"^qcf direction 1 is not resolved: \|\|G_u\|\|_1 = %s exceeds 2\^52" % re.escape("%.6g" % c)):
            qsde.qcf(pauli, mu_star, [unit, [c, 0.0, 0.0]])
    qutrit = gell_mann_constants(3)
    u = np.random.default_rng(5).normal(size=8)
    with pytest.raises(ValueError, match="^qcf direction 0 is not resolved"):
        qsde.qcf(qutrit, np.zeros(8), [u * 1e17 / generator_norm(qutrit, u)])


def test_qcf_error_stays_within_its_allowance(pauli):
    # e^{i c X1} = cos c I + i sin c X1 on Pauli; the error grows with
    # ||G_u||_1 = c.  At the decades c = 1e2 .. 1e15 it stays within the
    # allowance c 2^-52; on a dense grid it reached 2.13 times it.
    mu_star = np.array([0.1, 0.2, 0.3])
    for cs, factor in ((10.0 ** np.arange(2, 16), 1.0), (np.geomspace(1e2, 1e15, 1001), 3.0)):
        us = np.outer(cs, [1.0, 0.0, 0.0])
        allowance = np.array([generator_norm(pauli, u) for u in us]) * 2.0**-52
        np.testing.assert_array_equal(allowance, cs * 2.0**-52)
        err = np.abs(qsde.qcf(pauli, mu_star, us) - (np.cos(cs) + 1j * mu_star[0] * np.sin(cs)))
        assert np.all(err <= factor * allowance)


def test_steady_mean_refuses_an_abscissa_inside_the_hurwitz_margin():
    # the margin is 1e-10: an abscissa of -1e-12 is refused, one of -1e-8 is not
    b = np.array([1.0, 2.0])
    for abscissa, refused in ((-1e-12, True), (-1e-8, False)):
        a = np.array([[abscissa, 0.5], [0.0, -1.0]])
        coeffs = qsde.QsdeCoefficients(a=a, a0=np.zeros((2, 2)), atilde=a, b=b)
        assert qsde.spectral_abscissa(a) == abscissa
        if refused:
            with pytest.raises(ValueError, match=r"drift is not Hurwitz \(spectral abscissa -1\.000000e-12\), no stationary mean"):
                qsde.steady_mean(coeffs)
        else:
            np.testing.assert_allclose(a @ qsde.steady_mean(coeffs), -b, rtol=1e-12)


def test_dispersion_linear_in_state(worked):
    spec, _ = worked
    rng = np.random.default_rng(2)
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    bx = qsde.dispersion(spec, x)
    by = qsde.dispersion(spec, y)
    bxy = qsde.dispersion(spec, 2.0 * x - 3.0 * y)
    np.testing.assert_allclose(bxy, 2.0 * bx - 3.0 * by, atol=1e-12)
    assert bx.shape == (3, 2)
    # entrywise: B(x) = 2 (Theta . x) M^T
    ref = 2.0 * np.tensordot(x, spec.constants.theta, axes=([0], [0])) @ spec.coupling.T
    np.testing.assert_allclose(bx, ref, atol=1e-14)


def test_two_point_ccr_decay_and_start(worked, pauli, monkeypatch):
    _, coeffs = worked
    mu_s = qsde.mean_flow(coeffs, np.zeros(3), [1.0])[0]
    start = qsde.mean_two_point_ccr(coeffs, pauli, mu_s, [0.0])[0]
    np.testing.assert_allclose(start, 2j * np.tensordot(mu_s, pauli.theta, axes=([0], [0])), atol=1e-14)
    np.testing.assert_allclose(start, -start.T, atol=1e-14)
    with pytest.raises(ValueError):
        qsde.mean_two_point_ccr(coeffs, pauli, mu_s, [-0.1])
    assert qsde.mean_two_point_ccr(coeffs, pauli, mu_s, []).shape == (0, 3, 3)
    # a non-finite lag is refused before any exponential is formed
    monkeypatch.setattr(qsde, "expm", lambda m: pytest.fail("an exponential was formed"))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau must be finite"):
            qsde.mean_two_point_ccr(coeffs, pauli, mu_s, [0.5, bad])


def test_two_point_ccr_against_oracle_random():
    rng = np.random.default_rng(3)
    rep = oracle.pauli_representation()
    rho0 = np.eye(2, dtype=complex) / 2.0
    for _ in range(5):
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        mu_s = qsde.mean_flow(coeffs, np.zeros(3), [1.0])[0]
        tables = oracle.two_point_commutator(rep, spec, rho0, 1.0, [0.5, 2.0])
        preds = qsde.mean_two_point_ccr(coeffs, spec.constants, mu_s, [0.5, 2.0])
        for table, pred in zip(tables, preds, strict=True):
            np.testing.assert_allclose(table, pred, atol=1e-10)


PROPAGATE_GRIDS = {
    "default": np.linspace(0.0, 5.0, 41),
    "ulp-steps": np.linspace(0.0, 4.0, 30),
    "t0-is-step": np.linspace(1.0, 5.0, 5),
    "uneven": [0.0, 0.3, 1.1, 2.7],
    "unsorted": [2.7, 0.3, 1.1],
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


def test_propagate_exponential_count_per_grid(worked, monkeypatch):
    # a uniform grid from t0 = 0 or t0 = h is one chain with one step
    # exponential; any other list takes one exponential per time above 0
    _, coeffs = worked
    calls = count_exponentials(monkeypatch)
    state0 = np.ones(3)
    expected = {
        "default": 1,
        "ulp-steps": 1,
        "t0-is-step": 1,
        "uneven": 3,  # t = 0 is state0 itself
        "unsorted": 3,
        "repeated": 6,  # no cache: each repeated time costs its own exponential
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
    for t0, t1, num in grids:
        calls.clear()
        times = np.linspace(t0, t1, num)
        for state in qsde.propagate(coeffs.a, np.ones(3), times):
            pass
        assert len(calls) <= 2, (t0, t1, num)
        assert np.linalg.norm(state - expm(times[-1] * coeffs.a) @ np.ones(3)) <= 1e-10 * np.linalg.norm(state)


# flows run forward only: each of these grids holds a time below 0
NEGATIVE_GRIDS = {
    "negative-first": [-0.6, 0.2, 1.5],
    "negative-last": [0.0, 0.5, -0.1],
    "linspace-long": np.linspace(-8.828639303896113, 6.207804590918844, 438),
    "linspace-symmetric": np.linspace(-1.0, 1.0, 21),
}


@pytest.mark.parametrize("grid", sorted(NEGATIVE_GRIDS))
def test_propagate_refuses_negative_times(worked, monkeypatch, grid):
    _, coeffs = worked
    calls = count_exponentials(monkeypatch)
    with pytest.raises(ValueError, match="^times must be nonnegative$"):
        list(qsde.propagate(coeffs.a, np.ones(3), NEGATIVE_GRIDS[grid]))
    with pytest.raises(ValueError, match="^times must be nonnegative$"):
        qsde.mean_flow(coeffs, np.zeros(3), NEGATIVE_GRIDS[grid])
    assert not calls


RHO_MIXED = np.eye(2) / 2

# every caller of the time rule: (name in its messages, call on (spec, coeffs,
# times), whether it takes one time rather than a list)
TIME_RULE_CALLERS = {
    "propagate": ("times", lambda spec, coeffs, t: list(qsde.propagate(coeffs.a, np.ones(3), t)), False),
    "mean_flow": ("times", lambda spec, coeffs, t: qsde.mean_flow(coeffs, np.zeros(3), t), False),
    "pi_trace_flow": (
        "times",
        lambda spec, coeffs, t: second_moment.pi_trace_flow(second_moment.lambda_operator(spec, coeffs), t),
        False,
    ),
    "mean_two_point_ccr": (
        "tau",
        lambda spec, coeffs, t: qsde.mean_two_point_ccr(coeffs, spec.constants, np.ones(3), t),
        False,
    ),
    "two_point_commutator lags": (
        "tau",
        lambda spec, coeffs, t: oracle.two_point_commutator(oracle.pauli_representation(), spec, RHO_MIXED, 1.0, t),
        False,
    ),
    "two_point_commutator s": (
        "propagation time",
        lambda spec, coeffs, t: oracle.two_point_commutator(oracle.pauli_representation(), spec, RHO_MIXED, t, [0.5]),
        True,
    ),
    "lindblad_propagate": (
        "propagation time",
        lambda spec, coeffs, t: oracle.lindblad_propagate(oracle.pauli_representation(), spec, RHO_MIXED, t),
        True,
    ),
    "contraction_norm": ("tau", lambda spec, coeffs, t: decoherence.contraction_norm(coeffs.a, np.eye(3), t), True),
}


@pytest.mark.parametrize("caller", sorted(TIME_RULE_CALLERS))
@pytest.mark.parametrize(
    "scalar, vector, message",
    [
        (-0.5, [-0.4, 0.5], "must be nonnegative$"),
        (np.nan, [0.5, np.nan], "must be finite$"),
        ([[0.5]], [[0.0, 1.0]], "must be one-dimensional, got shape "),
    ],
    ids=["negative", "nan", "2-D"],
)
def test_time_rule_refusals_name_their_caller(worked, monkeypatch, caller, scalar, vector, message):
    # each is refused before any exponential is formed, with the caller's name
    spec, coeffs = worked
    what, call, one_time = TIME_RULE_CALLERS[caller]
    for module in (qsde, oracle, decoherence):
        monkeypatch.setattr(module, "expm", lambda m: pytest.fail("an exponential was formed"))
    with pytest.raises(ValueError, match="^%s %s" % (what, message)):
        call(spec, coeffs, scalar if one_time else vector)


@pytest.mark.parametrize("caller", sorted(TIME_RULE_CALLERS))
def test_time_rule_accepts_zero(worked, caller):
    spec, coeffs = worked
    _, call, one_time = TIME_RULE_CALLERS[caller]
    call(spec, coeffs, 0.0 if one_time else [0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagate_refuses_non_finite_times(worked, bad):
    _, coeffs = worked
    with pytest.raises(ValueError, match="finite"):
        list(qsde.propagate(coeffs.a, np.ones(3), [0.0, bad, 1.0]))
    with pytest.raises(ValueError, match="finite"):
        qsde.mean_flow(coeffs, np.zeros(3), [bad])


@pytest.mark.parametrize("bad, message", [([-1.0], "nonnegative"), ([0.0, np.nan], "finite")], ids=["negative", "nan"])
def test_propagate_refuses_bad_times_at_the_call(bad, message):
    # the generator is refused before it is returned, not at its first state
    with pytest.raises(ValueError, match="^times must be %s$" % message):
        qsde.propagate(np.eye(2), np.ones(2), bad)


@pytest.mark.parametrize(
    "coupling,offset,message",
    [
        ([[1.0, 0.0], [0.0, 1.0]], None, r"coupling must be m x 3, got \(2, 2\)"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], None, "coupling needs an even number >= 2 of rows, got 3"),
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0, 0.0, 0.0], r"offset has shape \(3,\), expected \(2,\)"),
    ],
    ids=["width", "odd rows", "offset"],
)
def test_system_spec_refuses_wrong_shapes(pauli, coupling, offset, message):
    with pytest.raises(ValueError, match=message):
        qsde.system_spec(pauli, [0.0, 0.0, 1.0], coupling, offset)


def test_flows_refuse_wrong_shapes(worked, pauli):
    _, coeffs = worked
    with pytest.raises(ValueError, match=r"times must be one-dimensional, got shape \(1, 2\)"):
        list(qsde.propagate(coeffs.a, np.ones(3), [[0.0, 1.0]]))
    with pytest.raises(ValueError, match=r"mu0 has shape \(2,\), expected \(3,\)"):
        qsde.mean_flow(coeffs, [0.0, 0.0], [0.0, 1.0])
    with pytest.raises(ValueError, match=r"tau must be one-dimensional, got shape \(1, 2\)"):
        qsde.mean_two_point_ccr(coeffs, pauli, [0.0, 0.0, 1.0], [[0.0, 1.0]])


def test_mean_flow_refuses_a_trajectory_that_overflows(worked):
    _, coeffs = worked
    mu = qsde.mean_flow(coeffs, np.zeros(3), [0.0, 1.0])
    assert np.isfinite(mu).all()
    with pytest.raises(ValueError, match=r"^mean trajectory is not finite at t = 5e\+299$"):
        qsde.mean_flow(coeffs, np.zeros(3), [0.0, 1.0, 5e299, 1e300])


@pytest.mark.parametrize("scale", [1e300, 1e160])
def test_build_coefficients_refuses_a_drift_that_overflows(pauli, scale):
    # finite entries whose quadratic products overflow: refused with no
    # overflow warning (warnings are errors under pytest)
    spec = qsde.system_spec(pauli, [0.0, 0.0, 1.0], [[scale, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="^drift is not finite: the model's entries overflow it$"):
        qsde.build_coefficients(spec)
