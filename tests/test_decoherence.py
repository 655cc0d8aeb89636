import contextlib
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from quasilin import cli, composite, decoherence, modes, qsde
from conftest import random_pauli_spec, random_stable_pauli_spec


def steady_ccr(spec, coeffs):
    mu = qsde.steady_mean(coeffs)
    return 2j * np.tensordot(mu, spec.constants.theta, axes=([0], [0]))


def test_tau_star_uniform_decay():
    # A = -I scales the matrix by e^{-tau}, so the 1/e time is exactly 1
    z0 = np.array([[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    ts = decoherence.tau_star(-np.eye(3), z0)
    assert abs(ts - 1.0) < 1e-9


def test_tau_star_reference_qubit(worked):
    # rotation block decays like e^{-2 tau} exactly, crossing at 1/2
    spec, coeffs = worked
    ts = decoherence.tau_star(coeffs.a, steady_ccr(spec, coeffs))
    assert abs(ts - 0.5) < 1e-9


def test_tau_star_zero_ccr_and_refusals(worked):
    spec, coeffs = worked
    assert decoherence.tau_star(coeffs.a, np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        decoherence.tau_star(coeffs.a0, steady_ccr(spec, coeffs))  # not Hurwitz


def scan_tau_star(a, z0, horizon_factor=10.0):
    # reference: one expm per grid point up to the first hit, then bisection
    # from Z0 to the same relative width; returns (tau, grid index of the hit)
    sa = qsde.spectral_abscissa(a)
    base = float(np.linalg.norm(z0))
    target = base / np.e

    def excess(tau):
        return float(np.linalg.norm(expm(tau * a) @ z0)) - target

    grid = np.linspace(0.0, horizon_factor / abs(sa), decoherence.GRID_POINTS)
    hit = next(i for i in range(1, len(grid)) if excess(grid[i]) <= 0.0)
    lo, hi = grid[hit - 1], grid[hit]
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return float(hi), hit


def assert_matches_scan(a, z0, ts):
    # same grid cell, agreement to the 1e-10 relative width plus a few ulp of
    # rounding, and a sign change of the directly computed excess around ts
    ref, hit = scan_tau_star(a, z0)
    grid = np.linspace(0.0, 10.0 / abs(qsde.spectral_abscissa(a)), decoherence.GRID_POINTS)
    assert grid[hit - 1] < ts <= grid[hit]
    assert abs(ts - ref) <= 1e-10 * max(ts, ref) + 4 * np.spacing(ref)
    target = np.linalg.norm(z0) / np.e
    assert np.linalg.norm(expm(ts * (1 + 1e-9) * a) @ z0) - target <= 0.0
    assert np.linalg.norm(expm(ts * (1 - 1e-9) * a) @ z0) - target > 0.0


def test_tau_star_matches_per_point_scan():
    rng = np.random.default_rng(21)
    for _ in range(10):
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        z0 = steady_ccr(spec, coeffs)
        if np.linalg.norm(z0) == 0.0:
            continue
        assert_matches_scan(coeffs.a, z0, decoherence.tau_star(coeffs.a, z0))


def test_tau_star_takes_first_of_several_crossings(monkeypatch):
    # an elliptic rotation with slow decay: ||e^{tau A} e1|| dips below 1/e
    # near a quarter period, rises above it again and crosses many times
    a = np.array([[-0.05, 5.0], [-0.2, -0.05]])
    z0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    grid = np.linspace(0.0, 10.0 / 0.05, decoherence.GRID_POINTS)
    below = [np.linalg.norm(expm(t * a) @ z0) <= 1.0 / np.e for t in grid[:12]]
    assert below[3] and not below[4] and below[9]
    calls = []
    monkeypatch.setattr(qsde, "expm", None)
    monkeypatch.setattr(decoherence, "expm", lambda mat: calls.append(mat) or expm(mat))
    ts = decoherence.tau_star(a, z0)
    assert grid[2] < ts <= grid[3]
    assert_matches_scan(a, z0, ts)
    # the scan forms one step exponential, first; the Newton steps in the cell
    # each exponentiate a strictly shorter step
    step = grid[1] * a
    assert np.array_equal(calls[0], step)
    assert all(np.abs(mat).max() < np.abs(step).max() for mat in calls[1:])


def test_uniform_decay_bound_closed_form():
    """For A = -I and K = I the bound is 1/lambda with no log correction."""
    z0 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    a = -np.eye(3)
    for lam in (0.2, 0.5, 0.9):
        bound = decoherence.tau_upper_bound(a, z0, lam, np.eye(3))
        assert abs(bound - 1.0 / lam) < 1e-12
    search = decoherence.optimize_tau_bound(a, z0, budget=64, seed=0)
    assert search.k_label == "identity"
    assert abs(search.lam - 0.99) < 1e-12
    assert abs(search.bound - 1.0 / 0.99) < 1e-12
    assert search.bound >= decoherence.tau_star(a, z0)


def test_lyapunov_solution_properties(worked):
    _, coeffs = worked
    g = decoherence.lyapunov_G(coeffs.a, 0.5, np.eye(3))
    np.testing.assert_allclose(g, g.T, atol=1e-12)
    assert np.linalg.eigvalsh(g).min() > 0.0
    shifted = coeffs.a + 0.5 * np.eye(3)
    resid = shifted @ g + g @ shifted.T + np.eye(3)
    assert np.abs(resid).max() < 1e-9


def test_lyapunov_shift_out_of_range(worked):
    _, coeffs = worked
    for lam in (-0.1, 0.0, 2.0, 5.0):
        with pytest.raises(ValueError):
            decoherence.lyapunov_G(coeffs.a, lam, np.eye(3))


def test_contraction_envelope(worked):
    # with G from the shifted equation, |G^{-1/2} e^{tau A} G^{1/2}| <= e^{-lam tau}
    _, coeffs = worked
    lam = 0.8
    g = decoherence.lyapunov_G(coeffs.a, lam, np.eye(3))
    for tau in (0.1, 1.0, 5.0):
        cn = decoherence.contraction_norm(coeffs.a, g, tau)
        assert cn <= np.exp(-lam * tau) + 1e-10


def test_bound_dominates_tau_star_random():
    rng = np.random.default_rng(77)
    for _ in range(5):
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        z0 = steady_ccr(spec, coeffs)
        if np.linalg.norm(z0) == 0.0:
            continue
        ts = decoherence.tau_star(coeffs.a, z0)
        search = decoherence.optimize_tau_bound(coeffs.a, z0, budget=48, seed=1)
        assert ts <= search.bound + 1e-12
        assert search.evaluations <= 48


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.where(np.eye(3) > 0, np.nan, 0.0), "CCR matrix has non-finite entries"),
        (np.diag([np.inf, 0.0, 0.0]), "CCR matrix has non-finite entries"),
        (np.eye(4), r"CCR matrix must be 3 x 3 to match the drift, got shape \(4, 4\)"),
    ],
    ids=["nan", "inf", "4x4"],
)
def test_bad_ccr_matrix_refused_before_any_solve(worked, monkeypatch, bad, message):
    _, coeffs = worked
    monkeypatch.setattr(decoherence, "dtrsyl", None)  # a solve would fail with a TypeError
    monkeypatch.setattr(decoherence, "expm", None)
    for call in (
        lambda: decoherence.tau_star(coeffs.a, bad),
        lambda: decoherence.tau_upper_bound(coeffs.a, bad, 0.5, np.eye(3)),
        lambda: decoherence.optimize_tau_bound(coeffs.a, bad),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_bound_refuses_zero_ccr(worked):
    _, coeffs = worked
    with pytest.raises(ValueError):
        decoherence.tau_upper_bound(coeffs.a, np.zeros((3, 3)), 0.5, np.eye(3))


def kron_lyapunov(a, lam, k):
    """Reference solve of (A + lam I) G + G (A + lam I)^T + K = 0 through the
    n^2 x n^2 Kronecker system on column-major vec(G)."""
    n = a.shape[0]
    eye = np.eye(n)
    shifted = a + lam * eye
    op = np.kron(eye, shifted) + np.kron(shifted, eye)
    g = np.linalg.solve(op, -k.flatten(order="F")).reshape((n, n), order="F")
    return (g + g.T) / 2.0


def kron_search(a, z0, budget, seed):
    """The (lam, K) grid search of optimize_tau_bound on the Kronecker solve."""
    n = a.shape[0]
    sa = qsde.spectral_abscissa(a)
    lams = np.geomspace(0.01 * -sa, 0.99 * -sa, 32)
    rng = np.random.default_rng(seed)
    base = np.linalg.norm(z0)
    best, evals, i = None, 0, 0
    while evals < budget:
        if evals == 0:
            label, k = "identity", np.eye(n)
        else:
            s = rng.standard_normal((n, n))
            w = s.T @ s + 1e-6 * np.eye(n)
            label, k = "sample-%d" % i, w / np.trace(w)
            i += 1
        for lam in lams[: budget - evals]:
            w, q = np.linalg.eigh(kron_lyapunov(a, lam, k))
            isqrt = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
            bound = (1.0 + np.log(np.sqrt(w[-1]) * np.linalg.norm(isqrt @ z0) / base)) / lam
            evals += 1
            if best is None or bound < best[0] or (bound == best[0] and lam < best[1]):
                best = (bound, lam, label)
    return best, evals


@pytest.mark.parametrize("n", [3, 8, 24])
def test_lyapunov_matches_kronecker_solve(n):
    rng = np.random.default_rng(100 + n)
    m = rng.standard_normal((n, n))
    a = m - (qsde.spectral_abscissa(m) + 0.5) * np.eye(n)
    s = rng.standard_normal((n, n))
    k = s.T @ s + 0.1 * np.eye(n)
    sa = qsde.spectral_abscissa(a)
    for lam in (0.05 * -sa, 0.5 * -sa, 0.95 * -sa):
        g = decoherence.lyapunov_G(a, lam, k)
        ref = kron_lyapunov(a, lam, k)
        assert np.linalg.norm(g - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("budget", [1, 31, 32, 33, 90, 96])
def test_search_matches_kronecker_search_on_pauli_pair(budget):
    # with seed 3 the last 16 evaluations of budget 96 find a better sampled K
    # (sample-1); budget 90 stops inside that K and keeps the identity
    rng = np.random.default_rng(6)
    spec = composite.composite_spec(
        random_pauli_spec(rng), random_pauli_spec(rng), rng.uniform(-1.0, 1.0, (3, 3))
    )
    augmented = composite.augmented_system(spec)
    coeffs = qsde.build_coefficients(augmented)
    assert coeffs.n == 15
    z0 = steady_ccr(augmented, coeffs)
    search = decoherence.optimize_tau_bound(coeffs.a, z0, budget=budget, seed=3)
    (bound, lam, label), evals = kron_search(coeffs.a, z0, budget=budget, seed=3)
    assert search.lam == lam
    assert search.k_label == label
    assert search.evaluations == evals == budget
    assert abs(search.bound - bound) <= 1e-12 * abs(bound)


def test_search_and_lyapunov_refusals(worked):
    spec, coeffs = worked
    with pytest.raises(ValueError, match="not Hurwitz"):
        decoherence.optimize_tau_bound(coeffs.a0, steady_ccr(spec, coeffs))
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError, match="K must be symmetric"):
        decoherence.lyapunov_G(coeffs.a, 0.5, asym)
    with pytest.raises(ValueError, match="K must be positive definite"):
        decoherence.lyapunov_G(coeffs.a, 0.5, np.diag([1.0, -1.0, 1.0]))


def test_complex_drift_refused_not_discarded():
    a = np.array([[-1.0, 0.3j], [0.0, -2.0]])
    for call in (
        lambda: decoherence.lyapunov_G(a, 0.5, np.eye(2)),
        lambda: decoherence.tau_upper_bound(a, np.eye(2), 0.5, np.eye(2)),
        lambda: decoherence.optimize_tau_bound(a, np.eye(2)),
    ):
        with pytest.raises(ValueError, match=r"drift must be real \(max imag 0.3\)"):
            call()


def test_lyapunov_refuses_perturbed_sylvester_solve():
    # eigenvalues -1 and -1000: at lam just below 1 the shifted spectra of
    # A + lam I and -(A + lam I) meet within LAPACK's perturbation threshold
    a = np.diag([-1.0, -1000.0])
    sa = qsde.spectral_abscissa(a)
    with pytest.raises(ValueError, match="near-common eigenvalues"):
        decoherence.lyapunov_G(a, -sa * (1 - 1e-14), np.eye(2))


def stacked_bounds(a, z0, k, lams):
    return decoherence._certified_bounds(*decoherence._schur_drift(a), k, z0, lams)


def grid(a):
    sa = qsde.spectral_abscissa(a)
    return np.geomspace(0.01 * -sa, 0.99 * -sa, 32).tolist()


@pytest.mark.parametrize("n", [3, 8, 15])
def test_stacked_bounds_match_kronecker_solves(n):
    # every shift of the full grid, for the identity and a sampled K
    rng = np.random.default_rng(200 + n)
    m = rng.standard_normal((n, n))
    a = m - (qsde.spectral_abscissa(m) + 0.5) * np.eye(n)
    z0 = rng.standard_normal((n, n))
    s = rng.standard_normal((n, n))
    sample = s.T @ s + 1e-6 * np.eye(n)
    for k in (np.eye(n), sample / np.trace(sample)):
        lams = grid(a)
        g, bounds = stacked_bounds(a, z0, k, lams)
        assert g.shape == (32, n, n) and bounds.shape == (32,)
        for lam, g_lam, bound in zip(lams, g, bounds):
            ref = kron_lyapunov(a, lam, k)
            assert np.linalg.norm(g_lam - ref) <= 1e-10 * np.linalg.norm(ref)
            w, q = np.linalg.eigh(ref)
            isqrt = q @ np.diag(1.0 / np.sqrt(w)) @ q.T
            ref_bound = (1.0 + np.log(np.sqrt(w[-1]) * np.linalg.norm(isqrt @ z0) / np.linalg.norm(z0))) / lam
            assert abs(bound - ref_bound) <= 1e-10 * abs(ref_bound)


def test_one_failing_shift_refuses_the_batch():
    # the last shift sits where LAPACK perturbs near-common eigenvalues
    a = np.diag([-1.0, -1000.0])
    lams = grid(a)
    stacked_bounds(a, np.eye(2), np.eye(2), lams[:-1])
    lams[-1] = -qsde.spectral_abscissa(a) * (1 - 1e-14)
    with pytest.raises(ValueError, match="near-common eigenvalues"):
        stacked_bounds(a, np.eye(2), np.eye(2), lams)


@pytest.mark.parametrize("budget", [1, 32, 33, 64, 90])
def test_search_makes_one_stacked_eigh_per_k(monkeypatch, worked, budget):
    # the search reads eigenvalues only: no eigh, and per K one stacked
    # eigvalsh of G over its lams; the residual certificate passes the
    # strict-decay matrix without an eigensolve
    spec, coeffs = worked
    real = np.linalg.eigvalsh
    batches, eigh_calls = [], []

    def counting(x, *args, **kwargs):
        if np.ndim(x) == 3:
            batches.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: eigh_calls.append(args))
    search = decoherence.optimize_tau_bound(coeffs.a, steady_ccr(spec, coeffs), budget=budget)
    assert search.evaluations == budget
    assert eigh_calls == []
    assert len(batches) == math.ceil(budget / 32)
    assert sum(shape[0] for shape in batches) == budget
    assert all(shape[1:] == (3, 3) for shape in batches)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_stacked_bounds_equal_single_shift_bounds(n, log_scale, seed):
    # random Hurwitz drifts over four decades of scale: the batch gives each
    # shift the bound that tau_upper_bound gives it alone
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = 10.0**log_scale * (m - (qsde.spectral_abscissa(m) + 0.5) * np.eye(n))
    s = rng.standard_normal((n, n))
    k = s.T @ s + np.eye(n)
    z0 = rng.standard_normal((n, n))
    lams = grid(a)
    _, bounds = stacked_bounds(a, z0, k, lams)
    for lam, bound in zip(lams, bounds):
        single = decoherence.tau_upper_bound(a, z0, lam, k)
        assert abs(bound - single) <= 1e-12 * abs(single)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.floats(0.0, 8.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_eigenvalue_only_bound_matches_eigh_formula(n, log_cond, complex_z0, seed):
    # A = -I gives G = K / (2 (1 - lam)), so cond(G) = cond(K) = 10^log_cond.
    # The eigh/_pd_sqrt formula and the eigvalsh/solve one each carry an
    # error of order eps cond(G) in ||G^{-1/2} Z0||, so the tolerance grows
    # with it beyond 1e-12.
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = (q * np.geomspace(1.0, 10.0**-log_cond, n)) @ q.T
    k = (k + k.T) / 2.0
    z0 = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_z0 else 0.0)
    a = -np.eye(n)
    lams = grid(a)
    g, bounds = stacked_bounds(a, z0, k, lams)
    w, v = np.linalg.eigh(g)
    weighted = np.linalg.norm(modes._pd_sqrt(w, v)[1] @ z0, axis=(-2, -1))
    ref = (1.0 + np.log(np.sqrt(w[:, -1]) * weighted / np.linalg.norm(z0))) / np.asarray(lams)
    cond = np.max(w[:, -1] / w[:, 0])
    assert np.all(np.abs(bounds - ref) <= (1e-12 + np.finfo(float).eps * cond) * np.abs(ref))


def test_tau_star_refuses_no_decay_within_horizon():
    # a strongly non-normal drift: the transient growth keeps the norm above
    # 1/e of its start over the whole scan horizon
    with pytest.raises(ValueError, match="no decay to 1/e on"):
        decoherence.tau_star(np.array([[-1.0, 1e4], [0.0, -1.0]]), np.diag([0.0, 1.0]))


def test_decoherence_kernel_counts_on_bundled_config(monkeypatch, tmp_path):
    # a guard on the kernels of `cli decoherence`, with no timing: the Newton
    # refinement of tau* takes a few exponentials, the search no eigh
    counts = {"expm": 0, "eigh": 0, "eigvalsh": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(decoherence, "expm", counted("expm", expm))
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "pauli.json")
    assert cli.main(["decoherence", "--config", config, "--out", str(tmp_path)]) == 0
    assert 1 <= counts["expm"] <= 8
    assert counts["eigh"] == 0
    # per K of the 64-evaluation budget: K's own check, then G; the residual
    # certificate passes the strict-decay matrix without an eigensolve
    assert counts["eigvalsh"] == 2 * 2


def test_tau_star_takes_few_exponentials_on_random_pauli_specs(monkeypatch):
    calls = []
    monkeypatch.setattr(decoherence, "expm", lambda mat: calls.append(mat) or expm(mat))
    rng = np.random.default_rng(18)
    runs = 0
    while runs < 200:
        spec = random_stable_pauli_spec(rng, m=2)
        coeffs = qsde.build_coefficients(spec)
        z0 = steady_ccr(spec, coeffs)
        if np.linalg.norm(z0) > 0.0:
            decoherence.tau_star(coeffs.a, z0)
            runs += 1
    assert len(calls) <= 6 * runs


@pytest.mark.parametrize("hit", [1, 16, 17, 33, 200, 385, 398, 399])
def test_blocked_scan_finds_the_crossing_cell(hit):
    # the scan advances SCAN_BLOCK grid points per product: a crossing in the
    # first cell, at either end of a block and in the last, shorter block
    grid = lambda sa: np.linspace(0.0, 10.0 / abs(sa), decoherence.GRID_POINTS)
    if hit <= 39:
        # ||e^{tA} e1 e1^T|| = e^{-t} crosses 1/e at t = 1, grid point 39.9 r
        r = (hit - 0.5) / 39.9
        a = np.diag([-1.0, -r])
        z0 = np.diag([1.0, 0.0])
    else:
        # a Jordan block: ||e^{tA} e2 e2^T|| = e^{-t} sqrt(1 + c^2 t^2) rises,
        # then crosses 1/e once, at the middle of the chosen cell
        t = grid(-1.0)[hit] - 0.5 * grid(-1.0)[1]
        c = np.sqrt(np.exp(2.0 * (t - 1.0)) - 1.0) / t
        a = np.array([[-1.0, c], [0.0, -1.0]])
        z0 = np.diag([0.0, 1.0])
    ts = decoherence.tau_star(a, z0)
    cells = grid(qsde.spectral_abscissa(a))
    assert cells[hit - 1] < ts <= cells[hit]
    assert_matches_scan(a, z0, ts)


def certificate_case(n, log_scale, log_gap, log_kmin, seed):
    # a random Hurwitz drift, a shift lam = -sigma(A) (1 - 10^-log_gap) in
    # (0, -sigma(A)) and K with lambda_min(K) = 10^-log_kmin
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = 10.0**log_scale * (m - (qsde.spectral_abscissa(m) + 0.5) * np.eye(n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = (q * np.geomspace(1.0, 10.0**-log_kmin, n)) @ q.T
    z0 = rng.standard_normal((n, n))
    return a, z0, (k + k.T) / 2.0, [-qsde.spectral_abscissa(a) * (1.0 - 10.0**-log_gap)]


def certificate_outcome(case):
    try:
        return stacked_bounds(*case)[1].tolist()
    except ValueError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 10),
    st.floats(-2.0, 2.0),
    st.floats(1e-3, 9.0),
    st.floats(0.0, 10.0),
    st.integers(0, 2**32 - 1),
)
def test_residual_certificate_decides_as_eigvalsh(n, log_scale, log_gap, log_kmin, seed):
    # the bounds with the residual certificate are those of the eigvalsh test
    # alone, and so is each refusal and its message
    case = certificate_case(n, log_scale, log_gap, log_kmin, seed)
    with mock.patch.object(decoherence, "_DECAY_ROUNDING", np.inf):
        reference = certificate_outcome(case)
    assert certificate_outcome(case) == reference


@pytest.mark.parametrize("seed, refused", [(0, False), (1, True)], ids=["passes", "refused"])
def test_residual_certificate_fallback_cases(monkeypatch, seed, refused):
    # two draws of the property above with a shift 1e-9 |sigma(A)| from the
    # edge and lambda_min(K) = 1e-10: the certificate cannot vouch for either,
    # so each gets the eigvalsh test, which passes one and refuses the other
    case = certificate_case(3, 0.0, 9.0, 10.0, seed)
    real, stacks = np.linalg.eigvalsh, []

    def counting(x, *args, **kwargs):
        if np.ndim(x) == 3:
            stacks.append(np.shape(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    outcome = certificate_outcome(case)
    assert (outcome == "strict decay inequality failed") == refused
    assert stacks == [(1, 3, 3), (1, 3, 3)]


@pytest.mark.parametrize("perturb, refused", [("doubled", False), ("shifted", True)], ids=["doubled", "shifted"])
def test_perturbed_solve_falls_back_to_eigvalsh(monkeypatch, perturb, refused):
    # a solve whose residual the certificate cannot vouch for gets the stacked
    # eigvalsh test: 2G still decays (and gives the same bound, the bound being
    # invariant under a scaling of G), G + I on a non-normal drift does not
    a = np.array([[-1.0, 10.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -2.0]])
    z0 = np.diag([1.0, 2.0, 3.0])
    lams = grid(a)
    _, clean = stacked_bounds(a, z0, np.eye(3), lams)
    real_trsyl, real_eigvalsh, stacks = decoherence.dtrsyl, np.linalg.eigvalsh, []

    def perturbed(t1, t2, rhs, tranb):
        y, scale, info = real_trsyl(t1, t2, rhs, tranb=tranb)
        return (2.0 * y if perturb == "doubled" else y + scale * np.eye(len(y))), scale, info

    def counting(x, *args, **kwargs):
        if np.ndim(x) == 3:
            stacks.append(np.shape(x))
        return real_eigvalsh(x, *args, **kwargs)

    monkeypatch.setattr(decoherence, "dtrsyl", perturbed)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    if refused:
        with pytest.raises(ValueError, match="strict decay inequality failed"):
            stacked_bounds(a, z0, np.eye(3), lams)
    else:
        _, bounds = stacked_bounds(a, z0, np.eye(3), lams)
        np.testing.assert_allclose(bounds, clean, rtol=1e-12)
    # G's positive-definite check, then the fallback on the strict-decay matrices
    assert stacks == [(32, 3, 3), (32, 3, 3)]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 10),
    st.floats(0.0, 10.0),
    st.floats(-10.0, -7.5),
    st.floats(-3.0, 0.0),
    st.integers(0, 2**32 - 1),
)
def test_decay_check_near_its_threshold_decides_as_eigvalsh(n, log_kmin, log_push, log_noise, seed):
    # D = -K + R with R mostly along K's weakest eigenvector puts
    # lambda_max(D) on both sides of the 1e-9 threshold, where the Weyl bound
    # is nearly tight: the residual certificate never passes a D that the
    # eigvalsh test refuses, and the fallback refuses what it refuses
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    k = (q * np.geomspace(1.0, 10.0**-log_kmin, n)) @ q.T
    k = (k + k.T) / 2.0
    noise = rng.standard_normal((n, n))
    noise = (noise + noise.T) * 10.0**log_noise / np.linalg.norm(noise + noise.T)
    decay = (10.0**log_push * (np.outer(q[:, -1], q[:, -1]) + noise) - k)[None]
    refused = np.max(np.linalg.eigvalsh(decay)) > 1e-9
    with pytest.raises(ValueError, match="strict decay") if refused else contextlib.nullcontext():
        decoherence._check_decay(decay, k, np.min(np.linalg.eigvalsh(k)))


def test_search_refuses_a_budget_below_one(worked, monkeypatch):
    spec, coeffs = worked
    monkeypatch.setattr(decoherence, "dtrsyl", None)  # a solve would fail with a TypeError
    with pytest.raises(ValueError, match="^budget must be at least 1$"):
        decoherence.optimize_tau_bound(coeffs.a, steady_ccr(spec, coeffs), budget=0)


def test_lyapunov_solution_that_is_not_positive_definite_is_refused(worked, monkeypatch):
    # a Sylvester solve that returns -Y, as a sign fault would, gives a
    # negative definite G
    spec, coeffs = worked
    real = decoherence.dtrsyl

    def negated(*args, **kwargs):
        y, scale, info = real(*args, **kwargs)
        return -y, scale, info

    monkeypatch.setattr(decoherence, "dtrsyl", negated)
    message = "^Lyapunov solution is not positive definite$"
    with pytest.raises(ValueError, match=message):
        decoherence.lyapunov_G(coeffs.a, 0.5, np.eye(3))
    with pytest.raises(ValueError, match=message):
        decoherence.optimize_tau_bound(coeffs.a, steady_ccr(spec, coeffs), budget=1)
