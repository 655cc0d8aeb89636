"""Decoherence time of the mean CCR matrix and Lyapunov-type upper bounds.

The mean commutator matrix decays along e^{tau A}; its 1/e time tau* is
located numerically (a blocked grid scan, then Newton steps inside the
first crossing cell), and certified upper bounds come from quadratic
Lyapunov functions G solving a shifted Lyapunov equation, checked and turned
into bounds from eigenvalues, the solve's residual and one linear solve,
with no eigenvectors.  A CCR matrix that is not finite or not n x n is
refused before any solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.lapack import dtrsyl

from .modes import _pd_sqrt
from .qsde import _hurwitz_abscissa, _times

__all__ = [
    "TauBoundSearch",
    "contraction_norm",
    "lyapunov_G",
    "optimize_tau_bound",
    "tau_star",
    "tau_upper_bound",
]

GRID_POINTS = 400
HORIZON_FACTOR = 10.0
SCAN_BLOCK = 16  # grid points the tau* scan advances per matrix product (a power of 2)
_DECAY_ROUNDING = 8.0  # rounding allowance of the strict-decay certificate, in n eps units


def tau_star(a, ccr_matrix) -> float:
    """First time the CCR matrix norm drops to 1/e of its initial value.

    Scans a 400-point grid on [0, HORIZON_FACTOR / |sigma(A)|] for the first
    sign change of ||e^{tau A} Z0||_F - ||Z0||_F / e.  The scan forms the
    step exponential E = e^{hA} once and its powers E^1..E^16, then
    advances SCAN_BLOCK grid points per (16n x n)(n x n) product, with the
    block's Frobenius norms taken in one stacked call, only as far as the
    first block holding that change (the last block stops at the grid's
    end).  Inside that grid cell it solves ||e^{s A} Z_lo||_F = ||Z0||_F / e
    from the state Z_lo at the cell's left end by safeguarded Newton steps
    (slope Re<AY, Y>/||Y||), keeping a bracket on the sign of the excess,
    bisecting when a step leaves it and clamping each iterate tol/2 inside
    it.  Returns the bracket's right end (excess <= 0) once its relative
    width is at most tol = 1e-10; the result lies in the cell
    (grid[hit-1], grid[hit]].  Dips narrower than the grid step can be
    missed; the result is the first crossing the grid resolves.
    """
    a = np.asarray(a)
    sa = _hurwitz_abscissa(a)
    n = len(a)
    z0 = _ccr_matrix(ccr_matrix, n)
    base = float(np.linalg.norm(z0))
    if base == 0.0:
        return 0.0
    target = base / np.e
    horizon = HORIZON_FACTOR / abs(sa)
    grid = np.linspace(0.0, horizon, GRID_POINTS)
    powers = expm(grid[1] * a)[None]
    while len(powers) < SCAN_BLOCK:
        powers = np.concatenate([powers, powers @ powers[-1]])
    z_lo = z0
    for start in range(0, GRID_POINTS - 1, len(powers)):
        # grid points start+1 .. start+len(block), each from the block's left state
        block = powers[: GRID_POINTS - 1 - start]
        states = (block.reshape(-1, n) @ z_lo).reshape(-1, n, n)
        below = np.flatnonzero(np.linalg.norm(states, axis=(1, 2)) <= target)
        if below.size:
            hit = start + 1 + int(below[0])
            z_lo = states[below[0] - 1] if below[0] else z_lo
            break
        z_lo = states[-1]
    else:
        raise ValueError(
            "no decay to 1/e on [0, %.6g]; tau* exceeds this horizon" % horizon
        )
    # Newton on the local time s in the cell, bracketed by excess(lo) > 0 >= excess(hi)
    t0, width = grid[hit - 1], grid[hit] - grid[hit - 1]
    lo, hi, s, y = 0.0, width, 0.0, z_lo
    norm = float(np.linalg.norm(y))
    while hi - lo > 1e-10 * (t0 + hi):
        slope = float(np.real(np.vdot(y, a @ y))) / norm
        newton = s - (norm - target) / slope if slope else -np.inf
        tol = 1e-10 * (t0 + hi)
        s = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        s = min(max(s, lo + 0.5 * tol), hi - 0.5 * tol)
        y = expm(s * a) @ z_lo
        norm = float(np.linalg.norm(y))
        if norm - target <= 0.0:
            hi = s
        else:
            lo = s
    return float(grid[hit]) if hi == width else float(t0 + hi)


def _ccr_matrix(ccr_matrix, n: int) -> np.ndarray:
    """The CCR matrix Z0 as an array, refused unless it is finite and n x n."""
    z0 = np.asarray(ccr_matrix)
    if z0.shape != (n, n):
        raise ValueError("CCR matrix must be %d x %d to match the drift, got shape %r" % (n, n, z0.shape))
    if not np.isfinite(z0).all():
        raise ValueError("CCR matrix has non-finite entries")
    return z0


def _schur_drift(a):
    """Float drift, its Hurwitz abscissa and real Schur pair (T, Q) with A = Q T Q^T.

    The bounds are certified for a real drift only: a non-zero imaginary
    part is refused, not discarded.
    """
    a = np.asarray(a)
    if np.any(np.imag(a) != 0):
        raise ValueError("drift must be real (max imag %g)" % float(np.max(np.abs(np.imag(a)))))
    a = np.asarray(np.real(a), dtype=float)
    return a, _hurwitz_abscissa(a), *schur(a, output="real")


def _certified_bounds(a, sa: float, t, q, k_matrix, z0, lams):
    """G of one K and its tau bound, stacked over the shifts lams: one `trsyl` per lam
    on the Schur pair (T, Q) of A, then every check and the bound once over the stack,
    from eigenvalues and one stacked solve only.  Any lam failing a check refuses the
    batch; lyapunov_G passes the identity as Z0.

    The strict-decay matrices D = AG + GA^T + 2 lam G go to `_check_decay`, which
    needs an eigensolve only for a lam whose solve residual it cannot vouch for."""
    z0 = _ccr_matrix(z0, len(t))
    k = np.asarray(k_matrix, dtype=float)
    if k.shape != q.shape or np.max(np.abs(k - k.T)) > 1e-12 * max(1.0, float(np.max(np.abs(k)))):
        raise ValueError("K must be symmetric of matching size")
    k_min = np.min(np.linalg.eigvalsh(k))
    if k_min <= 0.0:
        raise ValueError("K must be positive definite")
    n = len(t)
    rhs, diag = np.asfortranarray(-(q.T @ k @ q)), np.diag(t)
    shifted, ys = np.array(t, order="F"), np.empty((len(lams), n, n))
    for i, lam in enumerate(lams):
        if not 0.0 < lam < -sa:
            raise ValueError("lam must lie in (0, %.6g), got %r" % (-sa, lam))
        shifted.flat[:: n + 1] = diag + lam
        y, scale, info = dtrsyl(shifted, shifted, rhs, tranb="T")
        if info != 0:
            raise ValueError("trsyl perturbed near-common eigenvalues at lam %r (spectral abscissa %.6e)" % (lam, sa))
        np.divide(y, scale, out=ys[i])
    shifts = np.asarray(lams, dtype=float)
    g = q @ ys @ q.T
    g = (g + g.swapaxes(-1, -2)) / 2.0
    w = np.linalg.eigvalsh(g)
    if np.any(w[:, 0] <= 0.0):
        raise ValueError("Lyapunov solution is not positive definite")
    ag = a @ g
    _check_decay(ag + ag.swapaxes(-1, -2) + 2.0 * shifts[:, None, None] * g, k, k_min)
    base = float(np.linalg.norm(z0))
    if base == 0.0:
        raise ValueError("zero CCR matrix: tau* = 0 and the bound is void")
    # ||G^{-1/2} Z0||_F^2 = Re tr(Z0^H G^{-1} Z0), over the real and imaginary columns of Z0
    x = np.concatenate([z0.real, z0.imag], axis=1)
    weighted = np.sqrt(np.sum(np.linalg.solve(g, x) * x, axis=(-2, -1)))
    return g, (1.0 + np.log(np.sqrt(w[:, -1]) * weighted / base)) / shifts


def _check_decay(decay, k, k_min: float) -> None:
    """Refuse unless lambda_max(D) <= 1e-9 for each D of the stack, as `eigvalsh` decides it.

    Each D = -K + R, R the residual of its Lyapunov solve, so by Weyl's inequality
    lambda_max(D) <= -lambda_min(K) + ||R||_F.  A D on which that bound plus
    _DECAY_ROUNDING n eps (||D||_F + ||K||_F), an allowance for the rounding of R
    and of both eigenvalue computations, is at most 1e-9 passes without an
    eigensolve; the others get one stacked `eigvalsh` and the 1e-9 test.
    """
    rounding = _DECAY_ROUNDING * len(k) * np.finfo(float).eps * (np.linalg.norm(decay, axis=(1, 2)) + np.linalg.norm(k))
    unsure = ~(np.linalg.norm(decay + k, axis=(1, 2)) - k_min + rounding <= 1e-9)
    if np.any(unsure) and np.max(np.linalg.eigvalsh(decay[unsure])) > 1e-9:
        raise ValueError("strict decay inequality failed")


def lyapunov_G(a, lam: float, k_matrix) -> np.ndarray:
    """Solve (A + lam I) G + G (A + lam I)^T + K = 0 for G > 0.

    Requires 0 < lam < -sigma(A) and K symmetric positive definite.  Solved
    by Bartels-Stewart on the real Schur form A = Q T Q^T: A + lam I keeps
    the Schur vectors Q, so each K costs one Schur-basis transform, one
    O(n^3) triangular Sylvester solve per lam and one stacked eigenvalue
    pass (G > 0).  Certifies A G + G A^T < -2 lam G from the solve's
    residual, with a second eigenvalue pass only where that cannot decide
    (see `_check_decay`).
    """
    return _certified_bounds(*_schur_drift(a), k_matrix, np.eye(len(a)), [lam])[0][0]


def tau_upper_bound(a, ccr_matrix, lam: float, k_matrix) -> float:
    """Certified upper bound on tau* from the Lyapunov function of (lam, K).

    (1/lam) * (1 + log(sqrt(||G||) ||G^{-1/2} Z0||_F / ||Z0||_F)); invariant
    under rescaling of K.
    """
    return float(_certified_bounds(*_schur_drift(a), k_matrix, ccr_matrix, [lam])[1][0])


def contraction_norm(a, g, tau: float) -> float:
    """Spectral norm of G^{-1/2} e^{tau A} G^{1/2}.

    At most e^{-lam tau} for tau >= 0 (`_times`) when G comes from
    lyapunov_G(a, lam, .); used to certify the decay behind tau_upper_bound.
    """
    (tau,) = _times([tau], "tau")
    root, isqrt = _pd_sqrt(*np.linalg.eigh(np.asarray(g)))
    return float(np.linalg.norm(isqrt @ expm(tau * np.asarray(a)) @ root, ord=2))


@dataclass(frozen=True)
class TauBoundSearch:
    """Best Lyapunov bound found, with the certificate that produced it."""

    bound: float
    lam: float
    k_matrix: np.ndarray
    k_label: str
    seed: int
    evaluations: int


def optimize_tau_bound(a, ccr_matrix, budget: int = 64, seed: int = 0) -> TauBoundSearch:
    """Grid search over (lam, K) for the smallest certified bound on tau*.

    lam runs over 32 geometrically spaced points in (0.01, 0.99) * |sigma(A)|;
    K runs over the identity followed by seeded random positive definite
    samples S^T S + 1e-6 I normalized to unit trace.  K is the outer loop,
    lam the inner (ascending); ties keep the smaller lam.  Each K costs one
    Schur-basis transform, one `trsyl` per lam, one stacked `eigvalsh` of G
    and one stacked solve over its lams (no eigenvectors: ||G|| is the top
    eigenvalue and ||G^{-1/2} Z0||_F^2 = Re tr(Z0^H G^{-1} Z0)); strict decay
    is certified from the solve's residual, with a stacked `eigvalsh` of the
    decay matrices only for lams it cannot vouch for.  The search refuses
    when any lam of that batch fails a check, and a CCR matrix that is not
    finite or not n x n before any solve.  The CLI caps the budget at 4096.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    a, sa, t, q = _schur_drift(a)
    n = len(a)
    lams = np.geomspace(0.01 * -sa, 0.99 * -sa, 32).tolist()
    rng = np.random.default_rng(seed)

    def candidates():
        yield "identity", np.eye(n)
        for i in itertools.count():
            s = rng.standard_normal((n, n))
            w = s.T @ s + 1e-6 * np.eye(n)
            yield "sample-%d" % i, w / np.trace(w)

    best, evals, pool = None, 0, candidates()
    while evals < budget:
        label, k = next(pool)
        batch = lams[: budget - evals]
        bounds = _certified_bounds(a, sa, t, q, k, ccr_matrix, batch)[1]
        evals += len(batch)
        i = int(np.argmin(bounds))
        if best is None or bounds[i] < best[0] or (bounds[i] == best[0] and batch[i] < best[1]):
            best = (float(bounds[i]), batch[i], k, label)
    return TauBoundSearch(*best, seed=seed, evaluations=evals)
