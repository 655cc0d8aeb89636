"""Decoherence time of the mean CCR matrix and Lyapunov-type upper bounds.

The mean commutator matrix decays along e^{tau A}; its 1/e time tau* is
located numerically, and certified upper bounds come from quadratic
Lyapunov functions G solving a shifted Lyapunov equation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, schur
from scipy.linalg.lapack import dtrsyl

from .modes import _pd_sqrt
from .qsde import _hurwitz_abscissa, propagate

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


def tau_star(a, ccr_matrix) -> float:
    """First time the CCR matrix norm drops to 1/e of its initial value.

    Scans a 400-point grid on [0, HORIZON_FACTOR / |sigma(A)|] for the first
    sign change of ||e^{tau A} Z0||_F - ||Z0||_F / e, stepping along it with
    `qsde.propagate` only as far as that change, then bisects to a relative
    width of 1e-10.  Dips narrower than the grid step can be missed; the
    result is the first crossing the grid resolves.
    """
    a = np.asarray(a)
    sa = _hurwitz_abscissa(a)
    z0 = np.asarray(ccr_matrix)
    base = float(np.linalg.norm(z0))
    if base == 0.0:
        return 0.0
    target = base / np.e

    def excess(tau):
        return float(np.linalg.norm(expm(tau * a) @ z0)) - target

    horizon = HORIZON_FACTOR / abs(sa)
    grid = np.linspace(0.0, horizon, GRID_POINTS)
    norms = (float(np.linalg.norm(z)) for z in propagate(a, z0, grid))
    hit = next((i for i, norm in enumerate(norms) if i > 0 and norm - target <= 0.0), None)
    if hit is None:
        raise ValueError(
            "no decay to 1/e on [0, %.6g]; tau* exceeds this horizon" % horizon
        )
    lo, hi = grid[hit - 1], grid[hit]
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return float(hi)


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


def _schur_k(q, k_matrix) -> np.ndarray:
    k = np.asarray(k_matrix, dtype=float)
    if k.shape != q.shape or np.max(np.abs(k - k.T)) > 1e-12 * max(1.0, float(np.max(np.abs(k)))):
        raise ValueError("K must be symmetric of matching size")
    if np.min(np.linalg.eigvalsh(k)) <= 0.0:
        raise ValueError("K must be positive definite")
    return q.T @ k @ q


def _shifted_lyapunov(a, sa: float, t, q, lam: float, k_schur):
    """lyapunov_G from the Schur pair (T, Q) of A and Q^T K Q; returns G and eigh(G)."""
    if not 0.0 < lam < -sa:
        raise ValueError("lam must lie in (0, %.6g), got %r" % (-sa, lam))
    shifted = t + lam * np.eye(len(t))
    y, scale, info = dtrsyl(shifted, shifted, -k_schur, tranb="T")
    if info != 0:
        raise ValueError("trsyl perturbed near-common eigenvalues at lam %r (spectral abscissa %.6e)" % (lam, sa))
    g = q @ (y / scale) @ q.T
    g = (g + g.T) / 2.0
    w, v = np.linalg.eigh(g)
    if w[0] <= 0.0:
        raise ValueError("Lyapunov solution is not positive definite")
    strict = a @ g + g @ a.T + 2.0 * lam * g
    if np.max(np.linalg.eigvalsh((strict + strict.T) / 2.0)) > 1e-9:
        raise ValueError("strict decay inequality failed")
    return g, w, v


def lyapunov_G(a, lam: float, k_matrix) -> np.ndarray:
    """Solve (A + lam I) G + G (A + lam I)^T + K = 0 for G > 0.

    Requires 0 < lam < -sigma(A) and K symmetric positive definite.  Solved
    by Bartels-Stewart on the real Schur form A = Q T Q^T: A + lam I keeps
    the Schur vectors Q, so a search factors A once and each (lam, K) costs
    one O(n^3) triangular Sylvester solve.  Certifies A G + G A^T < -2 lam G.
    """
    a, sa, t, q = _schur_drift(a)
    return _shifted_lyapunov(a, sa, t, q, lam, _schur_k(q, k_matrix))[0]


def _bound(z0, lam: float, w, v) -> float:
    base = float(np.linalg.norm(z0))
    if base == 0.0:
        raise ValueError("zero CCR matrix: tau* = 0 and the bound is void")
    weighted = float(np.linalg.norm(_pd_sqrt(w, v)[1] @ z0))
    return float((1.0 + np.log(np.sqrt(w[-1]) * weighted / base)) / lam)


def tau_upper_bound(a, ccr_matrix, lam: float, k_matrix) -> float:
    """Certified upper bound on tau* from the Lyapunov function of (lam, K).

    (1/lam) * (1 + log(sqrt(||G||) ||G^{-1/2} Z0||_F / ||Z0||_F)); invariant
    under rescaling of K.
    """
    a, sa, t, q = _schur_drift(a)
    _, w, v = _shifted_lyapunov(a, sa, t, q, lam, _schur_k(q, k_matrix))
    return _bound(ccr_matrix, lam, w, v)


def contraction_norm(a, g, tau: float) -> float:
    """Spectral norm of G^{-1/2} e^{tau A} G^{1/2}.

    At most e^{-lam tau} when G comes from lyapunov_G(a, lam, .); used to
    certify the decay that underlies tau_upper_bound.
    """
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
    lam the inner (ascending); ties keep the smaller lam.
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
        k_schur = _schur_k(q, k)
        for lam in lams[: budget - evals]:
            bound = _bound(ccr_matrix, lam, *_shifted_lyapunov(a, sa, t, q, lam, k_schur)[1:])
            evals += 1
            if best is None or bound < best[0] or (bound == best[0] and lam < best[1]):
                best = (bound, lam, k, label)
    return TauBoundSearch(*best, seed=seed, evaluations=evals)
