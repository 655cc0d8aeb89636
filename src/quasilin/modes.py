"""Eigenstructure of the uncoupled (Hamiltonian-only) drift.

With alpha positive definite, A0 = alpha Upsilon for a real antisymmetric
Upsilon, so A0 is similar to i * diag(omega) with real omega coming in
+/- pairs (plus zeros).  The similarity is Sigma = sqrt(alpha) V with V a
unitary eigenbasis of the real antisymmetric S = sqrt(alpha) Upsilon
sqrt(alpha), read off its real Schur form.  The isolated dynamics is then a
direct sum of rotations at the positive frequencies plus frozen static
modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .model import _frozen

__all__ = [
    "EigenModes",
    "eigenmodes",
    "oscillation_period",
]


@dataclass(frozen=True)
class EigenModes:
    """Frequencies (descending), unitary eigenbasis V, and Sigma = sqrt(alpha) V."""

    omegas: np.ndarray
    vectors: np.ndarray
    sigma: np.ndarray
    sigma_inv: np.ndarray
    zero_tol: float


def _pd_sqrt(w, v):
    """(sqrt, inverse sqrt) of the PD matrix v diag(w) v^T from its eigh pair (w, v), or of a stack of them."""
    r, vt = np.sqrt(np.maximum(w, 1e-14))[..., None, :], v.swapaxes(-1, -2)
    return (v * r) @ vt, (v / r) @ vt


def _alpha_roots(alpha):
    """(sqrt, inverse sqrt) of alpha, refusing a non-symmetric, complex or indefinite alpha."""
    alpha = np.asarray(alpha)
    scale = max(1.0, float(np.max(np.abs(alpha))))
    if np.max(np.abs(alpha - alpha.T)) > 1e-10 * scale or np.max(np.abs(np.imag(alpha))) > 0:
        raise ValueError("alpha must be real symmetric")
    w, q = np.linalg.eigh(np.real(alpha))
    if w[0] <= 1e-12 * max(1.0, w[-1]):
        raise ValueError("alpha is not positive definite (min eigenvalue %g)" % w[0])
    return _pd_sqrt(w, q)


def _solve_upsilon(a0, alpha) -> np.ndarray:
    """Solve alpha Upsilon = A0 and check antisymmetry of the result."""
    ups = np.linalg.solve(np.real(np.asarray(alpha)), np.asarray(a0))
    if np.max(np.abs(ups + ups.T)) > 1e-10:
        raise ValueError("alpha^-1 A0 is not antisymmetric; A0 is not Hamiltonian-only")
    return ups


def eigenmodes(a0, alpha) -> EigenModes:
    """Diagonalize A0 = i Sigma diag(omega) Sigma^{-1} with alpha > 0.

    The real Schur form of S = sqrt(alpha) Upsilon sqrt(alpha), real
    antisymmetric, is block diagonal.  A 2 x 2 block [[0, w], [-w, 0]] on
    Schur vectors (q_p, q_p+1) gives the pair v = (q_p + i sign(w) q_p+1)/sqrt(2)
    at |w| and its conjugate at -|w|; every other Schur vector, and each block
    with |w| <= zero_tol, is a real static mode at frequency exactly 0.

    Conventions: omegas sorted descending; each eigenvector has its
    largest-magnitude entry real positive; negative-frequency eigenvectors
    are the conjugates of their positive partners; zero-frequency
    eigenvectors are real.
    """
    a0 = np.asarray(a0, dtype=float)
    n = a0.shape[0]
    root, iroot = _alpha_roots(alpha)
    s = root @ _solve_upsilon(a0, alpha) @ root
    t, q = schur((s - s.T) / 2.0, output="real")
    p = np.flatnonzero(np.diag(t, -1))
    w = (t[p, p + 1] - t[p + 1, p]) / 2.0
    zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    rot = np.abs(w) > zero_tol
    order = np.argsort(-np.abs(w[rot]), kind="stable")
    p, w = p[rot][order], w[rot][order]
    # v = (x + i y)/sqrt(2) times conj(lead)/|lead|, formed in the real plane so
    # that the lead entry's imaginary part a b - b a is exactly 0
    x, y = q[:, p], np.sign(w) * q[:, p + 1]
    mag = np.hypot(x, y)
    a, b = _lead(mag, x), _lead(mag, y)
    r = np.sqrt(2.0) * np.hypot(a, b)
    pairs = (a * x + b * y) / r + 1j * ((a * y - b * x) / r)
    static = np.delete(q, np.concatenate([p, p + 1]), axis=1)
    static *= np.sign(_lead(np.abs(static), static))

    pos = np.abs(w)
    omegas = np.concatenate([pos, np.zeros(static.shape[1]), -pos[::-1]])
    v = np.hstack([pairs, static, np.conj(pairs[:, ::-1])])
    if np.max(np.abs(v.conj().T @ v - np.eye(n))) > 1e-10:
        raise ValueError("eigenbasis lost orthonormality")
    sigma = root @ v
    sigma_inv = v.conj().T @ iroot
    recon = 1j * sigma @ np.diag(omegas) @ sigma_inv
    scale = max(1.0, float(np.max(np.abs(a0))))
    if np.max(np.abs(recon - a0)) > 1e-9 * scale:
        raise ValueError("eigendecomposition failed to reproduce A0")
    omegas, v, sigma, sigma_inv = _frozen(omegas, v, sigma, sigma_inv)
    return EigenModes(omegas=omegas, vectors=v, sigma=sigma, sigma_inv=sigma_inv, zero_tol=zero_tol)


def _lead(magnitude, cols):
    """Entry of each column of cols where the column of magnitude is largest."""
    return cols[np.argmax(magnitude, axis=0), np.arange(cols.shape[1])]


def oscillation_period(modes: EigenModes):
    """Common period 2 pi / (smallest positive frequency), or None if static."""
    pos = modes.omegas[modes.omegas > modes.zero_tol]
    if len(pos) == 0:
        return None
    return float(2.0 * np.pi / np.min(pos))
