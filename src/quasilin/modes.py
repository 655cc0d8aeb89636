"""Eigenstructure of the uncoupled (Hamiltonian-only) drift.

With alpha positive definite, A0 = alpha Upsilon for a real antisymmetric
Upsilon, so A0 is similar to i * diag(omega) with real omega coming in
+/- pairs (plus zeros).  The similarity is Sigma = sqrt(alpha) V with V a
unitary eigenbasis of the Hermitian matrix -i sqrt(alpha) Upsilon
sqrt(alpha).  The isolated dynamics is then a direct sum of rotations at
the positive frequencies plus frozen static modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenModes",
    "eigenmodes",
    "mode_coordinates",
    "oscillation_period",
    "upsilon",
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
    """(sqrt, inverse sqrt) of the PD matrix v diag(w) v^T from its eigh pair (w, v)."""
    r = np.sqrt(np.maximum(w, 1e-14))
    return (v * r) @ v.T, (v / r) @ v.T


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
    ups = np.linalg.solve(np.real(np.asarray(alpha)), np.asarray(a0))
    if np.max(np.abs(ups + ups.T)) > 1e-10:
        raise ValueError("alpha^-1 A0 is not antisymmetric; A0 is not Hamiltonian-only")
    return ups


def upsilon(a0, alpha) -> np.ndarray:
    """Solve alpha Upsilon = A0 and check antisymmetry of the result."""
    _alpha_roots(alpha)
    return _solve_upsilon(a0, alpha)


def eigenmodes(a0, alpha) -> EigenModes:
    """Diagonalize A0 = i Sigma diag(omega) Sigma^{-1} with alpha > 0.

    Conventions: omegas sorted descending; each eigenvector has its
    largest-magnitude entry real positive; negative-frequency eigenvectors
    are the conjugates of their positive partners; zero-frequency
    eigenvectors are real.
    """
    a0 = np.asarray(a0, dtype=float)
    n = a0.shape[0]
    root, iroot = _alpha_roots(alpha)
    ups = _solve_upsilon(a0, alpha)
    herm = -1j * root @ ups @ root
    herm = (herm + herm.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    order = np.argsort(-w, kind="stable")
    omegas = w[order]
    v = v[:, order].astype(complex)

    zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(omegas))) if n else 1.0)

    for k in range(n):
        col = v[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        if abs(lead) > 0:
            v[:, k] = col * (np.conj(lead) / abs(lead))

    # zero block: the eigenspace is conjugation invariant, pick a real basis
    zero_idx = np.where(np.abs(omegas) <= zero_tol)[0]
    if len(zero_idx):
        block = v[:, zero_idx]
        u, s, _ = np.linalg.svd(np.hstack([block.real, block.imag]), full_matrices=False)
        real_basis = u[:, : len(zero_idx)]
        for i, k in enumerate(zero_idx):
            col = real_basis[:, i]
            lead = col[int(np.argmax(np.abs(col)))]
            v[:, k] = col * np.sign(lead) if lead != 0 else col

    # tie negative-frequency vectors to their positive partners by conjugation
    neg_idx = [int(k) for k in np.where(omegas < -zero_tol)[0]]
    for k in np.where(omegas > zero_tol)[0]:
        if not neg_idx:
            raise ValueError("unpaired positive frequency %g" % omegas[k])
        j = min(neg_idx, key=lambda i: abs(omegas[i] + omegas[k]))
        if abs(omegas[j] + omegas[k]) > max(zero_tol, 1e-9 * abs(omegas[k])):
            raise ValueError("no conjugate partner for frequency %g" % omegas[k])
        v[:, j] = np.conj(v[:, int(k)])
        neg_idx.remove(j)

    if np.max(np.abs(v.conj().T @ v - np.eye(n))) > 1e-10:
        raise ValueError("eigenbasis lost orthonormality")
    sigma = root @ v
    sigma_inv = v.conj().T @ iroot
    recon = 1j * sigma @ np.diag(omegas) @ sigma_inv
    scale = max(1.0, float(np.max(np.abs(a0))))
    if np.max(np.abs(recon - a0)) > 1e-9 * scale:
        raise ValueError("eigendecomposition failed to reproduce A0")
    for arr in (omegas, v, sigma, sigma_inv):
        arr.setflags(write=False)
    return EigenModes(
        omegas=omegas, vectors=v, sigma=sigma, sigma_inv=sigma_inv, zero_tol=zero_tol
    )


def oscillation_period(modes: EigenModes):
    """Common period 2 pi / (smallest positive frequency), or None if static."""
    pos = modes.omegas[modes.omegas > modes.zero_tol]
    if len(pos) == 0:
        return None
    return float(2.0 * np.pi / np.min(pos))


def mode_coordinates(modes: EigenModes, alpha):
    """Real coordinate rows for each rotating pair and static mode.

    Returns a list of (kind, omega, rows): for kind "rotating" the rows are
    the 2 x n coefficient pair (xi_k, eta_k) with xi_k = (Re v_k)^T
    alpha^{-1/2} and eta_k = -(Im v_k)^T alpha^{-1/2}, which evolve under
    the isolated flow as a clockwise rotation at rate omega; for kind
    "static" a single frozen row.
    """
    _, iroot = _alpha_roots(alpha)
    out = []
    for k, om in enumerate(modes.omegas):
        if om > modes.zero_tol:
            vk = modes.vectors[:, k]
            rows = np.vstack([iroot @ vk.real, -(iroot @ vk.imag)])
            out.append(("rotating", float(om), rows))
        elif abs(om) <= modes.zero_tol:
            vk = modes.vectors[:, k]
            out.append(("static", 0.0, (iroot @ vk.real)[None, :]))
    return out
