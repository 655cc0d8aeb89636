"""Small-coupling asymptotics of the drift spectrum.

Couplings enter the drift quadratically: scaling (M, N) by eps turns
A into A0 + eps^2 sA and b into eps^2 sb.  The unit-strength coefficients
of a single system (`build_coefficients`) or of a composite
(`composite_coefficients`) carry this split as (a0, atilde, b), and every
routine here reads it from them.  For pairwise distinct eigenfrequencies of
A0 the drift eigenvalues move as lambda_k = i omega_k + eps^2 nu_k + o(eps^2)
with nu_k = (Sigma^{-1} sA Sigma)_kk, which yields stability criteria,
decoherence time scales and the invariant-mean limit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .model import PAULI_THETA, ConsistencyError
from .modes import EigenModes
from .qsde import QsdeCoefficients, SystemSpec, build_coefficients

__all__ = [
    "AsymptoticsRow",
    "PauliGammaResult",
    "PerturbationResult",
    "eigenvalue_asymptotics_check",
    "invariant_mean_limit",
    "nu_values",
    "pauli_gamma",
    "scaled_coefficients",
    "stability_and_thresholds",
    "strength_squared",
]

_RATE_FLOOR = 1e-13


def scaled_coefficients(spec: SystemSpec, eps: float):
    """Coefficients at strength eps, checking exact quadratic homogeneity."""
    coeffs = build_coefficients(spec.at_strength(eps))
    unit = build_coefficients(spec)
    scale = max(1.0, float(np.max(np.abs(unit.atilde))))
    if np.max(np.abs(coeffs.atilde - eps**2 * unit.atilde)) > 1e-12 * scale:
        raise ConsistencyError("coupling drift failed quadratic homogeneity")
    if np.max(np.abs(coeffs.b - eps**2 * unit.b)) > 1e-12 * scale:
        raise ConsistencyError("affine drift failed quadratic homogeneity")
    return coeffs


def strength_squared(eps) -> float:
    """eps^2 for a coupling strength eps, refused (ValueError) unless eps^2 is a
    positive, finite, normal float: about 1.5e-154 <= |eps| <= 1.3e154."""
    eps = float(eps)
    try:
        sq = eps**2
    except OverflowError:
        sq = np.inf
    if not sys.float_info.min <= sq <= sys.float_info.max:
        raise ValueError("coupling strength %r is out of range: eps^2 must be a positive, finite, normal float" % eps)
    return sq


def _pair_gaps(x):
    """|x_j - x_k| over the pairs j < k in lexicographic order, and the pairs (j, k)."""
    j, k = np.triu_indices(len(x), 1)
    return np.abs(x[j] - x[k]), j, k


def _check_distinct(omegas):
    gaps, j, k = _pair_gaps(omegas)
    close = np.flatnonzero(gaps <= 1e-9)
    if len(close):
        j, k = j[close[0]], k[close[0]]
        raise ValueError(
            "eigenfrequencies %d and %d are not distinct (%.12g vs %.12g)"
            % (j, k, omegas[j], omegas[k])
        )


def nu_values(coeffs: QsdeCoefficients, modes: EigenModes) -> np.ndarray:
    """First-order eigenvalue rates nu_k = (Sigma^{-1} sA Sigma)_kk, sA = coeffs.atilde.

    modes are those of coeffs.a0; the frequencies must be pairwise distinct.
    """
    _check_distinct(modes.omegas)
    return np.diag(modes.sigma_inv @ coeffs.atilde @ modes.sigma).copy()


@dataclass(frozen=True)
class AsymptoticsRow:
    """One strength eps: matched drift eigenvalues and scaled residuals."""

    eps: float
    matched: np.ndarray
    residuals: np.ndarray
    ambiguous: bool


def eigenvalue_asymptotics_check(coeffs: QsdeCoefficients, modes: EigenModes, eps_list):
    """Residuals |lambda_k(eps) - i omega_k - eps^2 nu_k| / eps^2 per strength.

    Eigenvalues of A0 + eps^2 sA are matched to the predictions greedily,
    smallest distance first.  A row is flagged ambiguous when two
    predictions are closer than half the minimal frequency gap of A0.  Each
    eps must pass `strength_squared`, checked before any eigensolve.
    """
    squares = [strength_squared(eps) for eps in eps_list]
    nu = nu_values(coeffs, modes)
    om = modes.omegas
    n = len(om)
    gap0 = _pair_gaps(om)[0].min(initial=np.inf)

    rows = []
    for eps, sq in zip(eps_list, squares):
        eigs = np.linalg.eigvals(coeffs.a0 + sq * coeffs.atilde)
        preds = 1j * om + sq * nu
        dist = np.abs(eigs[None, :] - preds[:, None])
        # greedy, smallest distance first: one pass over the pairs in sorted
        # order, ties in (prediction, eigenvalue) order
        pick = np.full(n, -1)
        taken = np.zeros(n, dtype=bool)
        for flat in np.argsort(dist, axis=None, kind="stable").tolist():
            k, i = divmod(flat, n)
            if pick[k] < 0 and not taken[i]:
                pick[k], taken[i] = i, True
        matched = eigs[pick]
        residuals = np.abs(matched - preds) / sq
        ambiguous = bool(_pair_gaps(preds)[0].min(initial=np.inf) < 0.5 * gap0)
        rows.append(
            AsymptoticsRow(eps=float(eps), matched=matched, residuals=residuals, ambiguous=ambiguous)
        )
    return rows


@dataclass(frozen=True)
class PerturbationResult:
    """Stability verdict and time/strength scales from the rates nu; a scale
    is None where it does not exist (tau_hat when every rate vanishes)."""

    nu: np.ndarray
    stable_for_small_eps: bool
    abscissa_coefficient: float
    tau_hat_coefficient: float | None
    eps_hat: float | None
    eps_tilde: float | None


def stability_and_thresholds(coeffs: QsdeCoefficients, modes: EigenModes) -> PerturbationResult:
    """Stability for small eps and the slow/fast threshold strengths.

    Stability holds for small eps iff max Re nu < 0, with spectral abscissa
    eps^2 max Re nu + o(eps^2).  tau_hat(eps) = eps^-2 / max|Re nu| is the
    decoherence time scale; eps_hat and eps_tilde compare it against the
    slowest and the per-mode oscillation periods respectively, with
    eps_tilde <= eps_hat always.
    """
    nu = nu_values(coeffs, modes)
    re = nu.real
    max_re = float(np.max(re))
    max_abs = float(np.max(np.abs(re)))
    tau_coeff = 1.0 / max_abs if max_abs > _RATE_FLOOR else None

    om = modes.omegas
    pos = om > modes.zero_tol
    if not np.any(pos):
        eps_hat = None
        eps_tilde = None
    else:
        min_pos = float(np.min(om[pos]))
        min_abs_all = float(np.min(np.abs(re)))
        eps_hat = (
            float(np.sqrt(min_pos / (2.0 * np.pi * min_abs_all)))
            if min_abs_all > _RATE_FLOOR
            else np.inf
        )
        ratio = float(np.max(np.abs(re[pos]) / om[pos]))
        eps_tilde = (
            float(1.0 / np.sqrt(2.0 * np.pi * ratio)) if ratio > _RATE_FLOOR else np.inf
        )
    return PerturbationResult(
        nu=nu,
        stable_for_small_eps=max_re < 0.0,
        abscissa_coefficient=max_re,
        tau_hat_coefficient=tau_coeff,
        eps_hat=eps_hat,
        eps_tilde=eps_tilde,
    )


def invariant_mean_limit(coeffs: QsdeCoefficients, modes: EigenModes) -> np.ndarray:
    """Limit of the stationary mean as the coupling strength goes to zero.

    Requires a simple zero frequency (so an odd dimension, since the nonzero
    frequencies pair up as +-omega) whose rate has negative real part; then
    lim mu*(eps) = -(1/nu_k0) Sigma e_k0 e_k0^T Sigma^{-1} sb, independent of
    eps and invariant under rescaling the unit-strength coupling.
    """
    om = modes.omegas
    zero_idx = np.where(np.abs(om) <= modes.zero_tol)[0]
    if len(zero_idx) != 1:
        raise ValueError(
            "need exactly one zero eigenfrequency, found %d" % len(zero_idx)
        )
    nu = nu_values(coeffs, modes)
    k0 = int(zero_idx[0])
    nu0 = complex(nu[k0])
    if abs(nu0.imag) > 1e-10 * max(1.0, abs(nu0)):
        raise ValueError("zero-mode rate is not real: %r" % nu0)
    if abs(nu0) < _RATE_FLOOR:
        raise ValueError("zero-mode rate vanishes, stationary mean does not converge")
    if nu0.real >= 0.0:
        raise ValueError("zero mode does not decay (Re nu = %g)" % nu0.real)
    # v_k0 is real, so sqrt(alpha) v v^T alpha^{-1/2} = Sigma e_k0 e_k0^T Sigma^{-1}
    limit = -(1.0 / nu0.real) * modes.sigma[:, k0].real * (modes.sigma_inv[k0].real @ coeffs.b)
    return np.real_if_close(limit, tol=1000).astype(float)


@dataclass(frozen=True)
class PauliGammaResult:
    """Damping data of the spin model: Gamma and closed-form mode rates.

    rotating_rate is -(u1^T Gamma u1 + u2^T Gamma u2), the value the
    perturbation formula and the drift eigenvalues deliver for the rotating
    pair.  rotating_rate_tabulated doubles it: the closed form that applies
    the factor 2 to each basis norm.  The factor traces to
    v = (u1 + i u2)/sqrt(2) halving both quadratic terms, so the doubled
    form overstates the pair rate exactly twofold; it is kept as a
    diagnostic.  static_rate = -2 v3^T Gamma v3 has no such mismatch.
    """

    gamma: np.ndarray
    identity_residual: float
    rotating_rate: float | None = None
    rotating_rate_tabulated: float | None = None
    static_rate: float | None = None
    basis: np.ndarray | None = None


def pauli_gamma(m_matrix, energy=None) -> PauliGammaResult:
    """Damping matrix Gamma of the spin model, two ways, plus mode rates.

    Gamma = -sum_l theta_l M^T M theta_l must equal ||M||_F^2 I - M^T M;
    the residual between the two is returned.  With an energy vector the
    closed-form rates of the rotating pair and the static mode are also
    evaluated, in the deterministic frame (u1, u2, E/|E|) obtained by
    Gram-Schmidt from the two standard basis vectors least aligned with E
    (ties broken by index).
    """
    m = np.asarray(m_matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] != 3:
        raise ValueError("spin coupling must be m x 3, got %r" % (m.shape,))
    mtm = m.T @ m
    gamma = -np.einsum("lab,bc,lcd->ad", PAULI_THETA, mtm, PAULI_THETA)
    closed = np.trace(mtm) * np.eye(3) - mtm
    residual = float(np.max(np.abs(gamma - closed)))
    if energy is None:
        return PauliGammaResult(gamma=closed, identity_residual=residual)

    e = np.asarray(energy, dtype=float)
    if e.shape != (3,):
        raise ValueError("energy must be a 3-vector")
    norm = float(np.linalg.norm(e))
    if norm == 0.0:
        raise ValueError("zero energy has no rotating modes")
    ehat = e / norm
    picks = sorted(np.argsort(np.abs(ehat), kind="stable")[:2])
    u1 = np.eye(3)[picks[0]] - (ehat[picks[0]]) * ehat
    u1 = u1 / np.linalg.norm(u1)
    u2 = np.eye(3)[picks[1]] - (ehat[picks[1]]) * ehat - (np.eye(3)[picks[1]] @ u1) * u1
    u2 = u2 / np.linalg.norm(u2)
    rotating = -float(u1 @ closed @ u1 + u2 @ closed @ u2)
    static = -2.0 * float(ehat @ closed @ ehat)
    return PauliGammaResult(
        gamma=closed,
        identity_residual=residual,
        rotating_rate=rotating,
        rotating_rate_tabulated=2.0 * rotating,
        static_rate=static,
        basis=np.vstack([u1, u2, ehat]),
    )
