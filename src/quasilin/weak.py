"""Small-coupling asymptotics of the drift spectrum.

Couplings enter the drift quadratically: scaling (M, N) by eps turns
A into A0 + eps^2 sA and b into eps^2 sb.  For pairwise distinct
eigenfrequencies of A0 the drift eigenvalues move as
lambda_k = i omega_k + eps^2 nu_k + o(eps^2) with
nu_k = (Sigma^{-1} sA Sigma)_kk, which yields stability criteria,
decoherence time scales and the invariant-mean limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PAULI_THETA, ConsistencyError, StructureConstants
from .modes import EigenModes
from .qsde import SystemSpec, build_coefficients, system_spec

__all__ = [
    "AsymptoticsRow",
    "CouplingShape",
    "PauliGammaResult",
    "PerturbationResult",
    "coupling_shape",
    "eigenvalue_asymptotics_check",
    "invariant_limit_from_drift",
    "invariant_mean_limit",
    "nu_from_drift",
    "nu_values",
    "pauli_gamma",
    "scaled_coefficients",
    "shape_drift",
    "stability_and_thresholds",
]

_RATE_FLOOR = 1e-13


@dataclass(frozen=True)
class CouplingShape:
    """Coupling data at unit strength; the model at strength eps uses eps*M, eps*N."""

    constants: StructureConstants
    energy: np.ndarray
    coupling: np.ndarray
    offset: np.ndarray

    def at_strength(self, eps: float) -> SystemSpec:
        return system_spec(
            self.constants, self.energy, eps * self.coupling, eps * self.offset
        )


def coupling_shape(constants, energy, coupling, offset=None) -> CouplingShape:
    """Validate and wrap a unit-strength coupling shape."""
    sp = system_spec(constants, energy, coupling, offset)
    return CouplingShape(
        constants=constants, energy=sp.energy, coupling=sp.coupling, offset=sp.offset
    )


def shape_drift(shape: CouplingShape):
    """(a0, sa, sb): drift split at unit strength, so A(eps) = a0 + eps^2 sa."""
    coeffs = build_coefficients(shape.at_strength(1.0))
    return coeffs.a0, coeffs.atilde, coeffs.b


def scaled_coefficients(shape: CouplingShape, eps: float):
    """Coefficients at strength eps, checking exact quadratic homogeneity."""
    coeffs = build_coefficients(shape.at_strength(eps))
    _, sa, sb = shape_drift(shape)
    scale = max(1.0, float(np.max(np.abs(sa))))
    if np.max(np.abs(coeffs.atilde - eps**2 * sa)) > 1e-12 * scale:
        raise ConsistencyError("coupling drift failed quadratic homogeneity")
    if np.max(np.abs(coeffs.b - eps**2 * sb)) > 1e-12 * scale:
        raise ConsistencyError("affine drift failed quadratic homogeneity")
    return coeffs


def _check_distinct(omegas):
    n = len(omegas)
    for j in range(n):
        for k in range(j + 1, n):
            if abs(omegas[j] - omegas[k]) <= 1e-9:
                raise ValueError(
                    "eigenfrequencies %d and %d are not distinct (%.12g vs %.12g)"
                    % (j, k, omegas[j], omegas[k])
                )


def nu_from_drift(sa, modes: EigenModes) -> np.ndarray:
    """First-order eigenvalue rates nu_k = (Sigma^{-1} sA Sigma)_kk."""
    _check_distinct(modes.omegas)
    return np.diag(modes.sigma_inv @ np.asarray(sa) @ modes.sigma).copy()


def nu_values(shape: CouplingShape, modes: EigenModes) -> np.ndarray:
    """Eigenvalue rates of a coupling shape on the modes of its own A0."""
    _, sa, _ = shape_drift(shape)
    return nu_from_drift(sa, modes)


@dataclass(frozen=True)
class AsymptoticsRow:
    """One strength eps: matched drift eigenvalues and scaled residuals."""

    eps: float
    matched: np.ndarray
    residuals: np.ndarray
    ambiguous: bool


def eigenvalue_asymptotics_check(shape: CouplingShape, modes: EigenModes, eps_list):
    """Residuals |lambda_k(eps) - i omega_k - eps^2 nu_k| / eps^2 per strength.

    Eigenvalues of A0 + eps^2 sA are matched to the predictions greedily,
    smallest distance first.  A row is flagged ambiguous when two
    predictions are closer than half the minimal frequency gap of A0.
    """
    a0, sa, _ = shape_drift(shape)
    nu = nu_from_drift(sa, modes)
    om = modes.omegas
    n = len(om)
    gaps = [abs(om[j] - om[k]) for j in range(n) for k in range(j + 1, n)]
    gap0 = min(gaps) if gaps else np.inf

    rows = []
    for eps in eps_list:
        eps = float(eps)
        a_eps = a0 + eps**2 * sa
        eigs = np.linalg.eigvals(a_eps)
        preds = 1j * om + eps**2 * nu
        dist = np.abs(eigs[None, :] - preds[:, None])
        matched = np.zeros(n, dtype=complex)
        free_pred = set(range(n))
        free_eig = set(range(n))
        for _ in range(n):
            best = min(
                ((k, i) for k in free_pred for i in free_eig),
                key=lambda ki: dist[ki[0], ki[1]],
            )
            matched[best[0]] = eigs[best[1]]
            free_pred.remove(best[0])
            free_eig.remove(best[1])
        if eps > 0:
            residuals = np.abs(matched - preds) / eps**2
        else:
            residuals = np.abs(matched - 1j * om)
        pred_gaps = [
            abs(preds[j] - preds[k]) for j in range(n) for k in range(j + 1, n)
        ]
        ambiguous = bool(pred_gaps and min(pred_gaps) < 0.5 * gap0)
        rows.append(
            AsymptoticsRow(eps=eps, matched=matched, residuals=residuals, ambiguous=ambiguous)
        )
    return rows


@dataclass(frozen=True)
class PerturbationResult:
    """Stability verdict and time/strength scales from the rates nu."""

    nu: np.ndarray
    stable_for_small_eps: bool
    abscissa_coefficient: float
    tau_hat_coefficient: float | None
    eps_hat: float | None
    eps_tilde: float | None

    def tau_hat(self, eps: float) -> float:
        if self.tau_hat_coefficient is None:
            raise ValueError("all decay rates vanish, no decoherence time scale")
        return self.tau_hat_coefficient / eps**2


def stability_and_thresholds(shape: CouplingShape, modes: EigenModes) -> PerturbationResult:
    """Stability for small eps and the slow/fast threshold strengths.

    Stability holds for small eps iff max Re nu < 0, with spectral abscissa
    eps^2 max Re nu + o(eps^2).  tau_hat(eps) = eps^-2 / max|Re nu| is the
    decoherence time scale; eps_hat and eps_tilde compare it against the
    slowest and the per-mode oscillation periods respectively, with
    eps_tilde <= eps_hat always.
    """
    nu = nu_values(shape, modes)
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


def invariant_limit_from_drift(sa, sb, modes: EigenModes) -> np.ndarray:
    """Invariant-mean limit from drift split data (see invariant_mean_limit)."""
    om = modes.omegas
    n = len(om)
    if n % 2 == 0:
        raise ValueError("even dimension: A0 has no zero mode to carry a limit")
    zero_idx = np.where(np.abs(om) <= modes.zero_tol)[0]
    if len(zero_idx) != 1:
        raise ValueError(
            "need exactly one zero eigenfrequency, found %d" % len(zero_idx)
        )
    nu = nu_from_drift(sa, modes)
    k0 = int(zero_idx[0])
    nu0 = complex(nu[k0])
    if abs(nu0.imag) > 1e-10 * max(1.0, abs(nu0)):
        raise ValueError("zero-mode rate is not real: %r" % nu0)
    if abs(nu0) < _RATE_FLOOR:
        raise ValueError("zero-mode rate vanishes, stationary mean does not converge")
    if nu0.real >= 0.0:
        raise ValueError("zero mode does not decay (Re nu = %g)" % nu0.real)
    v0 = modes.vectors[:, k0]
    if np.max(np.abs(v0.imag)) > 1e-9:
        raise ValueError("zero-mode eigenvector is not real")
    v0 = v0.real
    # sqrt(alpha) = Sigma V^*, alpha^{-1/2} = V Sigma^{-1}
    root = modes.sigma @ modes.vectors.conj().T
    iroot = modes.vectors @ modes.sigma_inv
    if max(float(np.max(np.abs(root.imag))), float(np.max(np.abs(iroot.imag)))) > 1e-9:
        raise ValueError("alpha square roots came out non-real")
    limit = -(1.0 / nu0.real) * root.real @ np.outer(v0, v0) @ iroot.real @ np.asarray(sb)
    return np.real_if_close(limit, tol=1000).astype(float)


def invariant_mean_limit(shape: CouplingShape, modes: EigenModes) -> np.ndarray:
    """Limit of the stationary mean as the coupling strength goes to zero.

    Requires odd dimension with a simple zero frequency whose rate has
    negative real part; then lim mu*(eps) =
    -(1/nu_k0) sqrt(alpha) v_k0 v_k0^T alpha^{-1/2} sb, independent of eps
    and invariant under rescaling the shape.
    """
    _, sa, sb = shape_drift(shape)
    return invariant_limit_from_drift(sa, sb, modes)


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
    gamma = np.zeros((3, 3))
    for l in range(3):
        gamma -= PAULI_THETA[l] @ mtm @ PAULI_THETA[l]
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
