"""Exact matrix oracle for finite-level models.

Represents the variables as explicit d x d Hermitian matrices and applies
the GKSL generator directly, so drift matrices, moment flows and two-time
quantities computed elsewhere in the package can be checked against honest
matrix arithmetic.  Nothing in this module uses the closed-form drift or
dispersion expressions it is meant to test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .composite import augment_constants
from .model import MAX_DIM, CapabilityLimit, ConsistencyError, StructureConstants, _frozen, pauli_constants
from .qsde import _times, ito_matrix

__all__ = [
    "HilbertRep",
    "generator_identity_check",
    "heisenberg_superoperator",
    "lindblad_propagate",
    "moments",
    "pauli_representation",
    "representation_check",
    "state_superoperator",
    "stationary_state",
    "tensor_representation",
    "two_point_commutator",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@dataclass(frozen=True)
class HilbertRep:
    """Concrete Hermitian matrices realizing a set of structure constants."""

    dim: int
    variables: tuple
    constants: StructureConstants


def pauli_representation() -> HilbertRep:
    """The 2x2 spin representation of the Pauli constants."""
    return HilbertRep(
        dim=2,
        variables=_frozen(*(np.array(x) for x in (SIGMA_X, SIGMA_Y, SIGMA_Z))),
        constants=pauli_constants(),
    )


def tensor_representation(rep1: HilbertRep, rep2: HilbertRep) -> HilbertRep:
    """Composite representation on the tensor product space.

    Variable order: the first factor's variables (tensored with identity),
    the second factor's, then all cross products kron(X1_j, X2_k) with j
    outermost, the index convention of composite.augment_constants, which
    gives the constants; representation_check tests those against these
    explicit matrices.
    """
    d = rep1.dim * rep2.dim
    if d > MAX_DIM:
        raise CapabilityLimit("representation dimension %d exceeds %d" % (d, MAX_DIM))
    y1 = np.concatenate([np.eye(rep1.dim)[None], rep1.variables])
    y2 = np.concatenate([np.eye(rep2.dim)[None], rep2.variables])
    # prod[a, b] = kron(Y1_a, Y2_b) over the stacked (I, X_1..X_n) of each factor
    prod = (y1[:, None, :, None, :, None] * y2[:, None, :, None, :]).reshape(len(y1), len(y2), d, d)
    mats = np.concatenate([prod[1:, 0], prod[0, 1:], prod[1:, 1:].reshape(-1, d, d)], dtype=complex)
    return HilbertRep(
        dim=d,
        variables=_frozen(*mats),
        constants=augment_constants(rep1.constants, rep2.constants),
    )


def representation_check(rep: HilbertRep) -> float:
    """Largest Frobenius residual of the multiplication table in this rep."""
    mats = np.stack(rep.variables)
    resid = np.einsum("jab,kbc->jkac", mats, mats)
    resid -= np.einsum("jk,ac->jkac", rep.constants.alpha, np.eye(rep.dim))
    resid -= np.einsum("ljk,lac->jkac", rep.constants.beta, mats)
    return float(np.max(np.linalg.norm(resid, axis=(2, 3))))


def heisenberg_superoperator(rep: HilbertRep, spec) -> np.ndarray:
    """Matrix of the Heisenberg generator on column-major vectorized matrices.

    G(xi) = i[H, xi] + sum_jk Omega_jk L_j xi L_k - (1/2){K, xi} with
    K = sum_jk Omega_jk L_j L_k, that is sum_t P_t xi Q_t over the pairs
    (iH - K/2, I), (I, -iH - K/2) and (W_k, L_k) with W_k = sum_j Omega_jk L_j.
    By vec(P xi Q) = (Q^T (x) P) vec(xi) the matrix is sum_t Q_t^T (x) P_t.
    A matrix that overflows (K for |N| near 1e300, say) is refused (ValueError).
    """
    m, n = spec.coupling.shape
    if n != rep.constants.n:
        raise ValueError("coupling width %d does not match representation" % n)
    d = rep.dim
    eye = np.eye(d)
    flat = np.reshape(rep.variables, (n, d * d))
    with np.errstate(over="ignore", invalid="ignore"):
        h = (spec.energy @ flat).reshape(d, d)
        ls = (spec.coupling @ flat).reshape(m, d, d) + spec.offset[:, None, None] * eye
        wls = (ito_matrix(m).T @ ls.reshape(m, d * d)).reshape(m, d, d)
        half_k = 0.5 * np.einsum("kab,kbc->ac", wls, ls)
        left = np.concatenate([[1j * h - half_k, eye], wls])
        right = np.concatenate([[eye, -1j * h - half_k], ls])
        sup = np.einsum("tqp,trs->prqs", right, left).reshape(d * d, d * d)
    if not np.isfinite(sup).all():
        raise ValueError("GKSL generator is not finite: the model's entries overflow it")
    return sup


def _vec(mats) -> np.ndarray:
    """Column-major vec of each matrix in a (count, d, d) stack, one per row."""
    mats = np.asarray(mats)
    return mats.transpose(0, 2, 1).reshape(len(mats), -1)


def _apply(sup, xis) -> np.ndarray:
    """Heisenberg generator with matrix sup applied to a (count, d, d) stack.

    Each output of a Hermitian input is checked Hermitian (ConsistencyError).
    """
    xis = np.asarray(xis, dtype=complex)
    out = (_vec(xis) @ sup.T).reshape(xis.shape).transpose(0, 2, 1)
    hermitian = np.max(np.abs(xis - xis.conj().transpose(0, 2, 1)), axis=(1, 2)) <= 1e-12
    scale = np.maximum(1.0, np.max(np.abs(out), axis=(1, 2)))
    skew = np.max(np.abs(out - out.conj().transpose(0, 2, 1)), axis=(1, 2))
    if np.any(hermitian & ~(skew <= 1e-12 * scale)):
        raise ConsistencyError("GKSL output of a Hermitian input is not Hermitian")
    return out


def state_superoperator(rep: HilbertRep, spec) -> np.ndarray:
    """State-picture generator: the Hilbert-Schmidt adjoint of the Heisenberg one."""
    return heisenberg_superoperator(rep, spec).conj().T


def _check_state(rho, d):
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError("state has shape %r, expected (%d, %d)" % (rho.shape, d, d))
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        raise ValueError("state is not Hermitian")
    if np.min(np.linalg.eigvalsh((rho + rho.conj().T) / 2)) < -1e-10:
        raise ValueError("state has a negative eigenvalue")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("state trace differs from 1")
    return rho


def _propagate(state_sup, d: int, rho0, t: float):
    """lindblad_propagate on a state-picture generator that is already built."""
    rho0 = _check_state(rho0, d)
    (t,) = _times([t], "propagation time")
    flow = expm(t * state_sup)
    rho_t = (flow @ rho0.flatten(order="F")).reshape((d, d), order="F")
    tr = complex(np.trace(rho_t))
    residual = abs(tr - 1.0)
    if not residual <= 1e-9:
        raise ConsistencyError("trace drifted by %g" % residual)
    return rho_t / tr, residual


def lindblad_propagate(rep: HilbertRep, spec, rho0, t: float):
    """Propagate a density matrix for time t >= 0.

    Returns (rho_t, trace_residual) where the residual is |Tr rho_t - 1|
    before renormalization; the returned state is renormalized.
    """
    return _propagate(state_superoperator(rep, spec), rep.dim, rho0, t)


def moments(rep: HilbertRep, rho) -> np.ndarray:
    """First moments Tr(rho X_j) of a state in this representation."""
    return np.einsum("ab,jba->j", np.asarray(rho, dtype=complex), np.stack(rep.variables))


def stationary_state(rep: HilbertRep, spec, *, heisenberg=None) -> np.ndarray:
    """Invariant density matrix, from the kernel of the state-picture generator.

    The kernel is read off an SVD.  More than one singular value at or below
    1e-10 sigma_max means the stationary state is not unique, and that is
    refused (ValueError) rather than answered with an arbitrary element.
    `heisenberg` is the Heisenberg superoperator if the caller already built it.
    """
    d = rep.dim
    sup = (heisenberg_superoperator(rep, spec) if heisenberg is None else heisenberg).conj().T
    _, sv, vh = np.linalg.svd(sup)
    tol = 1e-10 * sv[0]
    kernel = int(np.sum(sv <= tol))
    if kernel > 1:
        gap = sv[-kernel - 1] if kernel < len(sv) else 0.0
        raise ValueError(
            "stationary state is not unique: generator kernel dimension %d "
            "(singular value gap %.3g at tolerance %.3g)" % (kernel, gap, tol)
        )
    rho = vh[-1].conj().reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho)
    resid = np.linalg.norm((sup @ rho.flatten(order="F")))
    if resid > 1e-8:
        raise ValueError("no stationary state found, kernel residual %g" % resid)
    return rho


def two_point_commutator(rep: HilbertRep, spec, rho0, s: float, lags, *, heisenberg=None) -> np.ndarray:
    """Matrices of E[[X_j(s + tau), X_k(s)]] in the exact representation, one per lag tau.

    Entry (j, k) is Tr(X_j e^{tau L}(X_k rho(s))) minus the same with
    rho(s) X_k, where L is the state-picture generator and rho(s) the state
    propagated from rho0.  Requires finite s >= 0 and finite tau >= 0; L and
    rho(s) are formed once, and all lags propagate in one stacked expm, so
    the result has shape (len(lags), n, n).  `heisenberg` is the Heisenberg
    superoperator if the caller already built it.
    """
    lags = _times(lags, "tau")
    sup = (heisenberg_superoperator(rep, spec) if heisenberg is None else heisenberg).conj().T
    rho_s, _ = _propagate(sup, rep.dim, rho0, s)
    mats = np.stack(rep.variables)
    comms = _vec(mats @ rho_s - rho_s @ mats).T
    # Tr(X P) is the row-major flattening of X dotted with vec(P)
    return mats.reshape(len(mats), -1) @ (expm(np.multiply.outer(lags, sup)) @ comms)


def generator_identity_check(rep: HilbertRep, spec, coeffs, *, heisenberg=None) -> float:
    """Largest residual of G(X_j) = sum_k A_jk X_k + b_j I over j.

    `heisenberg` is the Heisenberg superoperator if the caller already built it.
    """
    mats = np.stack(rep.variables)
    lhs = _apply(heisenberg_superoperator(rep, spec) if heisenberg is None else heisenberg, mats)
    rhs = np.tensordot(coeffs.a, mats, axes=1) + np.multiply.outer(coeffs.b, np.eye(rep.dim))
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2))))
