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
from .model import MAX_DIM, CapabilityLimit, ConsistencyError, StructureConstants, pauli_constants
from .qsde import ito_structure

__all__ = [
    "HilbertRep",
    "gksl_apply",
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


def _freeze_mats(mats):
    out = []
    for x in mats:
        x = np.array(x, dtype=complex)
        x.setflags(write=False)
        out.append(x)
    return tuple(out)


def pauli_representation() -> HilbertRep:
    """The 2x2 spin representation of the Pauli constants."""
    return HilbertRep(
        dim=2,
        variables=_freeze_mats([SIGMA_X, SIGMA_Y, SIGMA_Z]),
        constants=pauli_constants(),
    )


def tensor_representation(rep1: HilbertRep, rep2: HilbertRep) -> HilbertRep:
    """Composite representation on the tensor product space.

    Variable order: the first factor's variables (tensored with identity),
    the second factor's, then all cross products kron(X1_j, X2_k) with j
    outermost.  Matches the index convention of composite.augment_constants.
    """
    d = rep1.dim * rep2.dim
    if d > MAX_DIM:
        raise CapabilityLimit("representation dimension %d exceeds %d" % (d, MAX_DIM))
    i1 = np.eye(rep1.dim)
    i2 = np.eye(rep2.dim)
    mats = [np.kron(x, i2) for x in rep1.variables]
    mats += [np.kron(i1, y) for y in rep2.variables]
    mats += [np.kron(x, y) for x in rep1.variables for y in rep2.variables]
    return HilbertRep(
        dim=d,
        variables=_freeze_mats(mats),
        constants=augment_constants(rep1.constants, rep2.constants),
    )


def representation_check(rep: HilbertRep) -> float:
    """Largest Frobenius residual of the multiplication table in this rep."""
    alpha, beta = rep.constants.alpha, rep.constants.beta
    n, d = rep.constants.n, rep.dim
    eye = np.eye(d)
    worst = 0.0
    for j in range(n):
        for k in range(n):
            lin = np.tensordot(beta[:, j, k], np.stack(rep.variables), axes=1)
            resid = rep.variables[j] @ rep.variables[k] - alpha[j, k] * eye - lin
            worst = max(worst, float(np.linalg.norm(resid)))
    return worst


def _gksl_terms(rep: HilbertRep, spec):
    """Hamiltonian, coupling operators and Ito matrix for a system spec."""
    mats = np.stack(rep.variables)
    h = np.tensordot(spec.energy, mats, axes=1)
    m, n = spec.coupling.shape
    if n != rep.constants.n:
        raise ValueError("coupling width %d does not match representation" % n)
    eye = np.eye(rep.dim)
    ls = [
        np.tensordot(spec.coupling[r], mats, axes=1) + spec.offset[r] * eye
        for r in range(m)
    ]
    omega = ito_structure(m).omega
    return h, ls, omega


def gksl_apply(rep: HilbertRep, spec, xi) -> np.ndarray:
    """Heisenberg-picture generator applied to a single matrix xi.

    i[H, xi] + (1/2) sum_jk Omega_jk ([L_j, xi] L_k + L_j [xi, L_k]).
    When xi is Hermitian the output is checked Hermitian (ConsistencyError).
    """
    xi = np.asarray(xi, dtype=complex)
    h, ls, omega = _gksl_terms(rep, spec)
    out = 1j * (h @ xi - xi @ h)
    m = len(ls)
    for j in range(m):
        for k in range(m):
            w = omega[j, k]
            if w == 0:
                continue
            out += 0.5 * w * ((ls[j] @ xi - xi @ ls[j]) @ ls[k] + ls[j] @ (xi @ ls[k] - ls[k] @ xi))
    if np.max(np.abs(xi - xi.conj().T)) <= 1e-12:
        scale = max(1.0, float(np.max(np.abs(out))))
        if not np.max(np.abs(out - out.conj().T)) <= 1e-12 * scale:
            raise ConsistencyError("GKSL output of a Hermitian input is not Hermitian")
    return out


_SUPEROP_CACHE: dict = {}


def _cache_key(rep: HilbertRep, spec):
    parts = [np.asarray(x).tobytes() for x in rep.variables]
    parts += [
        np.asarray(spec.energy).tobytes(),
        np.asarray(spec.coupling).tobytes(),
        np.asarray(spec.offset).tobytes(),
    ]
    return (rep.dim,) + tuple(parts)


def heisenberg_superoperator(rep: HilbertRep, spec) -> np.ndarray:
    """Matrix of the Heisenberg generator on column-major vectorized matrices.

    Column c is vec(G(E_rc)) for the matrix unit with 1 in row c % d,
    column c // d.  Cached on the numerical content of (rep, spec).
    """
    key = _cache_key(rep, spec)
    hit = _SUPEROP_CACHE.get(key)
    if hit is not None:
        return hit
    d = rep.dim
    h, ls, omega = _gksl_terms(rep, spec)

    def apply(xi):
        out = 1j * (h @ xi - xi @ h)
        for j in range(len(ls)):
            for k in range(len(ls)):
                w = omega[j, k]
                if w == 0:
                    continue
                out += 0.5 * w * (
                    (ls[j] @ xi - xi @ ls[j]) @ ls[k]
                    + ls[j] @ (xi @ ls[k] - ls[k] @ xi)
                )
        return out

    sup = np.zeros((d * d, d * d), dtype=complex)
    for col in range(d * d):
        unit = np.zeros((d, d), dtype=complex)
        unit[col % d, col // d] = 1.0
        sup[:, col] = apply(unit).flatten(order="F")
    sup.setflags(write=False)
    _SUPEROP_CACHE[key] = sup
    return sup


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


def lindblad_propagate(rep: HilbertRep, spec, rho0, t: float):
    """Propagate a density matrix for time t >= 0.

    Returns (rho_t, trace_residual) where the residual is |Tr rho_t - 1|
    before renormalization; the returned state is renormalized.
    """
    d = rep.dim
    rho0 = _check_state(rho0, d)
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    flow = expm(float(t) * state_superoperator(rep, spec))
    rho_t = (flow @ rho0.flatten(order="F")).reshape((d, d), order="F")
    tr = complex(np.trace(rho_t))
    residual = abs(tr - 1.0)
    if not residual <= 1e-9:
        raise ConsistencyError("trace drifted by %g" % residual)
    return rho_t / tr, residual


def moments(rep: HilbertRep, rho) -> np.ndarray:
    """First moments Tr(rho X_j) of a state in this representation."""
    rho = np.asarray(rho, dtype=complex)
    return np.array([np.trace(rho @ x) for x in rep.variables])


def stationary_state(rep: HilbertRep, spec) -> np.ndarray:
    """Invariant density matrix, from the kernel of the state-picture generator."""
    d = rep.dim
    sup = state_superoperator(rep, spec)
    w, v = np.linalg.eig(sup)
    vec = v[:, int(np.argmin(np.abs(w)))]
    rho = vec.reshape((d, d), order="F")
    rho = (rho + rho.conj().T) / 2
    rho = rho / np.trace(rho)
    resid = np.linalg.norm((sup @ rho.flatten(order="F")))
    if resid > 1e-8:
        raise ValueError("no stationary state found, kernel residual %g" % resid)
    return rho


def two_point_commutator(rep: HilbertRep, spec, rho0, s: float, t: float) -> np.ndarray:
    """Matrix of E[[X_j(t), X_k(s)]] in the exact representation.

    Entry (j, k) is Tr(X_j e^{(t-s)L}(X_k rho(s))) minus the same with
    rho(s) X_k, where L is the state-picture generator and rho(s) the state
    propagated from rho0.  Requires t >= s >= 0.
    """
    if t < s:
        raise ValueError("need t >= s")
    d = rep.dim
    rho_s, _ = lindblad_propagate(rep, spec, rho0, s)
    flow = expm((float(t) - float(s)) * state_superoperator(rep, spec))
    n = rep.constants.n
    out = np.zeros((n, n), dtype=complex)
    for k in range(n):
        comm = rep.variables[k] @ rho_s - rho_s @ rep.variables[k]
        prop = (flow @ comm.flatten(order="F")).reshape((d, d), order="F")
        for j in range(n):
            out[j, k] = np.trace(rep.variables[j] @ prop)
    return out


def generator_identity_check(rep: HilbertRep, spec, coeffs) -> float:
    """Largest residual of G(X_j) = sum_k A_jk X_k + b_j I over j."""
    mats = np.stack(rep.variables)
    eye = np.eye(rep.dim)
    worst = 0.0
    for j in range(rep.constants.n):
        lhs = gksl_apply(rep, spec, rep.variables[j])
        rhs = np.tensordot(coeffs.a[j], mats, axes=1) + coeffs.b[j] * eye
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst
