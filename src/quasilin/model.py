"""Structure constants of finitely generated self-adjoint variable sets.

A family X_1, ..., X_n of bounded self-adjoint variables is closed under
multiplication when

    X_j X_k = alpha_jk I + sum_l beta_jkl X_l

with alpha real symmetric and, for each fixed l, a Hermitian section
beta_l = (beta_jkl)_jk.  The imaginary parts theta_l = Im beta_l are real
antisymmetric and generate the commutation relations
[X, X^T] = 2i (theta diamond X).  Everything downstream (drift matrices,
moment flows, eigenmodes) is a function of (alpha, beta) plus the model
parameters, so this module is the root of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AffineOperator",
    "CapabilityLimit",
    "ConsistencyError",
    "StructureConstants",
    "ValidationReport",
    "affine_mul",
    "diam_product",
    "dot_product",
    "first_index_slices",
    "middle_index_slices",
    "norm_bounds",
    "pauli_constants",
    "quadratic_form",
    "reduce_monomial",
    "structure_constants",
    "validate",
]

MAX_DIM = 16
_BLOCK_ENTRIES = 1 << 18  # complex entries per j-row block of validate()'s closure residual


class CapabilityLimit(Exception):
    """A request exceeds the supported problem size (n or d above 16)."""


class ConsistencyError(ArithmeticError):
    """A result failed an internal consistency check (round-off out of bounds)."""


def _frozen(a):
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StructureConstants:
    """Immutable (alpha, beta) pair with the derived CCR array theta.

    beta is stored section-first: beta[l] is the n x n section whose (j, k)
    entry is the coefficient of X_{l+1} in the product X_{j+1} X_{k+1}
    (0-based array indices).  theta = Im(beta), section-first as well.
    """

    n: int
    alpha: np.ndarray
    beta: np.ndarray
    theta: np.ndarray


def structure_constants(alpha, beta) -> StructureConstants:
    """Package raw arrays as StructureConstants, checking shapes only.

    Constraint checking lives in validate(); this constructor accepts any
    (n, n) alpha and (n, n, n) beta so that invalid data can be examined.
    """
    alpha = np.array(alpha)
    beta = np.array(beta, dtype=complex)
    if alpha.ndim != 2 or alpha.shape[0] != alpha.shape[1]:
        raise ValueError("alpha must be square, got shape %r" % (alpha.shape,))
    n = alpha.shape[0]
    if beta.shape != (n, n, n):
        raise ValueError(
            "beta must have shape (n, n, n) with n = %d, got %r" % (n, beta.shape)
        )
    if np.iscomplexobj(alpha) and np.max(np.abs(alpha.imag)) == 0.0:
        alpha = alpha.real
    theta = beta.imag.copy()
    return StructureConstants(
        n=n, alpha=_frozen(alpha), beta=_frozen(beta), theta=_frozen(theta)
    )


# Antisymmetric CCR sections of the spin-1/2 (Pauli) algebra.  Section l is
# the generator of rotations about axis l; theta[l, j, k] is the Levi-Civita
# symbol with 1-based indices (j+1, k+1, l+1).
PAULI_THETA = np.array(
    [
        [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
        [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ]
)


def pauli_constants() -> StructureConstants:
    """Structure constants of the Pauli matrices: alpha = I, beta = i*theta."""
    return structure_constants(np.eye(3), 1j * PAULI_THETA)


@dataclass
class ValidationReport:
    """Outcome of validate().

    violations is a list of (constraint id, index tuple, residual), one entry
    per offending index tuple (0-based).  alpha_psd is informational: the
    constants of a genuine representation always have alpha positive
    semidefinite, but PSD failure alone does not invalidate the closure
    identities.  Linear independence of (I, X_1..X_n) cannot be decided from
    the constants, so it is carried as an assumption.
    """

    passed: bool
    violations: list = field(default_factory=list)
    alpha_psd: bool = True
    independence_assumed: bool = True


def _collect(violations, label, residual, tol, j0=0):
    for idx in np.argwhere(~(residual <= tol)):  # NaN fails every comparison
        key = (int(idx[0]) + j0,) + tuple(int(i) for i in idx[1:])
        violations.append((label, key, float(residual[tuple(idx)])))


def validate(constants: StructureConstants, tol: float = 1e-10) -> ValidationReport:
    """Check the closure constraints on (alpha, beta) to absolute tolerance tol.

    Checks, in order: alpha symmetric, alpha real, each section of beta
    Hermitian, then the two product-consistency identities that make the
    multiplication table associative (the mixed alpha/beta identity and the
    pure beta closure identity), by BLAS products in O(n^5) time with one
    O(n^3) block of j-rows in memory at a time.  Returns a report, not an
    exception, of every violation (non-finite included) in (j, k, s, r) order.
    """
    alpha, beta, n = constants.alpha, constants.beta, constants.n
    violations = []

    with np.errstate(invalid="ignore"):  # inf - inf residuals are NaN and fail
        _collect(violations, "alpha-sym", np.abs(alpha - alpha.T), tol)
        _collect(violations, "alpha-imag", np.abs(np.imag(alpha)), tol)
        _collect(
            violations,
            "beta-herm",
            np.abs(beta - np.conj(np.transpose(beta, (0, 2, 1)))),
            tol,
        )

        # sum_l (alpha_ls beta_jkl - alpha_jl beta_ksl) = 0, indexed (j, k, s)
        flat = beta.reshape(n, n * n)
        con1 = (flat.T @ alpha).reshape(n, n, n) - (alpha @ flat).reshape(n, n, n)
        _collect(violations, "assoc-const", np.abs(con1), tol)

        # alpha_jk d_rs - alpha_ks d_rj + sum_l (beta_jkl beta_lsr - beta_ksl beta_jlr)
        #   = 0, indexed (j,k,s,r); each block of j-rows is built as (j,k,r,s).
        right = beta.transpose(1, 0, 2).reshape(n, n * n)
        diag = np.arange(n)
        rows = max(1, _BLOCK_ENTRIES // n**3)
        for j0 in range(0, n, rows):
            p = beta[:, j0 : j0 + rows, :]
            con2 = (p.transpose(1, 2, 0).reshape(-1, n) @ right).reshape(-1, n, n, n)
            con2 -= (p.reshape(-1, n) @ flat).reshape(n, -1, n, n).transpose(1, 2, 0, 3)
            con2[:, :, diag, diag] += alpha[j0 : j0 + rows, :, None]
            con2[diag[: len(con2)], :, diag[j0 : j0 + rows], :] -= alpha
            _collect(violations, "assoc-linear", np.abs(con2.transpose(0, 1, 3, 2)), tol, j0)

    alpha_psd = bool(
        np.isfinite(alpha).all() and np.linalg.eigvalsh((alpha + np.conj(alpha).T) / 2.0).min() >= -tol
    )

    return ValidationReport(
        passed=not violations, violations=violations, alpha_psd=alpha_psd
    )


def dot_product(sections, u):
    """Contract the section index: sum_l sections[l] * u[l] (an n x n matrix)."""
    sections = np.asarray(sections)
    u = np.asarray(u)
    if sections.shape[0] != u.shape[0]:
        raise ValueError("section count %d != vector length %d" % (sections.shape[0], u.shape[0]))
    return np.tensordot(u, sections, axes=1)


def diam_product(sections, u):
    """Column-assembled product: column l of the result is sections[l] @ u."""
    sections = np.asarray(sections)
    u = np.asarray(u)
    if sections.shape[2] != u.shape[0]:
        raise ValueError("section width %d != vector length %d" % (sections.shape[2], u.shape[0]))
    return np.einsum("ljk,k->jl", sections, u)


def first_index_slices(sections):
    """Reslice so out[l][j, k] carries coefficient indices (l, j, k).

    sections[s, r, c] stores coefficient (row r, col c, linear s); fixing the
    FIRST coefficient index instead is the axis permutation (1, 2, 0).
    """
    return np.transpose(np.asarray(sections), (1, 2, 0))


def middle_index_slices(sections):
    """Reslice so out[k][j, l] carries coefficient indices (j, k, l)."""
    return np.transpose(np.asarray(sections), (2, 1, 0))


def norm_bounds(constants: StructureConstants):
    """Operator-norm bounds implied by the constants alone.

    Returns (tau, gamma, bounds): tau[k] = trace of section k, gamma is the
    common radius sqrt(Tr alpha + |tau|^2 / 4), and bounds[k] = |tau_k|/2 +
    gamma dominates ||X_k|| in every representation of the algebra.
    """
    tau = np.trace(constants.beta, axis1=1, axis2=2)
    if np.max(np.abs(tau.imag)) < 1e-12 * max(1.0, np.max(np.abs(tau))):
        tau = tau.real
    rad = float(np.real(np.trace(constants.alpha))) + float(np.sum(np.abs(tau) ** 2)) / 4.0
    if rad < 0.0:
        raise ValueError("negative radicand, constants cannot come from a representation")
    gamma = np.sqrt(rad)
    bounds = np.abs(tau) / 2.0 + gamma
    return tau, gamma, bounds


@dataclass(frozen=True)
class AffineOperator:
    """Operator written as const * I + linear . X (linear is an n-vector)."""

    const: complex
    linear: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", _frozen(np.asarray(self.linear, dtype=complex)))
        object.__setattr__(self, "const", complex(self.const))


def affine_mul(a: AffineOperator, b: AffineOperator, constants: StructureConstants) -> AffineOperator:
    """Multiply two affine operators inside the algebra.

    (c0 + c.X)(d0 + d.X) reduces through the constants to a new affine
    operator.  The bilinear term uses plain transposes, no conjugation:
    const picks up c^T alpha d, and component l of the linear part picks up
    c^T beta_l d.
    """
    c0, c = a.const, a.linear
    d0, d = b.const, b.linear
    if c.shape[0] != constants.n or d.shape[0] != constants.n:
        raise ValueError("operator length does not match constants")
    const = c0 * d0 + c @ constants.alpha @ d
    linear = c0 * d + d0 * c + np.einsum("j,ljk,k->l", c, constants.beta, d)
    return AffineOperator(const=const, linear=linear)


def reduce_monomial(factor_indices, powers, constants: StructureConstants) -> AffineOperator:
    """Reduce X_{j1}^{p1} X_{j2}^{p2} ... to affine form by left-folding.

    factor_indices are 1-based variable labels; powers are positive integers
    of the same length.
    """
    factor_indices = list(factor_indices)
    powers = list(powers)
    if len(factor_indices) != len(powers):
        raise ValueError("factor_indices and powers must have equal length")
    n = constants.n
    acc = AffineOperator(1.0, np.zeros(n))
    for j, p in zip(factor_indices, powers):
        if not 1 <= j <= n:
            raise ValueError("factor index %r outside 1..%d" % (j, n))
        if int(p) != p or p < 1:
            raise ValueError("powers must be positive integers, got %r" % (p,))
        unit = AffineOperator(0.0, np.eye(n)[j - 1])
        for _ in range(int(p)):
            acc = affine_mul(acc, unit, constants)
    return acc


def quadratic_form(r_matrix, constants: StructureConstants):
    """Reduce X^T R X (R real symmetric) to affine form.

    Returns (const, linear) with const = <R, alpha> and linear[l] =
    <R, beta_l>, both plain Frobenius pairings sum_jk R_jk (.)_jk.
    """
    r = np.asarray(r_matrix)
    if r.shape != (constants.n, constants.n):
        raise ValueError("R has shape %r, expected (%d, %d)" % (r.shape, constants.n, constants.n))
    scale = max(1.0, float(np.max(np.abs(r))))
    if np.max(np.abs(r - r.T)) > 1e-12 * scale:
        raise ValueError("R must be symmetric")
    const = complex(np.sum(r * constants.alpha))
    linear = np.einsum("jk,ljk->l", r, constants.beta)
    return const, linear
