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
    "norm_bounds",
    "pauli_constants",
    "quadratic_form",
    "reduce_monomial",
    "structure_constants",
    "validate",
]

MAX_DIM = 16
_BLOCK_ENTRIES = 1 << 18  # complex entries per j-row block of validate()'s dense closure residual
# validate() fills the closure residual from sparse products when this many
# times their product count p is at most the n^5 of the dense fill.  Measured
# on random sparse Hermitian beta (one BLAS thread, 2-core Xeon), the sparse
# fill wins above n^5/p of about 70 (n = 15), 100 (n = 25) and 120 (n = 35),
# and never at n <= 8.  Pauli and the qutrit (n^5/p = 20) and every dense
# beta stay dense; Pauli x Pauli (258) and Pauli x qutrit (409) go sparse.
_SPARSE_GAIN = 128


class CapabilityLimit(Exception):
    """A request exceeds the supported problem size (n or d above 16)."""


class ConsistencyError(ArithmeticError):
    """A result failed an internal consistency check (round-off out of bounds)."""


def _frozen(*arrays):
    """Make arrays the caller owns read-only, in place; returns them as a tuple."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


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
    if n == 0:
        raise ValueError("constants need at least one variable, got n = 0")
    if beta.shape != (n, n, n):
        raise ValueError(
            "beta must have shape (n, n, n) with n = %d, got %r" % (n, beta.shape)
        )
    if np.iscomplexobj(alpha) and np.max(np.abs(alpha.imag)) == 0.0:
        alpha = alpha.real.copy()
    alpha, beta, theta = _frozen(alpha, beta, beta.imag.copy())
    return StructureConstants(n=n, alpha=alpha, beta=beta, theta=theta)


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
    if residual.max() <= tol:  # NaN fails every comparison
        return
    for idx in np.argwhere(~(residual <= tol)):
        key = (int(idx[0]) + j0,) + tuple(int(i) for i in idx[1:])
        violations.append((label, key, float(residual[tuple(idx)])))


def _join_products(beta):
    """Products per sum of the sparse closure fill: sum_l c_l d_l.

    c_l counts the nonzeros of section l, d_l those with middle (first sum)
    or last (second sum) index l; the larger of the two sums is returned.
    """
    nz = beta != 0
    sections = nz.sum(axis=(1, 2))
    return max(int(sections @ nz.sum(axis=(0, 2))), int(sections @ nz.sum(axis=(0, 1))))


def _assoc_linear_dense(constants: StructureConstants, tol):
    """assoc-linear violations from BLAS products, one block of j-rows at a time.

    Each block holds the residual [j, k, s, r] of at most _BLOCK_ENTRIES
    complex entries: O(n^5) time, O(n^3) memory.
    """
    alpha, beta, n = constants.alpha, constants.beta, constants.n
    violations = []
    flat_t = beta.reshape(n, n * n).T  # [(k, s), l] = beta_ksl
    right = beta.transpose(1, 2, 0).reshape(n, n * n)  # [l, (s, r)] = beta_lsr
    diag = np.arange(n)
    rows = max(1, _BLOCK_ENTRIES // n**3)
    for j0 in range(0, n, rows):
        block = beta[:, j0 : j0 + rows, :].transpose(1, 2, 0)  # [j, k, l] = beta_jkl, read as [j, l, r] = beta_jlr
        con2 = (block.reshape(-1, n) @ right).reshape(-1, n, n, n)
        con2 -= (flat_t @ block).reshape(-1, n, n, n)
        con2[:, :, diag, diag] += alpha[j0 : j0 + rows, :, None]
        con2[diag[: len(con2)], :, :, diag[j0 : j0 + rows]] -= alpha
        _collect(violations, "assoc-linear", np.abs(con2), tol, j0)
    return violations


def _unital(c: StructureConstants) -> np.ndarray:
    """Structure tensor u[l, j, k] over (I, X_1..X_n): Y_j Y_k = sum_l u[l, j, k] Y_l."""
    n = c.n
    u = np.zeros((n + 1, n + 1, n + 1), dtype=complex)
    u[0, 1:, 1:] = c.alpha
    u[1:, 1:, 1:] = c.beta
    u[0, 0, 0] = 1.0
    i = np.arange(1, n + 1)
    u[i, 0, i] = u[i, i, 0] = 1.0
    return u


def _entries(a):
    """Index arrays and values of the nonzeros of a, in C order."""
    idx = np.nonzero(a)
    return idx, a[idx]


def _csr(rows, cols, vals, shape):
    """CSR array of entries at distinct positions whose rows come in a few sorted runs."""
    from scipy.sparse import csr_array  # ~25 ms to import, paid only where the sparse fill runs

    order = np.argsort(rows, kind="stable")  # timsort merges the sorted runs in linear time
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
    return csr_array((vals[order], cols[order], indptr), shape=shape)


def _assoc_linear_sparse(constants: StructureConstants, tol):
    """assoc-linear violations from sparse products over the nonzeros of beta.

    With u the unital structure tensor (_unital: u_0jk = alpha_jk,
    u_r0s = delta_rs, u_rj0 = delta_rj) the residual at j, k, s, r >= 1 is
        sum_m u_mjk u_rms - sum_m u_mks u_rjm,
    the m = 0 terms being the alpha terms.  For a block of s values it is one
    CSR product X Y with rows (j, k) and columns (s, r): X = [u_mjk | u_mks'
    for every j] and Y = [u_rms ; -delta_ss' u_rj'm], the second sum
    contracting over (s', j', m).  A product holds only the positions it
    reaches; every other position has residual exactly 0 and passes every
    tol >= 0.  X and Y hold about _BLOCK_ENTRIES / 2 entries each, which
    keeps the peak memory near the dense fill's.
    """
    n, w = constants.n, constants.n + 1
    u = _unital(constants)
    (a, b, m), v = _entries(u[:, 1:, 1:].transpose(1, 2, 0))  # u_mab
    (m1, s1, r1), v1 = _entries(u[1:, :, 1:].transpose(1, 2, 0))  # u_rms
    (j2, m2, r2), v2 = _entries(u[1:, 1:, :].transpose(1, 2, 0))  # u_rjm
    width = max(1, _BLOCK_ENTRIES // (2 * max(1, len(v))))  # s values per block
    t = np.arange(n)[:, None]
    found = []
    for s0 in range(0, n, width):
        ns = min(width, n - s0)
        x_in = (b >= s0) & (b < s0 + ns)
        y_in = (s1 >= s0) & (s1 < s0 + ns)
        x = _csr(
            np.concatenate([a * n + b, (t * n + a[x_in]).ravel()]),
            np.concatenate([m, (w + ((b[x_in] - s0) * n + t) * w + m[x_in]).ravel()]),
            np.concatenate([v, np.tile(v[x_in], n)]),
            (n * n, w + ns * n * w),
        )
        y = _csr(
            np.concatenate([m1[y_in], (w + (t[:ns] * n + j2) * w + m2).ravel()]),
            np.concatenate([(s1[y_in] - s0) * n + r1[y_in], (t[:ns] * n + r2).ravel()]),
            np.concatenate([v1[y_in], -np.tile(v2, ns)]),
            (w + ns * n * w, ns * n),
        )
        total = x @ y
        residual = np.abs(total.data)
        bad = np.flatnonzero(~(residual <= tol))
        s, r = np.divmod(total.indices[bad], n)
        found.append((np.searchsorted(total.indptr, bad, side="right") - 1, s + s0, r, residual[bad]))
    jk, s, r, residual = map(np.concatenate, zip(*found))
    order = np.lexsort((r, s, jk))
    keys = np.column_stack([*np.divmod(jk[order], n), s[order], r[order]])
    return [("assoc-linear", tuple(key), res) for key, res in zip(keys.tolist(), residual[order].tolist())]


def validate(constants: StructureConstants, tol: float = 1e-10) -> ValidationReport:
    """Check the closure constraints on (alpha, beta) to absolute tolerance tol.

    Checks, in order: alpha symmetric, alpha real, each section of beta
    Hermitian, then the two product-consistency identities that make the
    multiplication table associative (the mixed alpha/beta identity and the
    pure beta closure identity).  Returns a report, not an exception, of
    every violation (non-finite included) in (j, k, s, r) order; tol must be
    a finite number >= 0.

    The closure identity has n^4 entries and is filled one of two ways.
    When alpha and beta are finite and _SPARSE_GAIN * p <= n^5, p being the
    products per sum that _join_products counts before anything of size n^4
    is allocated, sparse products over the nonzeros of beta fill it
    (_assoc_linear_sparse); otherwise BLAS products do, in O(n^5) time with
    one O(n^3) block of j-rows in memory at a time (_assoc_linear_dense).
    Both give the same keys, residuals within round-off.  On one core of a
    2-core Xeon the fills take 12 vs 50 ms (sparse vs dense) on Pauli x
    qutrit (n = 35) and 0.32 vs 2.2 s on the qutrit pair (n = 80).
    """
    tol = float(tol)
    if not 0.0 <= tol < np.inf:
        raise ValueError("tol must be a finite number >= 0, got %r" % tol)
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
        #   = 0, indexed (j, k, s, r)
        finite = np.isfinite(alpha).all() and np.isfinite(beta).all()
        sparse = finite and _SPARSE_GAIN * _join_products(beta) <= n**5
        violations += (_assoc_linear_sparse if sparse else _assoc_linear_dense)(constants, tol)

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
        object.__setattr__(self, "linear", _frozen(np.array(self.linear, dtype=complex))[0])
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
