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

It also owns the package's one pass rule, value <= bound, under which a
NaN fails: `passes` decides the command line's check rows by it and `_gate`
every numeric refusal of the library modules, a lower bound on the negated
value (exact), strictly where the refused region includes the bound.
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
    "passes",
    "pauli_constants",
    "structure_constants",
    "validate",
]

MAX_DIM = 16
_BLOCK_ENTRIES = 1 << 18  # complex entries per j-row block of validate()'s dense closure residual
_KEPT = 3  # violations a ValidationReport lists; the rest are only counted
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


def passes(value, bound) -> bool:
    """True when value <= bound, for every entry of an array value, so a NaN fails."""
    ok = value <= bound
    return bool(ok.all() if isinstance(ok, np.ndarray) else ok)


def _gate(value, bound, refuse, *, strict=False) -> None:
    """Raise refuse(*index) unless value <= bound (value < bound when strict).

    value is a number or a NumPy array (a sequence would compare as a whole),
    compared entry by entry with bound (broadcast); a NaN fails.  refuse runs
    only on failure, with the index of the first failing entry in C order (no
    argument for a number), and returns the exception.  Numbers go through
    Python's operators: a NumPy comparison and `.all()` cost about 0.9 us a
    call (2-core x86), paid at every point of a trace flow.
    """
    ok = value < bound if strict else value <= bound
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise refuse(*np.unravel_index(np.argmin(ok), np.shape(ok)))


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

    counts maps each constraint id, in check order, to its number of
    violations, and total is their sum.  violations lists the first _KEPT
    of them as (constraint id, index tuple, residual), in check order and,
    within one constraint, in C order of the 0-based index tuples.
    alpha_psd is informational: the constants of a genuine representation
    always have alpha positive semidefinite, but PSD failure alone does not
    invalidate the closure identities.  Linear independence of
    (I, X_1..X_n) cannot be decided from the constants, so it is carried as
    an assumption.
    """

    passed: bool
    counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    alpha_psd: bool = True
    independence_assumed: bool = True

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _collect(label, residual, tol, j0=0):
    """(count, first _KEPT violations in C order) of residual's entries above tol.

    j0 is added to the first index of each violation.
    """
    if residual.max() <= tol:  # NaN fails every comparison
        return 0, []
    bad = ~(residual <= tol)
    index = np.unravel_index(np.flatnonzero(bad)[:_KEPT], residual.shape)  # residual may be a strided view
    keys = np.column_stack(index)
    keys[:, 0] += j0
    first = [(label, tuple(key), res) for key, res in zip(keys.tolist(), residual[index].tolist())]
    return int(np.count_nonzero(bad)), first


def _nonzeros(beta):
    """Indices (j, k, l) of the nonzero beta_ljk, in (j, k, l) order."""
    return np.nonzero(beta.transpose(1, 2, 0))


def _join_products(n, nz):
    """Products per sum of beta's nonzeros nz (_nonzeros): sum_l c_l d_l.

    c_l counts the nonzeros of section l and d_l those with middle (first
    sum) or last (second sum) index l; the larger of the two sums is
    returned.  These beta-beta products are most of the sparse fill's work.
    """
    middle, last, sections = (np.bincount(i, minlength=n) for i in nz)
    return max(int(sections @ middle), int(sections @ last))


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


def _closure_dense(constants: StructureConstants, tol):
    """Closure residual R (validate) as {label: (count, first violations)}, from BLAS products.

    One block of j-rows at a time holds R[j, k, s, r] for r = 0..n, at most
    _BLOCK_ENTRIES complex entries: O(n^5) time, O(n^3) memory.
    """
    n, w = constants.n, constants.n + 1
    t = np.ascontiguousarray(_unital(constants).transpose(1, 2, 0))  # t[a, b, m] = u_mab
    left = t[1:, 1:].reshape(n * n, w)  # [(j, k), m] = u_mjk
    right = t[:, 1:].reshape(w, n * w)  # [m, (s, r)] = u_rms
    rows = max(1, _BLOCK_ENTRIES // (n * n * w))
    found = {"assoc-const": (0, []), "assoc-linear": (0, [])}
    for j0 in range(0, n, rows):
        p = left[j0 * n : (j0 + rows) * n] @ right
        p -= (left @ t[1 + j0 : 1 + j0 + rows]).reshape(p.shape)  # [j, (k, s), r] = sum_m u_mks u_rjm
        residual = np.abs(p).reshape(-1, n, n, w)
        for label, part in zip(found, (residual[..., 0], residual[..., 1:])):
            count, first = _collect(label, part, tol, j0)
            found[label] = (found[label][0] + count, (found[label][1] + first)[:_KEPT])
    return found


def _ptr(counts):
    """Start of each run of the given lengths, and the end of the last."""
    return np.concatenate([[0], np.cumsum(counts)])


def _runs(starts, lengths):
    """Concatenated index ranges [starts[i], starts[i] + lengths[i])."""
    ends = np.cumsum(lengths)
    return np.repeat(starts + lengths - ends, lengths) + np.arange(ends[-1])


def _closure_sparse(constants: StructureConstants, tol, nz):
    """Closure residual R (validate) as {label: (count, first violations)}, from sparse products.

    nz indexes the nonzero beta_ljk in (j, k, l) order (_nonzeros).  For a
    block of s values R is one CSR product X Y with rows (j, k) and columns
    (s, r), r = 0..n: X = [u_mjk | u_mks' for every j] and
    Y = [u_rms ; -delta_ss' u_rj'm], the second sum contracting over
    (s', j', m).  Every operand reads one list, u's nonzeros u_mab with
    a, b >= 1 in (a, b, m) order: beta's nonzeros in (j, k, l) order with
    alpha_ab ahead of each (a, b) run.  X and the rows m >= 1 of Y's first
    sum read it as it is, Y's second-sum rows with u_jj0 = 1 ahead of each
    a-run; Y's row m = 0 holds u_s0s = 1.  Each row lists its entries by
    column.  A product holds only the positions it reaches; every other
    position has residual exactly 0 and passes every tol >= 0.  X and Y hold
    about _BLOCK_ENTRIES / 2 entries each, which keeps the peak memory near
    the dense fill's.
    """
    from scipy.sparse import csr_array  # ~25 ms to import, paid only where the sparse fill runs

    alpha, beta, n = constants.alpha, constants.beta, constants.n
    w = n + 1
    j, k, l = nz
    runs = np.bincount(j * n + k, minlength=n * n)  # beta entries per (j, k)
    # the list: u_mab at (a, b, m) = (j, k, l + 1), with alpha_ab at m = 0 ahead of each (a, b) run
    ab = np.flatnonzero(alpha)
    at = _ptr(runs)[ab]
    m = np.insert(l + 1, at, 0).astype(np.int32)
    b = np.insert(k, at, ab % n).astype(np.int32)
    v = np.insert(beta[l, j, k], at, alpha.ravel()[ab])
    at_ab = _ptr(runs + (alpha != 0).ravel())  # start of each (a, b) run
    units = np.arange(n, dtype=np.int32)
    # -u_rjm in (j, m, r) order: the list with u_jj0 = 1 ahead of each a-run, and its row lengths
    r_jm = np.insert(m, at_ab[:-1:n], units + 1)
    v_jm = -np.insert(v, at_ab[:-1:n], 1.0)
    per_jm = np.insert(np.diff(at_ab).reshape(n, n), 0, 1, axis=1).ravel()
    width = max(1, _BLOCK_ENTRIES // (2 * max(1, len(v))))  # s values per block
    shift = np.column_stack([np.zeros(n * n, np.int32), np.repeat(units * w, n)])  # X column shift per run
    kept = {"assoc-const": [], "assoc-linear": []}  # per block: (count, candidate keys, their residuals)
    for s0 in range(0, n, width):
        ns = min(width, n - s0)
        lo, hi = at_ab[units * n + s0], at_ab[units * n + s0 + ns]  # the runs (a, s), s in the block
        # X row (j, k): the run u_mjk at column m, then the runs u_mks, s in
        # the block, at column w + ((s - s0) n + j) w + m
        lengths = np.column_stack([np.diff(at_ab), np.tile(hi - lo, n)])
        at = _runs(np.column_stack([at_ab[:-1], np.tile(lo, n) + len(v)]).ravel(), lengths.ravel())
        x_cols = np.concatenate([m, w + (b - s0) * (n * w) + m])[at] + np.repeat(shift.ravel(), lengths.ravel())
        x = csr_array(
            (np.concatenate([v, v])[at], x_cols, _ptr(lengths.sum(axis=1)).astype(np.int32)),
            shape=(n * n, w + ns * n * w),
        )
        # Y row m: u_rms, s in the block, at column (s - s0) w + r; row
        # w + ((s - s0) n + j) w + m: -u_rjm at column (s - s0) w + r
        first_sum = _runs(lo, hi - lo)
        y_cols = [units[:ns] * (w + 1) + s0 + 1, (b[first_sum] - s0) * w + m[first_sum], (r_jm + w * units[:ns, None]).ravel()]
        y = csr_array(
            (
                np.concatenate([np.ones(ns), v[first_sum], np.tile(v_jm, ns)]),
                np.concatenate(y_cols).astype(np.int32),
                _ptr(np.concatenate([[ns], hi - lo, np.tile(per_jm, ns)])).astype(np.int32),
            ),
            shape=(w + ns * n * w, ns * w),
        )
        total = x @ y
        residual = np.abs(total.data)
        bad = ~(residual <= tol)
        const = total.indices % w == 0  # column (s - s0) w + r at r = 0
        for label, part in zip(kept, (bad & const, bad & ~const)):
            pos = np.flatnonzero(part)
            count = len(pos)
            if count > _KEPT:  # entries run row by row: the first _KEPT in C order lie in the rows up to the _KEPT-th's
                pos = pos[: np.searchsorted(pos, total.indptr[np.searchsorted(total.indptr, pos[_KEPT - 1], side="right")])]
            # C-order position in R[j, k, s, r] over (n, n, n, w); a later block may hold earlier (j, k)
            key = (np.searchsorted(total.indptr, pos, side="right") - 1) * (n * w) + total.indices[pos] + s0 * w
            kept[label].append((count, key, residual[pos]))
    found = {}
    for ndim, (label, blocks) in enumerate(kept.items(), 3):
        counts, keys, res = zip(*blocks)
        keys, res = np.concatenate(keys), np.concatenate(res)
        first = np.argsort(keys)[:_KEPT]
        index = np.column_stack(np.unravel_index(keys[first], (n, n, n, w))) - [0, 0, 0, 1]  # X_r is column r - 1 of assoc-linear
        found[label] = (sum(counts), [(label, tuple(i[:ndim]), r) for i, r in zip(index.tolist(), res[first].tolist())])
    return found


def validate(constants: StructureConstants, tol: float = 1e-10) -> ValidationReport:
    """Check the closure constraints on (alpha, beta) to absolute tolerance tol.

    Checks, in order: alpha symmetric, alpha real, each section of beta
    Hermitian, then one law: (I, X_1..X_n) multiply associatively,
    (Y_j Y_k) Y_s = Y_j (Y_k Y_s) for j, k, s >= 1.  With u the unital
    structure tensor (_unital) the coefficient of Y_r in the difference is

        R[j, k, s, r] = sum_m u_mjk u_rms - sum_m u_mks u_rjm,  r = 0..n;

    its r = 0 entries are assoc-const, indexed (j, k, s), and its r >= 1
    entries assoc-linear, indexed (j, k, s, r - 1).  Returns a report, not
    an exception, that counts the violations (non-finite included) of each
    constraint and lists the first _KEPT in (constraint, j, k, s, r) order;
    tol must be a finite number >= 0.

    R is filled one of two ways; only the container differs.  When alpha
    and beta are finite and _SPARSE_GAIN * p <= n^5, p being the products
    per sum that _join_products counts before anything of size n^4 is
    allocated, CSR products over the nonzeros of u fill it
    (_closure_sparse); otherwise BLAS products over u do, in O(n^5) time
    with one O(n^3) block of j-rows in memory at a time (_closure_dense).
    Both give the same counts and keys, residuals within round-off.  On one
    core of a 2-core Xeon the fills take 2.6 vs 20 ms (sparse vs dense) on
    Pauli x qutrit (n = 35) and 0.08 vs 1.0 s on the qutrit pair (n = 80).
    """
    tol = float(tol)
    _gate(-tol, 0.0, lambda: ValueError("tol must be a finite number >= 0, got %r" % tol))
    _gate(tol, np.inf, lambda: ValueError("tol must be a finite number >= 0, got %r" % tol), strict=True)
    alpha, beta, n = constants.alpha, constants.beta, constants.n

    with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf residuals are NaN and fail
        found = {
            "alpha-sym": _collect("alpha-sym", np.abs(alpha - alpha.T), tol),
            "alpha-imag": _collect("alpha-imag", np.abs(np.imag(alpha)), tol),
            "beta-herm": _collect("beta-herm", np.abs(beta - np.conj(np.transpose(beta, (0, 2, 1)))), tol),
        }
        nz = _nonzeros(beta) if np.isfinite(alpha).all() and np.isfinite(beta).all() else None
        if nz is not None and _SPARSE_GAIN * _join_products(n, nz) <= n**5:
            found.update(_closure_sparse(constants, tol, nz))
        else:
            found.update(_closure_dense(constants, tol))

    alpha_psd = bool(
        np.isfinite(alpha).all() and np.linalg.eigvalsh((alpha + np.conj(alpha).T) / 2.0).min() >= -tol
    )
    counts = {label: count for label, (count, _) in found.items()}
    violations = [v for _, first in found.values() for v in first][:_KEPT]
    return ValidationReport(passed=not any(counts.values()), counts=counts, violations=violations, alpha_psd=alpha_psd)


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

    (c0 + c.X)(d0 + d.X) is one contraction of the unital structure tensor
    (`_unital`) with (c0, c) and (d0, d): entry 0 of the result is the
    constant and entries 1..n the linear part.  The bilinear term uses plain
    transposes, no conjugation: const picks up c^T alpha d, and component l
    of the linear part picks up c^T beta_l d.
    """
    if a.linear.shape[0] != constants.n or b.linear.shape[0] != constants.n:
        raise ValueError("operator length does not match constants")
    y = np.einsum("ljk,j,k->l", _unital(constants), np.r_[a.const, a.linear], np.r_[b.const, b.linear])
    return AffineOperator(const=y[0], linear=y[1:])
