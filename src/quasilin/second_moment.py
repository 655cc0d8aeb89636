"""Second-moment flow of quasilinear models and its spectrum.

The matrix of symmetrized second moments evolves linearly: Pi' = Lambda(Pi)
with Lambda(Z) = A Z + Z A^T + U(Z), where the noise term U is built from
the CCR sections, the coupling matrix and the Ito matrix.  The flow is
realized both as a direct map on matrices and as an n^2 x n^2 matrix acting
on column-major vectorizations; the two routes are kept separate so they
can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MAX_DIM, CapabilityLimit
from .qsde import QsdeCoefficients, ito_structure, propagate, spectral_abscissa

__all__ = [
    "LambdaOperator",
    "apply_lambda",
    "hermitian_basis",
    "lambda_hermitian_abscissa",
    "lambda_matrix",
    "lambda_operator",
    "pi_trace_flow",
    "spectral_abscissa",
]


@dataclass(frozen=True)
class LambdaOperator:
    """Second-moment generator Z -> A Z + Z A^T + U(Z).

    cross = M^T Omega M; matrix is the generator on column-major vec(Z),
    I (x) A + A (x) I + Psi, with Psi column k*n + j equal to
    -4 vec(theta_j cross theta_k).
    """

    a: np.ndarray
    theta: np.ndarray
    cross: np.ndarray
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def lambda_operator(coeffs: QsdeCoefficients) -> LambdaOperator:
    """Assemble the second-moment generator for a coefficient set."""
    n = coeffs.n
    if n > MAX_DIM:
        raise CapabilityLimit("dimension %d exceeds %d" % (n, MAX_DIM))
    omega = ito_structure(coeffs.coupling.shape[0]).omega
    cross = coeffs.coupling.T @ omega @ coeffs.coupling
    theta = coeffs.theta
    eye = np.eye(n)
    matrix = np.kron(eye, coeffs.a).astype(complex) + np.kron(coeffs.a, eye)
    # (theta_j cross theta_k)[p, s] indexed (j, p, k, s), moved to row s*n + p
    # and column k*n + j
    psi = (theta @ cross).reshape(n * n, n) @ theta.transpose(1, 0, 2).reshape(n, n * n)
    matrix += -4.0 * psi.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
    matrix.setflags(write=False)
    cross.setflags(write=False)
    return LambdaOperator(a=coeffs.a, theta=theta, cross=cross, matrix=matrix)


def apply_lambda(op: LambdaOperator, z) -> np.ndarray:
    """Apply the generator directly: A z + z A^T - 4 sum_jk z_jk th_j cross th_k."""
    z = np.asarray(z)
    noise = -4.0 * np.einsum("jk,jpq,qr,krs->ps", z, op.theta, op.cross, op.theta)
    return op.a @ z + z @ op.a.T + noise


def lambda_matrix(op: LambdaOperator) -> np.ndarray:
    """The generator as an n^2 x n^2 matrix on column-major vec(Z)."""
    return op.matrix


def hermitian_basis(n: int):
    """Orthonormal basis of Hermitian n x n matrices (Hilbert-Schmidt).

    Diagonal units first, then for each j < k the symmetric and the
    antisymmetric-imaginary combination, both normalized by sqrt(2).
    """
    mats = []
    for k in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[k, k] = 1.0
        mats.append(e)
    r = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = r
            e[k, j] = r
            mats.append(e)
            e = np.zeros((n, n), dtype=complex)
            e[j, k] = 1j * r
            e[k, j] = -1j * r
            mats.append(e)
    return mats


def lambda_hermitian_abscissa(op: LambdaOperator) -> float:
    """Largest real part of the generator restricted to Hermitian matrices.

    The restriction is computed in an orthonormal Hermitian basis, where its
    matrix must be real; residual imaginary parts above 1e-8 are an error.
    """
    n = op.n
    basis = hermitian_basis(n)
    w = np.column_stack([b.flatten(order="F") for b in basis])
    restricted = w.conj().T @ op.matrix @ w
    if float(np.max(np.abs(restricted.imag))) > 1e-8:
        raise ValueError(
            "restriction to Hermitian matrices is not real (max imag %g)"
            % float(np.max(np.abs(restricted.imag)))
        )
    return float(np.max(np.linalg.eigvals(restricted.real).real))


def pi_trace_flow(op: LambdaOperator, times) -> np.ndarray:
    """Trace of e^{t Lambda}(I) for each t in times, by `qsde.propagate`.

    These traces dominate ||e^{tA}||_F^2, which pins the second-moment
    growth rate between 2 sigma(A) and the Hermitian-restricted abscissa.
    """
    n = op.n
    vec0 = np.eye(n).flatten(order="F").astype(complex)
    out = np.empty(len(times))
    for i, vec in enumerate(propagate(op.matrix, vec0, times)):
        tr = complex(np.trace(vec.reshape((n, n), order="F")))
        if not (abs(tr.imag) <= 1e-9 and tr.real >= -1e-9):  # NaN fails too
            raise ValueError("trace flow left the real nonnegative axis: %r" % tr)
        out[i] = tr.real
    return out
