"""Second-moment flow of quasilinear models and its spectrum.

The matrix of symmetrized second moments is Hermitian and evolves linearly:
Pi' = Lambda(Pi) with Lambda(Z) = A Z + Z A^T + U(Z), where the noise term U
is built from the CCR sections, the coupling matrix and the Ito matrix.
Hermitian matrices are carried in real form: Z -> R = Re Z + Im Z is an
isometry from the Hermitian onto the real n x n matrices, with inverse
Z = sym(R) + i skew(R); it fixes the identity and Tr Z = Tr R.  The
generator is the real n^2 x n^2 matrix of Lambda in this form, acting on
column-major vec(R).  `apply_lambda` applies Lambda to complex matrices
directly; the two routes are kept separate so they can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MAX_DIM, CapabilityLimit, _frozen
from .qsde import QsdeCoefficients, ito_structure, propagate

__all__ = [
    "LambdaOperator",
    "apply_lambda",
    "lambda_operator",
    "pi_trace_flow",
]


@dataclass(frozen=True)
class LambdaOperator:
    """Second-moment generator Z -> A Z + Z A^T + U(Z) on Hermitian Z.

    cross = M^T Omega M.  On complex vec(Z) Lambda is re + i im with
    re = I (x) Re A + Re A (x) I - 4 Psi(Re cross), im likewise from the
    imaginary parts, column k*n + j of Psi(C) being vec(theta_j C theta_k).
    It keeps Hermitian Z Hermitian when re = P re P and im = -P im P, with
    vec(Z^T) = P vec(Z); matrix = re + im P acts on column-major vec(R).
    """

    a: np.ndarray
    theta: np.ndarray
    cross: np.ndarray
    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _kron_part(a, theta, cross) -> np.ndarray:
    """I (x) a + a (x) I - 4 Psi(cross) for real a and cross."""
    n = len(a)
    eye = np.eye(n)
    # (theta_j cross theta_k)[p, s] indexed (j, p, k, s), moved to row s*n + p
    # and column k*n + j
    psi = (theta @ cross).reshape(n * n, n) @ theta.transpose(1, 0, 2).reshape(n, n * n)
    psi = psi.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
    return np.kron(eye, a) + np.kron(a, eye) - 4.0 * psi


def lambda_operator(coeffs: QsdeCoefficients) -> LambdaOperator:
    """Assemble the real second-moment generator for a coefficient set.

    Lambda is re + i im on complex vec(Z), with re and im real.  It keeps
    Hermitian matrices Hermitian exactly when it commutes with Z -> Z^H,
    that is when re = P re P and im = -P im P for the transpose permutation
    P; the defect is the larger of max |re - P re P| and max |im + P im P|,
    and one above 1e-8 is an error.
    """
    n = coeffs.n
    if n > MAX_DIM:
        raise CapabilityLimit("dimension %d exceeds %d" % (n, MAX_DIM))
    omega = ito_structure(coeffs.coupling.shape[0]).omega
    cross = coeffs.coupling.T @ omega @ coeffs.coupling
    theta = coeffs.theta
    re = _kron_part(np.real(coeffs.a), theta, cross.real)
    im = _kron_part(np.imag(coeffs.a), theta, cross.imag)
    perm = np.arange(n * n).reshape(n, n).T.ravel()  # vec(R^T) = vec(R)[perm]
    both = np.ix_(perm, perm)
    defect = max(float(np.max(np.abs(re - re[both]))), float(np.max(np.abs(im + im[both]))))
    if defect > 1e-8:
        raise ValueError("restriction to Hermitian matrices is not real (max imag %g)" % defect)
    matrix, cross = _frozen(re + im[:, perm], cross)
    return LambdaOperator(a=coeffs.a, theta=theta, cross=cross, matrix=matrix)


def apply_lambda(op: LambdaOperator, z) -> np.ndarray:
    """Apply the generator directly: A z + z A^T - 4 sum_jk z_jk th_j cross th_k."""
    z = np.asarray(z)
    noise = -4.0 * np.einsum("jk,jpq,qr,krs->ps", z, op.theta, op.cross, op.theta)
    return op.a @ z + z @ op.a.T + noise


def pi_trace_flow(op: LambdaOperator, times) -> np.ndarray:
    """Trace of e^{t Lambda}(I) for each t in times, by `qsde.propagate`.

    These traces dominate ||e^{tA}||_F^2, which pins the second-moment
    growth rate between 2 sigma(A) and the Hermitian-restricted abscissa.
    """
    n = op.n
    out = np.empty(len(times))
    for i, vec in enumerate(propagate(op.matrix, np.eye(n).flatten(order="F"), times)):
        tr = float(np.trace(vec.reshape((n, n), order="F")))
        if not tr >= -1e-9:  # NaN fails too
            raise ValueError("trace flow left the real nonnegative axis: %r" % tr)
        out[i] = tr
    return out
