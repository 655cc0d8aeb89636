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

from math import isqrt

import numpy as np

from .model import MAX_DIM, CapabilityLimit, _frozen
from .qsde import QsdeCoefficients, SystemSpec, ito_matrix, propagate

__all__ = [
    "apply_lambda",
    "lambda_operator",
    "pi_trace_flow",
]


def _cross(spec: SystemSpec) -> np.ndarray:
    """cross = M^T Omega M, the noise weight between coefficient pairs."""
    return spec.coupling.T @ ito_matrix(spec.m) @ spec.coupling


def _kron_part(a, theta, cross) -> np.ndarray:
    """I (x) a + a (x) I - 4 Psi(cross) for real a and cross."""
    n = len(a)
    eye = np.eye(n)
    # (theta_j cross theta_k)[p, s] indexed (j, p, k, s), moved to row s*n + p
    # and column k*n + j
    psi = (theta @ cross).reshape(n * n, n) @ theta.transpose(1, 0, 2).reshape(n, n * n)
    psi = psi.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)
    return np.kron(eye, a) + np.kron(a, eye) - 4.0 * psi


def lambda_operator(spec: SystemSpec, coeffs: QsdeCoefficients) -> np.ndarray:
    """The frozen real n^2 x n^2 second-moment generator re + im P on column-major vec(R).

    On complex vec(Z) Lambda is re + i im, re = I (x) Re A + Re A (x) I
    - 4 Psi(Re cross) and im likewise, column k*n + j of Psi(C) being
    vec(theta_j C theta_k).  It keeps Hermitian matrices Hermitian exactly
    when re = P re P and im = -P im P, vec(Z^T) = P vec(Z); a defect
    max(|re - P re P|, |im + P im P|) above 1e-8 is an error.
    """
    n = coeffs.n
    if n > MAX_DIM:
        raise CapabilityLimit("dimension %d exceeds %d" % (n, MAX_DIM))
    cross = _cross(spec)
    theta = spec.constants.theta
    re = _kron_part(np.real(coeffs.a), theta, cross.real)
    im = _kron_part(np.imag(coeffs.a), theta, cross.imag)
    perm = np.arange(n * n).reshape(n, n).T.ravel()  # vec(R^T) = vec(R)[perm]
    both = np.ix_(perm, perm)
    defect = max(float(np.max(np.abs(re - re[both]))), float(np.max(np.abs(im + im[both]))))
    if defect > 1e-8:
        raise ValueError("restriction to Hermitian matrices is not real (max imag %g)" % defect)
    return _frozen(re + im[:, perm])[0]


def apply_lambda(spec: SystemSpec, coeffs: QsdeCoefficients, z) -> np.ndarray:
    """Apply the generator directly: A z + z A^T - 4 sum_jk z_jk th_j cross th_k."""
    z = np.asarray(z)
    theta = spec.constants.theta
    noise = -4.0 * np.einsum("jk,jpq,qr,krs->ps", z, theta, _cross(spec), theta)
    return coeffs.a @ z + z @ coeffs.a.T + noise


def pi_trace_flow(matrix, times) -> np.ndarray:
    """Trace of e^{t Lambda}(I) for each t in times, by `qsde.propagate`.

    `matrix` is the n^2 x n^2 generator from `lambda_operator`.  These traces
    dominate ||e^{tA}||_F^2, which pins the second-moment growth rate between
    2 sigma(A) and the Hermitian-restricted abscissa.
    """
    n = isqrt(len(matrix))
    out = np.empty(len(times))
    for i, vec in enumerate(propagate(matrix, np.eye(n).flatten(order="F"), times)):
        tr = float(np.trace(vec.reshape((n, n), order="F")))
        if not tr >= -1e-9:  # NaN fails too
            raise ValueError("trace flow left the real nonnegative axis: %r" % tr)
        out[i] = tr
    return out
