"""Second-moment flow of quasilinear models and its spectrum.

The matrix of symmetrized second moments is Hermitian and evolves linearly:
Pi' = Lambda(Pi) with Lambda(Z) = A Z + Z A^T - 4 sum_jk Z_jk theta_j M^T
Omega M theta_k, Omega the Ito matrix.  Since Omega = F F^H with F its first
m/2 columns, Lambda is one sandwich stack, Lambda(Z) = sum_t U_t Z V_t^T over
(A, I), (I, A) and one noise pair per column f_c of F: U_c[:, j] =
theta_j M^T f_c and V_c[:, k] = -4 theta_k^T M^T conj(f_c).  `apply_lambda`
sums the stack in O(m n^3) at any n; `lambda_operator` forms its matrix
sum_t V_t (x) U_t on column-major vec(Z) as one product of the flattened
stacks (n <= MAX_DIM).  Both read the same stack, so their independent
reference is the column-by-column generator in the tests.
Hermitian matrices are carried in real form: Z -> R = Re Z + Im Z is an
isometry from the Hermitian onto the real n x n matrices, with inverse
Z = sym(R) + i skew(R); it fixes the identity and Tr Z = Tr R.  The
generator is the real n^2 x n^2 matrix of Lambda in this form, acting on
column-major vec(R).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .model import MAX_DIM, CapabilityLimit, _frozen, _gate
from .qsde import QsdeCoefficients, SystemSpec, ito_matrix, propagate

__all__ = [
    "apply_lambda",
    "lambda_operator",
    "pi_trace_flow",
]


def _sandwich(spec: SystemSpec, coeffs: QsdeCoefficients):
    """The (m/2 + 2, n, n) stacks U, V with Lambda(Z) = sum_t U_t Z V_t^T."""
    f = ito_matrix(spec.m)[:, : spec.m // 2]
    theta, mt = spec.constants.theta, spec.coupling.T
    u = (theta @ (mt @ f)).transpose(2, 1, 0)
    v = -4.0 * (theta.transpose(0, 2, 1) @ (mt @ f.conj())).transpose(2, 1, 0)
    eye, a = np.eye(coeffs.n), coeffs.a
    return np.concatenate([[a, eye], u]), np.concatenate([[eye, a], v])


def lambda_operator(spec: SystemSpec, coeffs: QsdeCoefficients) -> np.ndarray:
    """The frozen real n^2 x n^2 second-moment generator re + im P on column-major vec(R).

    On complex vec(Z) Lambda is re + i im = sum_t V_t (x) U_t.  It keeps
    Hermitian matrices Hermitian exactly when re = P re P and im = -P im P,
    vec(Z^T) = P vec(Z); a defect max(|re - P re P|, |im + P im P|) above
    1e-8 is an error.
    """
    n = coeffs.n
    if n > MAX_DIM:
        raise CapabilityLimit("dimension %d exceeds %d" % (n, MAX_DIM))
    u, v = _sandwich(spec, coeffs)
    # (V_t (x) U_t)[a*n + c, b*n + d] = V_t[a, b] U_t[c, d], read as lam[a, c, b, d]
    lam = (v.reshape(len(v), -1).T @ u.reshape(len(u), -1)).reshape((n,) * 4).transpose(0, 2, 1, 3)
    swap = lam.transpose(1, 0, 3, 2)  # P lam P
    defect = max(float(np.max(np.abs(lam.real - swap.real))), float(np.max(np.abs(lam.imag + swap.imag))))
    _gate(defect, 1e-8, lambda: ValueError("restriction to Hermitian matrices is not real (max imag %g)" % defect))
    matrix = np.empty((n * n, n * n))
    np.add(lam.real, lam.imag.transpose(0, 1, 3, 2), out=matrix.reshape((n,) * 4))  # re + im P
    return _frozen(matrix)[0]


def apply_lambda(spec: SystemSpec, coeffs: QsdeCoefficients, z) -> np.ndarray:
    """Apply the generator directly: sum_t U_t z V_t^T."""
    u, v = _sandwich(spec, coeffs)
    return (u @ np.asarray(z) @ v.transpose(0, 2, 1)).sum(axis=0)


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
        _gate(-tr, 1e-9, lambda: ValueError("trace flow left the real nonnegative axis: %r" % tr))
        out[i] = tr
    return out
