"""Drift and dispersion data of quasilinear models, and their moment flows.

A model is a structure-constant algebra plus a Hamiltonian vector E (so
H = E . X), a coupling matrix M and offset vector N (so the field coupling
is L = M X + N, with an even number m of quadrature channels).  For such
models the Heisenberg flow of the variable vector is closed and affine:
G(X) = A X + b, with dispersion B(X) = 2 (theta . X) M^T.  This module
builds (A, b, B) and everything that follows from the affine structure of
the first moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .model import (
    AffineOperator,
    StructureConstants,
    diam_product,
    dot_product,
    first_index_slices,
    reduce_monomial,
)

__all__ = [
    "ItoStructure",
    "QsdeCoefficients",
    "SystemSpec",
    "build_coefficients",
    "dispersion",
    "energy_rate",
    "equilibrium_moment",
    "ito_structure",
    "mean_flow",
    "mean_two_point_ccr",
    "propagate",
    "qcf",
    "spectral_abscissa",
    "steady_mean",
    "system_spec",
]

@dataclass(frozen=True)
class ItoStructure:
    """Ito matrix Omega = I + iJ of m quadrature field channels."""

    m: int
    j_mat: np.ndarray
    omega: np.ndarray


def ito_structure(m: int) -> ItoStructure:
    """Standard Ito structure on m channels (m even, m >= 2).

    J = [[0, I], [-I, 0]] with I = I_{m/2} pairs channel r with r + m/2;
    Omega = I + iJ is Hermitian PSD with eigenvalues 0 and 2, each m/2 times.
    """
    if m < 2 or m % 2:
        raise ValueError("channel count must be even and >= 2, got %r" % (m,))
    j_mat = np.eye(m, k=m // 2) - np.eye(m, k=-(m // 2))
    omega = np.eye(m) + 1j * j_mat
    j_mat.setflags(write=False)
    omega.setflags(write=False)
    return ItoStructure(m=m, j_mat=j_mat, omega=omega)


@dataclass(frozen=True)
class SystemSpec:
    """Structure constants plus (E, M, N) model parameters."""

    constants: StructureConstants
    energy: np.ndarray
    coupling: np.ndarray
    offset: np.ndarray

    @property
    def m(self) -> int:
        return self.coupling.shape[0]

    def at_strength(self, eps: float) -> SystemSpec:
        """The same model with the field coupling scaled to eps M, eps N."""
        return system_spec(self.constants, self.energy, eps * self.coupling, eps * self.offset)


def _finite_array(x, what, real=False) -> np.ndarray:
    """x as a new array with finite entries; with `real`, a float array, and
    a non-zero imaginary part is refused."""
    x = np.array(x)
    if real and np.any(np.imag(x) != 0):
        raise ValueError("%s must be real" % what)
    x = np.array(np.real(x), dtype=float) if real else x
    if not np.all(np.isfinite(x)):
        raise ValueError("%s must be finite" % what)
    return x


def system_spec(constants, energy, coupling, offset=None) -> SystemSpec:
    """Validate shapes and wrap (constants, E, M, N) as a SystemSpec; E must be real, E, M and N finite."""
    n = constants.n
    energy = _finite_array(energy, "energy vector", real=True)
    if energy.shape != (n,):
        raise ValueError("energy vector has shape %r, expected (%d,)" % (energy.shape, n))
    coupling = _finite_array(coupling, "coupling")
    if coupling.ndim != 2 or coupling.shape[1] != n:
        raise ValueError("coupling must be m x %d, got %r" % (n, coupling.shape))
    m = coupling.shape[0]
    if m < 2 or m % 2:
        raise ValueError("coupling needs an even number >= 2 of rows, got %d" % m)
    if offset is None:
        offset = np.zeros(m)
    offset = _finite_array(offset, "offset")
    if offset.shape != (m,):
        raise ValueError("offset has shape %r, expected (%d,)" % (offset.shape, m))
    energy.setflags(write=False)
    coupling.setflags(write=False)
    offset.setflags(write=False)
    return SystemSpec(constants=constants, energy=energy, coupling=coupling, offset=offset)


@dataclass(frozen=True)
class QsdeCoefficients:
    """Drift A (with its Hamiltonian part a0 and coupling part atilde), b,
    and the data (theta, coupling) defining the dispersion map."""

    a: np.ndarray
    a0: np.ndarray
    atilde: np.ndarray
    b: np.ndarray
    theta: np.ndarray
    coupling: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def build_coefficients(spec: SystemSpec) -> QsdeCoefficients:
    """Drift and dispersion data of the variable flow G(X) = A X + b.

    A = 2 theta<>(E + M^T J N)
        + 2 sum_l theta_l M^T (M theta_l.. + J M Re(beta)_l..),
    b = 2 sum_l theta_l M^T J M alpha[:, l],
    where theta_l.. and Re(beta)_l.. are the first-coefficient-index slices.
    The Hamiltonian-only part a0 = 2 theta<>E is returned separately since
    the split drives the weak-coupling analysis.
    """
    c = spec.constants
    th = c.theta
    m_mat = spec.coupling
    jm = ito_structure(spec.m).j_mat
    fi_th = first_index_slices(th)
    fi_rb = first_index_slices(c.beta.real)

    a0 = 2.0 * diam_product(th, spec.energy)
    a = 2.0 * diam_product(th, spec.energy + m_mat.T @ (jm @ spec.offset))
    b = np.zeros(c.n, dtype=np.result_type(m_mat, float))
    mjm = m_mat.T @ jm @ m_mat
    for l in range(c.n):
        a = a + 2.0 * th[l] @ m_mat.T @ (m_mat @ fi_th[l] + jm @ m_mat @ fi_rb[l])
        b = b + 2.0 * th[l] @ (mjm @ c.alpha[:, l])
    atilde = a - a0
    for arr in (a, a0, atilde, b):
        arr.setflags(write=False)
    return QsdeCoefficients(
        a=a, a0=a0, atilde=atilde, b=b, theta=th, coupling=m_mat
    )


def dispersion(coeffs: QsdeCoefficients, x) -> np.ndarray:
    """Dispersion matrix B(x) = 2 (theta . x) M^T at coefficient vector x."""
    return 2.0 * dot_product(coeffs.theta, x) @ coeffs.coupling.T


def spectral_abscissa(a_matrix) -> float:
    """Largest real part in the spectrum of a matrix."""
    return float(np.max(np.linalg.eigvals(np.asarray(a_matrix)).real))


def propagate(generator, state0, times):
    """Yield e^{t G} state0 for each t in times, in order.

    The chain starts from state0 at t = 0 and reaches each point from the
    previous one by the step exponential e^{(t_i - t_{i-1}) G}, formed again
    only when the step length changes.  A grid whose points before the last
    equal t0 + i h bit for bit, h = (t_last - t0) / (N - 1), as np.linspace
    gives, steps by h throughout; a zero step keeps the state.  A time
    earlier than its predecessor restarts the chain as expm(t G) state0.  A
    negative time is evaluated that way but the chain stays at t = 0, as
    stepping out of a backward propagation would amplify its rounding error.
    """
    gen = np.asarray(generator)
    state0 = np.asarray(state0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional, got shape %r" % (times.shape,))
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    steps = np.diff(np.maximum(times, 0.0), prepend=0.0)
    count = len(times)
    if count > 2:
        h = (times[-1] - times[0]) / (count - 1)
        if h > 0 and np.array_equal(times[:-1], times[0] + np.arange(count - 1) * h):
            steps[1:] = np.where(times[:-1] >= 0, h, steps[1:])
    state, length, step = state0, None, None
    for t, dt in zip(times, steps):
        if t < 0:
            state = state0
            yield expm(t * gen) @ state0
            continue
        if dt < 0:
            state = expm(t * gen) @ state0
        elif dt > 0:
            if dt != length:
                length, step = dt, expm(dt * gen)
            state = step @ state
        yield state


def mean_flow(coeffs: QsdeCoefficients, mu0, times) -> np.ndarray:
    """First-moment trajectory mu(t) for each t in times.

    Solves mu' = A mu + b by propagating (mu0, 1) with the augmented
    (n+1) x (n+1) matrix [[A, b], [0, 0]] (see `propagate`).
    """
    n = coeffs.n
    mu0 = np.asarray(mu0)
    if mu0.shape != (n,):
        raise ValueError("mu0 has shape %r, expected (%d,)" % (mu0.shape, n))
    aug = np.zeros((n + 1, n + 1), dtype=np.result_type(coeffs.a, mu0))
    aug[:n, :n] = coeffs.a
    aug[:n, n] = coeffs.b
    state0 = np.concatenate([mu0, [1.0]])
    out = np.empty((len(times), n), dtype=aug.dtype)
    for i, state in enumerate(propagate(aug, state0, times)):
        out[i] = state[:n]
    return out


# a drift is Hurwitz when its spectral abscissa is below -_HURWITZ_MARGIN
_HURWITZ_MARGIN = 1e-10


def _hurwitz_abscissa(a_matrix, reason: str = "") -> float:
    sa = spectral_abscissa(a_matrix)
    if sa >= -_HURWITZ_MARGIN:
        raise ValueError("drift is not Hurwitz (spectral abscissa %.6e)%s" % (sa, reason))
    return sa


def steady_mean(coeffs: QsdeCoefficients) -> np.ndarray:
    """Unique stationary mean -A^{-1} b; requires A Hurwitz."""
    _hurwitz_abscissa(coeffs.a, ", no stationary mean")
    return np.linalg.solve(coeffs.a, -coeffs.b)


def equilibrium_moment(factor_indices, powers, constants: StructureConstants, mu_star) -> complex:
    """Stationary expectation of the monomial prod_i X_{j_i}^{p_i}.

    Reduces the monomial to affine form and evaluates it on the stationary
    mean; exact because the reduced operator is affine in X.
    """
    red = reduce_monomial(factor_indices, powers, constants)
    return complex(red.const + red.linear @ np.asarray(mu_star))


def qcf(constants: StructureConstants, mu_star, u) -> complex:
    """Stationary quasicharacteristic function lim E exp(i u . X).

    Computed as the (0, :) row of exp(i [[0, u^T], [alpha u, beta<>u]])
    applied to (1, mu*).
    """
    n = constants.n
    u = np.asarray(u)
    if u.shape != (n,):
        raise ValueError("u has shape %r, expected (%d,)" % (u.shape, n))
    gen = np.zeros((n + 1, n + 1), dtype=complex)
    gen[0, 1:] = u
    gen[1:, 0] = constants.alpha @ u
    gen[1:, 1:] = diam_product(constants.beta, u)
    vec = np.concatenate([[1.0], np.asarray(mu_star, dtype=complex)])
    return complex((expm(1j * gen) @ vec)[0])


def energy_rate(spec: SystemSpec, coeffs: QsdeCoefficients, mu) -> float:
    """Time derivative of the mean energy E . mu at mean vector mu.

    Equals E . (atilde mu + b): the Hamiltonian part of the drift never
    moves the energy (E^T a0 = 0), so only the coupling part contributes.
    """
    val = spec.energy @ (coeffs.atilde @ np.asarray(mu) + coeffs.b)
    return float(np.real_if_close(val))


def mean_two_point_ccr(coeffs: QsdeCoefficients, constants: StructureConstants, mu_s, tau: float) -> np.ndarray:
    """Mean two-time commutator matrix E[[X(s + tau), X(s)^T]].

    Equals 2i e^{tau A} (theta . mu(s)); tau >= 0.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    ccr = dot_product(constants.theta, np.asarray(mu_s))
    return 2j * expm(float(tau) * coeffs.a) @ ccr
