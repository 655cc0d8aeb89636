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

from .model import StructureConstants, _frozen, _unital, diam_product, dot_product

__all__ = [
    "QsdeCoefficients",
    "SystemSpec",
    "build_coefficients",
    "dispersion",
    "ito_matrix",
    "mean_flow",
    "mean_two_point_ccr",
    "propagate",
    "qcf",
    "spectral_abscissa",
    "steady_mean",
    "system_spec",
]

def ito_matrix(m: int) -> np.ndarray:
    """Standard Ito matrix Omega = I + iJ on m channels (m even, m >= 2).

    J = Omega.imag = [[0, I], [-I, 0]] with I = I_{m/2} pairs channel r with
    r + m/2; Omega is Hermitian PSD with eigenvalues 0 and 2, each m/2 times.
    """
    if m < 2 or m % 2:
        raise ValueError("channel count must be even and >= 2, got %r" % (m,))
    omega = np.eye(m) + 1j * (np.eye(m, k=m // 2) - np.eye(m, k=-(m // 2)))
    return _frozen(omega)[0]


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


def _finite_array(x, what) -> np.ndarray:
    """x as a new float array; a non-zero imaginary part or a non-finite
    entry is refused."""
    x = np.array(x)
    if np.any(np.imag(x) != 0):
        raise ValueError("%s must be real" % what)
    x = np.array(np.real(x), dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("%s must be finite" % what)
    return x


def _times(values, what) -> np.ndarray:
    """Times, lags or propagation times as a float vector: finite, real, one-dimensional
    and >= 0, as every flow runs forward, else ValueError naming `what`."""
    values = _finite_array(values, what)
    if values.ndim != 1:
        raise ValueError("%s must be one-dimensional, got shape %r" % (what, values.shape))
    if np.any(values < 0):
        raise ValueError("%s must be nonnegative" % what)
    return values


def system_spec(constants, energy, coupling, offset=None) -> SystemSpec:
    """Validate shapes and wrap (constants, E, M, N) as a SystemSpec; E, M and N must be real and finite."""
    n = constants.n
    energy = _finite_array(energy, "energy vector")
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
    _frozen(energy, coupling, offset)
    return SystemSpec(constants=constants, energy=energy, coupling=coupling, offset=offset)


@dataclass(frozen=True)
class QsdeCoefficients:
    """Drift A (with its Hamiltonian part a0 and coupling part atilde) and b.

    The dispersion and the second-moment generator also need theta and the
    coupling M; they take them from the SystemSpec.
    """

    a: np.ndarray
    a0: np.ndarray
    atilde: np.ndarray
    b: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def build_coefficients(spec: SystemSpec) -> QsdeCoefficients:
    """Drift and dispersion data of the variable flow G(X) = A X + b.

    A = 2 theta<>(E + M^T J N)
        + 2 sum_l theta_l M^T (M theta_l.. + J M Re(beta)_l..),
    b = 2 sum_l theta_l M^T J M alpha[:, l],
    where S_l..[j, k] = S[k, l, j] fixes the first coefficient index of the
    sections S = theta, Re(beta).  The Hamiltonian-only part a0 = 2 theta<>E
    is returned separately since the split drives the weak-coupling analysis.
    A drift that overflows (|M| near 1e300, say) is refused (ValueError).
    """
    c = spec.constants
    th, n = c.theta, c.n
    m_mat = spec.coupling
    jm = ito_matrix(spec.m).imag

    def coupled(y, sections):
        # sum_l theta_l M^T y S_l.. as one product over the flattened (l, column) pairs
        return (th @ m_mat.T @ y).transpose(1, 0, 2).reshape(n, -1) @ sections.reshape(n, -1).T

    with np.errstate(over="ignore", invalid="ignore"):
        mjm = m_mat.T @ jm @ m_mat
        a0 = 2.0 * diam_product(th, spec.energy)
        a = 2.0 * diam_product(th, spec.energy + m_mat.T @ (jm @ spec.offset))
        a = a + 2.0 * (coupled(m_mat, th) + coupled(jm @ m_mat, c.beta.real))
        b = 2.0 * np.einsum("lab,bl->a", th, mjm @ c.alpha)
        a, a0, atilde, b = _frozen(a, a0, a - a0, b)
    if not all(np.isfinite(x).all() for x in (a, a0, atilde, b)):
        raise ValueError("drift is not finite: the model's entries overflow it")
    return QsdeCoefficients(a=a, a0=a0, atilde=atilde, b=b)


def dispersion(spec: SystemSpec, x) -> np.ndarray:
    """Dispersion matrix B(x) = 2 (theta . x) M^T at coefficient vector x."""
    return 2.0 * dot_product(spec.constants.theta, x) @ spec.coupling.T


def spectral_abscissa(a_matrix) -> float:
    """Largest real part in the spectrum of a matrix."""
    return float(np.max(np.linalg.eigvals(np.asarray(a_matrix)).real))


def propagate(generator, state0, times):
    """Yield e^{t G} state0 for each t in times, in order; times are `_times`.

    The chain starts from state0 at t = 0 and reaches each point from the
    previous one by the step exponential e^{(t_i - t_{i-1}) G}, formed again
    only when the step length changes.  A grid whose points before the last
    equal t0 + i h bit for bit, h = (t_last - t0) / (N - 1), as np.linspace
    gives, steps by h throughout; a zero step keeps the state.  A time
    earlier than its predecessor restarts the chain as expm(t G) state0.
    """
    gen = np.asarray(generator)
    state0 = np.asarray(state0)
    times = _times(times, "times")
    steps = np.diff(times, prepend=0.0)
    count = len(times)
    if count > 2:
        h = (times[-1] - times[0]) / (count - 1)
        if h > 0 and np.array_equal(times[:-1], times[0] + np.arange(count - 1) * h):
            steps[1:] = h
    state, length, step = state0, None, None
    for t, dt in zip(times, steps):
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
    (n+1) x (n+1) matrix [[A, b], [0, 0]] (see `propagate`).  A trajectory
    that overflows to inf or NaN is refused, naming its first such time.
    """
    n = coeffs.n
    mu0 = np.asarray(mu0)
    if mu0.shape != (n,):
        raise ValueError("mu0 has shape %r, expected (%d,)" % (mu0.shape, n))
    aug = np.zeros((n + 1, n + 1), dtype=np.result_type(coeffs.a, mu0))
    aug[:n, :n] = coeffs.a
    aug[:n, n] = coeffs.b
    states = propagate(aug, np.concatenate([mu0, [1.0]]), times)
    flow = np.array([state[:n] for state in states], dtype=aug.dtype).reshape(-1, n)
    bad = np.flatnonzero(~np.isfinite(flow).all(axis=1))
    if len(bad):
        raise ValueError("mean trajectory is not finite at t = %r" % float(np.asarray(times, dtype=float)[bad[0]]))
    return flow


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


def qcf(constants: StructureConstants, mu_star, us) -> np.ndarray:
    """Stationary quasicharacteristic function lim E exp(i u . X) for each row u of us.

    Row 0 of exp(i G) applied to (1, mu*), where G[j, l] is the Y_l
    coefficient of Y_j (u . X), Y = (I, X): one contraction of the unital
    structure tensor with u, giving G = [[0, u^T], [alpha u, beta<>u]].
    A value that overflows to inf or NaN is refused.
    """
    n = constants.n
    us = np.asarray(us)
    if us.ndim != 2 or us.shape[1] != n:
        raise ValueError("us has shape %r, expected (k, %d)" % (us.shape, n))
    gens = np.einsum("ljk,uk->ujl", _unital(constants)[:, :, 1:], us)
    vec = np.concatenate([[1.0], np.asarray(mu_star, dtype=complex)])
    vals = (expm(1j * gens) @ vec)[:, 0]
    if not np.all(np.isfinite(vals)):
        raise ValueError("quasicharacteristic function is not finite")
    return vals


def mean_two_point_ccr(coeffs: QsdeCoefficients, constants: StructureConstants, mu_s, lags) -> np.ndarray:
    """Mean two-time commutator matrices E[[X(s + tau), X(s)^T]], one per lag tau.

    Each equals 2i e^{tau A} (theta . mu(s)); every tau must be finite and >= 0.
    """
    lags = _times(lags, "tau")
    ccr = dot_product(constants.theta, np.asarray(mu_s))
    return 2j * expm(np.multiply.outer(lags, coeffs.a)) @ ccr
