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

from .model import StructureConstants, _frozen, _gate, _unital, diam_product, dot_product

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
    An alpha with a nonzero imaginary part (validate's alpha-imag violation)
    and a drift that overflows (|M| near 1e300, say) are refused (ValueError).
    """
    c = spec.constants
    if np.iscomplexobj(c.alpha) and np.any(c.alpha.imag != 0):
        raise ValueError("constants fail alpha-imag: alpha must be real (max imag %g)" % np.max(np.abs(c.alpha.imag)))
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

    A uniform grid, whose points before the last equal t0 + i h bit for bit
    with h = (t_last - t0) / (N - 1) > 0, as np.linspace gives, is one chain:
    e^{t0 G} state0, then one product with the step exponential e^{h G} per
    point; e^{t0 G} is that step when t0 equals h bit for bit.  Any other
    list of times takes e^{t G} state0 at each point.  At t = 0 the state is
    state0 itself.  Bad times are refused at the call, before any state
    is asked for.
    """
    return _chain(np.asarray(generator), np.asarray(state0), _times(times, "times"))


def _chain(gen, state0, times):
    count = len(times)
    h = (times[-1] - times[0]) / (count - 1) if count > 1 else 0.0
    uniform = h > 0 and np.array_equal(times[:-1], times[0] + np.arange(count - 1) * h)
    step = expm(h * gen) if uniform else None
    for i, t in enumerate(times):
        if i and uniform:
            state = step @ state
        elif t == 0:
            state = state0
        else:
            state = (step if uniform and t == h else expm(t * gen)) @ state0
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
    _gate(sa, -_HURWITZ_MARGIN, lambda: ValueError("drift is not Hurwitz (spectral abscissa %.6e)%s" % (sa, reason)), strict=True)
    return sa


def steady_mean(coeffs: QsdeCoefficients) -> np.ndarray:
    """Unique stationary mean -A^{-1} b; requires A Hurwitz."""
    _hurwitz_abscissa(coeffs.a, ", no stationary mean")
    return np.linalg.solve(coeffs.a, -coeffs.b)


# theta_m of Higham, Functions of Matrices (2008), Table A.3, m = 1..30, as
# Al-Mohy & Higham use it (SIAM J. Sci. Comput. 33, 2011): while ||A||_1 <= theta_m
# the degree-m Taylor polynomial T_m(A) = e^{A + dA} with ||dA||_1 <= 2^-53 ||A||_1.
_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
])
_INV_FACTORIAL = 1.0 / np.cumprod([1.0, *range(1, 31)])  # 1 / k!, k = 0..30


def qcf(constants: StructureConstants, mu_star, us) -> np.ndarray:
    """Stationary quasicharacteristic function lim E exp(i u . X) for each row u of us.

    e^{i u . X} is an algebra element; the value is its coefficient row c_u
    over Y = (I, X) dotted with (1, mu*).  G_u[j, l], the Y_l coefficient of
    Y_j (u . X), is one contraction of the unital structure tensor with u,
    G_u = [[0, u^T], [alpha u, beta<>u]], and c_u is row 0 of exp(i G_u),
    found by Taylor with scaling and squaring inside the algebra: with
    s = max(0, ceil(log2(||G_u||_1 / theta_30))), Horner steps of one row
    times matrix product each form e_0^T T_m(i G_u / 2^s), m the least degree
    with ||G_u||_1 / 2^s <= theta_m (_THETA, from Higham 2008, Table A.3;
    theta_30 = 3.54), and s squarings by the algebra product
    (c * c)_l = sum_jk u[l, j, k] c_j c_k give c_u.  That is at most
    30 (n+1)^2 + s (n+1)^3 work per direction, against about (8 + s) (n+1)^3
    for a dense exponential of G_u.  The squarings equal the matrix's only
    for valid constants: (I, X) must multiply associatively (model.validate).
    Each direction is computed on its own, so the values of a stack equal
    those of one-row calls bit for bit.  A value carries a rounding allowance
    of ||G_u||_1 2^-52: rounding u alone moves e^{i u . X} by up to half that,
    and on Pauli directions c e1, 1e2 <= c <= 1e15, the error stays within
    about twice it.  A direction with ||G_u||_1 > 2^52, where the allowance
    exceeds 1, the largest |E e^{i u . X}| a state allows, is refused, after
    the refusal of a generator norm or a value that overflows to inf or NaN.
    """
    n, w = constants.n, constants.n + 1
    us = np.asarray(us)
    if us.ndim != 2 or us.shape[1] != n:
        raise ValueError("us has shape %r, expected (k, %d)" % (us.shape, n))
    right = _unital(constants).transpose(2, 1, 0).reshape(w, w * w)  # [k, (j, l)] = u_ljk
    with np.errstate(over="ignore", invalid="ignore"):  # a generator that overflows is refused next
        gens = 1j * (us[:, None, :] @ right[1:]).reshape(-1, w, w)
        norms = np.abs(gens).sum(axis=1).max(axis=1)
    if not np.isfinite(norms).all():
        raise ValueError("quasicharacteristic function is not finite")
    squarings = np.ceil(np.log2(np.maximum(norms, _THETA[-1]) / _THETA[-1])).astype(int)
    scale = np.ldexp(1.0, -squarings)
    gens *= scale[:, None, None]
    degree = 1 + np.searchsorted(_THETA[:-1], norms * scale)
    powers = np.arange(degree.max(initial=1) + 1)[:, None]
    terms = np.zeros((len(powers), len(us), 1, w), dtype=complex)  # [k, u] = e_0 / k! up to degree(u), else 0
    terms[..., 0, 0] = np.where(powers <= degree, _INV_FACTORIAL[powers], 0.0)
    row = terms[-1]
    for term in terms[-2::-1]:  # Horner, row <- row iG + term; a direction is exactly 0 above its degree
        row = row @ gens
        row += term
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, squarings.max(initial=0) + 1):
            sq = np.flatnonzero(squarings >= i)
            c = row[sq]
            row[sq] = c @ (c @ right).reshape(-1, w, w)  # c * c = c G_c, G_c[j, l] = sum_k u_ljk c_k
    vec = np.concatenate([[1.0], np.asarray(mu_star, dtype=complex)])
    vals = (row @ vec[:, None])[:, 0, 0]
    if not np.isfinite(vals).all():
        raise ValueError("quasicharacteristic function is not finite")
    message = "qcf direction %d is not resolved: ||G_u||_1 = %.6g exceeds 2^52, so its rounding allowance exceeds 1"
    _gate(norms, 2.0**52, lambda u: ValueError(message % (u, norms[u])))
    return vals


def mean_two_point_ccr(coeffs: QsdeCoefficients, constants: StructureConstants, mu_s, lags) -> np.ndarray:
    """Mean two-time commutator matrices E[[X(s + tau), X(s)^T]], one per lag tau.

    Each equals 2i e^{tau A} (theta . mu(s)); every tau must be finite and >= 0.
    """
    lags = _times(lags, "tau")
    ccr = dot_product(constants.theta, np.asarray(mu_s))
    return 2j * expm(np.multiply.outer(lags, coeffs.a)) @ ccr
