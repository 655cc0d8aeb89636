"""Workload inputs: structure constants from explicit matrices, seeded draws, configs.

Every set of structure constants is derived here from concrete Hermitian
matrices by least squares over the basis {I, X_1, ..., X_n}; nothing is
taken from `quasilin.composite`, whose block assembly is one of the layers
the benchmark measures.  Model parameters (E, M, N, E12) are drawn per
analysis from the workload seed and rejection-sampled to a Hurwitz drift,
because `steady`, `decoherence` and `oracle` refuse other drifts by design.
Only the JSON configs built by `draw_config` reach the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from quasilin import model, oracle, qsde

RESIDUAL_BOUND = 1e-12
HURWITZ_MARGIN = 1e-3
MAX_TRIES = 500

SIGMA = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def gell_mann(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices (symmetric, antisymmetric, diagonal)."""
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[j, k] = s[k, j] = 1.0
            a = np.zeros((d, d), dtype=complex)
            a[j, k], a[k, j] = -1j, 1j
            mats += [s, a]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return np.array(mats)


def tensor_variables(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """(X ⊗ I, I ⊗ Y, X_j ⊗ Y_k with j outermost): the composite variable order."""
    i1 = np.eye(first.shape[1])
    i2 = np.eye(second.shape[1])
    mats = [np.kron(x, i2) for x in first]
    mats += [np.kron(i1, y) for y in second]
    mats += [np.kron(x, y) for x in first for y in second]
    return np.array(mats)


def _clean(x, floor=1e-14):
    """Zero the real and imaginary parts below `floor`: least-squares round-off."""
    return np.where(abs(x.real) < floor, 0.0, x.real) + 1j * np.where(abs(x.imag) < floor, 0.0, x.imag)


def constants_from_matrices(mats):
    """Solve X_j X_k = alpha_jk I + sum_l beta_ljk X_l by least squares.

    Returns (alpha, beta, residual): alpha real n x n, beta section-first
    complex n x n x n (beta[l, j, k] multiplies X_l), and the largest
    Frobenius residual of the multiplication table with the returned
    (cleaned) constants.
    """
    mats = np.asarray(mats, dtype=complex)
    n, d, _ = mats.shape
    basis = np.concatenate([np.eye(d)[None], mats]).reshape(n + 1, d * d).T
    products = np.einsum("jab,kbc->jkac", mats, mats)
    coef, *_ = np.linalg.lstsq(basis, products.reshape(n * n, d * d).T, rcond=None)
    coef = _clean(coef)
    alpha = coef[0].reshape(n, n)
    if np.max(np.abs(alpha.imag)) > RESIDUAL_BOUND:
        raise ValueError("alpha has an imaginary part; the matrices are not Hermitian")
    alpha = alpha.real
    beta = coef[1:].reshape(n, n, n)
    table = alpha[:, :, None, None] * np.eye(d) + np.einsum("ljk,lab->jkab", beta, mats)
    residual = float(np.max(np.linalg.norm(products - table, axis=(2, 3))))
    return alpha, beta, residual


@dataclass(frozen=True)
class Algebra:
    """One variable set: its matrices, derived constants and checked residual."""

    name: str
    mats: np.ndarray
    constants: model.StructureConstants
    residual: float

    @property
    def rep(self) -> oracle.HilbertRep:
        return oracle.HilbertRep(dim=self.mats.shape[1], variables=tuple(self.mats), constants=self.constants)

    @cached_property
    def constants_json(self):
        """The constants in config form: real entries as numbers, complex as [re, im]."""

        def num(z):
            return float(z.real) if z.imag == 0 else [float(z.real), float(z.imag)]

        return {
            "alpha": [[float(v) for v in row] for row in self.constants.alpha],
            "beta": [[[num(z) for z in row] for row in sec] for sec in self.constants.beta],
        }


def make_algebra(name: str, mats) -> Algebra:
    """Derive and check constants: model.validate must pass, residual <= 1e-12."""
    alpha, beta, residual = constants_from_matrices(mats)
    constants = model.structure_constants(alpha, beta)
    if residual > RESIDUAL_BOUND:
        raise ValueError("%s: representation residual %.3g exceeds %g" % (name, residual, RESIDUAL_BOUND))
    report = model.validate(constants)
    if not report.passed:
        raise ValueError("%s: generated constants fail validation: %r" % (name, report.violations[:3]))
    return Algebra(name=name, mats=np.asarray(mats), constants=constants, residual=residual)


MATRICES = {
    "pauli": lambda: SIGMA,
    "qutrit": lambda: gell_mann(3),
    "pauli_pauli": lambda: tensor_variables(SIGMA, SIGMA),
    "pauli_qutrit": lambda: tensor_variables(SIGMA, gell_mann(3)),
}

# The variable sets each workload draws from; the first is the analysed system's.
USES = {
    "pauli-sweep": ("pauli", "pauli_pauli"),
    "gellmann-dense": ("qutrit",),
    "composite-35": ("pauli_qutrit", "pauli", "qutrit"),
}


def algebras(workload: str) -> dict:
    """The checked variable sets of a workload: Pauli (n=3), qutrit (n=8),
    Pauli⊗Pauli (n=15), Pauli⊗qutrit (n=35)."""
    if workload not in USES:
        raise ValueError("unknown workload %r" % workload)
    return {name: make_algebra(name, MATRICES[name]()) for name in USES[workload]}


def _abscissa(constants, energy, coupling, offset):
    spec = qsde.system_spec(constants, energy, coupling, offset)
    return qsde.spectral_abscissa(qsde.build_coefficients(spec).a)


def draw_system(rng, algebra: Algebra, m=2):
    """Uniform (E, M, N) on [-1, 1], redrawn until the drift is safely Hurwitz."""
    n = algebra.constants.n
    for _ in range(MAX_TRIES):
        params = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m)
        if _abscissa(algebra.constants, *params) < -HURWITZ_MARGIN:
            return params
    raise RuntimeError("no Hurwitz draw for %s in %d tries" % (algebra.name, MAX_TRIES))


def composite_abscissa(product: Algebra, sys1, sys2, e12) -> float:
    """Drift abscissa of the directly coupled pair, assembled from the product algebra.

    Channels are interleaved into paired order (first halves, then second
    halves) so the standard Ito structure applies.
    """
    (e1, m1, o1), (e2, m2, o2) = sys1, sys2
    n1, n2 = len(e1), len(e2)
    energy = np.concatenate([e1, e2, np.asarray(e12).ravel()])
    rows1 = np.hstack([m1, np.zeros((len(m1), n2 + n1 * n2))])
    rows2 = np.hstack([np.zeros((len(m2), n1)), m2, np.zeros((len(m2), n1 * n2))])
    h1, h2 = len(m1) // 2, len(m2) // 2
    coupling = np.vstack([rows1[:h1], rows2[:h2], rows1[h1:], rows2[h2:]])
    offset = np.concatenate([o1[:h1], o2[:h2], o1[h1:], o2[h2:]])
    return _abscissa(product.constants, energy, coupling, offset)


def draw_pair(rng, first: Algebra, second: Algebra, product: Algebra, scale=0.5):
    """Two Hurwitz factors plus a direct coupling E12 on [-scale, scale] with a Hurwitz composite."""
    for _ in range(MAX_TRIES):
        sys1, sys2 = draw_system(rng, first), draw_system(rng, second)
        e12 = rng.uniform(-scale, scale, (first.constants.n, second.constants.n))
        if composite_abscissa(product, sys1, sys2, e12) < -HURWITZ_MARGIN:
            return sys1, sys2, e12
    raise RuntimeError("no Hurwitz composite draw in %d tries" % MAX_TRIES)


def _system_json(constants, params):
    energy, coupling, offset = params
    return {"constants": constants, "E": energy.tolist(), "M": coupling.tolist(), "N": offset.tolist()}


def draw_config(workload: str, algs, seed: int, phase: int, index: int) -> dict:
    """Config of cycle `index` in `phase` (0 warm-up, 1 measured, 2 probe).

    The same (seed, phase, index) always gives the same config.
    """
    rng = np.random.default_rng([seed, phase, index])
    analysis = {"grid": [0.0, 5.0, 41], "eps": [0.2, 0.1, 0.05], "seed": index}
    if workload == "pauli-sweep":
        sys1, sys2, e12 = draw_pair(rng, algs["pauli"], algs["pauli"], algs["pauli_pauli"])
        return {
            "systems": {"qubit": _system_json("pauli", sys1), "qubit_b": _system_json("pauli", sys2)},
            "composites": {"pair": {"systems": ["qubit", "qubit_b"], "E12": e12.tolist()}},
            "analysis": dict(analysis, system="qubit", composite="pair"),
        }
    if workload == "gellmann-dense":
        return {
            "systems": {"qutrit": _system_json(algs["qutrit"].constants_json, draw_system(rng, algs["qutrit"]))},
            "analysis": dict(analysis, system="qutrit"),
        }
    if workload == "composite-35":
        big = draw_system(rng, algs["pauli_qutrit"])
        sys1 = draw_system(rng, algs["pauli"])
        sys2 = draw_system(rng, algs["qutrit"])
        e12 = rng.uniform(-0.5, 0.5, (3, 8))
        return {
            "systems": {
                "qubit": _system_json("pauli", sys1),
                "qutrit": _system_json(algs["qutrit"].constants_json, sys2),
                "qubit_qutrit": _system_json(algs["pauli_qutrit"].constants_json, big),
            },
            "composites": {"pair": {"systems": ["qubit", "qutrit"], "E12": e12.tolist()}},
            "analysis": dict(analysis, system="qubit_qutrit", composite="pair", budget=16),
        }
    raise ValueError("unknown workload %r" % workload)
