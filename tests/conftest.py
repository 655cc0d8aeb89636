import glob
import os

import numpy as np
import pytest

from quasilin import model, qsde

# one line per acceptance criterion, printed in the terminal summary so the
# pass/fail table survives output capturing
ACCEPTANCE_LINES = []


SRC = os.path.join(os.path.dirname(__file__), "..", "src", "quasilin")


def pytest_terminal_summary(terminalreporter):
    # the package size, tracked from run to run alongside the test results
    modules = sorted(glob.glob(os.path.join(SRC, "*.py")))
    lines = 0
    for path in modules:
        with open(path) as f:
            lines += sum(1 for _ in f)
    terminalreporter.write_line("src/quasilin: %d lines in %d modules" % (lines, len(modules)))
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pauli():
    return model.pauli_constants()


@pytest.fixture(scope="session")
def worked(pauli):
    """Reference qubit system used throughout: E = e3, two field channels."""
    spec = qsde.system_spec(
        pauli,
        [0.0, 0.0, 1.0],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        [0.0, 0.0],
    )
    return spec, qsde.build_coefficients(spec)


def random_pauli_spec(rng, m=2, scale=1.0):
    constants = model.pauli_constants()
    return qsde.system_spec(
        constants,
        rng.uniform(-1.0, 1.0, 3),
        scale * rng.uniform(-1.0, 1.0, (m, 3)),
        scale * rng.uniform(-1.0, 1.0, m),
    )


def random_stable_pauli_spec(rng, m=2, margin=1e-3, max_tries=200):
    # rejection sample until the drift is safely Hurwitz
    for _ in range(max_tries):
        spec = random_pauli_spec(rng, m=m)
        if qsde.spectral_abscissa(qsde.build_coefficients(spec).a) < -margin:
            return spec
    raise RuntimeError("no Hurwitz sample found")


def gell_mann_matrices(d):
    # generalized Gell-Mann matrices, Tr(X_j X_k) = 2 delta_jk
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k], asym[k, j] = -1j, 1j
            mats += [sym, asym]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l], diag[l] = 1.0, -l
        mats.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return np.array(mats)


def gell_mann_constants(d):
    # exact constants of the Gell-Mann matrices: alpha_jk = Tr(X_j X_k) / d,
    # beta_ljk = Tr(X_l X_j X_k) / 2
    x = gell_mann_matrices(d)
    alpha = np.einsum("jab,kba->jk", x, x).real / d
    beta = np.einsum("lab,jbc,kca->ljk", x, x, x) / 2.0
    return model.structure_constants(alpha, beta)


def rotated_pauli_constants(seed, scale):
    """Pauli constants in the basis X'_a = scale sum_i R[a, i] sigma_i, R a
    seeded orthogonal matrix: a closed algebra whose constants grow like
    scale^2 and whose composites' closure residual rounds like scale^6 eps."""
    r, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    pauli = model.pauli_constants()
    beta = scale * np.einsum("ji,kl,am,mil->ajk", r, r, r, pauli.beta)
    return model.structure_constants(scale**2 * r @ pauli.alpha @ r.T, beta)
