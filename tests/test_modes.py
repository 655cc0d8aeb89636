import numpy as np
import pytest

from quasilin import composite, model, modes, qsde
from conftest import gell_mann_constants

BJ = np.array([[0.0, 1.0], [-1.0, 0.0]])
PAULI = model.pauli_constants()
QUTRIT = gell_mann_constants(3)


def test_reference_frequencies(worked, pauli):
    _, coeffs = worked
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    np.testing.assert_allclose(md.omegas, [2.0, 0.0, -2.0], atol=1e-12)
    assert abs(modes.oscillation_period(md) - np.pi) < 1e-12


def test_frequencies_scale_with_energy(pauli):
    rng = np.random.default_rng(4)
    for _ in range(10):
        e = rng.uniform(-1.0, 1.0, 3)
        spec = qsde.system_spec(pauli, e, np.zeros((2, 3)), np.zeros(2))
        a0 = qsde.build_coefficients(spec).a0
        md = modes.eigenmodes(a0, pauli.alpha)
        assert abs(md.omegas[0] - 2.0 * np.linalg.norm(e)) < 1e-10
        # eigenvalues of the isolated drift are exactly i omega
        ev = np.sort_complex(np.linalg.eigvals(a0))
        np.testing.assert_allclose(np.sort(ev.imag), np.sort(md.omegas), atol=1e-9)
        assert np.abs(ev.real).max() < 1e-10


def test_transformation_is_unitary(worked, pauli):
    _, coeffs = worked
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    np.testing.assert_allclose(md.vectors.conj().T @ md.vectors, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(md.sigma @ md.sigma_inv, np.eye(3), atol=1e-12)


def test_phase_convention_is_deterministic(worked, pauli):
    _, coeffs = worked
    m1 = modes.eigenmodes(coeffs.a0, pauli.alpha)
    m2 = modes.eigenmodes(coeffs.a0, pauli.alpha)
    np.testing.assert_array_equal(m1.vectors, m2.vectors)
    for k in range(3):
        col = m1.vectors[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0.0


def test_conjugate_pairing(pauli):
    rng = np.random.default_rng(17)
    e = rng.uniform(-1.0, 1.0, 3)
    spec = qsde.system_spec(pauli, e, np.zeros((2, 3)), np.zeros(2))
    md = modes.eigenmodes(qsde.build_coefficients(spec).a0, pauli.alpha)
    np.testing.assert_allclose(md.vectors[:, 2], md.vectors[:, 0].conj(), atol=1e-12)
    assert abs(md.omegas[2] + md.omegas[0]) < 1e-12


def test_zero_mode_vector_is_real(worked, pauli):
    _, coeffs = worked
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    zero_cols = [k for k, om in enumerate(md.omegas) if abs(om) <= md.zero_tol]
    assert len(zero_cols) == 1
    assert np.abs(md.vectors[:, zero_cols[0]].imag).max() < 1e-12


def test_mode_rows_rotate_under_isolated_flow(worked, pauli):
    """d/dt rows = -omega BJ rows along dx/dt = A0 x, a clockwise rotation."""
    _, coeffs = worked
    md = modes.eigenmodes(coeffs.a0, pauli.alpha)
    rotating = md.omegas > md.zero_tol
    static = np.abs(md.omegas) <= md.zero_tol
    assert rotating.sum() == 1 and static.sum() == 1
    for om, row in zip(md.omegas[rotating], md.sigma_inv[rotating]):
        rows = np.vstack([row.real, row.imag])
        np.testing.assert_allclose(rows @ coeffs.a0, -om * BJ @ rows, atol=1e-10)
    for row in md.sigma_inv[static]:
        np.testing.assert_allclose(row.real @ coeffs.a0, np.zeros(3), atol=1e-10)


def test_upsilon_antisymmetric_and_refusals(worked, pauli):
    _, coeffs = worked
    ups = modes._solve_upsilon(coeffs.a0, pauli.alpha)
    np.testing.assert_allclose(ups, -ups.T, atol=1e-12)
    # the damped drift is not an isolated flow
    with pytest.raises(ValueError, match="A0 is not Hamiltonian-only$"):
        modes.eigenmodes(coeffs.a, pauli.alpha)
    # degenerate alpha is refused
    with pytest.raises(ValueError):
        modes.eigenmodes(coeffs.a0, np.diag([1.0, 1.0, 0.0]))


def test_eigenmodes_factors_alpha_once_and_keeps_refusals(worked, pauli, monkeypatch):
    _, coeffs = worked
    real = np.linalg.eigh
    factored = []

    def counting(x, *args, **kwargs):
        factored.append(np.array_equal(x, pauli.alpha))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    modes.eigenmodes(coeffs.a0, pauli.alpha)
    assert factored.count(True) == 1
    with pytest.raises(ValueError, match="^alpha must be real symmetric$"):
        modes.eigenmodes(coeffs.a0, np.triu(np.ones((3, 3))))
    with pytest.raises(ValueError, match="^alpha is not positive definite"):
        modes.eigenmodes(coeffs.a0, np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="not antisymmetric"):
        modes.eigenmodes(coeffs.a, pauli.alpha)


def test_no_positive_frequency_has_no_period(pauli):
    spec = qsde.system_spec(pauli, np.zeros(3), np.zeros((2, 3)), np.zeros(2))
    md = modes.eigenmodes(qsde.build_coefficients(spec).a0, pauli.alpha)
    np.testing.assert_allclose(md.omegas, np.zeros(3), atol=1e-15)
    assert modes.oscillation_period(md) is None


def repair_eigenmodes(a0, alpha):
    """Reference (omegas, V): a complex eigh of -i sqrt(alpha) Upsilon sqrt(alpha),
    then the phase, a real static basis and the conjugate partners repaired
    column by column."""
    root, iroot = modes._alpha_roots(alpha)
    ups = modes._solve_upsilon(a0, alpha)
    herm = -1j * root @ ups @ root
    herm = (herm + herm.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    order = np.argsort(-w, kind="stable")
    omegas = w[order]
    v = v[:, order].astype(complex)
    n = len(omegas)
    zero_tol = 1e-9 * max(1.0, float(np.max(np.abs(omegas))))
    for k in range(n):
        col = v[:, k]
        lead = col[int(np.argmax(np.abs(col)))]
        v[:, k] = col * (np.conj(lead) / abs(lead))
    zero_idx = np.where(np.abs(omegas) <= zero_tol)[0]
    if len(zero_idx):
        block = v[:, zero_idx]
        u, _, _ = np.linalg.svd(np.hstack([block.real, block.imag]), full_matrices=False)
        for i, k in enumerate(zero_idx):
            col = u[:, i]
            v[:, k] = col * np.sign(col[int(np.argmax(np.abs(col)))])
    neg_idx = [int(k) for k in np.where(omegas < -zero_tol)[0]]
    for k in np.where(omegas > zero_tol)[0]:
        j = min(neg_idx, key=lambda i: abs(omegas[i] + omegas[k]))
        v[:, j] = np.conj(v[:, int(k)])
        neg_idx.remove(j)
    return omegas, v


def _system_a0(constants, energy):
    spec = qsde.system_spec(constants, energy, np.zeros((2, constants.n)))
    return qsde.build_coefficients(spec).a0


def _composite_a0(rng, c2):
    s1 = qsde.system_spec(PAULI, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (2, 3)), rng.uniform(-1, 1, 2))
    s2 = qsde.system_spec(c2, rng.uniform(-1, 1, c2.n), rng.uniform(-1, 1, (2, c2.n)), rng.uniform(-1, 1, 2))
    spec = composite.composite_spec(s1, s2, rng.uniform(-1, 1, (3, c2.n)))
    return composite.composite_coefficients(spec).a0, composite.augment_constants(PAULI, c2).alpha


def _mode_draw(name):
    """(A0, alpha, number of static modes) of a named draw."""
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "pauli":
        return _system_a0(PAULI, rng.uniform(-1, 1, 3)), PAULI.alpha, 1
    if name == "pauli-E0":
        return _system_a0(PAULI, np.zeros(3)), PAULI.alpha, 3
    if name == "gell-mann-3":
        return _system_a0(QUTRIT, rng.uniform(-1, 1, 8)), QUTRIT.alpha, 2
    if name == "gell-mann-4":
        c = gell_mann_constants(4)
        return _system_a0(c, rng.uniform(-1, 1, 15)), c.alpha, 3
    if name == "qutrit-repeated":
        # E on the last diagonal generator only: levels (1, 1, -2), so the two
        # rotating pairs share one frequency and four modes are static
        return _system_a0(QUTRIT, 0.7 * np.eye(8)[-1]), QUTRIT.alpha, 4
    if name == "PxP":
        return (*_composite_a0(rng, PAULI), 3)
    return (*_composite_a0(rng, QUTRIT), 5)


MODE_DRAWS = ["pauli", "pauli-E0", "gell-mann-3", "gell-mann-4", "qutrit-repeated", "PxP", "PxG3"]


@pytest.mark.parametrize("name", MODE_DRAWS)
def test_schur_modes_match_eigh_reference(name):
    a0, alpha, _ = _mode_draw(name)
    md = modes.eigenmodes(a0, alpha)
    omegas, v = repair_eigenmodes(a0, alpha)
    scale = max(1.0, float(np.max(np.abs(omegas))))
    assert np.max(np.abs(md.omegas - omegas)) <= 1e-12 * scale
    # clusters of equal reference frequency; a simple one must match vector by vector
    edges = np.flatnonzero(np.diff(omegas) < -1e-9 * scale) + 1
    for cluster in np.split(np.arange(len(omegas)), edges):
        ours, ref = md.vectors[:, cluster], v[:, cluster]
        np.testing.assert_allclose(ours @ ours.conj().T, ref @ ref.conj().T, rtol=0, atol=1e-12)
        if len(cluster) == 1:
            np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", MODE_DRAWS)
def test_mode_conventions_hold_exactly(name):
    a0, alpha, static_count = _mode_draw(name)
    md = modes.eigenmodes(a0, alpha)
    v, om = md.vectors, md.omegas
    static = om == 0.0
    assert np.count_nonzero(static) == static_count
    assert np.all(v[:, static].imag == 0.0)
    n = len(om)
    for k in np.flatnonzero(om > 0.0):
        assert om[n - 1 - k] == -om[k]
        assert np.array_equal(v[:, n - 1 - k], np.conj(v[:, k]))
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(n)]
    assert np.all(lead.imag == 0.0) and np.all(lead.real > 0.0)


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda t, q: (t, 1.01 * q), "^eigenbasis lost orthonormality$"),
        (lambda t, q: (1.5 * t, q), "^eigendecomposition failed to reproduce A0$"),
    ],
    ids=["orthonormality", "reconstruction"],
)
def test_eigenmodes_refuse_a_faulty_schur_form(worked, pauli, monkeypatch, fault, message):
    # a Schur form off by a scale, as a numerical fault would leave it: the
    # basis check catches scaled vectors, the reconstruction scaled frequencies
    _, coeffs = worked
    real = modes.schur
    monkeypatch.setattr(modes, "schur", lambda s, output: fault(*real(s, output=output)))
    with pytest.raises(ValueError, match=message):
        modes.eigenmodes(coeffs.a0, pauli.alpha)
