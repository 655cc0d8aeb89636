import numpy as np
import pytest

from quasilin import modes, qsde

BJ = np.array([[0.0, 1.0], [-1.0, 0.0]])


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
    coords = modes.mode_coordinates(md, pauli.alpha)
    kinds = [c[0] for c in coords]
    assert kinds.count("rotating") == 1 and kinds.count("static") == 1
    for kind, om, rows in coords:
        if kind == "rotating":
            np.testing.assert_allclose(rows @ coeffs.a0, -om * BJ @ rows, atol=1e-10)
        else:
            np.testing.assert_allclose(rows @ coeffs.a0, np.zeros_like(rows), atol=1e-10)


def test_upsilon_antisymmetric_and_refusals(worked, pauli):
    _, coeffs = worked
    ups = modes.upsilon(coeffs.a0, pauli.alpha)
    np.testing.assert_allclose(ups, -ups.T, atol=1e-12)
    # the damped drift is not an isolated flow
    with pytest.raises(ValueError):
        modes.upsilon(coeffs.a, pauli.alpha)
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
