"""Covariance under an orthogonal change of variables X' = R X.

The constants become alpha' = R alpha R^T and beta'_l = sum_m R_lm R beta_m R^T,
and E' = R E, M' = M R^T (N kept) describe the same system in the new
variables.  Its mean flow covaries, A' = R A R^T, b' = R b and mu*' = R mu*,
while the frequencies of A0 and tau* do not move: the CCR matrix becomes
R Z0 R^T and ||R e^{tau A} Z0 R^T||_F = ||e^{tau A} Z0||_F.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from quasilin import composite, decoherence, model, modes, qsde
from conftest import gell_mann_constants

ALGEBRAS = {
    "pauli": model.pauli_constants(),
    "qutrit": gell_mann_constants(3),
    "pauli_pauli": composite.augment_constants(model.pauli_constants(), model.pauli_constants()),
}


def _analyses(spec):
    coeffs = qsde.build_coefficients(spec)
    mu = qsde.steady_mean(coeffs)
    omegas = modes.eigenmodes(coeffs.a0, spec.constants.alpha).omegas
    return coeffs, mu, omegas, decoherence.tau_star(coeffs.a, model.dot_product(spec.constants.theta, mu))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, float(np.max(np.abs(want)))))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.integers(0, 2**32 - 1))
def test_orthogonal_rotation_covaries_the_analyses(name, seed):
    constants = ALGEBRAS[name]
    n = constants.n
    rng = np.random.default_rng(seed)
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    energy, coupling, offset = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (2, n)), rng.uniform(-1.0, 1.0, 2)
    spec = qsde.system_spec(constants, energy, coupling, offset)
    assume(qsde.spectral_abscissa(qsde.build_coefficients(spec).a) < -1e-3)

    beta = np.einsum("lm,aj,mjk,bk->lab", r, r, constants.beta, r)
    rotated = model.structure_constants(r @ constants.alpha @ r.T, beta)
    # dense constants: the dense fill checks them, also where the original
    # (Pauli x Pauli) takes the sparse fill
    assert model._SPARSE_GAIN * model._join_products(n, model._nonzeros(rotated.beta)) > n**5
    assert model.validate(rotated).passed

    coeffs, mu, omegas, tau = _analyses(spec)
    coeffs_r, mu_r, omegas_r, tau_r = _analyses(qsde.system_spec(rotated, r @ energy, coupling @ r.T, offset))
    _close(coeffs_r.a, r @ coeffs.a @ r.T)
    _close(coeffs_r.b, r @ coeffs.b)
    _close(mu_r, r @ mu)
    _close(omegas_r, omegas)
    assert abs(tau_r - tau) <= 1e-9 * tau
