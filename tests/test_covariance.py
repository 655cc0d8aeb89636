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


def _swap(n1, n2):
    # index map of P: (X1, X2, X1 (x) X2) -> (X2, X1, X2 (x) X1), products j-outer
    j, k = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    return np.concatenate([np.arange(n1, n1 + n2), np.arange(n1), n1 + n2 + (j * n2 + k).T.ravel()])


def _spec(rng, constants):
    n = constants.n
    return qsde.system_spec(constants, rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, (2, n)), rng.uniform(-1.0, 1.0, 2))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([("pauli", "qutrit"), ("qutrit", "pauli"), ("pauli", "pauli")]), st.integers(0, 2**32 - 1))
def test_composite_factor_swap_permutes_the_analyses(names, seed):
    # (S1, S2, E12) and (S2, S1, E12^T) are one composite in permuted
    # variables x' = P x: the product constants permute, and A' = P A P^T,
    # b' = P b and mu*' = P mu* on the block and the generic path, while the
    # frequencies and tau* do not move
    c1, c2 = (ALGEBRAS[name] for name in names)
    rng = np.random.default_rng(seed)
    s1, s2 = _spec(rng, c1), _spec(rng, c2)
    e12 = rng.uniform(-1.0, 1.0, (c1.n, c2.n))
    spec, swapped = composite.composite_spec(s1, s2, e12), composite.composite_spec(s2, s1, e12.T)
    blocks = composite.composite_coefficients(spec)
    assume(qsde.spectral_abscissa(blocks.a) < -1e-3)
    idx = _swap(c1.n, c2.n)
    n = len(idx)

    c, c_swapped = composite.augment_constants(c1, c2), composite.augment_constants(c2, c1)
    np.testing.assert_array_equal(c_swapped.alpha, c.alpha[np.ix_(idx, idx)])
    np.testing.assert_array_equal(c_swapped.beta, c.beta[np.ix_(idx, idx, idx)])
    # product constants are sparse: the sparse fill checks them
    assert model._SPARSE_GAIN * model._join_products(n, model._nonzeros(c_swapped.beta)) <= n**5
    assert model.validate(c_swapped).passed

    for build in (composite.composite_coefficients, lambda s: qsde.build_coefficients(composite.augmented_system(s))):
        coeffs, coeffs_s = build(spec), build(swapped)
        _close(coeffs_s.a, coeffs.a[np.ix_(idx, idx)])
        _close(coeffs_s.b, coeffs.b[idx])
        mu, mu_s = qsde.steady_mean(coeffs), qsde.steady_mean(coeffs_s)
        _close(mu_s, mu[idx])
        _close(modes.eigenmodes(coeffs_s.a0, c_swapped.alpha).omegas, modes.eigenmodes(coeffs.a0, c.alpha).omegas)
        tau = decoherence.tau_star(coeffs.a, model.dot_product(c.theta, mu))
        tau_s = decoherence.tau_star(coeffs_s.a, model.dot_product(c_swapped.theta, mu_s))
        assert abs(tau_s - tau) <= 1e-9 * tau
