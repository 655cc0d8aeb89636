import os

import numpy as np
import pytest

from quasilin import cli, composite, model, modes, oracle, qsde, weak
from conftest import gell_mann_constants, gell_mann_matrices, random_pauli_spec, rotated_pauli_constants

REPO_CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "pauli.json")
PAULI = model.pauli_constants()
QUTRIT = gell_mann_constants(3)
TRIVIAL = model.structure_constants([[1.0]], [[[1.0]]])


def random_composite(rng, m1=2, m2=2, e12_scale=1.0):
    s1 = random_pauli_spec(rng, m=m1)
    s2 = random_pauli_spec(rng, m=m2)
    return composite.composite_spec(s1, s2, e12_scale * rng.uniform(-1.0, 1.0, (3, 3)))


def test_augmented_pauli_pair_constants(pauli):
    aug = composite.augment_constants(pauli, pauli)
    assert aug.n == 15
    expected_alpha = np.zeros((15, 15))
    expected_alpha[:3, :3] = np.eye(3)
    expected_alpha[3:6, 3:6] = np.eye(3)
    expected_alpha[6:, 6:] = np.kron(np.eye(3), np.eye(3))
    np.testing.assert_allclose(aug.alpha, expected_alpha, atol=1e-14)
    assert model.validate(aug).passed


def test_augmented_trivial_factor_constants(pauli):
    triv = model.structure_constants([[1.0]], [[[1.0]]])
    aug = composite.augment_constants(pauli, triv)
    assert aug.n == 7
    assert model.validate(aug).passed


def loop_augment_constants(c1, c2):
    """Reference: the stacked (X1, X2, X1 (x) X2) constants product by product."""
    n1, n2 = c1.n, c2.n
    n = n1 + n2 + n1 * n2
    a1, a2 = np.real(c1.alpha), np.real(c2.alpha)
    b1, b2 = c1.beta, c2.beta

    alpha = np.zeros((n, n))
    alpha[:n1, :n1] = a1
    alpha[n1 : n1 + n2, n1 : n1 + n2] = a2
    alpha[n1 + n2 :, n1 + n2 :] = np.kron(a1, a2)

    def t(j, k):
        return n1 + n2 + j * n2 + k

    beta = np.zeros((n, n, n), dtype=complex)
    beta[:n1, :n1, :n1] = b1
    beta[n1 : n1 + n2, n1 : n1 + n2, n1 : n1 + n2] = b2

    for j in range(n1):
        for k in range(n2):
            # X1_j X2_k and X2_k X1_j are both the product variable
            beta[t(j, k), j, n1 + k] = 1.0
            beta[t(j, k), n1 + k, j] = 1.0

    for j in range(n1):
        for p in range(n1):
            for q in range(n2):
                # X1_j X12_(p,q) = alpha1_jp X2_q + sum_l beta1_jpl X12_(l,q)
                beta[n1 + q, j, t(p, q)] += a1[j, p]
                beta[n1 + q, t(p, q), j] += a1[p, j]
                for l in range(n1):
                    beta[t(l, q), j, t(p, q)] += b1[l, j, p]
                    beta[t(l, q), t(p, q), j] += b1[l, p, j]

    for k in range(n2):
        for p in range(n1):
            for q in range(n2):
                # X2_k X12_(p,q) = alpha2_kq X1_p + sum_l beta2_kql X12_(p,l)
                beta[p, n1 + k, t(p, q)] += a2[k, q]
                beta[p, t(p, q), n1 + k] += a2[q, k]
                for l in range(n2):
                    beta[t(p, l), n1 + k, t(p, q)] += b2[l, k, q]
                    beta[t(p, l), t(p, q), n1 + k] += b2[l, q, k]

    for p in range(n1):
        for q in range(n2):
            for r in range(n1):
                for s in range(n2):
                    # X12_(p,q) X12_(r,s): identity part sits in alpha already
                    for j in range(n1):
                        beta[j, t(p, q), t(r, s)] += a2[q, s] * b1[j, p, r]
                    for k in range(n2):
                        beta[n1 + k, t(p, q), t(r, s)] += a1[p, r] * b2[k, q, s]
                    for j in range(n1):
                        for k in range(n2):
                            beta[t(j, k), t(p, q), t(r, s)] += b1[j, p, r] * b2[k, q, s]
    return alpha, beta


@pytest.mark.parametrize(
    "c1, c2",
    [(PAULI, PAULI), (PAULI, QUTRIT), (QUTRIT, PAULI), (QUTRIT, QUTRIT), (PAULI, TRIVIAL), (TRIVIAL, PAULI)],
    ids=["PxP", "PxG3", "G3xP", "G3xG3", "Pxtrivial", "trivialxP"],
)
def test_augment_constants_matches_product_loop(c1, c2):
    alpha, beta = loop_augment_constants(c1, c2)
    aug = composite.augment_constants(c1, c2)
    assert np.array_equal(aug.alpha, alpha)
    assert np.array_equal(aug.beta, beta)


def test_augment_energy_tail_convention():
    e12 = np.outer(np.eye(3)[0], np.eye(3)[0])
    s0 = qsde.system_spec(PAULI, np.zeros(3), np.zeros((2, 3)))
    e = composite.augmented_system(composite.composite_spec(s0, s0, e12)).energy
    assert e.shape == (15,)
    assert e[6] == 1.0 and np.count_nonzero(e) == 1
    # round trip
    np.testing.assert_array_equal(e[6:].reshape(3, 3), e12)


def test_block_assembly_matches_generic_path(pauli):
    """The dedicated block formulas and the generic construction on the
    augmented data must produce the same drift, offset and dispersion."""
    rng = np.random.default_rng(8)
    for _ in range(3):
        spec = random_composite(rng, m1=4, m2=2)
        blocks = composite.composite_coefficients(spec)
        augmented = composite.augmented_system(spec)
        generic = qsde.build_coefficients(augmented)
        np.testing.assert_allclose(blocks.a, generic.a, atol=1e-10)
        np.testing.assert_allclose(blocks.a0, generic.a0, atol=1e-10)
        np.testing.assert_allclose(blocks.b, generic.b, atol=1e-10)
        x = rng.uniform(-1.0, 1.0, 15)
        np.testing.assert_allclose(
            composite.composite_dispersion(spec, x),
            qsde.dispersion(augmented, x),
            atol=1e-10,
        )


def random_spec(rng, constants, coupled=True):
    n = constants.n
    scale = 1.0 if coupled else 0.0
    return qsde.system_spec(
        constants, rng.uniform(-1.0, 1.0, n), scale * rng.uniform(-1.0, 1.0, (2, n)), scale * rng.uniform(-1.0, 1.0, 2)
    )


@pytest.mark.parametrize("c1, c2", [(PAULI, QUTRIT), (QUTRIT, PAULI)], ids=["PxG3", "G3xP"])
@pytest.mark.parametrize("coupled", [(True, True), (True, False), (False, True)], ids=["both", "first", "second"])
def test_block_assembly_unequal_factors(c1, c2, coupled):
    """Factors of different size: block drift, offset and dispersion against
    the generic path, with both factors coupled and with one at M = N = 0."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        s1 = random_spec(rng, c1, coupled[0])
        s2 = random_spec(rng, c2, coupled[1])
        spec = composite.composite_spec(s1, s2, rng.uniform(-1.0, 1.0, (c1.n, c2.n)))
        blocks = composite.composite_coefficients(spec)
        augmented = composite.augmented_system(spec)
        generic = qsde.build_coefficients(augmented)
        np.testing.assert_allclose(blocks.a, generic.a, atol=1e-12)
        np.testing.assert_allclose(blocks.a0, generic.a0, atol=1e-12)
        np.testing.assert_allclose(blocks.b, generic.b, atol=1e-12)
        x = rng.uniform(-1.0, 1.0, blocks.n)
        np.testing.assert_allclose(
            composite.composite_dispersion(spec, x), qsde.dispersion(augmented, x), atol=1e-12
        )


def test_block_assembly_forms_no_augmented_data(monkeypatch):
    """The block drift is built from the factors alone: with the tensor
    constants and the paired coupling out of reach it still matches the
    generic path."""
    rng = np.random.default_rng(12)
    spec = composite.composite_spec(random_spec(rng, PAULI), random_spec(rng, QUTRIT), rng.uniform(-1.0, 1.0, (3, 8)))
    generic = qsde.build_coefficients(composite.augmented_system(spec))

    def refuse(*args):
        raise RuntimeError("the block path formed augmented data")

    monkeypatch.setattr(composite, "augment_constants", refuse)
    monkeypatch.setattr(composite, "_paired_coupling", refuse)
    blocks = composite.composite_coefficients(spec)
    for field in ("a", "a0", "atilde", "b"):
        np.testing.assert_allclose(getattr(blocks, field), getattr(generic, field), atol=1e-12)


@pytest.mark.parametrize("c1, c2", [(PAULI, PAULI), (PAULI, QUTRIT), (QUTRIT, PAULI)], ids=["PxP", "PxG3", "G3xP"])
def test_product_row_equals_kron_blocks(c1, c2):
    """With E12 = 0 the product row of A is exactly the np.kron b-columns and
    Kronecker sum of the factor drifts, bit for bit."""
    rng = np.random.default_rng(13)
    s1, s2 = random_spec(rng, c1), random_spec(rng, c2)
    blocks = composite.composite_coefficients(composite.composite_spec(s1, s2, np.zeros((c1.n, c2.n))))
    co1, co2 = qsde.build_coefficients(s1), qsde.build_coefficients(s2)
    i1, i2 = np.eye(c1.n), np.eye(c2.n)
    row = blocks.a[c1.n + c2.n :]
    assert np.array_equal(row[:, : c1.n], np.kron(i1, co2.b[:, None]))
    assert np.array_equal(row[:, c1.n : c1.n + c2.n], np.kron(co1.b[:, None], i2))
    assert np.array_equal(row[:, c1.n + c2.n :], np.kron(co1.a, i2) + np.kron(i1, co2.a))
    assert np.array_equal(blocks.a0[c1.n + c2.n :, c1.n + c2.n :], np.kron(co1.a0, i2) + np.kron(i1, co2.a0))


@pytest.mark.parametrize("qubit_first", [True, False], ids=["PxG3", "G3xP"])
def test_tensor_oracle_on_qubit_qutrit_composite(qubit_first):
    """Generator identity on the d = 6 representation built from explicit
    Pauli and Gell-Mann matrices."""
    qubit = oracle.pauli_representation()
    qutrit = oracle.HilbertRep(dim=3, variables=tuple(gell_mann_matrices(3)), constants=QUTRIT)
    rep1, rep2 = (qubit, qutrit) if qubit_first else (qutrit, qubit)
    trep = oracle.tensor_representation(rep1, rep2, composite.augment_constants(rep1.constants, rep2.constants))
    assert trep.dim == 6 and trep.constants.n == 35
    assert oracle.representation_check(trep) < 1e-12
    rng = np.random.default_rng(12)
    for coupled in ((True, True), (True, False), (False, True)):
        s1 = random_spec(rng, rep1.constants, coupled[0])
        s2 = random_spec(rng, rep2.constants, coupled[1])
        spec = composite.composite_spec(s1, s2, rng.uniform(-1.0, 1.0, (rep1.constants.n, rep2.constants.n)))
        co = composite.composite_coefficients(spec)
        assert oracle.generator_identity_check(trep, composite.augmented_system(spec), co) < 1e-10


@pytest.mark.parametrize("argv", [["composite"], ["oracle", "--composite"]], ids=["composite", "oracle-composite"])
def test_composite_commands_validate_augmented_constants_once(argv, tmp_path, monkeypatch):
    """Each command builds the product once (the oracle's representation is
    handed the augmented system's constants); the n = 15 product is never
    validated and each n = 3 factor is validated once."""
    calls, built = [], []
    real_validate, real_augment = model.validate, composite.augment_constants

    def counting(constants, *args, **kwargs):
        calls.append(constants.n)
        return real_validate(constants, *args, **kwargs)

    def augment(*args):
        built.append(args)
        return real_augment(*args)

    monkeypatch.setattr(model, "validate", counting)
    monkeypatch.setattr(composite, "validate", counting)
    monkeypatch.setattr(composite, "augment_constants", augment)
    assert cli.main([argv[0], "--config", REPO_CONFIG, "--out", str(tmp_path)] + argv[1:]) == 0
    assert len(built) == 1
    assert calls == [3, 3]


def test_composite_command_builds_three_coefficient_sets(tmp_path, monkeypatch):
    """One build per factor for the block path and one for the generic path."""
    calls = []
    real = qsde.build_coefficients

    def counting(spec):
        calls.append(spec.constants.n)
        return real(spec)

    monkeypatch.setattr(qsde, "build_coefficients", counting)
    monkeypatch.setattr(composite, "build_coefficients", counting)
    assert cli.main(["composite", "--config", REPO_CONFIG, "--out", str(tmp_path)]) == 0
    assert sorted(calls) == [3, 3, 15]


def test_decoupled_composite_is_block_diagonal(pauli):
    rng = np.random.default_rng(2)
    e1 = rng.uniform(-1.0, 1.0, 3)
    e2 = rng.uniform(-1.0, 1.0, 3)
    s1 = qsde.system_spec(pauli, e1, np.zeros((2, 3)), np.zeros(2))
    s2 = qsde.system_spec(pauli, e2, np.zeros((2, 3)), np.zeros(2))
    spec = composite.composite_spec(s1, s2, np.zeros((3, 3)))
    co = composite.composite_coefficients(spec)
    a1 = qsde.build_coefficients(s1).a0
    a2 = qsde.build_coefficients(s2).a0
    expected = np.zeros((15, 15))
    expected[:3, :3] = a1
    expected[3:6, 3:6] = a2
    expected[6:, 6:] = np.kron(a1, np.eye(3)) + np.kron(np.eye(3), a2)
    np.testing.assert_allclose(co.a, expected, atol=1e-12)
    np.testing.assert_allclose(co.b, np.zeros(15), atol=1e-14)


def test_composite_isolated_spectrum_is_imaginary(pauli):
    rng = np.random.default_rng(3)
    spec = random_composite(rng)
    co = composite.composite_coefficients(spec)
    ev = np.linalg.eigvals(co.a0)
    assert np.abs(ev.real).max() < 1e-9
    e_aug = composite.augmented_system(spec).energy
    assert np.abs(e_aug @ co.a0).max() < 1e-10


def test_tensor_oracle_on_composite(pauli):
    rng = np.random.default_rng(4)
    spec = random_composite(rng)
    rep = oracle.pauli_representation()
    trep = oracle.tensor_representation(rep, rep, composite.augment_constants(pauli, pauli))
    assert oracle.representation_check(trep) < 1e-12
    co = composite.composite_coefficients(spec)
    aug = composite.augmented_system(spec)
    assert oracle.generator_identity_check(trep, aug, co) < 1e-10


def test_composite_weak_split(pauli):
    rng = np.random.default_rng(5)
    spec = random_composite(rng)
    unit = composite.composite_coefficients(spec)

    def at_strength(eps):
        # field couplings scaled by eps, E12 untouched
        scaled = composite.composite_spec(spec.sys1.at_strength(eps), spec.sys2.at_strength(eps), spec.direct_coupling)
        return composite.composite_coefficients(scaled)

    for eps in (0.1, 0.5):
        scaled = at_strength(eps)
        a_eps = unit.a0 + eps**2 * unit.atilde
        np.testing.assert_allclose(a_eps, scaled.a, atol=1e-12)
        np.testing.assert_allclose(eps**2 * unit.b, scaled.b, atol=1e-12)
        np.testing.assert_allclose(scaled.a0 + scaled.atilde, a_eps, atol=1e-12)
    # the direct coupling lives in the isolated part, not the scaled part
    np.testing.assert_allclose(at_strength(0.0).a, unit.a0, atol=1e-14)
    assert np.abs(unit.a0[:3, 6:]).max() > 0.0


def test_composite_zero_frequency_multiplicity_is_three(pauli):
    """Structural fact: a generic coupled pair keeps a three dimensional
    frozen subspace (the two mode anchors plus their product direction), so
    the invariant-limit path must refuse on multiplicity."""
    aug_pp = composite.augment_constants(pauli, pauli)
    triv = model.structure_constants([[1.0]], [[[1.0]]])
    aug_pt = composite.augment_constants(pauli, triv)
    rng = np.random.default_rng(9)
    for factor2, aug in ((None, aug_pp), (triv, aug_pt)):
        s1 = random_pauli_spec(rng, m=2)
        if factor2 is None:
            s2 = random_pauli_spec(rng, m=2)
            e12 = rng.uniform(-1.0, 1.0, (3, 3))
        else:
            s2 = qsde.system_spec(triv, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, (2, 1)))
            e12 = rng.uniform(-1.0, 1.0, (3, 1))
        spec = composite.composite_spec(s1, s2, e12)
        coeffs = composite.composite_coefficients(spec)
        md = modes.eigenmodes(coeffs.a0, aug.alpha)
        zero_count = int(np.sum(md.omegas == 0))
        assert zero_count == 3
        with pytest.raises(ValueError, match="multiplicity|zero"):
            weak.invariant_mean_limit(coeffs, md)


def test_composite_spec_shape_errors(pauli):
    s1 = random_pauli_spec(np.random.default_rng(1), m=2)
    s2 = random_pauli_spec(np.random.default_rng(2), m=2)
    with pytest.raises(ValueError):
        composite.composite_spec(s1, s2, np.zeros((3, 2)))


def test_augment_constants_refuses_a_broken_factor(pauli):
    broken = model.structure_constants(pauli.alpha, pauli.beta + 1e-6j)
    for position, pair in ((1, (broken, pauli)), (2, (pauli, broken))):
        message = r"^factor %d constants fail validation \(\d+ violations, first \('beta-herm'" % position
        with pytest.raises(ValueError, match=message):
            composite.augment_constants(*pair)


@pytest.mark.parametrize("scale", [1, 3, 10, 30])
def test_augment_constants_accepts_exactly_when_both_factors_pass(scale):
    """Factors that pass validate give a product, although at scale >= 10 the
    product's own closure residual exceeds validate's absolute 1e-10 by
    rounding alone; a factor broken in either position is refused by number."""
    for seed in range(4):
        good = rotated_pauli_constants(seed, scale)
        assert model.validate(good).passed
        aug = composite.augment_constants(good, rotated_pauli_constants(seed + 4, scale))
        assert aug.n == 15 and model.validate(aug).passed == (scale < 10)
        broken = model.structure_constants(good.alpha, good.beta + 1e-6j * scale)
        assert not model.validate(broken).passed
        for position, pair in ((1, (broken, good)), (2, (good, broken))):
            with pytest.raises(ValueError, match="^factor %d constants fail validation" % position):
                composite.augment_constants(*pair)


def test_composite_dispersion_refuses_a_vector_of_the_wrong_length():
    spec = random_composite(np.random.default_rng(4))
    assert composite.composite_dispersion(spec, np.zeros(15)).shape == (15, 4)
    for length in (14, 16, 6):
        with pytest.raises(ValueError, match="^coefficient vector has wrong length$"):
            composite.composite_dispersion(spec, np.zeros(length))
