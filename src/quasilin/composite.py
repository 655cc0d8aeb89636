"""Direct coupling of two quasilinear models.

The composite variable set stacks the two factors plus all cross products
X1_j X2_k, indexed j-outer (slot n1 + n2 + j*n2 + k).  Its closure follows
from the factors'; the composite drift has an explicit block form.  Everything
here is checked elsewhere against the generic path on the augmented constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import StructureConstants, _frozen, _unital, dot_product, structure_constants, validate
from .qsde import QsdeCoefficients, SystemSpec, _finite_array, build_coefficients, system_spec

__all__ = [
    "CompositeSpec",
    "augment_constants",
    "augmented_system",
    "composite_coefficients",
    "composite_dispersion",
    "composite_spec",
]


@dataclass(frozen=True)
class CompositeSpec:
    """Two subsystem specs plus the direct-coupling energy matrix E12.

    The interaction Hamiltonian is sum_jk E12[j, k] X1_j X2_k; the field
    couplings of the factors stay separate.
    """

    sys1: SystemSpec
    sys2: SystemSpec
    direct_coupling: np.ndarray


def composite_spec(sys1: SystemSpec, sys2: SystemSpec, direct_coupling) -> CompositeSpec:
    e12 = _finite_array(direct_coupling, "direct coupling")
    if e12.shape != (sys1.constants.n, sys2.constants.n):
        raise ValueError(
            "direct coupling must be %d x %d, got %r"
            % (sys1.constants.n, sys2.constants.n, e12.shape)
        )
    return CompositeSpec(sys1=sys1, sys2=sys2, direct_coupling=_frozen(e12)[0])


def augment_constants(c1: StructureConstants, c2: StructureConstants) -> StructureConstants:
    """Structure constants of the stacked set (X1, X2, X1 (x) X2).

    Each factor is validated and the first that fails is refused (ValueError);
    the product is not, since at (i, 0) and (0, i') its constants are the
    factors' and a product of closed sets is closed.  The product
    (Y1_j (x) Y2_l)(Y1_k (x) Y2_m) has coefficient u1[a, j, k] u2[b, l, m] on
    Y1_a (x) Y2_b over the pairs (i, 0), (0, i'), (i, i'), j-outer; the (0, 0)
    section is alpha.
    """
    for k, report in enumerate(map(validate, (c1, c2)), 1):
        if not report.passed:
            raise ValueError(
                "factor %d constants fail validation (%d violations, first %r)"
                % (k, report.total, report.violations[0])
            )
    n1, n2 = c1.n, c2.n
    w = n2 + 1
    u12 = np.einsum("ajk,blm->abjlkm", _unital(c1), _unital(c2)).reshape((w * (n1 + 1),) * 3)
    first = w * np.arange(1, n1 + 1)
    idx = np.concatenate([first, np.arange(1, w), (first[:, None] + np.arange(1, w)).ravel()])
    sel = u12[:, idx][:, :, idx]
    return structure_constants(sel[0].real, sel[idx])


def _paired_coupling(spec: CompositeSpec):
    """Composite coupling M and offset N in paired channel order.

    The first halves of both factors' channels come first, then the second
    halves, so that the standard Ito matrix pairs channel r with r + m/2.
    """
    s1, s2 = spec.sys1, spec.sys2
    n1, n2 = s1.constants.n, s2.constants.n
    first = np.arange(s1.m + s2.m) % ((s1.m + s2.m) // 2) < s1.m // 2
    m = np.zeros((s1.m + s2.m, n1 + n2 + n1 * n2))
    m[first, :n1] = s1.coupling
    m[~first, n1 : n1 + n2] = s2.coupling
    offset = np.zeros(s1.m + s2.m)
    offset[first], offset[~first] = s1.offset, s2.offset
    return m, offset


def augmented_system(spec: CompositeSpec) -> SystemSpec:
    """The composite as a single system spec on the augmented constants.

    The energy is (E1, E2, E12 flattened row-major), matching the j-outer
    product index; the channels are in paired order, so the standard Ito
    structure applies.
    """
    c_aug = augment_constants(spec.sys1.constants, spec.sys2.constants)
    e_aug = np.concatenate([spec.sys1.energy, spec.sys2.energy, spec.direct_coupling.ravel()])
    return system_spec(c_aug, e_aug, *_paired_coupling(spec))


def composite_coefficients(spec: CompositeSpec) -> QsdeCoefficients:
    """Drift of the composite assembled block by block.

    Blocks: subsystem drifts on the diagonal; direct-coupling feeds
    F1[i, (j, k)] = 2 (theta1_j E12)_ik and F2[i, (j, k)] = 2 (theta2_k E12^T)_ij
    into the factor rows; the product row carries (I1 (x) b2) + G1,
    (b1 (x) I2) + G2 and the Kronecker sum A1 (+) A2 + G12, with the G blocks
    linear in E12.
    """
    co1 = build_coefficients(spec.sys1)
    co2 = build_coefficients(spec.sys2)
    c1, c2 = spec.sys1.constants, spec.sys2.constants
    n1, n2 = c1.n, c2.n
    n12 = n1 * n2
    th1, th2 = c1.theta, c2.theta
    e12 = spec.direct_coupling
    i1, i2 = np.eye(n1), np.eye(n2)

    f1 = 2.0 * np.einsum("jip,pk->ijk", th1, e12).reshape(n1, n12)
    f2 = 2.0 * np.einsum("kiq,jq->ijk", th2, e12).reshape(n2, n12)
    # factor 1's theta and Re(beta) sections with their last index contracted into E12
    th1e = np.einsum("jip,pq->jiq", th1, e12)
    rb1e = np.einsum("jip,pq->jiq", c1.beta.real, e12)
    g1 = 2.0 * np.einsum("jiq,kq->ikj", th1e, c2.alpha).reshape(n12, n1)
    g2 = 2.0 * np.einsum("ip,pq,lkq->ikl", c1.alpha, e12, th2).reshape(n12, n2)
    g12 = 2.0 * (
        np.einsum("jiq,lkq->ikjl", th1e, c2.beta.real) + np.einsum("jiq,lkq->ikjl", rb1e, th2)
    ).reshape(n12, n12)

    z12 = np.zeros((n1, n2))

    def drift(d1, d2, h1, h2):
        # factor drifts d1, d2 on the diagonal; h1, h2 are the product row's b-columns, 0 in A0;
        # the Kronecker sum d1 (x) I2 + I1 (x) d2 is broadcast as [i, k, j, l]
        ksum = (d1[:, None, :, None] * i2[:, None, :] + i1[:, None, :, None] * d2[:, None, :]).reshape(n12, n12)
        return np.block([[d1, z12, f1], [z12.T, d2, f2], [h1 + g1, h2 + g2, ksum + g12]])

    # the b-columns I1 (x) b2 and b1 (x) I2, broadcast as [i, k, j]
    a = drift(co1.a, co2.a, (i1[:, None, :] * co2.b[:, None]).reshape(n12, n1), (co1.b[:, None, None] * i2).reshape(n12, n2))
    a0 = drift(co1.a0, co2.a0, 0.0, 0.0)
    a, a0, atilde, b = _frozen(a, a0, a - a0, np.concatenate([co1.b, co2.b, np.zeros(n12)]))
    return QsdeCoefficients(a=a, a0=a0, atilde=atilde, b=b)


def composite_dispersion(spec: CompositeSpec, x_full) -> np.ndarray:
    """Dispersion matrix K(x) M^T, its columns in the paired channel order of M.

    M is the composite coupling on the factor variables and K(x) has the block
    rows [2 theta1 . x1, 0], [0, 2 theta2 . x2], [frak1(Xi), frak2(Xi)], with
    Xi[l, a] the product block of x and frak1(Xi)[(j, a), k] =
    2 sum_l theta1[l, j, k] Xi[l, a]; symmetrically for frak2.
    """
    c1, c2 = spec.sys1.constants, spec.sys2.constants
    n1, n2 = c1.n, c2.n
    x_full = np.asarray(x_full)
    if x_full.shape != (n1 + n2 + n1 * n2,):
        raise ValueError("coefficient vector has wrong length")
    xi = x_full[n1 + n2 :].reshape(n1, n2)
    top = 2.0 * dot_product(c1.theta, x_full[:n1])
    mid = 2.0 * dot_product(c2.theta, x_full[n1 : n1 + n2])
    frak1 = 2.0 * np.einsum("ljk,la->jak", c1.theta, xi).reshape(n1 * n2, n1)
    frak2 = 2.0 * np.einsum("bak,jb->jak", c2.theta, xi).reshape(n1 * n2, n2)
    k = np.block([[top, np.zeros((n1, n2))], [np.zeros((n2, n1)), mid], [frak1, frak2]])
    return k @ _paired_coupling(spec)[0][:, : n1 + n2].T
