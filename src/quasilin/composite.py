"""Direct coupling of two quasilinear models.

The composite variable set stacks the two factors plus all cross products
X1_j X2_k, indexed j-outer (slot n1 + n2 + j*n2 + k).  Closure of this
larger set is automatic and the composite drift has an explicit block form;
everything here is checked elsewhere against the generic single-system path
on the augmented constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    StructureConstants,
    middle_index_slices,
    structure_constants,
    validate,
)
from .qsde import QsdeCoefficients, SystemSpec, _finite_array, build_coefficients, dispersion, system_spec

__all__ = [
    "CompositeSpec",
    "CompositeWeakData",
    "augment_constants",
    "augment_energy",
    "augmented_system",
    "commutation_permutation",
    "composite_coefficients",
    "composite_dispersion",
    "composite_spec",
    "composite_weak",
    "paired_channel_order",
    "scaled_composite",
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
    e12 = _finite_array(direct_coupling, "direct coupling", real=True)
    if e12.shape != (sys1.constants.n, sys2.constants.n):
        raise ValueError(
            "direct coupling must be %d x %d, got %r"
            % (sys1.constants.n, sys2.constants.n, e12.shape)
        )
    e12.setflags(write=False)
    return CompositeSpec(sys1=sys1, sys2=sys2, direct_coupling=e12)


def commutation_permutation(n1: int, n2: int) -> np.ndarray:
    """Permutation P with P (u (x) v) = v (x) u for u of length n1.

    Equivalently vec(K) = P vec(K^T) for n1 x n2 matrices K (column-major
    vec).  P is symmetric and involutive.
    """
    p = np.zeros((n1 * n2, n1 * n2))
    for i in range(n1):
        for j in range(n2):
            p[j * n1 + i, i * n2 + j] = 1.0
    p.setflags(write=False)
    return p


def augment_constants(c1: StructureConstants, c2: StructureConstants) -> StructureConstants:
    """Structure constants of the stacked set (X1, X2, X1 (x) X2).

    alpha is block diagonal (alpha1, alpha2, alpha1 (x) alpha2); beta is
    assembled case by case from the factor products.  The result is
    validated before being returned.
    """
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

    out = structure_constants(alpha, beta)
    report = validate(out)
    if not report.passed:
        raise ValueError(
            "augmented constants fail validation (%d violations, first %r)"
            % (len(report.violations), report.violations[0])
        )
    return out


def augment_energy(e1, e2, e12) -> np.ndarray:
    """Stacked energy vector (E1, E2, vec of the direct coupling).

    The trailing block is E12 flattened row-major, matching the j-outer
    product index convention.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    e12 = np.asarray(e12, dtype=float)
    if e12.shape != (len(e1), len(e2)):
        raise ValueError("direct coupling shape %r does not match energies" % (e12.shape,))
    return np.concatenate([e1, e2, e12.flatten(order="C")])


def paired_channel_order(m1: int, m2: int) -> np.ndarray:
    """Row order putting stacked (sys1, sys2) channels into paired form.

    The standard Ito matrix pairs channel r with r + m/2.  Taking the first
    halves of both factors, then the second halves, conjugates the
    block-diagonal composite Ito matrix into exactly that standard form.
    """
    h1, h2 = m1 // 2, m2 // 2
    first = list(range(h1)) + list(range(m1, m1 + h2))
    second = list(range(h1, m1)) + list(range(m1 + h2, m1 + m2))
    return np.array(first + second)


def stacked_coupling(spec: CompositeSpec):
    """Block coupling matrix and offset in stacked (unpermuted) channel order."""
    m1 = spec.sys1.coupling
    m2 = spec.sys2.coupling
    n1, n2 = spec.sys1.constants.n, spec.sys2.constants.n
    n = n1 + n2 + n1 * n2
    m = np.zeros((m1.shape[0] + m2.shape[0], n), dtype=np.result_type(m1, m2))
    m[: m1.shape[0], :n1] = m1
    m[m1.shape[0] :, n1 : n1 + n2] = m2
    return m, np.concatenate([spec.sys1.offset, spec.sys2.offset])


def augmented_system(spec: CompositeSpec) -> SystemSpec:
    """The composite as a single system spec on the augmented constants.

    Channels are reordered into paired form so the standard Ito structure
    applies; the drift this produces is identical to the block construction
    (the drift depends on M only through M^T M, M^T J M and M^T J N, all
    invariant under the reordering).
    """
    c_aug = augment_constants(spec.sys1.constants, spec.sys2.constants)
    e_aug = augment_energy(spec.sys1.energy, spec.sys2.energy, spec.direct_coupling)
    m_stack, off_stack = stacked_coupling(spec)
    order = paired_channel_order(spec.sys1.m, spec.sys2.m)
    return system_spec(c_aug, e_aug, m_stack[order], off_stack[order])


def composite_coefficients(spec: CompositeSpec) -> QsdeCoefficients:
    """Drift of the composite assembled block by block.

    Blocks: subsystem drifts on the diagonal; direct-coupling feeds
    F1 = 2 [theta1_j E12]_j and F2 = 2 [theta2_k E12^T]_k P into the factor
    rows; the product row carries P (b2 (x) I) + G1 and (b1 (x) I) + G2 and
    the Kronecker sum A1 (+) A2 + G12, with G blocks linear in vec(E12^T).
    """
    co1 = build_coefficients(spec.sys1)
    co2 = build_coefficients(spec.sys2)
    c1, c2 = spec.sys1.constants, spec.sys2.constants
    n1, n2 = c1.n, c2.n
    th1, th2 = c1.theta, c2.theta
    rb1, rb2 = c1.beta.real, c2.beta.real
    e12 = np.asarray(spec.direct_coupling, dtype=float)
    e21 = e12.T
    vec_e21 = e21.flatten(order="F")
    p = commutation_permutation(n1, n2)
    i1, i2 = np.eye(n1), np.eye(n2)

    f1 = 2.0 * np.hstack([th1[j] @ e12 for j in range(n1)])
    f2 = 2.0 * np.hstack([th2[k] @ e21 for k in range(n2)]) @ p
    g1 = 2.0 * np.column_stack([np.kron(th1[j], np.real(c2.alpha)) @ vec_e21 for j in range(n1)])
    g2 = 2.0 * np.column_stack([np.kron(np.real(c1.alpha), th2[k]) @ vec_e21 for k in range(n2)])
    g12 = 2.0 * np.column_stack(
        [
            (np.kron(th1[j], rb2[k]) + np.kron(rb1[j], th2[k])) @ vec_e21
            for j in range(n1)
            for k in range(n2)
        ]
    )

    ksum = np.kron(co1.a, i2) + np.kron(i1, co2.a)
    ksum0 = np.kron(co1.a0, i2) + np.kron(i1, co2.a0)
    a31 = p @ np.kron(co2.b.reshape(-1, 1), i1) + g1
    a32 = np.kron(co1.b.reshape(-1, 1), i2) + g2

    z12 = np.zeros((n1, n2))
    a = np.block(
        [
            [co1.a, z12, f1],
            [z12.T, co2.a, f2],
            [a31, a32, ksum + g12],
        ]
    )
    a0 = np.block(
        [
            [co1.a0, z12, f1],
            [z12.T, co2.a0, f2],
            [g1, g2, ksum0 + g12],
        ]
    )
    b = np.concatenate([co1.b, co2.b, np.zeros(n1 * n2)])

    c_aug = augment_constants(c1, c2)
    m_stack, _ = stacked_coupling(spec)
    order = paired_channel_order(spec.sys1.m, spec.sys2.m)
    m_perm = m_stack[order]
    for arr in (a, a0, b):
        arr.setflags(write=False)
    return QsdeCoefficients(
        a=a, a0=a0, atilde=a - a0, b=b, theta=c_aug.theta, coupling=m_perm
    )


def composite_dispersion(spec: CompositeSpec, x_full) -> np.ndarray:
    """Dispersion matrix from subsystem blocks, stacked channel order.

    Rows: [B1(x1), 0], [0, B2(x2)], [frak1(xi), frak2(xi)] where xi is the
    product block of the coefficient vector and
    frak1(xi) = 2 [ (theta1 middle-slice k (x) I) xi ]_k M1^T, and
    symmetrically for frak2.
    """
    c1, c2 = spec.sys1.constants, spec.sys2.constants
    n1, n2 = c1.n, c2.n
    x_full = np.asarray(x_full)
    if x_full.shape != (n1 + n2 + n1 * n2,):
        raise ValueError("coefficient vector has wrong length")
    x1 = x_full[:n1]
    x2 = x_full[n1 : n1 + n2]
    xi = x_full[n1 + n2 :]

    co1 = build_coefficients(spec.sys1)
    co2 = build_coefficients(spec.sys2)
    top = dispersion(co1, x1)
    mid = dispersion(co2, x2)

    m1t = spec.sys1.coupling.T
    m2t = spec.sys2.coupling.T
    mid1 = middle_index_slices(c1.theta)
    mid2 = middle_index_slices(c2.theta)
    frak1 = 2.0 * np.column_stack(
        [np.kron(mid1[k], np.eye(n2)) @ xi for k in range(n1)]
    ) @ m1t
    frak2 = 2.0 * np.column_stack(
        [np.kron(np.eye(n1), mid2[k]) @ xi for k in range(n2)]
    ) @ m2t

    m1, m2 = spec.sys1.m, spec.sys2.m
    out = np.zeros((n1 + n2 + n1 * n2, m1 + m2), dtype=np.result_type(top, mid, frak1, frak2))
    out[:n1, :m1] = top
    out[n1 : n1 + n2, m1:] = mid
    out[n1 + n2 :, :m1] = frak1
    out[n1 + n2 :, m1:] = frak2
    return out


def scaled_composite(spec: CompositeSpec, eps: float) -> CompositeSpec:
    """Composite with both field couplings scaled by eps (E12 untouched)."""
    s1 = system_spec(
        spec.sys1.constants,
        spec.sys1.energy,
        eps * spec.sys1.coupling,
        eps * spec.sys1.offset,
    )
    s2 = system_spec(
        spec.sys2.constants,
        spec.sys2.energy,
        eps * spec.sys2.coupling,
        eps * spec.sys2.offset,
    )
    return CompositeSpec(sys1=s1, sys2=s2, direct_coupling=spec.direct_coupling)


@dataclass(frozen=True)
class CompositeWeakData:
    """Weak-coupling split of a composite drift: A(eps) = a0 + eps^2 sa."""

    a0: np.ndarray
    sa: np.ndarray
    sb: np.ndarray
    a_eps: np.ndarray
    b_eps: np.ndarray
    eps: float


def composite_weak(spec: CompositeSpec, eps: float) -> CompositeWeakData:
    """Split the composite drift for field couplings of strength eps.

    The subsystem couplings in spec are the unit-strength shapes.  a0 keeps
    every direct-coupling block (F and G enter at order one); only the
    field-induced parts scale, quadratically.  sa has the block form with
    P (sb2 (x) I) and (sb1 (x) I) in the product row and the Kronecker sum
    of the subsystem quadratic parts on its diagonal.
    """
    unit = composite_coefficients(spec)
    sa, sb = unit.atilde, unit.b
    return CompositeWeakData(
        a0=unit.a0,
        sa=sa,
        sb=sb,
        a_eps=unit.a0 + eps**2 * sa,
        b_eps=eps**2 * sb,
        eps=float(eps),
    )
