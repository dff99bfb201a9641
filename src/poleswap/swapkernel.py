"""Eigenvalue swapping for 2x2 upper-triangular pencils.

Given A - lambda B = [[alpha1, a], [0, alpha2]] - lambda [[beta1, b], [0, beta2]]
with eigenvalues sigma1 = alpha1/beta1 and sigma2 = alpha2/beta2, find cores
Q, Z so that Q* (A - lambda B) Z is again upper triangular with the
eigenvalues exchanged.

Three constructions are provided:

* ``NEW`` -- compute the right eigenvector x for sigma2 and the core Z with
  Z* x = gamma e1, then build Q from the first column of B.Z when
  |sigma1| >= |sigma2| (Case 1) and from the first column of A.Z otherwise
  (Case 2, the roles of A and B reversed).  Never build Q from the closed-form
  vector y directly.  This keeps both |a21_hat| <~ u ||A|| and
  |b21_hat| <~ u ||B|| separately, so the entries can be set to zero without
  compromising backward stability.
* ``VAN_DOOREN`` -- same Z; Q is built from whichever of A.Z e1, B.Z e1 has the
  larger 2-norm.  The historical switching criterion is not spelled out in the
  sources we follow, so this norm-based choice is a faithful-in-spirit
  stand-in, isolated here so it can be replaced.
* ``SYLVESTER`` -- solve the coupled scalar equations
  alpha1 r - alpha2 l = -a, beta1 r - beta2 l = -b by elimination with partial
  pivoting and build Z from (r, 1), Q from (l, 1).

All three swap the eigenvalues exactly in exact arithmetic; they differ in how
much of the rounding error each matrix absorbs.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .numerics import (
    CoreTransformation,
    _annihilate,
    _row_annihilate,
    identity_core,
    two_norm_2x2,
)


class SwapMethod(enum.Enum):
    NEW = "new"
    VAN_DOOREN = "vandooren"
    SYLVESTER = "sylvester"


@dataclass(slots=True)
class TriangularPencil2:
    """The six defining entries of a 2x2 upper-triangular pencil.

    Regularity of the diagonal 1x1 blocks is required:
    (alpha1, beta1) != (0, 0) and (alpha2, beta2) != (0, 0).
    """

    alpha1: complex
    a: complex
    alpha2: complex
    beta1: complex
    b: complex
    beta2: complex

    def __post_init__(self):
        vals = (self.alpha1, self.a, self.alpha2, self.beta1, self.b, self.beta2)
        for v in vals:
            if not cmath.isfinite(complex(v)):
                raise ValueError("pencil entries must be finite")
        if self.alpha1 == 0 and self.beta1 == 0:
            raise ValueError("regular pencil required: (alpha1, beta1) == (0, 0)")
        if self.alpha2 == 0 and self.beta2 == 0:
            raise ValueError("regular pencil required: (alpha2, beta2) == (0, 0)")

    def a_matrix(self) -> np.ndarray:
        return np.array([[self.alpha1, self.a], [0.0, self.alpha2]], dtype=complex)

    def b_matrix(self) -> np.ndarray:
        return np.array([[self.beta1, self.b], [0.0, self.beta2]], dtype=complex)


@dataclass(slots=True)
class SwapReport:
    """Cores, swapped pencil, and the per-swap residual instrumentation.

    ``res_a`` and ``res_b`` are |a21_hat|/||A||_2 and |b21_hat|/||B||_2
    measured before the entries are set to zero; the ``_delta`` variants
    divide by Delta = max(||A||_2, ||B||_2) instead.
    """

    q: CoreTransformation
    z: CoreTransformation
    result: TriangularPencil2
    res_a: float
    res_b: float
    res_a_delta: float
    res_b_delta: float
    skipped: bool = False


def _sylvester_directions(p: TriangularPencil2):
    """(r, l) solving alpha1 r - alpha2 l = -a, beta1 r - beta2 l = -b.

    2x2 Gaussian elimination with partial pivoting on the first column.
    Returns None when the system is singular (equal eigenvalues).
    """
    m11, m12, r1 = p.alpha1, -p.alpha2, -p.a
    m21, m22, r2 = p.beta1, -p.beta2, -p.b
    if abs(m21) > abs(m11):
        m11, m12, r1, m21, m22, r2 = m21, m22, r2, m11, m12, r1
    if m11 == 0:
        return None
    f = m21 / m11
    m22 = m22 - f * m12
    r2 = r2 - f * r1
    if m22 == 0:
        return None
    l = r2 / m22
    r = (r1 - m12 * l) / m11
    if not (cmath.isfinite(r) and cmath.isfinite(l)):
        return None
    return r, l


def _skip_report(p: TriangularPencil2) -> SwapReport:
    result = TriangularPencil2(p.alpha1, p.a, p.alpha2, p.beta1, p.b, p.beta2)
    return SwapReport(
        q=identity_core(),
        z=identity_core(),
        result=result,
        res_a=0.0,
        res_b=0.0,
        res_a_delta=0.0,
        res_b_delta=0.0,
        skipped=True,
    )


def swap_cores(p: TriangularPencil2, method: SwapMethod = SwapMethod.NEW):
    """The cores that swap the two eigenvalues of a regular 2x2 pencil.

    Returns ``(zc, zs, qc, qs)``, the (c, s) pairs of Z and Q, or None when
    there is nothing to swap: the eigenvalues are equal (x = 0, which
    includes both eigenvalues infinite) or the Sylvester system is singular.
    This is the kernel the solver calls; :func:`swap2x2` adds the swapped
    pencil and its residuals on top.
    """
    a1, a, a2 = p.alpha1, p.a, p.alpha2
    b1, b, b2 = p.beta1, p.b, p.beta2

    # right eigenvector for sigma2; x == 0 iff the eigenvalues coincide
    x1 = a2 * b - b2 * a
    x2 = b2 * a1 - a2 * b1
    if (x1 == 0 and x2 == 0) or (b1 == 0 and b2 == 0):
        return None

    if method is SwapMethod.SYLVESTER:
        rl = _sylvester_directions(p)
        if rl is None:
            return None
        r, l = rl
        zc, zs, _ = _annihilate(r, 1.0)
        qc, qs, _ = _annihilate(l, 1.0)
        return zc, zs, qc, qs

    zc, zs, _ = _annihilate(x1, x2)
    # first columns of A.Z and B.Z; both are proportional to y exactly
    ua1 = a1 * zc + a * zs
    ua2 = a2 * zs
    ub1 = b1 * zc + b * zs
    ub2 = b2 * zs
    if method is SwapMethod.NEW:
        # Case 1 iff |sigma1| >= |sigma2|, ties included
        use_b = abs(a1) * abs(b2) >= abs(a2) * abs(b1)
    else:
        na = abs(ua1) ** 2 + abs(ua2) ** 2
        nb = abs(ub1) ** 2 + abs(ub2) ** 2
        use_b = nb >= na
    u1, u2 = (ub1, ub2) if use_b else (ua1, ua2)
    if u1 == 0 and u2 == 0:
        return zc, zs, 1.0 + 0.0j, 0.0j
    qc, qs, _ = _annihilate(u1, u2)
    return zc, zs, qc, qs


def swap2x2(p: TriangularPencil2, method: SwapMethod = SwapMethod.NEW) -> SwapReport:
    """Swap the two eigenvalues of a regular 2x2 upper-triangular pencil.

    The cores come from :func:`swap_cores`; this adds the swapped pencil and
    the residuals the studies bin.  Returns a skipped report (identity
    cores) when there is nothing to swap.
    """
    cores = swap_cores(p, method)
    if cores is None:
        return _skip_report(p)
    zc, zs, qc, qs = cores
    a1, a, a2 = p.alpha1, p.a, p.alpha2
    b1, b, b2 = p.beta1, p.b, p.beta2

    # hatA = Q* (A Z), hatB = Q* (B Z), spelled out on the six entries
    zcc = zc.conjugate()
    zsc = zs.conjugate()
    qcc = qc.conjugate()
    qsc = qs.conjugate()

    az11 = a1 * zc + a * zs
    az12 = -a1 * zsc + a * zcc
    az21 = a2 * zs
    az22 = a2 * zcc
    bz11 = b1 * zc + b * zs
    bz12 = -b1 * zsc + b * zcc
    bz21 = b2 * zs
    bz22 = b2 * zcc

    ha11 = qcc * az11 + qsc * az21
    ha12 = qcc * az12 + qsc * az22
    ha21 = -qs * az11 + qc * az21
    ha22 = -qs * az12 + qc * az22
    hb11 = qcc * bz11 + qsc * bz21
    hb12 = qcc * bz12 + qsc * bz22
    hb21 = -qs * bz11 + qc * bz21
    hb22 = -qs * bz12 + qc * bz22

    norm_a = two_norm_2x2(a1, a, 0.0, a2)
    norm_b = two_norm_2x2(b1, b, 0.0, b2)
    delta = norm_a if norm_a >= norm_b else norm_b
    raw_a = abs(ha21)
    raw_b = abs(hb21)

    result = TriangularPencil2(ha11, ha12, ha22, hb11, hb12, hb22)
    return SwapReport(
        q=CoreTransformation(qc, qs),
        z=CoreTransformation(zc, zs),
        result=result,
        res_a=raw_a / norm_a,
        res_b=raw_b / norm_b,
        res_a_delta=raw_a / delta,
        res_b_delta=raw_b / delta,
        skipped=False,
    )


def exact_swap_vectors(p: TriangularPencil2):
    """Closed-form eigenvector quadruple (x, y, v, w) of the 2x2 pencil.

    x is a right eigenvector for sigma2, v a left eigenvector for sigma1,
    and the companions satisfy the deflating identities
    A x = alpha2 y, B x = beta2 y and v^T A = alpha1 w^T, v^T B = beta1 w^T.
    """
    a1, a, a2 = p.alpha1, p.a, p.alpha2
    b1, b, b2 = p.beta1, p.b, p.beta2
    cross = b2 * a1 - a2 * b1
    x = np.array([a2 * b - b2 * a, cross])
    y = np.array([a1 * b - b1 * a, cross])
    v = np.array([-cross, a1 * b - b1 * a])
    w = np.array([-cross, a2 * b - b2 * a])
    return x, y, v, w


def _phase_align(c: complex, s: complex) -> tuple[complex, complex]:
    # rotate the (c, s) pair so c is real nonnegative; align on s instead when
    # it dominates, so a noise-level c cannot scramble the comparison
    ref = c if abs(c) >= abs(s) else s
    phase = ref.conjugate() / abs(ref)
    return c * phase, s * phase


def flip_swap_equivalence_check(p: TriangularPencil2) -> float:
    """Deviation between the Q-first construction and the flipped Case 1.

    The Q-first route builds Q from the left eigenvector v (with v^T Q
    proportional to e2^T) and then Z from the second row of Q* B.  The same
    cores arise from running Case 1 on the flipped pencil F A^T F - lambda
    F B^T F and unflipping, which swaps the roles of Q and Z.  Returns the
    maximum entrywise modulus deviation between the two (Q, Z) pairs after
    each core is phase-aligned.
    """
    a1, a, a2 = p.alpha1, p.a, p.alpha2
    b1, b, b2 = p.beta1, p.b, p.beta2

    v1 = b1 * a2 - a1 * b2
    v2 = a1 * b - b1 * a
    if v1 == 0 and v2 == 0:
        return 0.0

    # Q-first: v^T Q = zeta e2^T, then (e2^T Q* B) Z = gamma e2^T
    qc1, qs1, _ = _row_annihilate(v1, v2)
    rb1 = -qs1 * b1
    rb2 = -qs1 * b + qc1 * b2
    zc1, zs1, _ = _row_annihilate(rb1, rb2)

    # flipped Case 1: the flip matrix reverses the pencil diagonals
    fa1, fa2 = a2, a1
    fb1, fb2 = b2, b1
    xf1 = fa2 * b - fb2 * a
    xf2 = fb2 * fa1 - fa2 * fb1
    zfc, zfs, _ = _annihilate(xf1, xf2)
    uf1 = fb1 * zfc + b * zfs
    uf2 = fb2 * zfs
    qfc, qfs, _ = _annihilate(uf1, uf2)

    # unflip: U -> F conj(U) F maps the core (c, s) to (c, -s), and the
    # roles of Q and Z exchange
    qc2, qs2 = zfc, -zfs
    zc2, zs2 = qfc, -qfs

    qc1, qs1 = _phase_align(qc1, qs1)
    zc1, zs1 = _phase_align(zc1, zs1)
    qc2, qs2 = _phase_align(qc2, qs2)
    zc2, zs2 = _phase_align(zc2, zs2)
    return max(abs(qc1 - qc2), abs(qs1 - qs2), abs(zc1 - zc2), abs(zs1 - zs2))
