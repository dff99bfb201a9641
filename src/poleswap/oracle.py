"""Independent ground-truth eigenvalue computation.

Closed-form 2x2 solvers plus a 3x3 generalized eigensolver that expands
det(A - lambda B) into a cubic with double-double coefficient arithmetic
(~32 decimal digits) and polishes the roots with extended-precision Newton
steps.

A double-double is an unevaluated sum hi + lo of two binary64 values with
|lo| <= ulp(hi)/2, passed around as the plain floats ``(hi, lo)``; a complex
double-double is the 4-tuple ``(re_hi, re_lo, im_hi, im_lo)``.  The
arithmetic is Dekker's error-free transformations (two-sum, quick-two-sum,
split, two-product) in the layout of the QD library, written out inline in
``_dd_add`` and ``_dd_mul``.  Their operation order is pinned: reordering a
sum, or dropping a zero tail of a widened binary64 operand, can change an
output bit (for instance the sign of a zero tail); ``tests/test_oracle.py``
pins the resulting bits with SHA-256 digests.

This module is deliberately independent of the sweep-based solver: the only
shared code is the projective-value type.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .numerics import ProjectiveValue, chordal_distance, make_projective

_SPLITTER = 134217729.0  # 2**27 + 1, exact in binary64

# coefficients smaller than this times their accumulation bound are
# indistinguishable from zero at double-double precision
_NEGLIGIBLE = 2.0 ** -96
_RESIDUAL_TOL = 2.0 ** -90


class OracleError(Exception):
    """Base class for oracle diagnostics (callers typically exclude the trial)."""


class SingularPencilError(OracleError):
    """All determinant coefficients vanish: the pencil is numerically singular."""


class RootPolishError(OracleError):
    """A cubic root did not reach the extended-precision residual tolerance."""


def _dd_add(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    """(ah + al) + (bh + bl); subtract by negating both words of b."""
    # two-sum of the heads, then of the tails
    s = ah + bh
    bb = s - ah
    e = (ah - (s - bb)) + (bh - bb)
    t = al + bl
    bb = t - al
    f = (al - (t - bb)) + (bl - bb)
    e += t
    # quick-two-sum, fold in the tail error, quick-two-sum
    hi = s + e
    e = e - (hi - s)
    e += f
    s = hi + e
    return s, e - (s - hi)


def _dd_mul(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # two-product of the heads via Dekker splits of ah and bh
    p = ah * bh
    c = _SPLITTER * ah
    a1 = c - (c - ah)
    a2 = ah - a1
    c = _SPLITTER * bh
    b1 = c - (c - bh)
    b2 = bh - b1
    e = ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2
    e += ah * bl + al * bh
    # quick-two-sum
    hi = p + e
    return hi, e - (hi - p)


def _dd_div(ah: float, al: float, bh: float, bl: float) -> tuple[float, float]:
    # three quotient terms, each from the double-double remainder
    q1 = ah / bh
    ph, pl = _dd_mul(bh, bl, q1, 0.0)
    rh, rl = _dd_add(ah, al, -ph, -pl)
    q2 = rh / bh
    ph, pl = _dd_mul(bh, bl, q2, 0.0)
    rh, rl = _dd_add(rh, rl, -ph, -pl)
    q3 = rh / bh
    s = q1 + q2
    e = q2 - (s - q1)
    e += q3
    hi = s + e
    return hi, e - (hi - s)


def _cdd(z: complex) -> tuple[float, float, float, float]:
    """Widen a binary64 complex to a complex double-double (zero tails)."""
    z = complex(z)
    return z.real, 0.0, z.imag, 0.0


def _cdd_add(x, y):
    return _dd_add(x[0], x[1], y[0], y[1]) + _dd_add(x[2], x[3], y[2], y[3])


def _cdd_sub(x, y):
    return _dd_add(x[0], x[1], -y[0], -y[1]) + _dd_add(x[2], x[3], -y[2], -y[3])


def _cdd_mul(x, y):
    xrh, xrl, xih, xil = x
    yrh, yrl, yih, yil = y
    ph, pl = _dd_mul(xrh, xrl, yrh, yrl)
    qh, ql = _dd_mul(xih, xil, yih, yil)
    re = _dd_add(ph, pl, -qh, -ql)
    ph, pl = _dd_mul(xrh, xrl, yih, yil)
    qh, ql = _dd_mul(xih, xil, yrh, yrl)
    return re + _dd_add(ph, pl, qh, ql)


def _cdd_div(x, y):
    """Smith's algorithm on double-double components."""
    xrh, xrl, xih, xil = x
    yrh, yrl, yih, yil = y
    if abs(yrh) >= abs(yih):
        rh, rl = _dd_div(yih, yil, yrh, yrl)
        dh, dl = _dd_add(yrh, yrl, *_dd_mul(yih, yil, rh, rl))
        nrh, nrl = _dd_add(xrh, xrl, *_dd_mul(xih, xil, rh, rl))
        th, tl = _dd_mul(xrh, xrl, rh, rl)
        nih, nil = _dd_add(xih, xil, -th, -tl)
    else:
        rh, rl = _dd_div(yrh, yrl, yih, yil)
        dh, dl = _dd_add(yih, yil, *_dd_mul(yrh, yrl, rh, rl))
        nrh, nrl = _dd_add(*_dd_mul(xrh, xrl, rh, rl), xih, xil)
        th, tl = _dd_mul(xih, xil, rh, rl)
        nih, nil = _dd_add(th, tl, -xrh, -xrl)
    return _dd_div(nrh, nrl, dh, dl) + _dd_div(nih, nil, dh, dl)


def _cdd_abs(x) -> float:
    return math.hypot(x[0], x[2])


_CDD_ZERO = (0.0, 0.0, 0.0, 0.0)
_CDD_ONE = (1.0, 0.0, 0.0, 0.0)

_PERMS_3 = (
    ((0, 1, 2), 1.0),
    ((1, 2, 0), 1.0),
    ((2, 0, 1), 1.0),
    ((2, 1, 0), -1.0),
    ((0, 2, 1), -1.0),
    ((1, 0, 2), -1.0),
)


def eig_2x2(a: np.ndarray, b: np.ndarray) -> tuple[ProjectiveValue, ProjectiveValue]:
    """Both eigenvalues of a general regular 2x2 pencil, projectively.

    Solves det(A - lambda B) = c2 l^2 + c1 l + c0 = 0 with the usual
    cancellation-avoiding root pairing; degree drops give infinite values.
    """
    c2 = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    c1 = -(a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0] - a[0, 1] * b[1, 0] - a[1, 0] * b[0, 1])
    c0 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    if c2 == 0 and c1 == 0:
        if c0 == 0:
            raise SingularPencilError("2x2 pencil numerically singular")
        inf = make_projective(1.0, 0.0)
        return inf, inf
    if c2 == 0:
        return make_projective(-c0, c1), make_projective(1.0, 0.0)
    disc = c1 * c1 - 4.0 * c2 * c0
    sq = np.sqrt(complex(disc))
    q = -0.5 * (c1 + sq) if abs(c1 + sq) >= abs(c1 - sq) else -0.5 * (c1 - sq)
    if q == 0:
        # c1 == 0 and c2*c0 == 0 with c2 != 0, so both roots are zero
        zero = make_projective(0.0, 1.0)
        return zero, zero
    return make_projective(q, c2), make_projective(c0, q)


def _det_cubic(a: np.ndarray, b: np.ndarray):
    """Coefficients of det(A - lambda B) for 3x3 inputs, in double-double.

    Returns (coeffs ascending as complex double-doubles, per-degree absolute
    accumulation bounds used for the negligibility test).
    """
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    coeffs = [_CDD_ZERO, _CDD_ZERO, _CDD_ZERO, _CDD_ZERO]
    bounds = [0.0, 0.0, 0.0, 0.0]
    for perm, sign in _PERMS_3:
        poly = [_CDD_ONE]
        apoly = [1.0]
        for i, j in enumerate(perm):
            p0 = _cdd(a[i][j])
            p1 = _cdd(-b[i][j])
            m0, m1 = abs(complex(a[i][j])), abs(complex(b[i][j]))
            new = [_CDD_ZERO] * (len(poly) + 1)
            anew = [0.0] * (len(poly) + 1)
            for k, (ck, ak) in enumerate(zip(poly, apoly)):
                new[k] = _cdd_add(new[k], _cdd_mul(ck, p0))
                new[k + 1] = _cdd_add(new[k + 1], _cdd_mul(ck, p1))
                anew[k] += ak * m0
                anew[k + 1] += ak * m1
            poly, apoly = new, anew
        add = _cdd_add if sign > 0 else _cdd_sub
        for k in range(len(poly)):
            coeffs[k] = add(coeffs[k], poly[k])
            bounds[k] += apoly[k]
    return coeffs, bounds


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = _cdd_add(_cdd_mul(acc, z), c)
    return acc


def _poly_scale_at(bounds, mag: float) -> float:
    scale = 0.0
    p = 1.0
    for bk in bounds:
        scale += bk * p
        p *= mag
    return scale


def _polish_root(coeffs, deriv, bounds, z0: complex):
    z = _cdd(z0)
    for it in range(15):
        pv = _horner(coeffs, z)
        residual = _cdd_abs(pv)
        scale = _poly_scale_at(bounds, _cdd_abs(z))
        if it >= 3 and residual <= _RESIDUAL_TOL * scale:
            return z
        pd = _horner(deriv, z)
        if _cdd_abs(pd) == 0.0:
            break
        z = _cdd_sub(z, _cdd_div(pv, pd))
    residual = _cdd_abs(_horner(coeffs, z))
    scale = _poly_scale_at(bounds, _cdd_abs(z))
    # negated comparison so a NaN residual (diverged iteration) also raises
    if not (residual <= _RESIDUAL_TOL * scale * 32.0):
        raise RootPolishError(
            f"root polishing stalled: residual {residual:.3e} vs scale {scale:.3e}"
        )
    if not math.isfinite(_cdd_abs(z)):
        raise RootPolishError("root polishing diverged to a non-finite value")
    return z


def _finite_roots_dd(a: np.ndarray, b: np.ndarray):
    """(finite roots as complex double-doubles, count of infinite eigenvalues)."""
    coeffs, bounds = _det_cubic(a, b)

    def negligible(k: int) -> bool:
        return _cdd_abs(coeffs[k]) <= _NEGLIGIBLE * bounds[k]

    if all(negligible(k) for k in range(4)):
        raise SingularPencilError("pencil numerically singular: det(A - lB) == 0")

    degree = 3
    while degree > 0 and negligible(degree):
        degree -= 1
    n_infinite = 3 - degree
    roots = []
    if degree > 0:
        poly = np.array(
            [complex(coeffs[k][0], coeffs[k][2]) for k in range(degree, -1, -1)],
            dtype=complex,
        )
        poly = poly / np.max(np.abs(poly))
        try:
            initial = np.roots(poly)
        except np.linalg.LinAlgError as exc:
            raise RootPolishError(f"companion eigensolve failed: {exc}") from exc
        reduced = coeffs[: degree + 1]
        reduced_bounds = bounds[: degree + 1]
        # the derivative's coefficients k * c_k do not depend on the root
        deriv = [_cdd_mul((float(k), 0.0, 0.0, 0.0), reduced[k]) for k in range(1, degree + 1)]
        for z0 in initial:
            roots.append(_polish_root(reduced, deriv, reduced_bounds, complex(z0)))
    return roots, n_infinite


def eig_3x3_extended(a, b) -> list[ProjectiveValue]:
    """All three eigenvalues of a regular 3x3 pencil, to extended precision.

    Expands det(A - lambda B) into a cubic with double-double coefficients;
    a leading-coefficient drop (below the extended-precision resolution of
    its accumulation bound) signals an eigenvalue at infinity.  Finite roots
    start from a working-precision companion solve and are Newton-polished in
    extended precision until the backward residual |det(A - lhat B)| falls
    below the extended roundoff of the coefficient scale.

    Raises SingularPencilError when every coefficient is negligible and
    RootPolishError when a root cannot be certified.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (3, 3) or b.shape != (3, 3):
        raise ValueError("eig_3x3_extended expects 3x3 matrices")
    roots, n_infinite = _finite_roots_dd(a, b)
    values = [make_projective(1.0, 0.0) for _ in range(n_infinite)]
    values.extend(make_projective(complex(z[0], z[2]), 1.0) for z in roots)
    return values


def _pair_error(computed: ProjectiveValue, exact: ProjectiveValue) -> float:
    if exact.is_infinite:
        if computed.is_infinite:
            return 0.0
        if computed.alpha == 0:
            return math.inf
        # error of the computed reciprocal against the exact reciprocal 0
        return abs(computed.beta / computed.alpha)
    if exact.alpha == 0:
        if not computed.is_infinite and computed.alpha == 0:
            return 0.0
        # relative error against an exactly zero eigenvalue is undefined;
        # fall back to the chordal metric
        return chordal_distance(computed, exact)
    if computed.is_infinite:
        return math.inf
    lam = exact.alpha / exact.beta
    lam_hat = computed.alpha / computed.beta
    return abs(lam_hat - lam) / abs(lam)


def max_relative_error(computed, exact) -> float:
    """min over matchings of the max relative error |lhat - l| / |l|.

    The assignment minimizing the maximum error over all permutations is
    used (lists here have at most three entries).  Infinite exact values are
    scored by the error of the computed reciprocal; exactly zero exact values
    fall back to the chordal metric.
    """
    computed = list(computed)
    exact = list(exact)
    if len(computed) != len(exact):
        raise ValueError("eigenvalue lists must have equal length")
    best = math.inf
    for perm in itertools.permutations(computed):
        worst = max(
            (_pair_error(c, e) for c, e in zip(perm, exact)), default=0.0
        )
        if worst < best:
            best = worst
    return best
