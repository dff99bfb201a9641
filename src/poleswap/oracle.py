"""Independent ground-truth eigenvalue computation.

Closed-form 2x2 solvers plus a 3x3 generalized eigensolver that expands
det(A - lambda B) into a cubic with double-double coefficient arithmetic
(~32 decimal digits) and polishes the roots with extended-precision Newton
steps.  The extended precision is an unevaluated sum of two binary64 values
(hi, lo) with |lo| <= ulp(hi)/2, built from the classic error-free
transformations (two-sum, Dekker split / two-product).

This module is deliberately independent of the sweep-based solver: the only
shared code is the projective-value type.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float) -> tuple[float, float]:
    # assumes |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _split(a: float) -> tuple[float, float]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ahi, alo = _split(a)
    bhi, blo = _split(b)
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


@dataclass(frozen=True, slots=True)
class DoubleDouble:
    """Unevaluated sum hi + lo with |lo| <= ulp(hi)/2."""

    hi: float = 0.0
    lo: float = 0.0

    @staticmethod
    def from_float(x: float) -> "DoubleDouble":
        return DoubleDouble(float(x), 0.0)

    def __add__(self, other: "DoubleDouble") -> "DoubleDouble":
        s, e = _two_sum(self.hi, other.hi)
        t, f = _two_sum(self.lo, other.lo)
        e += t
        s, e = _quick_two_sum(s, e)
        e += f
        hi, lo = _quick_two_sum(s, e)
        return DoubleDouble(hi, lo)

    def __neg__(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def __sub__(self, other: "DoubleDouble") -> "DoubleDouble":
        return self + (-other)

    def __mul__(self, other: "DoubleDouble") -> "DoubleDouble":
        p, e = _two_prod(self.hi, other.hi)
        e += self.hi * other.lo + self.lo * other.hi
        hi, lo = _quick_two_sum(p, e)
        return DoubleDouble(hi, lo)

    def __truediv__(self, other: "DoubleDouble") -> "DoubleDouble":
        q1 = self.hi / other.hi
        r = self - other * DoubleDouble.from_float(q1)
        q2 = r.hi / other.hi
        r = r - other * DoubleDouble.from_float(q2)
        q3 = r.hi / other.hi
        s, e = _quick_two_sum(q1, q2)
        e += q3
        hi, lo = _quick_two_sum(s, e)
        return DoubleDouble(hi, lo)

    def abs(self) -> float:
        return abs(self.hi)

    def to_float(self) -> float:
        return self.hi


_DD_ZERO = DoubleDouble()
_DD_ONE = DoubleDouble(1.0)


@dataclass(frozen=True, slots=True)
class ComplexDD:
    """Complex number with double-double real and imaginary parts."""

    re: DoubleDouble = _DD_ZERO
    im: DoubleDouble = _DD_ZERO

    @staticmethod
    def from_complex(z: complex) -> "ComplexDD":
        z = complex(z)
        return ComplexDD(DoubleDouble.from_float(z.real), DoubleDouble.from_float(z.imag))

    def __add__(self, other: "ComplexDD") -> "ComplexDD":
        return ComplexDD(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexDD") -> "ComplexDD":
        return ComplexDD(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "ComplexDD":
        return ComplexDD(-self.re, -self.im)

    def __mul__(self, other: "ComplexDD") -> "ComplexDD":
        return ComplexDD(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "ComplexDD") -> "ComplexDD":
        # Smith's algorithm on double-double components
        if abs(other.re.hi) >= abs(other.im.hi):
            r = other.im / other.re
            den = other.re + other.im * r
            return ComplexDD(
                (self.re + self.im * r) / den, (self.im - self.re * r) / den
            )
        r = other.re / other.im
        den = other.im + other.re * r
        return ComplexDD((self.re * r + self.im) / den, (self.im * r - self.re) / den)

    def abs(self) -> float:
        return math.hypot(self.re.hi, self.im.hi)

    def to_complex(self) -> complex:
        return complex(self.re.hi, self.im.hi)


_CDD_ZERO = ComplexDD()
_CDD_ONE = ComplexDD(_DD_ONE, _DD_ZERO)

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

    Returns (coeffs ascending as ComplexDD, per-degree absolute accumulation
    bounds used for the negligibility test).
    """
    coeffs = [_CDD_ZERO, _CDD_ZERO, _CDD_ZERO, _CDD_ZERO]
    bounds = [0.0, 0.0, 0.0, 0.0]
    for perm, sign in _PERMS_3:
        poly = [_CDD_ONE]
        apoly = [1.0]
        for i, j in enumerate(perm):
            p0 = ComplexDD.from_complex(a[i, j])
            p1 = ComplexDD.from_complex(-b[i, j])
            m0, m1 = abs(complex(a[i, j])), abs(complex(b[i, j]))
            new = [_CDD_ZERO] * (len(poly) + 1)
            anew = [0.0] * (len(poly) + 1)
            for k, (ck, ak) in enumerate(zip(poly, apoly)):
                new[k] = new[k] + ck * p0
                new[k + 1] = new[k + 1] + ck * p1
                anew[k] += ak * m0
                anew[k + 1] += ak * m1
            poly, apoly = new, anew
        for k in range(len(poly)):
            term = poly[k] if sign > 0 else -poly[k]
            coeffs[k] = coeffs[k] + term
            bounds[k] += apoly[k]
    return coeffs, bounds


def _horner(coeffs, z: ComplexDD) -> ComplexDD:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _poly_scale_at(bounds, mag: float) -> float:
    scale = 0.0
    p = 1.0
    for bk in bounds:
        scale += bk * p
        p *= mag
    return scale


def _polish_root(coeffs, bounds, z0: complex) -> ComplexDD:
    deriv = [
        ComplexDD(DoubleDouble.from_float(float(k)), _DD_ZERO) * coeffs[k]
        for k in range(1, len(coeffs))
    ]
    z = ComplexDD.from_complex(z0)
    for it in range(15):
        pv = _horner(coeffs, z)
        residual = pv.abs()
        scale = _poly_scale_at(bounds, z.abs())
        if it >= 3 and residual <= _RESIDUAL_TOL * scale:
            return z
        pd = _horner(deriv, z)
        if pd.abs() == 0.0:
            break
        z = z - pv / pd
    residual = _horner(coeffs, z).abs()
    scale = _poly_scale_at(bounds, z.abs())
    # negated comparison so a NaN residual (diverged iteration) also raises
    if not (residual <= _RESIDUAL_TOL * scale * 32.0):
        raise RootPolishError(
            f"root polishing stalled: residual {residual:.3e} vs scale {scale:.3e}"
        )
    if not math.isfinite(z.abs()):
        raise RootPolishError("root polishing diverged to a non-finite value")
    return z


def _finite_roots_dd(a: np.ndarray, b: np.ndarray):
    """(finite roots as ComplexDD, count of infinite eigenvalues)."""
    coeffs, bounds = _det_cubic(a, b)

    def negligible(k: int) -> bool:
        return coeffs[k].abs() <= _NEGLIGIBLE * bounds[k]

    if all(negligible(k) for k in range(4)):
        raise SingularPencilError("pencil numerically singular: det(A - lB) == 0")

    degree = 3
    while degree > 0 and negligible(degree):
        degree -= 1
    n_infinite = 3 - degree
    roots: list[ComplexDD] = []
    if degree > 0:
        poly = np.array(
            [coeffs[k].to_complex() for k in range(degree, -1, -1)], dtype=complex
        )
        poly = poly / np.max(np.abs(poly))
        try:
            initial = np.roots(poly)
        except np.linalg.LinAlgError as exc:
            raise RootPolishError(f"companion eigensolve failed: {exc}") from exc
        reduced = coeffs[: degree + 1]
        reduced_bounds = bounds[: degree + 1]
        for z0 in initial:
            roots.append(_polish_root(reduced, reduced_bounds, complex(z0)))
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
    values.extend(make_projective(z.to_complex(), 1.0) for z in roots)
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
