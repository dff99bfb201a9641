"""Projective scalars, 2x2 core transformations, and dense matrix helpers.

Scalar conventions used throughout the solver:

* A ratio alpha/beta is stored as a normalized pair with
  ``max(|alpha|, |beta|) == 1``, so beta == 0 cleanly represents an infinite
  value and cross-multiplied comparisons never overflow, even when the
  represented value spans the 1e-12 .. 1e+12 stress range.
* A core transformation is a unitary matrix equal to the identity except in
  the 2x2 block ``[[c, -conj(s)], [s, conj(c)]]`` acting on two adjacent
  rows or columns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

UNIT_ROUNDOFF = 2.0 ** -53


class IndeterminateRatio(ValueError):
    """The 0/0 projective value; callers should treat this as a deflation."""


@dataclass(frozen=True, slots=True)
class ProjectiveValue:
    """A ratio alpha/beta held as a pair, normalized to max-modulus 1.

    Represents shifts, poles, and eigenvalues uniformly, including infinity
    (beta == 0).  Construction rejects alpha == beta == 0.
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        a = complex(self.alpha)
        b = complex(self.beta)
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("projective value needs finite components")
        m = max(abs(a), abs(b))
        if m == 0.0:
            raise IndeterminateRatio(
                "indeterminate 0/0 value -- caller should treat as deflation"
            )
        object.__setattr__(self, "alpha", a / m)
        object.__setattr__(self, "beta", b / m)

    @property
    def is_infinite(self) -> bool:
        return self.beta == 0

    @property
    def is_zero(self) -> bool:
        return self.alpha == 0

    def to_complex(self) -> complex:
        """The represented value as a complex number; infinity maps to inf+0j."""
        if self.beta == 0:
            return complex(math.inf, 0.0)
        return self.alpha / self.beta

    def reciprocal(self) -> "ProjectiveValue":
        return ProjectiveValue(self.beta, self.alpha)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_infinite:
            return "ProjectiveValue(inf)"
        return f"ProjectiveValue({self.to_complex():.6g})"


def make_projective(alpha: complex, beta: complex) -> ProjectiveValue:
    """Normalized projective pair representing alpha/beta (beta=0 means inf)."""
    return ProjectiveValue(alpha, beta)


INFINITY = make_projective(1.0, 0.0)


def chordal_distance(p: ProjectiveValue, q: ProjectiveValue) -> float:
    """Metric on the projective line; handles infinite values uniformly."""
    num = abs(p.alpha * q.beta - q.alpha * p.beta)
    dp = math.hypot(abs(p.alpha), abs(p.beta))
    dq = math.hypot(abs(q.alpha), abs(q.beta))
    return num / (dp * dq)


# ---------------------------------------------------------------------------
# Core transformations
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CoreTransformation:
    """Unitary acting on rows/columns (index, index+1) of a larger matrix.

    The active 2x2 block is ``[[c, -conj(s)], [s, conj(c)]]`` with
    |c|^2 + |s|^2 == 1, so the embedded matrix is unitary and has
    determinant one.  ``index`` is 0-based.
    """

    c: complex
    s: complex
    index: int = 0

    def __post_init__(self):
        c = complex(self.c)
        s = complex(self.s)
        n2 = c.real * c.real + c.imag * c.imag + s.real * s.real + s.imag * s.imag
        if abs(n2 - 1.0) > 16.0 * UNIT_ROUNDOFF:
            raise ValueError(f"core transformation not unitary: |c|^2+|s|^2 = {n2!r}")
        self.c = c
        self.s = s

    @classmethod
    def trusted(cls, c: complex, s: complex, index: int) -> "CoreTransformation":
        """The core (c, s) at ``index``, built without the unitarity check:
        for (c, s) that a rotation construction has just normalized, such as
        the swap kernel's output, which the solver records for every move."""
        core = object.__new__(cls)
        core.c = c
        core.s = s
        core.index = index
        return core

    @property
    def is_identity(self) -> bool:
        return self.c == 1.0 and self.s == 0.0

    def matrix(self) -> np.ndarray:
        return core_matrix(self.c, self.s)

    def embed(self, n: int) -> np.ndarray:
        if not 0 <= self.index < n - 1:
            raise IndexError(f"core index {self.index} out of range for n={n}")
        g = np.eye(n, dtype=complex)
        g[self.index : self.index + 2, self.index : self.index + 2] = self.matrix()
        return g

    def at(self, index: int) -> "CoreTransformation":
        return CoreTransformation(self.c, self.s, index)


def core_matrix(c: complex, s: complex) -> np.ndarray:
    """The 2x2 array ``[[c, -conj(s)], [s, conj(c)]]`` of the core (c, s).

    numpy builds it about three times faster from Python ``complex`` than
    from numpy scalars, so callers holding numpy scalars convert them first;
    the conversion is exact.  A flat list reshaped builds faster than a
    nested literal.
    """
    return np.array([c, -s.conjugate(), s, c.conjugate()], dtype=complex).reshape(2, 2)


def core_stack_matrix(zc: complex, zs: complex, qc: complex, qs: complex) -> np.ndarray:
    """The (4, 2, 2) array ``[z, z, z, q]`` of the right core (zc, zs) and
    the Q core (qc, qs).

    Applied from the right to a pencil's (A, B, Z, Q) buffer, it updates
    A, B and Z with the right core and Q with the Q core in one matmul.
    """
    z = [zc, -zs.conjugate(), zs, zc.conjugate()]
    return np.array(z * 3 + [qc, -qs.conjugate(), qs, qc.conjugate()], dtype=complex).reshape(4, 2, 2)


def identity_core(index: int = 0) -> CoreTransformation:
    return CoreTransformation(1.0, 0.0, index)


def _annihilate(v1: complex, v2: complex) -> tuple[complex, complex, float]:
    """(c, s, gamma) with G*(v1,v2)^T = (gamma, 0)^T and gamma = ||v||.

    Scales by the larger component modulus before combining so entries near
    the underflow/overflow thresholds survive.  If v2 == 0 the identity is
    returned (the first entry keeps its phase; only its modulus equals gamma).
    """
    a1 = abs(v1)
    a2 = abs(v2)
    if a2 == 0.0:
        if a1 == 0.0:
            raise ValueError("cannot annihilate a zero vector: no direction")
        return 1.0 + 0.0j, 0.0j, a1
    m = a1 if a1 >= a2 else a2
    w1 = v1 / m
    w2 = v2 / m
    # the per-component squares are grouped so the sum is invariant under
    # exchanging the two components; column and row constructions then agree
    # bitwise where they correspond algebraically
    h = math.sqrt(
        (w1.real * w1.real + w1.imag * w1.imag)
        + (w2.real * w2.real + w2.imag * w2.imag)
    )
    return w1 / h, w2 / h, m * h


def _row_annihilate(w1: complex, w2: complex) -> tuple[complex, complex, float]:
    """(c, s, gamma) with (w1, w2) @ G = (0, gamma'), |gamma'| = gamma = ||w||.

    Row-vector dual of :func:`_annihilate`; if w1 == 0 the identity is
    returned.
    """
    a1 = abs(w1)
    a2 = abs(w2)
    if a1 == 0.0:
        if a2 == 0.0:
            raise ValueError("cannot annihilate a zero row vector: no direction")
        return 1.0 + 0.0j, 0.0j, a2
    m = a1 if a1 >= a2 else a2
    u1 = w1 / m
    u2 = w2 / m
    h = math.sqrt(
        (u1.real * u1.real + u1.imag * u1.imag)
        + (u2.real * u2.real + u2.imag * u2.imag)
    )
    return u2 / h, -u1 / h, m * h


def core_annihilating(v, index: int = 0) -> tuple[CoreTransformation, float]:
    """Core G with G* v = gamma e1, gamma = ||v||_2 > 0.

    Raises ValueError on a zero vector (caller decides: identity core or
    deflation).
    """
    v1, v2 = complex(v[0]), complex(v[1])
    c, s, gamma = _annihilate(v1, v2)
    return CoreTransformation(c, s, index), gamma


def core_row_annihilating(w, index: int = 0) -> tuple[CoreTransformation, float]:
    """Core G with (w1, w2) G proportional to e2^T, the row-space dual."""
    w1, w2 = complex(w[0]), complex(w[1])
    c, s, gamma = _row_annihilate(w1, w2)
    return CoreTransformation(c, s, index), gamma


def apply_core(m: np.ndarray, core: CoreTransformation, side: str, conjugate: bool = False) -> np.ndarray:
    """Apply a core in place: G*.M / G.M on rows, or M.G / M.G* on columns.

    ``side='left'`` touches rows (index, index+1); ``side='right'`` touches
    the corresponding columns.  All other entries are untouched.  The core
    acts on the last two axes, so a (2, n, n) stack of A and B is updated by
    one matmul, with the same bits as one call per matrix.
    """
    r = core.matrix()
    if conjugate:
        r = r.conj().T
    return apply_core_matrix(m, r, core.index, side)


def apply_core_matrix(m: np.ndarray, r: np.ndarray, j: int, side: str) -> np.ndarray:
    """:func:`apply_core` with the core's 2x2 array ``r`` already built:
    rows (j, j+1) of the last two axes become ``r @ rows`` (``side='left'``),
    or columns (j, j+1) become ``columns @ r`` (``side='right'``).  A caller
    applying one core to several matrices builds its array once.  A stacked
    ``r`` of shape (k, 2, 2) applies a different core to each matrix of a
    (k, n, n) stack.  numpy multiplies a stack one matrix at a time, so
    each matrix gets the bits of its own 2-D matmul."""
    if side == "left":
        if not 0 <= j < m.shape[-2] - 1:
            raise IndexError(f"row index {j} out of range")
        m[..., j : j + 2, :] = r @ m[..., j : j + 2, :]
    elif side == "right":
        if not 0 <= j < m.shape[-1] - 1:
            raise IndexError(f"column index {j} out of range")
        m[..., :, j : j + 2] = m[..., :, j : j + 2] @ r
    else:
        raise ValueError("side must be 'left' or 'right'")
    return m


# ---------------------------------------------------------------------------
# Dense matrix helpers
# ---------------------------------------------------------------------------


def ensure_complex_matrix(m, square: bool = False) -> np.ndarray:
    """Validate and convert to a dense complex128 array with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return arr


def two_norm_2x2(m00: complex, m01: complex, m10: complex, m11: complex) -> float:
    """Exact spectral norm of a 2x2 via the closed-form singular values.

    sigma_max^2 = (f + sqrt(f^2 - 4 d^2)) / 2 with f = ||M||_F^2 and
    d = |det M|; entries are pre-scaled by the largest modulus so the squares
    stay in range.
    """
    a0, a1, a2, a3 = abs(m00), abs(m01), abs(m10), abs(m11)
    m = max(a0, a1, a2, a3)
    if m == 0.0:
        return 0.0
    w00, w01, w10, w11 = m00 / m, m01 / m, m10 / m, m11 / m
    f = (
        w00.real * w00.real + w00.imag * w00.imag
        + w01.real * w01.real + w01.imag * w01.imag
        + w10.real * w10.real + w10.imag * w10.imag
        + w11.real * w11.real + w11.imag * w11.imag
    )
    d = abs(w00 * w11 - w01 * w10)
    disc = f * f - 4.0 * d * d
    if disc < 0.0:
        disc = 0.0
    return m * math.sqrt(0.5 * (f + math.sqrt(disc)))

