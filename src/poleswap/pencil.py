"""The Hessenberg-pencil data model.

A Hessenberg pair is a pair of upper Hessenberg matrices (A, B); the ratios
a[j+1, j] / b[j+1, j] along the shared subdiagonal are its poles.  This module
provides pole extraction, properness checks, the direct Hessenberg-triangular
reduction, prescribed-pole installation, the deflation test, and the on-disk
matrix-pair format used by the CLI.

Entries below the first subdiagonal are kept at exact zero: every routine that
annihilates an entry writes an explicit 0 afterwards, so the Hessenberg
invariant is exact rather than approximate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numerics import (
    UNIT_ROUNDOFF,
    ProjectiveValue,
    _annihilate,
    _row_annihilate,
    apply_core_matrix,
    core_matrix,
    core_stack_matrix,
    ensure_complex_matrix,
    make_projective,
)


class PencilSplit(Exception):
    """Both subdiagonal entries vanish at a position: the problem splits there."""

    def __init__(self, position: int):
        super().__init__(f"split here: subdiagonal pair {position} is (0, 0)")
        self.position = position


@dataclass(slots=True)
class DeflationEvent:
    """One detected decoupling: an interior split or a converged end block."""

    position: int
    kind: str  # 'split' | 'top_eigenvalue' | 'bottom_eigenvalue'
    eigenvalue: ProjectiveValue | None = None

    def __post_init__(self):
        if self.kind == "split" and self.eigenvalue is not None:
            raise ValueError("split events carry no eigenvalue")
        if self.kind in ("top_eigenvalue", "bottom_eigenvalue") and self.eigenvalue is None:
            raise ValueError("end events carry an eigenvalue")


@dataclass(slots=True)
class PropernessReport:
    is_proper: bool
    violation: str | None = None  # 'zero_subdiagonal_pair' | 'proportional_first_columns' | 'proportional_last_rows'
    position: int | None = None


class HessenbergPencil:
    """Pair of n x n dense complex upper Hessenberg matrices with an active window.

    ``lo:hi`` (half-open, 0-based) delimits the currently undeflated block;
    operations act inside the window but row/column updates always span the
    full matrices, so the accumulated Q*(A, B)Z equivalence stays exact.

    The pencil owns one (4, n, n) buffer ``m`` holding A, B, Z and Q in
    that order; ``a``, ``b``, ``z`` and ``q`` are views of it and ``ab`` is
    ``m[:2]``.  Z and Q start at the identity, and every core a move applies
    is accumulated into them, so Q (A, B) Z* is the pair the pencil was
    built from.  A left core updates ``ab``; a right core updates A, B and Z
    with one matmul on ``m[:3]``, or on all of ``m`` when a Q core acts on
    the same columns.  The constructor copies its inputs.
    """

    __slots__ = ("m", "ab", "a", "b", "z", "q", "lo", "hi")

    def __init__(self, a, b, lo: int = 0, hi: int | None = None):
        a = ensure_complex_matrix(a, square=True)
        b = ensure_complex_matrix(b, square=True)
        if a.shape != b.shape:
            raise ValueError("A and B must have the same dimension")
        for m, name in ((a, "A"), (b, "B")):
            if not is_hessenberg(m):
                raise ValueError(f"{name} is not upper Hessenberg (exact zeros required)")
        eye = np.eye(a.shape[0], dtype=complex)
        self._own(np.stack((a, b, eye, eye)), lo, hi)

    def _own(self, m: np.ndarray, lo: int, hi: int | None) -> None:
        n = m.shape[1]
        self.lo = lo
        self.hi = n if hi is None else hi
        if not 0 <= self.lo <= self.hi <= n:
            raise ValueError(f"bad active range ({self.lo}, {self.hi}) for n={n}")
        self.m = m
        self.ab = m[:2]
        self.a, self.b, self.z, self.q = m

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def active_n(self) -> int:
        return self.hi - self.lo

    def copy(self) -> "HessenbergPencil":
        """A and B and the window in a new buffer, with Z and Q reset to I."""
        return HessenbergPencil(self.a, self.b, self.lo, self.hi)

    def pole(self, j: int) -> ProjectiveValue:
        """Pole at subdiagonal position j (entries (j+1, j));  raises
        PencilSplit when both entries are zero."""
        if not self.lo <= j <= self.hi - 2:
            raise IndexError(f"pole position {j} outside active range")
        aj = self.a[j + 1, j]
        bj = self.b[j + 1, j]
        if aj == 0 and bj == 0:
            raise PencilSplit(j)
        return make_projective(aj, bj)

    def poles(self) -> list[ProjectiveValue]:
        return [self.pole(j) for j in range(self.lo, self.hi - 1)]

    def subdiagonal_pair_is_zero(self, j: int) -> bool:
        return self.a[j + 1, j] == 0 and self.b[j + 1, j] == 0


def is_hessenberg(m: np.ndarray) -> bool:
    return m.shape[0] <= 2 or not np.tril(m, -2).any()


def _proportionality(u: np.ndarray, v: np.ndarray) -> float:
    """Ratio of smaller to larger singular value of the stacked n x 2 pair."""
    s = np.linalg.svd(np.column_stack([u, v]), compute_uv=False)
    if s[0] == 0.0:
        return 0.0
    return float(s[-1] / s[0])


def check_proper(p: HessenbergPencil, tol: float | None = None) -> PropernessReport:
    """First violated properness condition, if any.

    Conditions: (i) no subdiagonal position has both entries zero, (ii) the
    first columns of A and B are not proportional, (iii) the last rows are
    not proportional.  Proportionality is graded by the singular-value ratio
    of the stacked pair against ``tol`` (default n*u).
    """
    n_act = p.active_n
    if tol is None:
        tol = max(p.n, 1) * UNIT_ROUNDOFF
    if n_act < 2:
        return PropernessReport(is_proper=True)
    for j in range(p.lo, p.hi - 1):
        if abs(p.a[j + 1, j]) + abs(p.b[j + 1, j]) == 0.0:
            return PropernessReport(False, "zero_subdiagonal_pair", j)
    rows = slice(p.lo, p.hi)
    if _proportionality(p.a[rows, p.lo], p.b[rows, p.lo]) <= tol:
        return PropernessReport(False, "proportional_first_columns", p.lo)
    if _proportionality(p.a[p.hi - 1, rows], p.b[p.hi - 1, rows]) <= tol:
        return PropernessReport(False, "proportional_last_rows", p.hi - 1)
    return PropernessReport(is_proper=True)


def reduce_to_hessenberg_triangular(a, b) -> HessenbergPencil:
    """Direct O(n^3) reduction of (A, B) to Hessenberg-triangular form.

    Returns the pencil (Q* A Z, Q* B Z), upper Hessenberg and upper
    triangular, whose ``q`` and ``z`` hold the reduction's Q and Z; all its
    poles are infinite.  B is triangularized by a QR factorization, then A
    is brought to Hessenberg form column by column with left rotations g
    whose B-fill is immediately chased away by right rotations h.  Both
    rotations of a step act on the same two columns of Q and Z, so one
    matmul with ``[h, h, h, g]`` updates A, B, Z and Q.
    """
    a = ensure_complex_matrix(a, square=True)
    b = ensure_complex_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError("A and B must have the same dimension")
    n = a.shape[0]
    if n == 0:
        return HessenbergPencil(a, b)

    q0, r = np.linalg.qr(b)
    p = HessenbergPencil.__new__(HessenbergPencil)
    p._own(np.stack((q0.conj().T @ a, r, np.eye(n, dtype=complex), q0)), 0, n)
    a, b = p.a, p.b
    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            if a[i, j] == 0.0:
                continue
            # zero A[i, j] from the left, then repair B's (i, i-1) fill
            gc, gs, _ = _annihilate(complex(a[i - 1, j]), complex(a[i, j]))
            # the adjoint of the core (c, s) is the core (conj(c), -s)
            apply_core_matrix(p.ab, core_matrix(gc.conjugate(), -gs), i - 1, "left")
            a[i, j] = 0.0
            if b[i, i - 1] != 0.0:
                hc, hs, _ = _row_annihilate(complex(b[i, i - 1]), complex(b[i, i]))
                apply_core_matrix(p.m, core_stack_matrix(hc, hs, gc, gs), i - 1, "right")
                b[i, i - 1] = 0.0
            else:
                apply_core_matrix(p.q, core_matrix(gc, gs), i - 1, "right")
    b[np.tril_indices(n, k=-1)] = 0.0
    # near the top of the range the reduction can overflow; refuse its
    # result as the constructor refuses non-finite input
    if not np.isfinite(p.ab.view(float)).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return p


def pair_is_negligible(p: HessenbergPencil, j: int, eps: float, norms: list) -> bool:
    """Whether the subdiagonal pair at position j is negligible.

    It is when BOTH |a[j+1,j]| <= eps*(|a[j,j]| + |a[j+1,j+1]|) and the same
    holds for B.  A vanishing neighbour sum falls back to the Frobenius norm
    of that matrix's active block.  ``norms`` caches the two fallback norms
    (pass ``[None, None]``), so a scan that shares it computes each at most
    once, and only when a neighbour sum vanishes.  This is the one
    deflation test: type I moves and :func:`detect_deflations` both use it.
    """
    a, b = p.a, p.b
    sa = abs(a[j, j]) + abs(a[j + 1, j + 1])
    sb = abs(b[j, j]) + abs(b[j + 1, j + 1])
    if sa == 0.0:
        if norms[0] is None:
            norms[0] = float(np.linalg.norm(a[p.lo : p.hi, p.lo : p.hi]))
        sa = norms[0]
    if sb == 0.0:
        if norms[1] is None:
            norms[1] = float(np.linalg.norm(b[p.lo : p.hi, p.lo : p.hi]))
        sb = norms[1]
    return abs(a[j + 1, j]) <= eps * sa and abs(b[j + 1, j]) <= eps * sb


def detect_deflations(p: HessenbergPencil, eps: float | None = None) -> list[DeflationEvent]:
    """Zero negligible subdiagonal pairs in the active window and report them.

    Each position is tested by :func:`pair_is_negligible`, with one norm
    cache for the whole scan.  The negligible pairs are zeroed after the
    scan, so a fallback norm is always the one of the block as it was
    passed in.  Splits at the window edges expose 1x1 blocks and are
    reported as eigenvalue events.
    """
    if eps is None:
        eps = UNIT_ROUNDOFF
    a, b = p.a, p.b
    lo, hi = p.lo, p.hi
    events: list[DeflationEvent] = []
    norms = [None, None]
    for j in range(lo, hi - 1):
        if pair_is_negligible(p, j, eps, norms):
            if j == hi - 2:
                events.append(
                    DeflationEvent(
                        j, "bottom_eigenvalue", make_projective(a[hi - 1, hi - 1], b[hi - 1, hi - 1])
                    )
                )
            elif j == lo:
                events.append(
                    DeflationEvent(j, "top_eigenvalue", make_projective(a[lo, lo], b[lo, lo]))
                )
            else:
                events.append(DeflationEvent(j, "split"))
    for e in events:
        p.ab[:, e.position + 1, e.position] = 0.0
    return events


def set_poles(p, targets, method=None, record=None):
    """Install prescribed poles on a proper pencil by moves (two-sided order).

    Targets (length active_n - 1) are installed half from the top in reverse
    order and half from the bottom, which halves the move count relative to
    one-sided installation: with m = active_n - 1 targets and k = ceil(m/2)
    of them from the top, k(k-1)/2 + (m-k)(m-k-1)/2 type II moves (at most
    ceil(m^2/4)) plus m type I moves.  This is the chain installer of
    :mod:`poleswap.moves` on its own, with ``targets[:k]`` as the downward
    chain and ``targets[k:]`` as the upward one.  Mutates the pencil in
    place, its Q and Z included.

    The type I moves report a deflation only on an exactly zero subdiagonal
    pair (``eps=0``): a merely negligible pair is left for the solver's own
    deflation scan, so every target is installed.  An exact split stops the
    installation, since no move can carry a pole across it; the
    DeflationEvent is returned, and the remaining targets are not
    installed.  Otherwise returns None.  ``record``, if a list, collects the
    MoveRecords.
    """
    from .moves import install_chains
    from .swapkernel import SwapMethod

    if method is None:
        method = SwapMethod.NEW
    targets = list(targets)
    m = p.active_n - 1
    if len(targets) != m:
        raise ValueError(f"need {m} target poles, got {len(targets)}")
    if m <= 0:
        return None
    k = (m + 1) // 2
    moves, deflation, _ = install_chains(p, targets[:k], targets[k:], method, eps=0.0)
    if record is not None:
        record.extend(moves)
    return deflation


# ---------------------------------------------------------------------------
# Matrix-pair file format (shared with the CLI)
# ---------------------------------------------------------------------------


def save_pencil(path, a, b) -> None:
    """Write a matrix pair as JSON: n plus row-major [re, im] entry lists."""
    a = ensure_complex_matrix(a, square=True)
    b = ensure_complex_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError("A and B must have the same dimension")
    payload = {
        "n": int(a.shape[0]),
        "a": [[float(z.real), float(z.imag)] for z in a.ravel()],
        "b": [[float(z.real), float(z.imag)] for z in b.ravel()],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_pencil(path):
    """Read a matrix pair written by :func:`save_pencil`; full binary64
    precision round-trips exactly."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        n = int(payload["n"])
        raw_a = payload["a"]
        raw_b = payload["b"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix file missing field: {exc}") from exc
    if len(raw_a) != n * n or len(raw_b) != n * n:
        raise ValueError(
            f"matrix file inconsistent: n={n} needs {n * n} entries, "
            f"got {len(raw_a)} for A and {len(raw_b)} for B"
        )

    def build(raw, name):
        try:
            flat = np.array([complex(re, im) for re, im in raw], dtype=complex)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix {name}: entries must be [re, im] pairs: {exc}") from exc
        return flat.reshape(n, n)

    return build(raw_a, "a"), build(raw_b, "b")
