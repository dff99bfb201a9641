"""The Hessenberg-pencil data model.

A Hessenberg pair is a pair of upper Hessenberg matrices (A, B); the ratios
a[j+1, j] / b[j+1, j] along the shared subdiagonal are its poles.  This module
provides pole extraction, properness checks, the direct Hessenberg-triangular
reduction, prescribed-pole installation, deflation detection, and the on-disk
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
    apply_core,
    core_annihilating,
    core_row_annihilating,
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
    full matrices, so an accumulated Q*(A, B)Z equivalence stays exact.

    The pencil owns one (2, n, n) buffer ``ab``; ``a`` and ``b`` are views of
    ``ab[0]`` and ``ab[1]``, so a core applied to ``ab`` updates both
    matrices with one numpy call.  The constructor copies its inputs.
    """

    __slots__ = ("ab", "a", "b", "lo", "hi")

    def __init__(self, a, b, lo: int = 0, hi: int | None = None):
        a = ensure_complex_matrix(a, square=True)
        b = ensure_complex_matrix(b, square=True)
        if a.shape != b.shape:
            raise ValueError("A and B must have the same dimension")
        for m, name in ((a, "A"), (b, "B")):
            if not is_hessenberg(m):
                raise ValueError(f"{name} is not upper Hessenberg (exact zeros required)")
        n = a.shape[0]
        self.lo = lo
        self.hi = n if hi is None else hi
        if not 0 <= self.lo <= self.hi <= n:
            raise ValueError(f"bad active range ({self.lo}, {self.hi}) for n={n}")
        self.ab = np.stack((a, b))
        self.a = self.ab[0]
        self.b = self.ab[1]

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def active_n(self) -> int:
        return self.hi - self.lo

    def copy(self) -> "HessenbergPencil":
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
    n = m.shape[0]
    if n <= 2:
        return True
    ii, jj = np.tril_indices(n, k=-2)
    return not np.any(m[ii, jj])


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


def reduce_to_hessenberg_triangular(a, b):
    """Direct O(n^3) reduction of (A, B) to Hessenberg-triangular form.

    Returns (pencil, Q, Z) with Q* A Z upper Hessenberg and Q* B Z upper
    triangular; all poles of the result are infinite.  B is triangularized by
    a QR factorization, then A is brought to Hessenberg form column by column
    with left rotations whose B-fill is immediately chased away by right
    rotations.
    """
    a = ensure_complex_matrix(a, square=True)
    b = ensure_complex_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError("A and B must have the same dimension")
    n = a.shape[0]
    if n == 0:
        return HessenbergPencil(a, b), np.eye(0, dtype=complex), np.eye(0, dtype=complex)

    q0, r = np.linalg.qr(b)
    ab = np.stack((q0.conj().T @ a, r))
    a = ab[0]
    b = ab[1]
    q = q0.astype(complex)
    z = np.eye(n, dtype=complex)

    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            if a[i, j] == 0.0:
                continue
            # zero A[i, j] from the left, then repair B's (i, i-1) fill
            g, _ = core_annihilating((a[i - 1, j], a[i, j]), index=i - 1)
            apply_core(ab, g, side="left", conjugate=True)
            apply_core(q, g, side="right")
            a[i, j] = 0.0
            if b[i, i - 1] != 0.0:
                h, _ = core_row_annihilating((b[i, i - 1], b[i, i]), index=i - 1)
                apply_core(ab, h, side="right")
                apply_core(z, h, side="right")
                b[i, i - 1] = 0.0
    b[np.tril_indices(n, k=-1)] = 0.0
    return HessenbergPencil(a, b), q, z


def detect_deflations(p: HessenbergPencil, eps: float | None = None) -> list[DeflationEvent]:
    """Zero negligible subdiagonal pairs in the active window and report them.

    Position j splits when BOTH |a[j+1,j]| <= eps*(|a[j,j]| + |a[j+1,j+1]|)
    and the same for B; a vanishing neighbour sum falls back to the Frobenius
    norm of the active block, computed at most once per call and only when
    a neighbour sum vanishes.  The negligible pairs are zeroed after the
    scan, so that norm is always the one of the block as it was passed in.
    Splits at the window edges expose 1x1 blocks and are reported as
    eigenvalue events.
    """
    if eps is None:
        eps = UNIT_ROUNDOFF
    a, b = p.a, p.b
    lo, hi = p.lo, p.hi
    events: list[DeflationEvent] = []
    act = slice(lo, hi)
    fallback_a = fallback_b = None
    for j in range(lo, hi - 1):
        sa = abs(a[j, j]) + abs(a[j + 1, j + 1])
        sb = abs(b[j, j]) + abs(b[j + 1, j + 1])
        if sa == 0.0:
            if fallback_a is None:
                fallback_a = float(np.linalg.norm(a[act, act]))
            sa = fallback_a
        if sb == 0.0:
            if fallback_b is None:
                fallback_b = float(np.linalg.norm(b[act, act]))
            sb = fallback_b
        if abs(a[j + 1, j]) <= eps * sa and abs(b[j + 1, j]) <= eps * sb:
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


def set_poles(p, targets, method=None, accumulate=None, record=None):
    """Install prescribed poles on a proper pencil by moves (two-sided order).

    Targets (length active_n - 1) are installed half from the top in reverse
    order and half from the bottom, which halves the move count relative to
    one-sided installation: at most ceil((n-1)^2/4) type II moves plus n-1
    type I moves.  Mutates the pencil in place; returns a DeflationEvent if
    one is encountered mid-installation (the caller then restarts on the
    subblocks), else None.  ``record``, if a list, collects the MoveRecords.
    """
    from .moves import move_type1_bottom, move_type1_top, move_type2
    from .swapkernel import SwapMethod

    if method is None:
        method = SwapMethod.NEW
    targets = list(targets)
    m = p.active_n - 1
    if len(targets) != m:
        raise ValueError(f"need {m} target poles, got {len(targets)}")
    if m <= 0:
        return None

    def run(rec):
        if record is not None:
            record.append(rec)
        return rec.deflation

    k = (m + 1) // 2
    # top group: targets[k-1], ..., targets[0], each chased down into place
    for t in range(k - 1, -1, -1):
        event = run(move_type1_top(p, targets[t], accumulate=accumulate))
        if event is not None:
            return event
        for j in range(p.lo + 1, p.lo + 1 + t):
            event = run(move_type2(p, j, method=method, accumulate=accumulate))
            if event is not None:
                return event
    # bottom group: targets[k], ..., targets[m-1], each chased up into place
    for t in range(k, m):
        event = run(move_type1_bottom(p, targets[t], accumulate=accumulate))
        if event is not None:
            return event
        for j in range(p.hi - 2, p.lo + t, -1):
            event = run(move_type2(p, j, method=method, accumulate=accumulate))
            if event is not None:
                return event
    return None


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
