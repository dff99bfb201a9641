"""Type I and type II moves on a Hessenberg pencil.

A type I move replaces the pole at the top (or bottom) of the active window
with any prescribed value, using one core applied from the left (or right).
A type II move exchanges two adjacent poles with one left core and one right
core; the 2x2 eigenvalue swap happens in the pole pencil (the pencil with the
first row and last column deleted), whose diagonal blocks carry the poles.

Every move records its provenance (cores, poles in and out, any deflation)
for the convergence-theory verification harness.  Cores are always applied
across the full rows/columns, so an accumulated Q*(A - lambda B)Z equivalence
with the original pencil remains exact; the only entries that would break the
Hessenberg pattern are the swap residuals, which are measured and then set to
exact zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    UNIT_ROUNDOFF,
    CoreTransformation,
    ProjectiveValue,
    apply_core,
    apply_core_matrix,
    core_annihilating,
    core_row_annihilating,
    make_projective,
)
from .pencil import DeflationEvent, HessenbergPencil
from .swapkernel import SwapMethod, TriangularPencil2, swap_cores


@dataclass(slots=True)
class MoveRecord:
    """Provenance of one move.

    ``pole_in`` is the pole entering the affected position from above (for
    type1_top the newly installed value; for type2 the pole that moves down),
    ``pole_out`` the pole leaving it (for type1_bottom the removed value; for
    type2 the pole that moves up).  type1_top has no right core, type1_bottom
    no left core.  ``zeroed_a``/``zeroed_b`` are the moduli of the pattern
    entries set to zero after a type II move.
    """

    kind: str  # 'type1_top' | 'type1_bottom' | 'type2'
    index: int
    q: CoreTransformation | None
    z: CoreTransformation | None
    pole_in: ProjectiveValue
    pole_out: ProjectiveValue
    deflation: DeflationEvent | None = None
    zeroed_a: float = 0.0
    zeroed_b: float = 0.0


def _accumulate(accumulate, core: CoreTransformation, which: str) -> None:
    if accumulate is None:
        return
    q_mat, z_mat = accumulate
    target = q_mat if which == "q" else z_mat
    apply_core(target, core, side="right")


def _deflation_check(p: HessenbergPencil, j: int, eps: float) -> bool:
    sa = abs(p.a[j, j]) + abs(p.a[j + 1, j + 1])
    sb = abs(p.b[j, j]) + abs(p.b[j + 1, j + 1])
    act = slice(p.lo, p.hi)
    if sa == 0.0:
        sa = float(np.linalg.norm(p.a[act, act]))
    if sb == 0.0:
        sb = float(np.linalg.norm(p.b[act, act]))
    return abs(p.a[j + 1, j]) <= eps * sa and abs(p.b[j + 1, j]) <= eps * sb


def move_type1_top(p, rho, accumulate=None, eps: float | None = None) -> MoveRecord:
    """Replace the first pole of the active window by ``rho``.

    Builds the core annihilating the second entry of (beta A - alpha B) e_lo
    and applies its adjoint from the left.  If the resulting subdiagonal pair
    is negligible the first columns of A and B were proportional: the move
    reports a top_eigenvalue deflation instead (a success, not a failure).
    """
    if p.active_n < 2:
        raise ValueError("active block too small for a type I move")
    if eps is None:
        eps = UNIT_ROUNDOFF
    lo = p.lo
    old = p.pole(lo)
    alpha, beta = rho.alpha, rho.beta
    v1 = beta * p.a[lo, lo] - alpha * p.b[lo, lo]
    v2 = beta * p.a[lo + 1, lo] - alpha * p.b[lo + 1, lo]
    if v1 == 0 and v2 == 0:
        # column lo of beta A - alpha B vanishes: the pole already equals rho
        core = CoreTransformation(1.0, 0.0, lo)
    else:
        core, _ = core_annihilating((v1, v2), index=lo)
    if not core.is_identity:
        apply_core(p.ab, core, side="left", conjugate=True)
        _accumulate(accumulate, core, "q")
    deflation = None
    if _deflation_check(p, lo, eps):
        p.a[lo + 1, lo] = 0.0
        p.b[lo + 1, lo] = 0.0
        deflation = DeflationEvent(
            lo, "top_eigenvalue", make_projective(p.a[lo, lo], p.b[lo, lo])
        )
    return MoveRecord("type1_top", lo, core, None, rho, old, deflation)


def move_type1_bottom(p, tau, accumulate=None, eps: float | None = None) -> MoveRecord:
    """Replace the last pole of the active window by ``tau``.

    The row vector e_k^T (beta A - alpha B) has nonzero entries only in its
    last two positions; the right core maps it to a multiple of e_k^T.
    Proportional last rows surface as a bottom_eigenvalue deflation.
    """
    if p.active_n < 2:
        raise ValueError("active block too small for a type I move")
    if eps is None:
        eps = UNIT_ROUNDOFF
    k = p.hi - 1
    old = p.pole(k - 1)
    alpha, beta = tau.alpha, tau.beta
    w1 = beta * p.a[k, k - 1] - alpha * p.b[k, k - 1]
    w2 = beta * p.a[k, k] - alpha * p.b[k, k]
    if w1 == 0 and w2 == 0:
        core = CoreTransformation(1.0, 0.0, k - 1)
    else:
        core, _ = core_row_annihilating((w1, w2), index=k - 1)
    if not core.is_identity:
        apply_core(p.ab, core, side="right")
        _accumulate(accumulate, core, "z")
    deflation = None
    if _deflation_check(p, k - 1, eps):
        p.a[k, k - 1] = 0.0
        p.b[k, k - 1] = 0.0
        deflation = DeflationEvent(
            k - 1, "bottom_eigenvalue", make_projective(p.a[k, k], p.b[k, k])
        )
    return MoveRecord("type1_bottom", k - 1, None, core, tau, old, deflation)


def move_type2(p, j: int, method: SwapMethod = SwapMethod.NEW, accumulate=None) -> MoveRecord:
    """Exchange the adjacent poles at subdiagonal positions j-1 and j.

    The 2x2 block of the pole pencil at those positions (rows j, j+1 crossed
    with columns j-1, j of A and B) is handed to the swap kernel; the kernel
    cores embed as a left core on rows (j, j+1) and a right core on columns
    (j-1, j).  Equal poles give an identity move, never an error.  Only the
    cores are computed: the kernel's 2x2 residual instrumentation is left to
    :func:`swap2x2`, and the move's own record of the entries it zeroes is
    ``zeroed_a``/``zeroed_b``.
    """
    if not p.lo + 1 <= j <= p.hi - 2:
        raise ValueError(f"type II move index {j} outside ({p.lo + 1}, {p.hi - 2})")
    upper = p.pole(j - 1)
    lower = p.pole(j)
    a, b = p.a, p.b
    if a[j, j - 1] * b[j + 1, j] == a[j + 1, j] * b[j, j - 1]:
        # exactly equal poles: swapping is a semantic no-op
        return MoveRecord("type2", j, None, None, upper, lower)
    block = TriangularPencil2(
        a[j, j - 1], a[j, j], a[j + 1, j], b[j, j - 1], b[j, j], b[j + 1, j]
    )
    cores = swap_cores(block, method)
    if cores is None:
        return MoveRecord("type2", j, None, None, upper, lower)
    zc, zs, qc, qs = cores
    q = CoreTransformation(qc, qs, j)
    z = CoreTransformation(zc, zs, j - 1)
    # each core's 2x2 array is built once and serves A, B and Q or Z alike
    qr = q.matrix()
    zr = z.matrix()
    apply_core_matrix(p.ab, zr, j - 1, "right")
    apply_core_matrix(p.ab, qr.conj().T, j, "left")
    if accumulate is not None:
        q_mat, z_mat = accumulate
        apply_core_matrix(q_mat, qr, j, "right")
        apply_core_matrix(z_mat, zr, j - 1, "right")
    zeroed_a = abs(a[j + 1, j - 1])
    zeroed_b = abs(b[j + 1, j - 1])
    a[j + 1, j - 1] = 0.0
    b[j + 1, j - 1] = 0.0
    return MoveRecord("type2", j, q, z, upper, lower, None, zeroed_a, zeroed_b)
