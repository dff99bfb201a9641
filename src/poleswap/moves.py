"""Type I and type II moves on a Hessenberg pencil.

A type I move replaces the pole at the top (or bottom) of the active window
with any prescribed value, using one core applied from the left (or right).
A type II move exchanges two adjacent poles with one left core and one right
core; the 2x2 eigenvalue swap happens in the pole pencil (the pencil with the
first row and last column deleted), whose diagonal blocks carry the poles.

Cores update the full rows and columns of A and B, not only the active
window, so the accumulated Q and Z relate the pencil to the one the solve
started from, up to rounding.  The only entry of each matrix that a type II
move leaves outside the Hessenberg pattern is the swap residual at
(j+1, j-1): its modulus is recorded as ``zeroed_a``/``zeroed_b`` and the
entry is set to exact zero.

Every pole-swapping algorithm installs poles with type I moves, chases them
with type II moves and removes them at the far end; single-shift QZ,
multishift and bidirectional sweeps and pole installation differ only in
which chains go where.  So the chain logic lives here once:
:func:`install_chains` puts a downward chain at the top of the active window
and an upward chain at its bottom, and :func:`chase_chains` carries them
through each other to the far ends and, given replacement poles, removes
the downward chain.  The sweeps of :mod:`poleswap.rqz` and
:func:`poleswap.pencil.set_poles` only choose the chains.  A type I move
that deflates ends the chain work, since no pole can cross a split.

Every move returns a :class:`MoveRecord` (cores, poles in and out, any
deflation) for the convergence-theory checks.  A type II move stores the two
subdiagonal pairs it reads as they are; they become normalized
:class:`ProjectiveValue` objects only when ``pole_in``/``pole_out`` is read.

Every core is also accumulated into the pencil's own Q and Z, which share
its (4, n, n) buffer (A, B, Z, Q; see :class:`poleswap.pencil.HessenbergPencil`).
A right core updates A, B and Z with one matmul on ``m[:3]``; a left core
updates A and B with one matmul on ``ab``.  Along a downward chain the Q
core of one move and the right core of the next act on the same two columns
(type I top: Q at lo; type II at j: Q at j and Z at j-1; type I bottom: Z
at hi-2).  So the chain routines pass each move a one-slot ``pending``
list: a move holds its Q core there, and the next right core on the same
columns widens its matmul to all of ``m`` with the 2x2 arrays
``[z, z, z, q]``.  A held core with no such partner is applied alone when
the next right or Q core arrives, and :func:`flush_pending` applies the
last one.  Q is only written while moves run, so holding a Q core back
changes none of its bits.  A move called without ``pending`` applies its
cores at once.  A type II move of a downward chain makes two numpy
matmuls, its fused right update and its left one.  A move followed by one a
position higher (the bottom half of ``set_poles``, the upward half of a
bidirectional sweep, the chase of two or more shifts) makes three, since its
Q core meets no right core on its columns and is applied alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import (
    UNIT_ROUNDOFF,
    CoreTransformation,
    ProjectiveValue,
    _annihilate,
    _row_annihilate,
    apply_core_matrix,
    core_matrix,
    core_stack_matrix,
    make_projective,
)
from .pencil import DeflationEvent, PencilSplit, pair_is_negligible
from .swapkernel import SwapMethod, swap_cores_entries


@dataclass(slots=True)
class MoveRecord:
    """Provenance of one move.

    ``pole_in`` is the pole entering the affected position from above (for
    type1_top the newly installed value; for type2 the pole that moves down),
    ``pole_out`` the pole leaving it (for type1_bottom the removed value; for
    type2 the pole that moves up).  A type II move stores them as the raw
    ``(alpha, beta)`` pairs it read; they are normalized on first read.
    type1_top has no right core, type1_bottom no left core.
    ``zeroed_a``/``zeroed_b`` are the moduli of the pattern entries set to
    zero after a type II move.
    """

    kind: str  # 'type1_top' | 'type1_bottom' | 'type2'
    index: int
    q: CoreTransformation | None
    z: CoreTransformation | None
    _pole_in: ProjectiveValue | tuple
    _pole_out: ProjectiveValue | tuple
    deflation: DeflationEvent | None = None
    zeroed_a: float = 0.0
    zeroed_b: float = 0.0

    @property
    def pole_in(self) -> ProjectiveValue:
        v = self._pole_in
        if type(v) is tuple:
            v = self._pole_in = make_projective(*v)
        return v

    @property
    def pole_out(self) -> ProjectiveValue:
        v = self._pole_out
        if type(v) is tuple:
            v = self._pole_out = make_projective(*v)
        return v


def flush_pending(p, pending: list) -> None:
    """Apply the Q core held in ``pending``, if any, to ``p.q``."""
    if pending:
        j, c, s = pending
        pending.clear()
        apply_core_matrix(p.q, core_matrix(c, s), j, "right")


def _hold_q(p, pending, c: complex, s: complex, j: int) -> None:
    # hold the Q core for the next right core, or apply it now without a chain
    if pending is None:
        apply_core_matrix(p.q, core_matrix(c, s), j, "right")
        return
    flush_pending(p, pending)
    pending.extend((j, c, s))


def _apply_right(p, pending, c: complex, s: complex, j: int) -> None:
    """Apply the right core (c, s) at columns (j, j+1) to A, B and Z in one
    matmul.  A held Q core on the same columns joins that matmul; one held
    on other columns is applied alone."""
    if pending and pending[0] == j:
        _, qc, qs = pending
        pending.clear()
        apply_core_matrix(p.m, core_stack_matrix(c, s, qc, qs), j, "right")
        return
    flush_pending(p, pending)
    apply_core_matrix(p.m[:3], core_matrix(c, s), j, "right")


def move_type1_top(p, rho, eps: float | None = None, pending=None) -> MoveRecord:
    """Replace the first pole of the active window by ``rho``.

    Builds the core annihilating the second entry of (beta A - alpha B) e_lo
    and applies its adjoint from the left.  If the resulting subdiagonal pair
    is negligible (at most ``eps`` relative to its diagonal neighbours) the
    first columns of A and B were proportional: the move reports a
    top_eigenvalue deflation instead (a success, not a failure).
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
        c, s = 1.0 + 0.0j, 0.0j
    else:
        c, s, _ = _annihilate(complex(v1), complex(v2))
    core = CoreTransformation.trusted(c, s, lo)
    if not core.is_identity:
        apply_core_matrix(p.ab, core_matrix(c.conjugate(), -s), lo, "left")
        _hold_q(p, pending, c, s, lo)
    deflation = None
    if pair_is_negligible(p, lo, eps, [None, None]):
        p.a[lo + 1, lo] = 0.0
        p.b[lo + 1, lo] = 0.0
        deflation = DeflationEvent(
            lo, "top_eigenvalue", make_projective(p.a[lo, lo], p.b[lo, lo])
        )
    return MoveRecord("type1_top", lo, core, None, rho, old, deflation)


def move_type1_bottom(p, tau, eps: float | None = None, pending=None) -> MoveRecord:
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
        c, s = 1.0 + 0.0j, 0.0j
    else:
        c, s, _ = _row_annihilate(complex(w1), complex(w2))
    core = CoreTransformation.trusted(c, s, k - 1)
    if not core.is_identity:
        _apply_right(p, pending, c, s, k - 1)
    deflation = None
    if pair_is_negligible(p, k - 1, eps, [None, None]):
        p.a[k, k - 1] = 0.0
        p.b[k, k - 1] = 0.0
        deflation = DeflationEvent(
            k - 1, "bottom_eigenvalue", make_projective(p.a[k, k], p.b[k, k])
        )
    return MoveRecord("type1_bottom", k - 1, None, core, tau, old, deflation)


def move_type2(p, j: int, method: SwapMethod = SwapMethod.NEW, pending=None) -> MoveRecord:
    """Exchange the adjacent poles at subdiagonal positions j-1 and j.

    The 2x2 block of the pole pencil at those positions (rows j, j+1 crossed
    with columns j-1, j of A and B) is handed to the swap kernel; the kernel
    cores embed as a left core on rows (j, j+1) and a right core on columns
    (j-1, j).  A zero subdiagonal pair raises :class:`PencilSplit`; equal
    poles give an identity move, never an error.  Only the cores are
    computed: the kernel's 2x2 residual instrumentation is left to
    :func:`swap2x2`, and the move's own record of the entries it zeroes is
    ``zeroed_a``/``zeroed_b``.
    """
    if not p.lo + 1 <= j <= p.hi - 2:
        raise ValueError(f"type II move index {j} outside ({p.lo + 1}, {p.hi - 2})")
    a, b = p.a, p.b
    a1 = a[j, j - 1]
    x = a[j, j]
    a2 = a[j + 1, j]
    b1 = b[j, j - 1]
    y = b[j, j]
    b2 = b[j + 1, j]
    if a1 == 0 and b1 == 0:
        raise PencilSplit(j - 1)
    if a2 == 0 and b2 == 0:
        raise PencilSplit(j)
    if a1 * b2 == a2 * b1:
        # exactly equal poles: swapping is a semantic no-op
        return MoveRecord("type2", j, None, None, (a1, b1), (a2, b2))
    cores = swap_cores_entries(a1, x, a2, b1, y, b2, method)
    if cores is None:
        return MoveRecord("type2", j, None, None, (a1, b1), (a2, b2))
    # the kernel computes on numpy scalars; the arrays build faster from
    # Python complex, and the conversion is exact
    zc, zs, qc, qs = map(complex, cores)
    _apply_right(p, pending, zc, zs, j - 1)
    # the adjoint of the core (c, s) is the core (conj(c), -s)
    apply_core_matrix(p.ab, core_matrix(qc.conjugate(), -qs), j, "left")
    _hold_q(p, pending, qc, qs, j)
    zeroed_a = abs(a[j + 1, j - 1])
    zeroed_b = abs(b[j + 1, j - 1])
    a[j + 1, j - 1] = 0.0
    b[j + 1, j - 1] = 0.0
    return MoveRecord(
        "type2",
        j,
        CoreTransformation.trusted(qc, qs, j),
        CoreTransformation.trusted(zc, zs, j - 1),
        (a1, b1),
        (a2, b2),
        None,
        zeroed_a,
        zeroed_b,
    )


# ---------------------------------------------------------------------------
# Pole chains
# ---------------------------------------------------------------------------


def _installation(lo: int, hi: int, down: list, up: list):
    # down[t] is chased to lo+t, deepest first, so the chain ends in order;
    # up[t] ends at hi-1-len(up)+t
    for t in range(len(down) - 1, -1, -1):
        yield "type1_top", down[t]
        for j in range(lo + 1, lo + 1 + t):
            yield "type2", j
    for t in range(len(up)):
        yield "type1_bottom", up[t]
        for j in range(hi - 2, hi - 1 - len(up) + t, -1):
            yield "type2", j


def _chase(lo: int, hi: int, down: list, up: list, new_poles: list | None):
    yield from _installation(lo, hi, down, up)
    m_d, m_u = len(down), len(up)
    # carry the downward chain to the bottom: each pole below it floats up
    # through it, the upward chain included ...
    for c in range(lo, hi - 1 - m_d):
        for j in range(c + m_d, c, -1):
            yield "type2", j
    # ... then the upward chain to the top; the interior poles it displaces
    # float back down to where they started
    if m_u:
        for c in range(hi - 1 - m_d - m_u, lo, -1):
            for j in range(c, c + m_u):
                yield "type2", j
    # removing the downward chain is installing the new poles at the bottom
    if new_poles is not None:
        yield from _installation(lo, hi, [], new_poles)


def _run(p, steps, method, eps):
    # the one owner of the move list, the held Q core and the stop rule
    moves: list[MoveRecord] = []
    pending: list = []
    moved = False
    try:
        for kind, arg in steps:
            if kind == "type2":
                rec = move_type2(p, arg, method, pending)
            elif kind == "type1_top":
                rec = move_type1_top(p, arg, eps, pending)
            else:
                rec = move_type1_bottom(p, arg, eps, pending)
            moves.append(rec)
            moved = moved or any(c is not None and not c.is_identity for c in (rec.q, rec.z))
            if rec.deflation is not None:
                return moves, rec.deflation, moved
    finally:
        flush_pending(p, pending)
    return moves, None, moved


def install_chains(p, down, up, method=SwapMethod.NEW, eps: float | None = None):
    """Install a downward chain at the top of the active window and an
    upward chain at its bottom.

    ``down[t]`` is installed by a type I top move and chased by type II
    moves to position lo+t, last element first; ``up[t]`` is installed by a
    type I bottom move and ends at position hi-1-len(up)+t.  ``eps`` is the
    type I moves' deflation threshold.  Returns ``(moves, deflation,
    moved)``: the move records in order, the event of the first type I move
    that deflated (which ends the installation) or None, and whether any
    move applied a core other than the identity.
    """
    return _run(p, _installation(p.lo, p.hi, down, up), method, eps)


def chase_chains(p, down, up, new_poles=None, method=SwapMethod.NEW):
    """Install two chains as :func:`install_chains` does, then carry the
    downward chain to the bottom of the window and the upward chain to its
    top, through each other.

    With ``new_poles`` (one per downward pole) the downward chain is then
    removed at the bottom: the new poles are installed there as an upward
    chain, each replacing the lowest downward pole left.  Without, the
    chains stay parked at the far ends.  Returns ``(moves, deflation,
    moved)`` as :func:`install_chains` does; the first deflation ends the
    chase.
    """
    return _run(p, _chase(p.lo, p.hi, down, up, new_poles), method, None)
