"""Sweep drivers and the dense generalized eigenvalue solver.

The basic iteration installs a shift as the top pole (type I), swaps it down
through every interior position (type II), and removes it at the bottom while
installing a replacement pole (type I).  With all poles infinite this is
exactly single-shift QZ.  Multishift sweeps chase a chain of shifts together;
bidirectional sweeps pass a downward chain and an upward chain through each
other.  All three are :func:`poleswap.moves.chase_chains` with different
chains; this module adds their argument checks.  The solver wraps the
sweeps in a deflation loop and accumulates the Schur transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .moves import MoveRecord, chase_chains
from .numerics import (
    UNIT_ROUNDOFF,
    ProjectiveValue,
    chordal_distance,
    ensure_complex_matrix,
    make_projective,
)
from .pencil import (
    HessenbergPencil,
    detect_deflations,
    is_hessenberg,
    reduce_to_hessenberg_triangular,
    set_poles,
)
from .swapkernel import SwapMethod

INF = make_projective(1.0, 0.0)


@dataclass(slots=True)
class SweepRecord:
    """Ordered move log of one sweep.

    ``shift_in`` lists the shifts introduced; ``pole_out`` the replacement
    poles the sweep was asked to install with its closing type I moves,
    also when a deflation ended it before them (empty for bidirectional
    sweeps and parked multishift sweeps, which leave their chains in the
    pencil).  A deflation event truncates the log.
    """

    moves: list[MoveRecord]
    shift_in: list[ProjectiveValue]
    pole_out: list[ProjectiveValue]
    direction: str  # 'down' | 'up' | 'bidirectional'
    deflation: object | None = None


@dataclass
class SolveOptions:
    method: SwapMethod = SwapMethod.NEW
    shift: str = "wilkinson"  # or 'rayleigh'
    pole: str = "infinity"  # replacement-pole strategy: 'infinity' | 'rayleigh'
    tol_deflate: float | None = None
    max_sweeps_per_eigenvalue: int = 30
    exceptional_every: int = 10
    seed: int = 0  # for the exceptional-shift perturbations only
    prescribed_poles: list | None = None
    record_sweeps: bool = True


@dataclass
class SolveResult:
    eigenvalues: list[ProjectiveValue]
    schur_a: np.ndarray
    schur_b: np.ndarray
    q: np.ndarray
    z: np.ndarray
    r_a: float
    r_b: float
    iteration_count: int
    sweep_log: list[SweepRecord] = field(default_factory=list)
    converged: bool = True
    stuck_block: tuple[int, int] | None = None


def choose_shift(p: HessenbergPencil, strategy: str = "wilkinson", position: str = "bottom") -> ProjectiveValue:
    """Shift from the trailing (or leading) corner of the active block.

    'rayleigh' takes the corner diagonal ratio; 'wilkinson' takes whichever
    eigenvalue of the corner 2x2 subpencil lies closer to the Rayleigh value
    in the chordal metric.
    """
    if p.active_n < 2:
        raise ValueError("active block too small for a shift")
    a, b = p.a, p.b
    if position == "bottom":
        k = p.hi - 1
        rayleigh = make_projective(a[k, k], b[k, k])
        corner = slice(p.hi - 2, p.hi)
    elif position == "top":
        k = p.lo
        rayleigh = make_projective(a[k, k], b[k, k])
        corner = slice(p.lo, p.lo + 2)
    else:
        raise ValueError("position must be 'bottom' or 'top'")
    if strategy == "rayleigh":
        return rayleigh
    if strategy != "wilkinson":
        raise ValueError("shift strategy must be 'rayleigh' or 'wilkinson'")
    try:
        e1, e2 = oracle.eig_2x2(a[corner, corner], b[corner, corner])
    except oracle.OracleError:
        return rayleigh
    if chordal_distance(e1, rayleigh) <= chordal_distance(e2, rayleigh):
        return e1
    return e2


def basic_sweep(p, rho, new_pole=INF, method=SwapMethod.NEW, accumulate=None) -> SweepRecord:
    """One single-shift iteration: install rho on top, chase it to the bottom,
    replace it by ``new_pole``.  A deflation encountered on the way truncates
    the sweep (a success: the caller restarts on the subblocks).
    ``accumulate`` is the (2, n, n) Q/Z stack; each Q core is applied
    together with the next move's Z core (see :mod:`poleswap.moves`)."""
    moves, deflation = chase_chains(p, [rho], [], [new_pole], method, accumulate)
    return SweepRecord(moves, [rho], [new_pole], "down", deflation)


def multishift_sweep(p, shifts, new_poles, method=SwapMethod.NEW, accumulate=None) -> SweepRecord:
    """Chase a chain of m shifts together from the top to the bottom.

    The shifts replace the top m poles (installed in reverse order), the
    chain is chased down by passing each interior pole up through it, and
    finally the shifts are removed from the bottom while ``new_poles`` are
    installed.  Passing ``new_poles=None`` leaves the chain parked at the
    bottom, which is the degenerate (upward-empty) bidirectional sweep.
    """
    shifts = list(shifts)
    m = len(shifts)
    n_act = p.active_n
    if m < 1:
        raise ValueError("need at least one shift")
    if 2 * m >= n_act:
        raise ValueError(f"need m < n_active/2 (m={m}, n_active={n_act})")
    if new_poles is not None:
        new_poles = list(new_poles)
        if len(new_poles) != m:
            raise ValueError("need exactly one replacement pole per shift")
    moves, deflation = chase_chains(p, shifts, [], new_poles, method, accumulate)
    return SweepRecord(moves, shifts, new_poles or [], "down", deflation)


def bidirectional_sweep(p, down, up, method=SwapMethod.NEW, accumulate=None, margin: float = 1e-6) -> SweepRecord:
    """Pass a downward chain and an upward chain through each other.

    After the sweep the interior poles are back where they started and the
    two chains have exchanged ends.  The chains must be chordally separated
    by ``margin``: a downward shift (nearly) equal to an upward shift would
    (nearly) cancel out of the convergence-driving rational function.
    """
    down = list(down)
    up = list(up)
    for rho in down:
        for tau in up:
            if chordal_distance(rho, tau) < margin:
                raise ValueError(
                    "shift/pole near-cancellation: downward shift "
                    f"{rho!r} within {margin} of upward shift {tau!r}"
                )
    n_act = p.active_n
    if len(down) + len(up) > n_act - 1:
        raise ValueError("too many shifts for the active block")
    if down and up:
        direction = "bidirectional"
    elif up:
        direction = "up"
    else:
        direction = "down"
    moves, deflation = chase_chains(p, down, up, None, method, accumulate)
    return SweepRecord(moves, down + up, [], direction, deflation)


def _scaled_residual(m: np.ndarray, q: np.ndarray, t: np.ndarray, z: np.ndarray) -> float:
    """||M - Q T Z*|| / ||M|| with M and T divided by the largest power of two
    not above max|M|, so neither norm can underflow or overflow.  The scaling
    is exact: on matrices of ordinary size it changes no bit of the result."""
    biggest = float(np.max(np.abs(m))) if m.size else 0.0
    if biggest > 0.0:
        # min() keeps the factor finite when max|M| is subnormal
        f = math.ldexp(1.0, min(1 - math.frexp(biggest)[1], 1023))
        m = m * f
        t = t * f
    diff = float(np.linalg.norm(m - q @ t @ z.conj().T))
    nm = float(np.linalg.norm(m))
    return diff / nm if nm > 0 else diff


def schur_residuals(a, b, q, z, schur_a, schur_b) -> tuple[float, float]:
    """Frobenius backward-error residuals of an accumulated Schur form:
    r_A = ||A - Q T_A Z*|| / ||A|| and likewise for B, each computed on the
    matrix scaled to a maximum modulus in [1, 2), so that a pencil with
    entries near 1e-150 does not report a residual of zero."""
    r_a = _scaled_residual(np.asarray(a, dtype=complex), q, schur_a, z)
    r_b = _scaled_residual(np.asarray(b, dtype=complex), q, schur_b, z)
    return r_a, r_b


def _exceptional_shift(p: HessenbergPencil, rng) -> ProjectiveValue:
    # random perturbation of the Rayleigh value; both components move, so
    # the result is finite (and nonzero) even when the corner ratio is 0/x
    # or x/0 and the stalled shift kept reproducing it
    k = p.hi - 1
    alpha = p.a[k, k]
    beta = p.b[k, k]
    scale = abs(alpha) + abs(beta)
    t1 = rng.uniform(0.0, 2.0 * math.pi)
    t2 = rng.uniform(0.0, 2.0 * math.pi)
    return make_projective(
        alpha + 0.5 * scale * complex(math.cos(t1), math.sin(t1)),
        beta + 0.25 * scale * complex(math.cos(t2), math.sin(t2)),
    )


def _sweep_was_noop(rec: SweepRecord) -> bool:
    for m in rec.moves:
        if m.q is not None and not m.q.is_identity:
            return False
        if m.z is not None and not m.z.is_identity:
            return False
    return True


def solve(a, b, options: SolveOptions | None = None) -> SolveResult:
    """Compute all eigenvalues and the generalized Schur form of (A, B).

    A pre-shaped Hessenberg pair (exact zeros below the first subdiagonal)
    is used directly, otherwise the pair is reduced to Hessenberg-triangular
    form first; ``options.prescribed_poles`` installs poles before iterating.
    The deflation loop runs single-shift sweeps on the bottommost irreducible
    block until the pencil is triangular.  A result with ``converged=False``
    and the stuck block is returned if the sweep cap (30 per eigenvalue) is
    exhausted.
    """
    if options is None:
        options = SolveOptions()
    a = ensure_complex_matrix(a, square=True)
    b = ensure_complex_matrix(b, square=True)
    if a.shape != b.shape:
        raise ValueError("A and B must have the same dimension")
    n = a.shape[0]
    eps = options.tol_deflate if options.tol_deflate is not None else UNIT_ROUNDOFF

    if n == 0:
        e = np.eye(0, dtype=complex)
        return SolveResult([], e.copy(), e.copy(), e.copy(), e.copy(), 0.0, 0.0, 0)

    # Q and Z share one (2, n, n) buffer, as A and B do in the pencil
    if is_hessenberg(a) and is_hessenberg(b):
        pencil = HessenbergPencil(a, b)
        qz = np.stack((np.eye(n, dtype=complex),) * 2)
    else:
        pencil, qz = reduce_to_hessenberg_triangular(a, b)
    if options.prescribed_poles is not None:
        pencil.lo, pencil.hi = 0, n
        if any(pencil.subdiagonal_pair_is_zero(j) for j in range(n - 1)):
            raise ValueError(
                "prescribed poles need an unreduced pencil, but the input "
                "already decouples; solve the subproblems separately"
            )
        # set_poles returns an event only when a move split the pencil
        # exactly, leaving the rest of the poles uninstalled; the deflation
        # loop below finds that zero pair itself, so the event is not needed
        set_poles(pencil, options.prescribed_poles, method=options.method, accumulate=qz)

    rng = np.random.default_rng(options.seed)
    sweep_log: list[SweepRecord] = []
    total = 0
    cap = options.max_sweeps_per_eigenvalue * max(n, 1)
    stall = 0
    hi = n
    converged = True
    stuck = None

    while True:
        pencil.lo, pencil.hi = 0, hi
        detect_deflations(pencil, eps)
        while hi > 1 and pencil.subdiagonal_pair_is_zero(hi - 2):
            hi -= 1
            stall = 0
        if hi <= 1:
            break
        lo = hi - 1
        while lo > 0 and not pencil.subdiagonal_pair_is_zero(lo - 1):
            lo -= 1
        if total >= cap:
            converged = False
            stuck = (lo, hi)
            break
        pencil.lo, pencil.hi = lo, hi
        if stall > 0 and stall % options.exceptional_every == 0:
            rho = _exceptional_shift(pencil, rng)
        else:
            rho = choose_shift(pencil, options.shift, "bottom")
        if options.pole == "rayleigh":
            new_pole = make_projective(pencil.a[lo, lo], pencil.b[lo, lo])
        else:
            new_pole = INF
        rec = basic_sweep(pencil, rho, new_pole, options.method, accumulate=qz)
        if options.record_sweeps:
            sweep_log.append(rec)
        total += 1
        stall += 1
        if _sweep_was_noop(rec) and stall % options.exceptional_every != 0:
            # a shift equal to every pole moves nothing (e.g. an infinite
            # Rayleigh value on an all-infinite-pole block); escalate straight
            # to an exceptional shift instead of burning the cap
            stall = options.exceptional_every
        if not np.isfinite(pencil.ab.view(float)).all():
            raise FloatingPointError(
                "non-finite entries appeared mid-run: input or overflow pathology"
            )

    pencil.lo, pencil.hi = 0, n
    eigenvalues = [
        make_projective(pencil.a[i, i], pencil.b[i, i]) for i in range(n)
    ]
    r_a, r_b = schur_residuals(a, b, qz[0], qz[1], pencil.a, pencil.b)
    return SolveResult(
        eigenvalues=eigenvalues,
        schur_a=pencil.a,
        schur_b=pencil.b,
        q=qz[0],
        z=qz[1],
        r_a=r_a,
        r_b=r_b,
        iteration_count=total,
        sweep_log=sweep_log,
        converged=converged,
        stuck_block=stuck,
    )
