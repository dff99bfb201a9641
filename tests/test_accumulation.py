"""The pencil's (A, B, Z, Q) buffer against per-matrix core updates.

Every right core updates A, B and Z with one matmul, widened to Q when a
held Q core acts on the same columns; the HT reduction applies each step's
right core and Q core the same way.  The references here apply each core
at once, through :func:`apply_core`, to one matrix at a time, in move
order; the results must agree word for word.  The last class pins how many
numpy matmuls each kind of step makes.
"""

import numpy as np
import pytest

from poleswap import moves, numerics, pencil
from poleswap.moves import flush_pending, move_type1_bottom, move_type1_top, move_type2
from poleswap.numerics import apply_core, core_annihilating, core_row_annihilating, make_projective
from poleswap.pencil import reduce_to_hessenberg_triangular, set_poles
from poleswap.rqz import INF, SolveOptions, basic_sweep, bidirectional_sweep, multishift_sweep, solve
from poleswap.swapkernel import SwapMethod

from test_moves import bits
from test_pencil import random_pair, random_proper_hessenberg


def replay(records, a, b, q=None, z=None):
    """A, B, Q and Z from the recorded cores, each applied at once to one
    matrix at a time, starting from the pair (a, b) and from Q = Z = I
    unless given."""
    n = a.shape[0]
    a, b = a.copy(), b.copy()
    q = np.eye(n, dtype=complex) if q is None else q.copy()
    z = np.eye(n, dtype=complex) if z is None else z.copy()
    for rec in records:
        if rec.z is not None and not rec.z.is_identity:
            for m in (a, b, z):
                apply_core(m, rec.z, side="right")
        if rec.q is not None and not rec.q.is_identity:
            apply_core(a, rec.q, side="left", conjugate=True)
            apply_core(b, rec.q, side="left", conjugate=True)
            apply_core(q, rec.q, side="right")
        j = rec.index
        if rec.kind == "type2":
            a[j + 1, j - 1] = b[j + 1, j - 1] = 0.0
        elif rec.deflation is not None:
            a[j + 1, j] = b[j + 1, j] = 0.0
    return a, b, q, z


def assert_same_bits(p, a, b, q, z):
    for mine, theirs in ((p.a, a), (p.b, b), (p.q, q), (p.z, z)):
        assert np.array_equal(bits(mine), bits(theirs))


def stress_scaled(rng, n):
    p = random_proper_hessenberg(rng, n)
    p.ab *= 10.0 ** rng.uniform(-6, 6, size=(2, n, n))
    return p


def pv(x):
    return make_projective(x, 1.0)


class TestSweepsOnTheStack:
    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_basic_sweep_matches_per_matrix_replay(self, method):
        rng = np.random.default_rng(60)
        n = 9
        for _ in range(10):
            p = stress_scaled(rng, n)
            start = p.copy()
            rec = basic_sweep(p, pv(rng.normal() + 1j * rng.normal()), pv(0.5j), method)
            assert rec.deflation is None and len(rec.moves) == n
            assert_same_bits(p, *replay(rec.moves, start.a, start.b))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_sweep_truncated_by_a_top_deflation_applies_its_q_core(self, method):
        # proportional first columns: the type I top move deflates and ends
        # the sweep while its Q core is held back
        rng = np.random.default_rng(61)
        n = 6
        p = random_proper_hessenberg(rng, n)
        p.b[:, 0] = (0.3 - 0.7j) * p.a[:, 0]
        start = p.copy()
        rec = basic_sweep(p, pv(2.0 + 1.0j), INF, method)
        assert rec.deflation is not None and len(rec.moves) == 1
        assert not rec.moves[0].q.is_identity
        assert_same_bits(p, *replay(rec.moves, start.a, start.b))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_sweep_with_identity_moves(self, method):
        # poles 0..2 exactly infinite and an infinite shift: the type I top
        # move and the first type II moves are identities, the rest are not
        rng = np.random.default_rng(62)
        n = 8
        p = random_proper_hessenberg(rng, n)
        p.b[1, 0] = p.b[2, 1] = p.b[3, 2] = 0.0
        start = p.copy()
        rec = basic_sweep(p, INF, pv(1.5), method)
        kinds = [(m.kind, m.q is None or m.q.is_identity) for m in rec.moves]
        assert kinds[:3] == [("type1_top", True), ("type2", True), ("type2", True)]
        assert not any(ident for kind, ident in kinds[3:] if kind == "type2")
        assert_same_bits(p, *replay(rec.moves, start.a, start.b))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_multishift_and_bidirectional_sweeps(self, method):
        rng = np.random.default_rng(63)
        n = 10
        for _ in range(4):
            base = stress_scaled(rng, n)
            for run in (
                lambda p: multishift_sweep(p, [pv(2.0), pv(1j)], [pv(-1.0), pv(3.0)], method),
                lambda p: multishift_sweep(p, [pv(0.5), pv(-2j), pv(1.0 + 1j)], None, method),
                lambda p: bidirectional_sweep(p, [pv(2.0)], [pv(-1.0 + 1.0j)], method),
                lambda p: bidirectional_sweep(p, [pv(2.0), pv(1j)], [pv(-1.0), pv(3.0)], method),
                lambda p: bidirectional_sweep(p, [], [pv(0.25), pv(4.0j)], method),
            ):
                p = base.copy()
                rec = run(p)
                assert rec.deflation is None
                assert_same_bits(p, *replay(rec.moves, base.a, base.b))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_set_poles_upward_half_fuses_a_b_and_z(self, method):
        # the bottom half of set_poles is an upward chain: each right core
        # updates A, B and Z in one matmul, and each Q core is applied alone
        rng = np.random.default_rng(68)
        n = 9
        for _ in range(4):
            p = stress_scaled(rng, n)
            start = p.copy()
            targets = [pv(rng.normal() + 1j * rng.normal()) for _ in range(n - 1)]
            records = []
            assert set_poles(p, targets, method, record=records) is None
            assert [r.kind for r in records].count("type1_bottom") == (n - 1) // 2
            assert_same_bits(p, *replay(records, start.a, start.b))

    def test_q_core_held_across_an_identity_move(self):
        # a held Q core at j-1 has no partner when the move at j is an
        # identity and the move at j+1 brings its Z core at j
        rng = np.random.default_rng(64)
        n = 8
        p = random_proper_hessenberg(rng, n)
        start = p.copy()
        pending = []
        records = [move_type2(p, 2, pending=pending)]
        assert pending[0] == 2
        a, b, q, z = replay(records, start.a, start.b)
        assert np.array_equal(bits(p.ab), bits(np.stack((a, b))))
        # make the poles at 2 and 3 exactly equal
        p.a[4, 3], p.b[4, 3] = p.a[3, 2], p.b[3, 2]
        middle = p.copy()
        records.append(move_type2(p, 3, pending=pending))
        assert records[-1].q is None and pending[0] == 2
        records.append(move_type2(p, 4, pending=pending))
        records.append(move_type2(p, 5, pending=pending))
        flush_pending(p, pending)
        assert pending == []
        assert_same_bits(p, *replay(records[1:], middle.a, middle.b, q, z))


class TestType1Moves:
    def test_top_move_matches_the_validated_core(self):
        rng = np.random.default_rng(69)
        n = 7
        for _ in range(20):
            p = stress_scaled(rng, n)
            p.lo, p.hi = 1, 6
            a, b = p.a.copy(), p.b.copy()
            rho = pv(rng.normal() + 1j * rng.normal())
            rec = move_type1_top(p, rho)
            v = (rho.beta * a[1, 1] - rho.alpha * b[1, 1], rho.beta * a[2, 1] - rho.alpha * b[2, 1])
            g, _ = core_annihilating(v, index=1)
            apply_core(a, g, side="left", conjugate=True)
            apply_core(b, g, side="left", conjugate=True)
            q = apply_core(np.eye(n, dtype=complex), g, side="right")
            assert np.array_equal(bits([rec.q.c, rec.q.s]), bits([g.c, g.s]))
            assert_same_bits(p, a, b, q, np.eye(n))

    def test_bottom_move_matches_the_validated_core(self):
        rng = np.random.default_rng(70)
        n = 7
        for _ in range(20):
            p = stress_scaled(rng, n)
            p.lo, p.hi = 1, 6
            a, b = p.a.copy(), p.b.copy()
            tau = pv(rng.normal() + 1j * rng.normal())
            rec = move_type1_bottom(p, tau)
            w = (tau.beta * a[5, 4] - tau.alpha * b[5, 4], tau.beta * a[5, 5] - tau.alpha * b[5, 5])
            h, _ = core_row_annihilating(w, index=4)
            for m in (a, b):
                apply_core(m, h, side="right")
            z = apply_core(np.eye(n, dtype=complex), h, side="right")
            assert np.array_equal(bits([rec.z.c, rec.z.s]), bits([h.c, h.s]))
            assert_same_bits(p, a, b, np.eye(n), z)

    @pytest.mark.parametrize("method", list(SwapMethod))
    @pytest.mark.parametrize("offset", [2, 3])
    def test_bottom_move_meets_a_held_q_core(self, method, offset):
        # the Q core of a type II move at n-2 acts on the columns of the
        # type I bottom move's right core, so both go into one matmul; one
        # held at n-3 is applied alone first
        rng = np.random.default_rng(71)
        n = 7
        for _ in range(5):
            p = stress_scaled(rng, n)
            start = p.copy()
            pending = []
            records = [move_type2(p, n - offset, method, pending=pending)]
            assert pending[0] == n - offset
            records.append(move_type1_bottom(p, pv(0.5j), pending=pending))
            assert pending == []
            assert_same_bits(p, *replay(records, start.a, start.b))


def reduce_per_matrix(a, b):
    """The reduction with every core applied through apply_core, one matrix
    at a time; also returns the number of steps with and without fill in B."""
    n = a.shape[0]
    fill = no_fill = 0
    q0, r = np.linalg.qr(b)
    ab = np.stack((q0.conj().T @ a, r))
    a, b = ab[0], ab[1]
    q = q0.copy()
    z = np.eye(n, dtype=complex)
    for j in range(n - 2):
        for i in range(n - 1, j + 1, -1):
            if a[i, j] == 0.0:
                continue
            g, _ = core_annihilating((a[i - 1, j], a[i, j]), index=i - 1)
            apply_core(a, g, side="left", conjugate=True)
            apply_core(b, g, side="left", conjugate=True)
            apply_core(q, g, side="right")
            a[i, j] = 0.0
            if b[i, i - 1] != 0.0:
                h, _ = core_row_annihilating((b[i, i - 1], b[i, i]), index=i - 1)
                for m in (a, b, z):
                    apply_core(m, h, side="right")
                b[i, i - 1] = 0.0
                fill += 1
            else:
                no_fill += 1
    b[np.tril_indices(n, k=-1)] = 0.0
    return a, b, q, z, fill, no_fill


class TestReductionOnTheStack:
    def test_paired_update_matches_per_matrix_reduction(self):
        rng = np.random.default_rng(65)
        for n in (3, 7, 12, 20):
            for scale in (1.0, 1e150):
                a, b = random_pair(rng, n)
                if n == 20:
                    a *= 10.0 ** rng.uniform(-6, 6, size=(n, n))
                p = reduce_to_hessenberg_triangular(scale * a, b / scale)
                *ref, fill, _ = reduce_per_matrix(scale * a, b / scale)
                assert fill == (n - 1) * (n - 2) // 2
                assert_same_bits(p, *ref)

    def test_steps_without_fill_in_b(self):
        # B upper triangular with a real diagonal holding exact zeros: some
        # rotations then make no fill in B, and those steps update Q alone
        rng = np.random.default_rng(66)
        n = 7
        a, b = random_pair(rng, n)
        b = np.triu(b)
        b[np.diag_indices(n)] = rng.normal(size=n)
        b[2, 2] = b[4, 4] = 0.0
        p = reduce_to_hessenberg_triangular(a, b)
        *ref, _, no_fill = reduce_per_matrix(a, b)
        assert no_fill > 0
        assert_same_bits(p, *ref)


@pytest.fixture
def matmuls(monkeypatch):
    """Count the numpy matmuls that apply cores, in total and per move.

    Every module's binding of ``apply_core_matrix`` is wrapped, so calls
    through ``apply_core`` count too.  Returns ``(total, log)``: ``total[0]``
    is the running count and ``log`` gets one ``(kind, index, calls)`` entry
    per move, with the calls made while that move ran.
    """
    total = [0]
    log = []
    original = numerics.apply_core_matrix

    def counted(*args):
        total[0] += 1
        return original(*args)

    for module in (numerics, moves, pencil):
        monkeypatch.setattr(module, "apply_core_matrix", counted)
    for name in ("move_type2", "move_type1_top", "move_type1_bottom"):
        def logged(*args, _move=getattr(moves, name), **kwargs):
            before = total[0]
            rec = _move(*args, **kwargs)
            log.append((rec.kind, rec.index, total[0] - before))
            return rec

        monkeypatch.setattr(moves, name, logged)
    return total, log


class TestMatmulCounts:
    def test_set_poles_with_both_halves_then_downward_sweeps(self, matmuls):
        # solve with n-1 prescribed poles: set_poles installs 5 from the
        # top and 4 from the bottom, then single-shift sweeps chase down
        _, log = matmuls
        rng = np.random.default_rng(72)
        n = 10
        p = random_proper_hessenberg(rng, n)
        targets = [pv(rng.normal() + 1j * rng.normal()) for _ in range(n - 1)]
        assert solve(p.a, p.b, SolveOptions(prescribed_poles=targets)).converged
        installation, sweeps = log[:25], log[25:]
        abbrev = {"type1_top": "top", "type1_bottom": "bot", "type2": ""}
        assert " ".join(f"{abbrev[k]}{j}" for k, j, _ in installation) == (
            "top0 1 2 3 4 top0 1 2 3 top0 1 2 top0 1 top0 "
            "bot8 8 7 6 bot8 8 7 bot8 8 bot8"
        )
        # downward half: each type II move makes 2, its right core fused
        # with the Q core held by the move before it, and its left core; a
        # type I top move makes its left core, plus the Q core left over
        # from the previous chain.  Upward half: a type II move makes 3,
        # its fused right core, its left core and the Q core of the move
        # before it, which meets no right core on its columns; the first
        # after a type I bottom move has none to flush, and the last type I
        # bottom move takes the held Q core into its own matmul.
        assert [c for _, _, c in installation] == [
            1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
            2, 2, 3, 3, 2, 2, 3, 2, 2, 1,
        ]
        # the sweeps' type II moves chase down: 2 each, except one whose
        # predecessor was an identity move and so left the Q core it holds
        # on other columns
        previous = installation[-1]
        checked = 0
        for move in sweeps:
            kind, j, calls = move
            if kind == "type2" and previous[:2] in (("type2", j - 1), ("type1_top", j - 1)) and previous[2]:
                assert calls == 2
                checked += 1
            previous = move
        assert checked > 100

    def test_reduction_makes_two_per_step(self, matmuls):
        total, _ = matmuls
        rng = np.random.default_rng(73)
        n = 12
        a, b = random_pair(rng, n)
        reduce_to_hessenberg_triangular(a, b)
        # every step has fill in B: its left core on A and B, then one
        # [h, h, h, g] matmul on A, B, Z and Q
        assert total[0] == 2 * (n - 1) * (n - 2) // 2
        # a step without fill makes its left core and its Q core alone
        b = np.triu(b)
        b[np.diag_indices(n)] = rng.normal(size=n)
        b[2, 2] = b[4, 4] = 0.0
        total[0] = 0
        reduce_to_hessenberg_triangular(a, b)
        assert total[0] == 2 * (n - 1) * (n - 2) // 2
