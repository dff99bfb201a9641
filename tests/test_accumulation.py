"""The Q/Z stack: paired and held-back core updates against per-matrix ones.

Every chain of moves accumulates Q and Z in one (2, n, n) stack and applies
a Q core together with the next Z core on the same columns.  The references
here apply each recorded core at once, to Q or Z alone, in move order; the
results must agree word for word.
"""

import numpy as np
import pytest

from poleswap.moves import flush_pending, move_type2
from poleswap.numerics import apply_core, core_annihilating, core_row_annihilating, make_projective
from poleswap.pencil import reduce_to_hessenberg_triangular
from poleswap.rqz import INF, basic_sweep, bidirectional_sweep, multishift_sweep
from poleswap.swapkernel import SwapMethod

from test_moves import bits
from test_pencil import random_pair, random_proper_hessenberg


def identity_stack(n):
    return np.stack((np.eye(n, dtype=complex),) * 2)


def replay(records, n):
    """Q and Z from the recorded cores, each applied at once to its own matrix."""
    q = np.eye(n, dtype=complex)
    z = np.eye(n, dtype=complex)
    for rec in records:
        if rec.q is not None and not rec.q.is_identity:
            apply_core(q, rec.q, side="right")
        if rec.z is not None and not rec.z.is_identity:
            apply_core(z, rec.z, side="right")
    return q, z


def assert_same_bits(qz, q, z):
    assert np.array_equal(bits(qz[0]), bits(q))
    assert np.array_equal(bits(qz[1]), bits(z))


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
            ref = p.copy()
            qz = identity_stack(n)
            rec = basic_sweep(p, pv(rng.normal() + 1j * rng.normal()), pv(0.5j), method, accumulate=qz)
            assert rec.deflation is None and len(rec.moves) == n
            assert_same_bits(qz, *replay(rec.moves, n))
            # accumulation does not touch A and B
            basic_sweep(ref, rec.shift_in[0], pv(0.5j), method)
            assert np.array_equal(bits(p.ab), bits(ref.ab))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_sweep_truncated_by_a_top_deflation_applies_its_q_core(self, method):
        # proportional first columns: the type I top move deflates and ends
        # the sweep while its Q core is held back
        rng = np.random.default_rng(61)
        n = 6
        p = random_proper_hessenberg(rng, n)
        p.b[:, 0] = (0.3 - 0.7j) * p.a[:, 0]
        qz = identity_stack(n)
        rec = basic_sweep(p, pv(2.0 + 1.0j), INF, method, accumulate=qz)
        assert rec.deflation is not None and len(rec.moves) == 1
        assert not rec.moves[0].q.is_identity
        assert_same_bits(qz, *replay(rec.moves, n))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_sweep_with_identity_moves(self, method):
        # poles 0..2 exactly infinite and an infinite shift: the type I top
        # move and the first type II moves are identities, the rest are not
        rng = np.random.default_rng(62)
        n = 8
        p = random_proper_hessenberg(rng, n)
        p.b[1, 0] = p.b[2, 1] = p.b[3, 2] = 0.0
        qz = identity_stack(n)
        rec = basic_sweep(p, INF, pv(1.5), method, accumulate=qz)
        kinds = [(m.kind, m.q is None or m.q.is_identity) for m in rec.moves]
        assert kinds[:3] == [("type1_top", True), ("type2", True), ("type2", True)]
        assert not any(ident for kind, ident in kinds[3:] if kind == "type2")
        assert_same_bits(qz, *replay(rec.moves, n))

    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_multishift_and_bidirectional_sweeps(self, method):
        rng = np.random.default_rng(63)
        n = 10
        for _ in range(4):
            base = stress_scaled(rng, n)
            for run in (
                lambda p, acc: multishift_sweep(p, [pv(2.0), pv(1j)], [pv(-1.0), pv(3.0)], method, acc),
                lambda p, acc: multishift_sweep(p, [pv(0.5), pv(-2j), pv(1.0 + 1j)], None, method, acc),
                lambda p, acc: bidirectional_sweep(p, [pv(2.0)], [pv(-1.0 + 1.0j)], method, acc),
                lambda p, acc: bidirectional_sweep(p, [pv(2.0), pv(1j)], [pv(-1.0), pv(3.0)], method, acc),
                lambda p, acc: bidirectional_sweep(p, [], [pv(0.25), pv(4.0j)], method, acc),
            ):
                p = base.copy()
                qz = identity_stack(n)
                rec = run(p, qz)
                assert rec.deflation is None
                assert_same_bits(qz, *replay(rec.moves, n))

    def test_q_core_held_across_an_identity_move(self):
        # a held Q core at j-1 has no partner when the move at j is an
        # identity and the move at j+1 brings its Z core at j
        rng = np.random.default_rng(64)
        n = 8
        p = random_proper_hessenberg(rng, n)
        qz = identity_stack(n)
        pending = []
        records = [move_type2(p, 2, accumulate=qz, pending=pending)]
        assert pending[0] == 2
        # make the poles at 2 and 3 exactly equal
        p.a[4, 3], p.b[4, 3] = p.a[3, 2], p.b[3, 2]
        records.append(move_type2(p, 3, accumulate=qz, pending=pending))
        assert records[-1].q is None and pending[0] == 2
        records.append(move_type2(p, 4, accumulate=qz, pending=pending))
        records.append(move_type2(p, 5, accumulate=qz, pending=pending))
        flush_pending(qz, pending)
        assert pending == []
        assert_same_bits(qz, *replay(records, n))


def reduce_per_matrix(a, b):
    """The reduction with Q and Z updated one matrix and one core at a time;
    also returns the number of steps whose rotation made no fill in B."""
    n = a.shape[0]
    no_fill = 0
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
            apply_core(ab, g, side="left", conjugate=True)
            apply_core(q, g, side="right")
            a[i, j] = 0.0
            if b[i, i - 1] != 0.0:
                h, _ = core_row_annihilating((b[i, i - 1], b[i, i]), index=i - 1)
                apply_core(ab, h, side="right")
                apply_core(z, h, side="right")
                b[i, i - 1] = 0.0
            else:
                no_fill += 1
    b[np.tril_indices(n, k=-1)] = 0.0
    return ab, q, z, no_fill


class TestReductionOnTheStack:
    def test_paired_update_matches_per_matrix_reduction(self):
        rng = np.random.default_rng(65)
        for n in (3, 7, 12):
            for scale in (1.0, 1e150):
                a, b = random_pair(rng, n)
                p, qz = reduce_to_hessenberg_triangular(scale * a, b / scale)
                ab, q, z, _ = reduce_per_matrix(scale * a, b / scale)
                assert np.array_equal(bits(p.ab), bits(ab))
                assert_same_bits(qz, q, z)

    def test_steps_without_fill_in_b(self):
        # B upper triangular with a real diagonal holding exact zeros: some
        # rotations then make no fill in B, and those steps update Q alone
        rng = np.random.default_rng(66)
        n = 7
        a, b = random_pair(rng, n)
        b = np.triu(b)
        b[np.diag_indices(n)] = rng.normal(size=n)
        b[2, 2] = b[4, 4] = 0.0
        p, qz = reduce_to_hessenberg_triangular(a, b)
        ab, q, z, no_fill = reduce_per_matrix(a, b)
        assert no_fill > 0
        assert np.array_equal(bits(p.ab), bits(ab))
        assert_same_bits(qz, q, z)
