"""Move schedules of the chain-chasing entry points, and their end rules.

Every sweep and ``set_poles`` is one installer and one chase of pole chains
(Camps, Mach, Vandebril & Watkins, arXiv 1906.08672): they differ only in
which chains go where.  The schedules below pin the (kind, index) sequence
of each entry point on the window 2:10 of a 12x12 pencil, so that the index
arithmetic stays the same whichever code produces it.
"""

import math

import numpy as np
import pytest

from poleswap.moves import move_type1_bottom, move_type1_top
from poleswap.numerics import UNIT_ROUNDOFF, make_projective
from poleswap.pencil import HessenbergPencil, set_poles
from poleswap.rqz import INF, basic_sweep, bidirectional_sweep, multishift_sweep

from test_pencil import random_proper_hessenberg

U = UNIT_ROUNDOFF
_ABBREV = {"type1_top": "top", "type1_bottom": "bot", "type2": ""}


def schedule(moves) -> str:
    """'top2 3 bot8' for a type I top move at 2, a type II move at 3 and a
    type I bottom move at 8."""
    return " ".join(f"{_ABBREV[m.kind]}{m.index}" for m in moves)


def pv(x):
    return make_projective(x, 1.0)


def window(hi=10):
    p = random_proper_hessenberg(np.random.default_rng(5), 12)
    p.lo, p.hi = 2, hi
    return p


DOWN = [pv(2.0), pv(1j)]
UP = [pv(-1.0), pv(3.0)]


class TestSchedules:
    def test_basic_sweep(self):
        rec = basic_sweep(window(), pv(2.0), pv(0.5))
        assert schedule(rec.moves) == "top2 3 4 5 6 7 8 bot8"

    def test_multishift_with_removal(self):
        rec = multishift_sweep(window(), DOWN, UP)
        assert schedule(rec.moves) == "top2 3 top2 4 3 5 4 6 5 7 6 8 7 bot8 8 bot8"

    def test_multishift_parked(self):
        rec = multishift_sweep(window(), DOWN, None)
        assert schedule(rec.moves) == "top2 3 top2 4 3 5 4 6 5 7 6 8 7"

    @pytest.mark.parametrize(
        "m_down, m_up, expected",
        [
            (2, 2, "top2 3 top2 bot8 8 bot8 4 3 5 4 6 5 7 6 8 7 5 6 4 5 3 4"),
            (0, 2, "bot8 8 bot8 7 8 6 7 5 6 4 5 3 4"),
            (2, 0, "top2 3 top2 4 3 5 4 6 5 7 6 8 7"),
        ],
    )
    def test_bidirectional(self, m_down, m_up, expected):
        rec = bidirectional_sweep(window(), DOWN[:m_down], UP[:m_up])
        assert schedule(rec.moves) == expected

    @pytest.mark.parametrize(
        "hi, expected",
        [
            # 7 targets: 4 from the top, 3 from the bottom
            (10, "top2 3 4 5 top2 3 4 top2 3 top2 bot8 8 7 bot8 8 bot8"),
            # 6 targets: 3 from the top, 3 from the bottom
            (9, "top2 3 4 top2 3 top2 bot7 7 6 bot7 7 bot7"),
        ],
    )
    def test_set_poles(self, hi, expected):
        p = window(hi)
        records = []
        targets = [pv(0.1 * k + 1j) for k in range(p.active_n - 1)]
        assert set_poles(p, targets, record=records) is None
        assert schedule(records) == expected


def proportional_first_columns(hi=10):
    # the type I top move then deflates and ends the sweep at once
    p = window(hi)
    p.b[:, 2] = (0.3 - 0.7j) * p.a[:, 2]
    return p


def zero_last_row_of_b():
    # all poles in the window infinite, so an infinite shift moves nothing
    # on its way down; B's last row is zero, so the closing type I bottom
    # move exposes an infinite eigenvalue
    p = window()
    for j in range(2, 9):
        p.b[j + 1, j] = 0.0
    p.b[9, :] = 0.0
    return p


class TestTruncatedSweepRecords:
    """``SweepRecord.pole_out`` holds the replacement poles the caller asked
    for, however far the sweep got."""

    def test_basic_sweep_stopped_by_the_top_move(self):
        rec = basic_sweep(proportional_first_columns(), pv(2.0), pv(0.5))
        assert schedule(rec.moves) == "top2"
        assert rec.deflation.kind == "top_eigenvalue"
        assert rec.pole_out == [pv(0.5)]

    def test_basic_sweep_stopped_by_the_bottom_move(self):
        rec = basic_sweep(zero_last_row_of_b(), INF, pv(0.5))
        assert schedule(rec.moves) == "top2 3 4 5 6 7 8 bot8"
        assert rec.deflation.kind == "bottom_eigenvalue"
        assert rec.pole_out == [pv(0.5)]

    def test_multishift_stopped_by_a_top_move(self):
        rec = multishift_sweep(proportional_first_columns(), DOWN, UP)
        assert rec.deflation is not None
        assert rec.pole_out == UP

    def test_bidirectional_requests_no_replacement(self):
        rec = bidirectional_sweep(proportional_first_columns(), DOWN, UP)
        assert rec.deflation is not None
        assert rec.pole_out == []


class TestType1DeflationFallback:
    @pytest.mark.parametrize("factor, deflates", [(0.99, True), (1.01, False)])
    @pytest.mark.parametrize("end", ["top", "bottom"])
    def test_zero_neighbour_sum_falls_back_to_block_norm(self, end, factor, deflates):
        # window 1:5 of a 6x6 pencil.  Inside it A holds only its
        # subdiagonal, so the tested pair's neighbour sum vanishes and the
        # test uses ||A[1:5, 1:5]||_F = sqrt(2), not the norm of the large
        # rows and columns outside.  B's pair at that position is zero, so
        # an infinite pole makes the move an identity.
        n = 6
        a = np.diag([0.0, 1.0, 1.0, 1.0, 0.0], -1).astype(complex)
        a[0, :] = 1e3
        a[:, 5] = 1e3
        b = np.eye(n, dtype=complex) + np.diag([0.0, 1.0, 1.0, 1.0, 0.0], -1)
        j = 1 if end == "top" else 3
        a[j + 1, j] = factor * U * math.sqrt(2.0)
        b[j + 1, j] = 0.0
        p = HessenbergPencil(a, b, lo=1, hi=5)
        move = move_type1_top if end == "top" else move_type1_bottom
        rec = move(p, INF)
        assert rec.index == j
        assert (rec.q or rec.z).is_identity
        assert (rec.deflation is not None) == deflates
        assert (p.a[j + 1, j] == 0.0) == deflates
