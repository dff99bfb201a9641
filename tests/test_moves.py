import math

import numpy as np
import pytest

from poleswap.moves import move_type1_bottom, move_type1_top, move_type2
from poleswap.numerics import (
    UNIT_ROUNDOFF,
    apply_core,
    chordal_distance,
    make_projective,
)
from poleswap.pencil import HessenbergPencil, reduce_to_hessenberg_triangular
from poleswap.swapkernel import SwapMethod, TriangularPencil2, swap2x2

from test_pencil import random_pair, random_proper_hessenberg

U = UNIT_ROUNDOFF
INF = make_projective(1.0, 0.0)


def sine_of_angle(u, v):
    # projection-residual form: resolves angles far below sqrt(eps)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    w = v - u * np.vdot(u, v)
    return min(1.0, float(np.linalg.norm(w)))


class TestType1Top:
    def test_infinite_pole_on_ht_pair_is_identity(self):
        rng = np.random.default_rng(0)
        p, _, _ = reduce_to_hessenberg_triangular(*random_pair(rng, 4))
        a0 = p.a.copy()
        rec = move_type1_top(p, INF)
        assert rec.q.is_identity
        np.testing.assert_array_equal(p.a, a0)

    def test_zero_shift_2x2_example(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        b = np.eye(2, dtype=complex)
        p = HessenbergPencil(a, b)
        rec = move_type1_top(p, make_projective(0.0, 1.0))
        assert rec.deflation is None
        assert abs(p.a[1, 0]) <= 8 * U * 4
        assert abs(abs(p.b[1, 0]) - 3 / math.sqrt(10)) <= 8 * U
        assert p.pole(0).to_complex() == pytest.approx(0.0, abs=8 * U)

    def test_proportional_columns_deflate(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        p = HessenbergPencil(a.copy(), a.copy())
        rec = move_type1_top(p, make_projective(5.0, 1.0))
        assert rec.deflation is not None
        assert rec.deflation.kind == "top_eigenvalue"
        # exposed eigenvalue is a11_hat / b11_hat = 1 for A == B
        assert rec.deflation.eigenvalue.to_complex() == pytest.approx(1.0)
        assert p.a[1, 0] == 0.0 and p.b[1, 0] == 0.0

    def test_pole_locality_bitwise(self):
        rng = np.random.default_rng(1)
        p = random_proper_hessenberg(rng, 6)
        before = [(p.a[j + 1, j], p.b[j + 1, j]) for j in range(5)]
        move_type1_top(p, make_projective(1.5 - 0.5j, 1.0))
        after = [(p.a[j + 1, j], p.b[j + 1, j]) for j in range(5)]
        assert after[1:] == before[1:]

    def test_new_pole_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_proper_hessenberg(rng, 5)
            rho = make_projective(rng.normal() + 1j * rng.normal(), 1.0)
            move_type1_top(p, rho)
            assert abs(p.pole(0).alpha * rho.beta - rho.alpha * p.pole(0).beta) <= 100 * U


class TestType1Bottom:
    def test_infinite_pole_on_ht_pair_is_identity(self):
        rng = np.random.default_rng(3)
        p, _, _ = reduce_to_hessenberg_triangular(*random_pair(rng, 4))
        b0 = p.b.copy()
        rec = move_type1_bottom(p, INF)
        assert rec.z.is_identity
        np.testing.assert_array_equal(p.b, b0)

    def test_mirror_of_top_example(self):
        # flip-transpose of the type1_top example: last pole becomes tau
        a = np.array([[4.0, 3.0], [2.0, 1.0]], dtype=complex)
        b = np.eye(2, dtype=complex)
        p = HessenbergPencil(a, b)
        tau = make_projective(0.0, 1.0)
        rec = move_type1_bottom(p, tau)
        assert rec.deflation is None
        assert abs(p.a[1, 0]) <= 8 * U * 4
        assert p.pole(0).to_complex() == pytest.approx(0.0, abs=8 * U)

    def test_proportional_rows_deflate(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
        p = HessenbergPencil(a.copy(), (2.0 + 0j) * a.copy())
        rec = move_type1_bottom(p, make_projective(5.0, 1.0))
        assert rec.deflation is not None
        assert rec.deflation.kind == "bottom_eigenvalue"
        assert rec.deflation.eigenvalue.to_complex() == pytest.approx(0.5)


class TestType2:
    def test_equal_poles_identity_move(self):
        rng = np.random.default_rng(4)
        pole = make_projective(2.0, 1.0)
        p = random_proper_hessenberg(rng, 4, poles=[pole, pole, pole])
        a0 = p.a.copy()
        rec = move_type2(p, 1)
        assert rec.q is None and rec.z is None
        np.testing.assert_array_equal(p.a, a0)

    def test_all_infinite_poles_identity_move(self):
        rng = np.random.default_rng(5)
        p, _, _ = reduce_to_hessenberg_triangular(*random_pair(rng, 4))
        a0 = p.a.copy()
        rec = move_type2(p, 2)
        assert rec.q is None
        np.testing.assert_array_equal(p.a, a0)

    def test_pole_exchange_3x3(self):
        rng = np.random.default_rng(6)
        poles = [make_projective(2.0, 1.0), make_projective(5.0, 1.0)]
        p = random_proper_hessenberg(rng, 3, poles=poles)
        rec = move_type2(p, 1)
        assert abs(p.pole(0).alpha - 5 * p.pole(0).beta) <= 100 * U * 5
        assert abs(p.pole(1).alpha - 2 * p.pole(1).beta) <= 100 * U * 2
        assert rec.pole_in.to_complex() == pytest.approx(2.0)
        assert rec.pole_out.to_complex() == pytest.approx(5.0)

    def test_pole_conservation_and_locality(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = random_proper_hessenberg(rng, 6)
            before_vals = p.poles()
            before_entries = [(p.a[j + 1, j], p.b[j + 1, j]) for j in range(5)]
            j = int(rng.integers(1, 5))
            move_type2(p, j)
            after_vals = p.poles()
            after_entries = [(p.a[j + 1, j], p.b[j + 1, j]) for j in range(5)]
            for k in range(5):
                if k in (j - 1, j):
                    continue
                assert after_entries[k] == before_entries[k]
            assert chordal_distance(after_vals[j - 1], before_vals[j]) <= 1e-10
            assert chordal_distance(after_vals[j], before_vals[j - 1]) <= 1e-10

    def test_hessenberg_pattern_exact(self):
        rng = np.random.default_rng(8)
        p = random_proper_hessenberg(rng, 6)
        for j in (1, 2, 3, 4):
            move_type2(p, j)
        n = 6
        ii, jj = np.tril_indices(n, k=-2)
        assert not np.any(p.a[ii, jj])
        assert not np.any(p.b[ii, jj])

    def test_zeroed_entries_small_for_new_method(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = random_proper_hessenberg(rng, 5)
            j = int(rng.integers(1, 4))
            sub_norm = max(
                np.linalg.norm(p.a[j : j + 2, j - 1 : j + 1]),
                np.linalg.norm(p.b[j : j + 2, j - 1 : j + 1]),
            )
            rec = move_type2(p, j, method=SwapMethod.NEW)
            assert rec.zeroed_a <= 1e-15 * max(
                np.linalg.norm(p.a[j : j + 2, j - 1 : j + 1]), sub_norm
            )

    def test_backward_stability_of_move(self):
        rng = np.random.default_rng(10)
        p = random_proper_hessenberg(rng, 5)
        a0, b0 = p.a.copy(), p.b.copy()
        q = np.eye(5, dtype=complex)
        z = np.eye(5, dtype=complex)
        rec = move_type2(p, 2, accumulate=(q, z))
        res_a = q @ p.a @ z.conj().T - a0
        # exact except the explicitly zeroed entry, transported by Q, Z
        assert np.linalg.norm(res_a) <= rec.zeroed_a + 20 * U * np.linalg.norm(a0)


def bits(m):
    """The raw binary64 words of a complex array: equal iff bit for bit."""
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


def replay_type2(a, b, q, z, j, method):
    """A type II move applied one matrix at a time with swap2x2's reported
    cores: the per-matrix path the stacked move must reproduce bit for bit."""
    if a[j, j - 1] * b[j + 1, j] == a[j + 1, j] * b[j, j - 1]:
        return None
    block = TriangularPencil2(
        a[j, j - 1], a[j, j], a[j + 1, j], b[j, j - 1], b[j, j], b[j + 1, j]
    )
    rep = swap2x2(block, method)
    if rep.skipped:
        return None
    gq = rep.q.at(j)
    gz = rep.z.at(j - 1)
    apply_core(a, gz, side="right")
    apply_core(b, gz, side="right")
    apply_core(a, gq, side="left", conjugate=True)
    apply_core(b, gq, side="left", conjugate=True)
    apply_core(q, gq, side="right")
    apply_core(z, gz, side="right")
    zeroed = (abs(a[j + 1, j - 1]), abs(b[j + 1, j - 1]))
    a[j + 1, j - 1] = 0.0
    b[j + 1, j - 1] = 0.0
    return rep, zeroed


class TestStackedType2MatchesPerMatrixReplay:
    @pytest.mark.parametrize("method", list(SwapMethod))
    def test_bitwise_on_stress_scaled_pencils(self, method):
        rng = np.random.default_rng(40)
        n = 7
        moved = 0
        for trial in range(40):
            p = random_proper_hessenberg(rng, n)
            p.ab *= 10.0 ** rng.uniform(-12, 12, size=(2, n, n))
            if trial % 4 == 0:
                p.a[...] *= 1e150
                p.b[...] *= 1e-150
            a, b = p.a.copy(), p.b.copy()
            q, z = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
            pq, pz = q.copy(), z.copy()
            for j in list(range(1, n - 1)) + list(range(n - 2, 0, -1)):
                # VAN_DOOREN's squared column norms overflow at 1e150
                with np.errstate(over="ignore"):
                    rec = move_type2(p, j, method=method, accumulate=(pq, pz))
                    replay = replay_type2(a, b, q, z, j, method)
                if replay is None:
                    assert rec.q is None and rec.z is None
                else:
                    rep, zeroed = replay
                    moved += 1
                    assert (rec.q.index, rec.z.index) == (j, j - 1)
                    mine = [rec.q.c, rec.q.s, rec.z.c, rec.z.s, rec.zeroed_a, rec.zeroed_b]
                    theirs = [rep.q.c, rep.q.s, rep.z.c, rep.z.s, *zeroed]
                    assert np.array_equal(bits(mine), bits(theirs))
                for mine, theirs in ((p.a, a), (p.b, b), (pq, q), (pz, z)):
                    assert np.array_equal(bits(mine), bits(theirs))
        assert moved > 300

    def test_equal_poles_leave_everything_untouched(self):
        rng = np.random.default_rng(41)
        pole = make_projective(1.0 - 2.0j, 1.0)
        p = random_proper_hessenberg(rng, 5, poles=[pole] * 4)
        ab0 = p.ab.copy()
        q, z = np.eye(5, dtype=complex), np.eye(5, dtype=complex)
        for method in SwapMethod:
            rec = move_type2(p, 2, method=method, accumulate=(q, z))
            assert rec.q is None and rec.z is None
        assert np.array_equal(bits(p.ab), bits(ab0))
        assert np.array_equal(q, np.eye(5)) and np.array_equal(z, np.eye(5))


class TestDirectionPropositions:
    def test_first_column_direction(self):
        # Q1 e1 is parallel to (A - rho B)(A - sigma1 B)^{-1} e1
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_proper_hessenberg(rng, 4)
            a0, b0 = p.a.copy(), p.b.copy()
            sigma1 = p.pole(0)
            rho = make_projective(rng.normal() + 1j * rng.normal(), 1.0)
            rec = move_type1_top(p, rho)
            q1 = rec.q.embed(4)[:, 0]
            e1 = np.zeros(4, dtype=complex)
            e1[0] = 1.0
            f_in = rho.beta * a0 - rho.alpha * b0
            f_out = sigma1.beta * a0 - sigma1.alpha * b0
            target = f_in @ np.linalg.solve(f_out, e1)
            assert sine_of_angle(q1, target) <= 1e-10

    def test_last_row_direction(self):
        # e_n^T Z* is parallel to e_n^T (A - sigma_{n-1} B)^{-1} (A - tau B)
        rng = np.random.default_rng(12)
        for _ in range(20):
            p = random_proper_hessenberg(rng, 4)
            a0, b0 = p.a.copy(), p.b.copy()
            sig = p.pole(2)
            tau = make_projective(rng.normal() + 1j * rng.normal(), 1.0)
            rec = move_type1_bottom(p, tau)
            zrow = rec.z.embed(4).conj().T[3, :]
            en = np.zeros(4, dtype=complex)
            en[3] = 1.0
            f_in = tau.beta * a0 - tau.alpha * b0
            f_out = sig.beta * a0 - sig.alpha * b0
            target = np.linalg.solve(f_out.T, en) @ f_in
            assert sine_of_angle(zrow.conj(), target.conj()) <= 1e-10
