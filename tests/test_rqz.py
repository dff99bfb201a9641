import numpy as np
import pytest

from poleswap.numerics import UNIT_ROUNDOFF, chordal_distance, make_projective
from poleswap.pencil import HessenbergPencil, detect_deflations, reduce_to_hessenberg_triangular
from poleswap.rqz import (
    INF,
    SolveOptions,
    basic_sweep,
    bidirectional_sweep,
    choose_shift,
    multishift_sweep,
    schur_residuals,
    solve,
)
from poleswap.swapkernel import SwapMethod

from test_pencil import random_pair, random_proper_hessenberg

U = UNIT_ROUNDOFF


def match_reciprocal(evs_ab, evs_ba, tol):
    """Each eigenvalue of (B, A) must be the reciprocal of exactly one
    eigenvalue of (A, B), within tol in the chordal metric."""
    taken = [False] * len(evs_ab)
    for w in evs_ba:
        target = w.reciprocal()
        best, best_d = None, tol
        for i, v in enumerate(evs_ab):
            if taken[i]:
                continue
            d = chordal_distance(v, target)
            if d <= best_d:
                best, best_d = i, d
        if best is None:
            return False
        taken[best] = True
    return all(taken)


class TestChooseShift:
    def test_rayleigh_bottom(self):
        a = np.diag([1.0, 2.0, 6.0]).astype(complex)
        b = np.diag([1.0, 1.0, 2.0]).astype(complex)
        p = HessenbergPencil(a, b)
        assert choose_shift(p, "rayleigh").to_complex() == pytest.approx(3.0)

    def test_zero_b_corner_gives_infinite_shift(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        p = HessenbergPencil(a, b)
        assert choose_shift(p, "rayleigh").is_infinite

    def test_wilkinson_picks_closer_2x2_eigenvalue(self):
        a = np.diag([1.0, 4.0, 9.0]).astype(complex)
        a[1, 2] = 0.3
        b = np.eye(3, dtype=complex)
        p = HessenbergPencil(a, b)
        assert choose_shift(p, "wilkinson").to_complex() == pytest.approx(9.0)


class TestBasicSweep:
    def test_n2_degenerates_to_two_type1_moves(self):
        rng = np.random.default_rng(0)
        p, _, _ = reduce_to_hessenberg_triangular(*random_pair(rng, 2))
        rec = basic_sweep(p, make_projective(1.0, 1.0), INF)
        assert [m.kind for m in rec.moves] == ["type1_top", "type1_bottom"]

    def test_qz_equivalence_on_ht_pair(self):
        rng = np.random.default_rng(1)
        a, b = random_pair(rng, 10)
        p, _, _ = reduce_to_hessenberg_triangular(a, b)
        a0, b0 = p.a.copy(), p.b.copy()
        q = np.eye(10, dtype=complex)
        z = np.eye(10, dtype=complex)
        rho = choose_shift(p, "rayleigh")
        basic_sweep(p, rho, INF, accumulate=(q, z))
        assert np.linalg.norm(np.tril(p.b, -1)) <= 1e-14 * np.linalg.norm(p.b)
        e1 = np.zeros(10, dtype=complex)
        e1[0] = 1.0
        target = (rho.beta * a0 - rho.alpha * b0) @ np.linalg.solve(b0, e1)
        target /= np.linalg.norm(target)
        u = q[:, 0]
        sine = np.linalg.norm(target - u * np.vdot(u, target))
        assert sine <= 1e-10

    def test_pole_list_after_sweep(self):
        rng = np.random.default_rng(2)
        p = random_proper_hessenberg(rng, 6)
        before = p.poles()
        new_pole = make_projective(0.25, 1.0)
        rec = basic_sweep(p, make_projective(1.0 + 1.0j, 1.0), new_pole)
        after = p.poles()
        for got, want in zip(after, before[1:] + [new_pole]):
            assert chordal_distance(got, want) <= 1e-10
        # exactly n_active moves: one type I at each end, type II between
        kinds = [m.kind for m in rec.moves]
        assert kinds == ["type1_top"] + ["type2"] * 4 + ["type1_bottom"]


class TestMultishift:
    def test_m1_reduces_to_basic_sweep(self):
        rng = np.random.default_rng(3)
        p1 = random_proper_hessenberg(rng, 6)
        p2 = p1.copy()
        rho = make_projective(1.5 + 0.5j, 1.0)
        npole = make_projective(0.3, 1.0)
        r1 = basic_sweep(p1, rho, npole)
        r2 = multishift_sweep(p2, [rho], [npole])
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.b, p2.b)
        assert [m.kind for m in r1.moves] == [m.kind for m in r2.moves]
        assert [m.index for m in r1.moves] == [m.index for m in r2.moves]

    def test_m2_final_pole_list(self):
        rng = np.random.default_rng(4)
        p = random_proper_hessenberg(rng, 6)
        before = p.poles()
        shifts = [make_projective(2.0, 1.0), make_projective(-1.0, 1.0)]
        newp = [make_projective(5.0, 1.0), make_projective(7.0, 1.0)]
        rec = multishift_sweep(p, shifts, newp)
        for got, want in zip(p.poles(), before[2:] + newp):
            assert chordal_distance(got, want) <= 1e-10
        # the shifts transited every interior position
        type2_positions = {m.index for m in rec.moves if m.kind == "type2"}
        assert type2_positions == set(range(1, 5))

    def test_m_too_large_rejected(self):
        rng = np.random.default_rng(5)
        p = random_proper_hessenberg(rng, 6)
        with pytest.raises(ValueError, match="n_active"):
            multishift_sweep(p, [INF, INF, INF], None)

    def test_good_shifts_isolate_bottom_block(self):
        # shifts = eigenvalues of the trailing 2x2 subpencil; the sweep drives
        # the subdiagonal pair ISOLATING the bottom 2x2 block to zero
        # quadratically (the pair inside that block is finished by ordinary
        # single-shift sweeps afterwards, as in classical multishift practice)
        from poleswap.oracle import eig_2x2

        rng = np.random.default_rng(6)
        n = 8
        qm, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        zm, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        spread = np.array([1.0, 2.5, 5.0, 9.0, 15.0, 24.0, 40.0, 70.0])
        ta = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
        ta += np.diag(spread * np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        tb = np.triu(0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))), 1)
        tb += np.eye(n)
        a = qm @ ta @ zm.conj().T
        b = qm @ tb @ zm.conj().T
        p, _, _ = reduce_to_hessenberg_triangular(a, b)
        isolating = []
        for _ in range(4):
            corner = slice(p.hi - 2, p.hi)
            shifts = list(eig_2x2(p.a[corner, corner], p.b[corner, corner]))
            multishift_sweep(p, shifts, [INF, INF])
            isolating.append(abs(p.a[6, 5]) + abs(p.b[6, 5]))
        assert isolating[2] <= 1e-6
        events = detect_deflations(p, eps=1e-12)
        assert 5 in {e.position for e in events}
        # the isolated 2x2 block carries genuine eigenvalues of the pencil
        tail = slice(6, 8)
        got = eig_2x2(p.a[tail, tail], p.b[tail, tail])
        ref = solve(a, b).eigenvalues
        for v in got:
            assert min(chordal_distance(v, w) for w in ref) <= 1e-8


class TestBidirectional:
    def test_m1_final_pole_pattern(self):
        rng = np.random.default_rng(7)
        p = random_proper_hessenberg(rng, 5)
        before = p.poles()
        rho = [make_projective(2.0 + 1.0j, 1.0)]
        tau = [make_projective(-3.0, 1.0)]
        bidirectional_sweep(p, rho, tau)
        want = tau + before[1:3] + rho
        for got, expect in zip(p.poles(), want):
            assert chordal_distance(got, expect) <= 1e-10

    def test_up_empty_matches_multishift_parked(self):
        rng = np.random.default_rng(8)
        p1 = random_proper_hessenberg(rng, 6)
        p2 = p1.copy()
        rho = [make_projective(2.0, 1.0), make_projective(1.0j, 1.0)]
        r1 = bidirectional_sweep(p1, rho, [])
        r2 = multishift_sweep(p2, rho, None)
        np.testing.assert_array_equal(p1.a, p2.a)
        np.testing.assert_array_equal(p1.b, p2.b)
        assert [(m.kind, m.index) for m in r1.moves] == [
            (m.kind, m.index) for m in r2.moves
        ]

    def test_interior_poles_return_m2(self):
        rng = np.random.default_rng(9)
        p = random_proper_hessenberg(rng, 8)
        before = p.poles()
        rho = [make_projective(2.0, 1.0), make_projective(1.0j, 1.0)]
        tau = [make_projective(-3.0, 1.0), make_projective(0.5 - 2.0j, 1.0)]
        bidirectional_sweep(p, rho, tau)
        after = p.poles()
        for k in range(2, 5):
            assert chordal_distance(after[k], before[k]) <= 1e-10
        for got, expect in zip(after[:2], tau):
            assert chordal_distance(got, expect) <= 1e-10
        for got, expect in zip(after[5:], rho):
            assert chordal_distance(got, expect) <= 1e-10

    def test_near_cancellation_rejected(self):
        rng = np.random.default_rng(10)
        p = random_proper_hessenberg(rng, 6)
        v = make_projective(1.0 + 1.0j, 1.0)
        with pytest.raises(ValueError, match="near-cancellation"):
            bidirectional_sweep(p, [v], [v])


class TestSolve:
    def test_triangular_input_immediate(self):
        a = np.triu(np.arange(1.0, 10.0).reshape(3, 3)).astype(complex)
        res = solve(a, np.eye(3))
        assert res.iteration_count == 0
        assert res.r_a == 0.0 and res.r_b == 0.0
        assert [v.to_complex() for v in res.eigenvalues] == [1.0, 5.0, 9.0]

    def test_2x2_exchange_pencil(self):
        res = solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        got = sorted(v.to_complex().real for v in res.eigenvalues)
        assert got[0] == pytest.approx(-1.0, abs=8 * U)
        assert got[1] == pytest.approx(1.0, abs=8 * U)

    @pytest.mark.parametrize("n", [10, 25])
    def test_random_dense_pair(self, n):
        rng = np.random.default_rng(100 + n)
        a, b = random_pair(rng, n)
        res = solve(a, b)
        assert res.converged
        assert res.r_a <= 1e-14 * n
        assert res.r_b <= 1e-14 * n
        # Schur pair is triangular and eigenvalues are its diagonal ratios
        assert not np.any(np.tril(res.schur_a, -1))
        assert not np.any(np.tril(res.schur_b, -1))
        assert np.linalg.norm(res.q.conj().T @ res.q - np.eye(n)) <= n * 20 * U

    @pytest.mark.parametrize("n", [10, 25])
    def test_eigenvalues_match_numpy(self, n):
        rng = np.random.default_rng(200 + n)
        a, b = random_pair(rng, n)
        res = solve(a, b)
        got = res.eigenvalues
        ref = np.linalg.eigvals(np.linalg.solve(b, a))
        taken = [False] * n
        for lam in ref:
            target = make_projective(lam, 1.0)
            dists = [
                chordal_distance(v, target) if not taken[i] else np.inf
                for i, v in enumerate(got)
            ]
            i = int(np.argmin(dists))
            assert dists[i] <= 1e-10
            taken[i] = True

    def test_reciprocal_consistency_50(self):
        rng = np.random.default_rng(11)
        a, b = random_pair(rng, 50)
        r1 = solve(a, b)
        r2 = solve(b, a)
        assert r1.converged and r2.converged
        assert match_reciprocal(r1.eigenvalues, r2.eigenvalues, 1e-8)

    def test_rayleigh_shift_and_pole_options(self):
        rng = np.random.default_rng(12)
        a, b = random_pair(rng, 8)
        res = solve(a, b, SolveOptions(shift="rayleigh", pole="rayleigh"))
        assert res.converged
        assert res.r_a <= 1e-13

    def test_vandooren_and_sylvester_methods_converge(self):
        rng = np.random.default_rng(13)
        a, b = random_pair(rng, 8)
        for method in (SwapMethod.VAN_DOOREN, SwapMethod.SYLVESTER):
            res = solve(a, b, SolveOptions(method=method))
            assert res.converged
            assert res.r_a <= 1e-13

    def test_prescribed_poles_accepted(self):
        rng = np.random.default_rng(14)
        a, b = random_pair(rng, 6)
        poles = [make_projective(v, 1.0) for v in (2.0, -1.0, 1.0j, 0.5, 3.0)]
        res = solve(a, b, SolveOptions(prescribed_poles=poles))
        assert res.converged
        assert res.r_a <= 1e-13

    def test_exact_corner_infinite_eigenvalue(self):
        # b[n-1, n-1] == 0 makes the Rayleigh and Wilkinson shifts infinite,
        # and an infinite shift on all-infinite poles moves nothing; the
        # no-op-sweep escalation plus two-component exceptional shifts must
        # recover instead of burning the iteration cap
        rng = np.random.default_rng(0)
        n = 5
        a = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), -1)
        b = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        b[n - 1, n - 1] = 0.0
        res = solve(a, b)
        assert res.converged
        assert res.iteration_count <= 30
        assert max(res.r_a, res.r_b) <= 1e-14
        # the infinite eigenvalue surfaces with a negligible beta component
        smallest_beta = min(abs(v.beta) for v in res.eigenvalues)
        assert smallest_beta <= 1e-14
        rev = solve(b, a)
        assert match_reciprocal(res.eigenvalues, rev.eigenvalues, 1e-7)

    def test_iteration_cap_reports_stuck_block(self):
        rng = np.random.default_rng(15)
        a, b = random_pair(rng, 6)
        res = solve(a, b, SolveOptions(max_sweeps_per_eigenvalue=0))
        assert not res.converged
        assert res.stuck_block is not None

    def test_active_range_never_grows(self):
        rng = np.random.default_rng(16)
        a, b = random_pair(rng, 10)
        res = solve(a, b)
        # every sweep acts on a window nested in its predecessors' bottom end
        his = [max(m.index for m in rec.moves) for rec in res.sweep_log]
        assert all(h2 <= h1 for h1, h2 in zip(his, his[1:]))


def max_scaled_backward_error(m, q, t, z):
    """||M - Q T Z*|| / ||M|| computed on M / max|M|, independently of rqz."""
    s = float(np.max(np.abs(m)))
    d = m / s - q @ (t / s) @ z.conj().T
    return float(np.linalg.norm(d)) / float(np.linalg.norm(m / s))


class TestSchurResiduals:
    def test_graded_pencil_does_not_underflow(self):
        rng = np.random.default_rng(21)
        a, b = random_pair(rng, 20)
        a *= 1e150
        b *= 1e-150
        res = solve(a, b)
        assert res.converged
        for reported, m, t in ((res.r_a, a, res.schur_a), (res.r_b, b, res.schur_b)):
            own = max_scaled_backward_error(m, res.q, t, res.z)
            assert reported > 0.0
            assert own / 2 <= reported <= 2 * own
            assert reported <= 100 * 20 * U

    def test_ordinary_scale_matches_unscaled_formula_bitwise(self):
        # scaling by a power of two is exact, so pencils of ordinary size
        # report the same bits as the plain formula
        rng = np.random.default_rng(22)
        for n in (3, 10, 25):
            a, b = random_pair(rng, n)
            b *= 1e3
            res = solve(a, b)
            for reported, m, t in ((res.r_a, a, res.schur_a), (res.r_b, b, res.schur_b)):
                plain = float(np.linalg.norm(m - res.q @ t @ res.z.conj().T)) / float(
                    np.linalg.norm(m)
                )
                assert reported == plain

    def test_zero_matrix(self):
        a = np.zeros((3, 3), dtype=complex)
        eye = np.eye(3, dtype=complex)
        assert schur_residuals(a, eye, eye, eye, a, eye) == (0.0, 0.0)

    def test_exact_factors(self):
        rng = np.random.default_rng(17)
        a, b = random_pair(rng, 4)
        r_a, r_b = schur_residuals(a, b, np.eye(4, dtype=complex), np.eye(4, dtype=complex), a, b)
        assert r_a == 0.0 and r_b == 0.0

    def test_rank_one_perturbation(self):
        rng = np.random.default_rng(18)
        a, b = random_pair(rng, 4)
        ta = a.copy()
        delta = 1e-7
        ta[1, 2] += delta
        r_a, _ = schur_residuals(a, b, np.eye(4, dtype=complex), np.eye(4, dtype=complex), ta, b)
        assert r_a == pytest.approx(delta / np.linalg.norm(a), rel=4 * U)

    def test_end_to_end_20x20(self):
        rng = np.random.default_rng(19)
        a, b = random_pair(rng, 20)
        res = solve(a, b)
        assert res.r_a <= 1e-14 * 20
        assert res.r_b <= 1e-14 * 20
