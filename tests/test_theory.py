import math

import numpy as np
import pytest

from poleswap.moves import move_type1_top, move_type2
from poleswap.numerics import INFINITY, make_projective
from poleswap.rqz import basic_sweep, bidirectional_sweep, multishift_sweep
from poleswap.theory import (
    RationalFunctionSpec,
    Subspace,
    apply_rational_factors,
    apply_rational_operator,
    cancelled_factors,
    flag_basis,
    principal_angle,
    rational_krylov_basis,
    run_verification,
    sweep_factors_at_plane,
    verify_move_theorem,
    verify_sweep_theorem,
)

from test_pencil import random_pair, random_proper_hessenberg


def pv(x):
    return make_projective(x, 1.0)


class TestPrincipalAngle:
    def test_identical_subspaces(self):
        s = Subspace(flag_basis(4, 2))
        assert principal_angle(s, s) == 0.0

    def test_orthogonal_lines(self):
        e1 = Subspace(flag_basis(3, 1))
        e2 = Subspace(np.eye(3, dtype=complex)[:, 1:2])
        assert principal_angle(e1, e2) == pytest.approx(math.pi / 2)

    def test_diagonal_line(self):
        e1 = Subspace(flag_basis(2, 1))
        diag = Subspace(np.array([[1.0], [1.0]], dtype=complex) / math.sqrt(2))
        assert principal_angle(e1, diag) == pytest.approx(math.pi / 4)

    def test_resolves_tiny_angles(self):
        eps = 1e-12
        v = np.array([[1.0], [eps]], dtype=complex)
        tilted = Subspace(v / np.linalg.norm(v))
        assert principal_angle(Subspace(flag_basis(2, 1)), tilted) == pytest.approx(
            eps, rel=1e-3
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            principal_angle(Subspace(flag_basis(3, 1)), Subspace(flag_basis(3, 2)))


class TestRationalKrylovBasis:
    def test_no_poles_spans_v(self):
        c = np.diag([1.0, 2.0, 3.0]).astype(complex)
        v = np.array([1.0, 1.0, 1.0])
        s = rational_krylov_basis(c, v, [])
        target = Subspace((v / np.linalg.norm(v)).reshape(-1, 1).astype(complex))
        assert principal_angle(s, target) <= 1e-14

    def test_infinite_pole_is_polynomial_step(self):
        c = np.diag([1.0, 2.0, 3.0]).astype(complex)
        v = np.array([1.0, 1.0, 1.0], dtype=complex)
        s = rational_krylov_basis(c, v, [INFINITY])
        explicit = Subspace(np.linalg.qr(np.column_stack([v, c @ v]))[0])
        assert principal_angle(s, explicit) <= 1e-14

    def test_finite_pole_applies_inverse(self):
        c = np.diag([1.0, 2.0, 3.0]).astype(complex)
        v = np.array([1.0, 1.0, 1.0], dtype=complex)
        s = rational_krylov_basis(c, v, [pv(4.0)])
        w = np.linalg.solve(c - 4.0 * np.eye(3), v)
        explicit = Subspace(np.linalg.qr(np.column_stack([v, w]))[0])
        assert principal_angle(s, explicit) <= 1e-13

    def test_pole_near_eigenvalue_diagnosed(self):
        c = np.diag([1.0, 2.0, 3.0]).astype(complex)
        v = np.array([1.0, 1.0, 1.0], dtype=complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            rational_krylov_basis(c, v, [pv(2.0 + 1e-15)])


class TestApplyRationalOperator:
    def test_trivial_function_keeps_subspace(self):
        rng = np.random.default_rng(0)
        a, b = random_pair(rng, 5)
        spec = RationalFunctionSpec([pv(2.0), pv(-1.0)], [pv(2.0), pv(-1.0)])
        s = Subspace(flag_basis(5, 2))
        out = apply_rational_operator(a, b, spec, s, "left_quotient")
        assert principal_angle(s, out) <= 1e-12

    def test_zero_direction_collapse_matches_dense_evaluation(self):
        # A - 2B annihilates e1's image: the raw factor application agrees
        # with an explicit dense evaluation of r(A) on B = I
        a = np.diag([2.0, 5.0, 7.0]).astype(complex)
        b = np.eye(3, dtype=complex)
        spec = RationalFunctionSpec([pv(2.0)], [pv(3.0)])
        raw = apply_rational_factors(a, b, spec, flag_basis(3, 1), "left_quotient")
        dense = (a - 2 * b) @ np.linalg.inv(a - 3 * b) @ flag_basis(3, 1)
        np.testing.assert_allclose(raw, dense, atol=1e-14)
        assert np.linalg.norm(raw) <= 1e-14  # e1 is the zero direction

    def test_composition_law(self):
        # applying spec1 then spec2 equals applying the concatenation
        rng = np.random.default_rng(1)
        a, b = random_pair(rng, 6)
        spec1 = RationalFunctionSpec([pv(2.0 + 1j)], [pv(-3.0)])
        spec2 = RationalFunctionSpec([pv(0.5)], [pv(1.0 - 2j)])
        s = Subspace(flag_basis(6, 3))
        step = apply_rational_operator(a, b, spec1, s, "left_quotient")
        step = apply_rational_operator(a, b, spec2, step, "left_quotient")
        joint = apply_rational_operator(a, b, spec1.concatenated(spec2), s, "left_quotient")
        assert principal_angle(step, joint) <= 1e-10

    def test_right_quotient_matches_dense(self):
        rng = np.random.default_rng(2)
        a, b = random_pair(rng, 5)
        spec = RationalFunctionSpec([pv(1.5)], [pv(-0.7 + 0.2j)])
        s = Subspace(flag_basis(5, 2))
        out = apply_rational_operator(a, b, spec, s, "right_quotient")
        d = np.linalg.solve(b, a)
        dense = (d - 1.5 * np.eye(5)) @ np.linalg.inv(d - (-0.7 + 0.2j) * np.eye(5))
        target = Subspace(np.linalg.qr(dense @ s.basis)[0])
        assert principal_angle(out, target) <= 1e-10


class TestVerifyMoveTheorem:
    def test_identity_move_gives_zero_angles(self):
        rng = np.random.default_rng(3)
        pole = pv(2.0)
        p = random_proper_hessenberg(rng, 4, poles=[pole, pole, pole])
        a0, b0 = p.a.copy(), p.b.copy()
        rec = move_type2(p, 1)
        assert verify_move_theorem(a0, b0, rec) == (0.0, 0.0)

    def test_interior_move(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = random_proper_hessenberg(rng, 5)
            a0, b0 = p.a.copy(), p.b.copy()
            rec = move_type2(p, 3)
            aq, az = verify_move_theorem(a0, b0, rec)
            assert aq <= 1e-8 and az <= 1e-8

    def test_type1_top_checks_direction_and_trivial_z(self):
        rng = np.random.default_rng(5)
        p = random_proper_hessenberg(rng, 5)
        a0, b0 = p.a.copy(), p.b.copy()
        rec = move_type1_top(p, pv(1.0 + 1.0j))
        aq, az = verify_move_theorem(a0, b0, rec)
        assert aq <= 1e-10
        assert az == 0.0


class TestVerifySweepTheorem:
    def test_empty_sweep(self):
        from poleswap.rqz import SweepRecord

        rng = np.random.default_rng(6)
        a, b = random_pair(rng, 4)
        sweep = SweepRecord([], [], [], "down")
        q = np.eye(4, dtype=complex)
        assert verify_sweep_theorem(a, b, sweep, q, q.copy()) <= 1e-13

    def test_basic_sweep_recovers_single_factor(self):
        rng = np.random.default_rng(7)
        p = random_proper_hessenberg(rng, 8)
        a0, b0 = p.a.copy(), p.b.copy()
        n = 8
        q, z = p.q, p.z
        rho, tau = pv(1.0 + 0.5j), pv(-2.0)
        poles_before = p.poles()
        sweep = basic_sweep(p, rho, tau)
        # at plane k the composed factor is (z - rho)/(z - sigma_k); the
        # recorded values are re-read from the transformed entries, hence
        # roundoff-level tolerances
        from poleswap.numerics import chordal_distance

        for k in range(1, n):
            spec = sweep_factors_at_plane(sweep, k)
            assert len(spec) == 1
            assert chordal_distance(spec.zeros[0], rho) <= 1e-12
            assert chordal_distance(spec.poles[0], poles_before[k - 1]) <= 1e-12
        assert verify_sweep_theorem(a0, b0, sweep, q, z) <= 1e-8

    def test_bidirectional_interior_factors_cancel_to_chain_quotient(self):
        rng = np.random.default_rng(8)
        p = random_proper_hessenberg(rng, 6)
        a0, b0 = p.a.copy(), p.b.copy()
        q, z = p.q, p.z
        rho, tau = pv(2.0), pv(-1.0 + 1.0j)
        sweep = bidirectional_sweep(p, [rho], [tau])
        for k in range(2, 6):
            reduced = cancelled_factors(sweep_factors_at_plane(sweep, k))
            assert len(reduced) == 1
            assert reduced.zeros[0].to_complex() == pytest.approx(2.0)
            assert reduced.poles[0].to_complex() == pytest.approx(-1.0 + 1.0j)
        assert verify_sweep_theorem(a0, b0, sweep, q, z) <= 1e-8

    def test_multishift_sweep(self):
        rng = np.random.default_rng(9)
        p = random_proper_hessenberg(rng, 8)
        a0, b0 = p.a.copy(), p.b.copy()
        q, z = p.q, p.z
        sweep = multishift_sweep(p, [pv(2.0), pv(1j)], [pv(-1.0), pv(3.0)])
        assert verify_sweep_theorem(a0, b0, sweep, q, z) <= 1e-8


class TestVerificationSuite:
    def test_small_suite_passes(self):
        rep = run_verification(seed=1, n=8, pencils=10)
        assert rep.passed, rep.failing()

    def test_telescoping_consistency_same_seed(self):
        # basic, multishift, bidirectional checks all hold on the same seeds
        rep = run_verification(seed=7, n=6, pencils=10)
        names = {c.name for c in rep.checks}
        assert {"thm_basic_sweep", "thm_multishift_sweep", "thm_bidirectional_sweep"} <= names
        assert rep.passed, rep.failing()
