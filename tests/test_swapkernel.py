import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleswap.numerics import (
    UNIT_ROUNDOFF,
    chordal_distance,
    make_projective,
    two_norm_2x2,
)
from poleswap.swapkernel import (
    SwapMethod,
    TriangularPencil2,
    exact_swap_vectors,
    flip_swap_equivalence_check,
    swap2x2,
    swap_cores,
)

U = UNIT_ROUNDOFF
METHODS = [SwapMethod.NEW, SwapMethod.VAN_DOOREN, SwapMethod.SYLVESTER]


def stress_entries(rng, n, lo=-12.0, hi=12.0):
    mod = 10.0 ** rng.uniform(lo, hi, size=(n, 6))
    ph = rng.uniform(0.0, 2.0 * math.pi, size=(n, 6))
    return mod * np.exp(1j * ph)


def entry(min_exp=-3.0, max_exp=3.0):
    mags = st.floats(min_value=min_exp, max_value=max_exp)
    phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)
    return st.builds(lambda m, p: 10.0**m * cmath.exp(1j * p), mags, phases)


def pencils(min_exp=-3.0, max_exp=3.0):
    e = entry(min_exp, max_exp)
    return st.builds(TriangularPencil2, e, e, e, e, e, e)


def exchange_condition(p: TriangularPencil2) -> float:
    """First-order noise/signal ratio for reading sigma2 off the swapped
    (1,1) entries: gamma*(||A|| |beta2| + ||B|| |alpha2|) / (||y|| |(a2,b2)|^2)."""
    x, y, _, _ = exact_swap_vectors(p)
    gamma = math.hypot(abs(x[0]), abs(x[1]))
    ny = math.hypot(abs(y[0]), abs(y[1]))
    na = two_norm_2x2(p.alpha1, p.a, 0.0, p.alpha2)
    nb = two_norm_2x2(p.beta1, p.b, 0.0, p.beta2)
    a2, b2 = abs(p.alpha2), abs(p.beta2)
    if ny == 0.0:
        return math.inf
    return max(1.0, gamma * (na * b2 + nb * a2) / (ny * (a2 * a2 + b2 * b2)))


class TestSwapExamples:
    @pytest.mark.parametrize("method", METHODS)
    def test_diagonal_pencil_swap_is_permutation(self, method):
        rep = swap2x2(TriangularPencil2(1, 0, 2, 1, 0, 1), method)
        assert not rep.skipped
        assert rep.result.alpha1 / rep.result.beta1 == pytest.approx(2.0)
        assert rep.result.alpha2 / rep.result.beta2 == pytest.approx(1.0)
        assert rep.res_a == 0.0 and rep.res_b == 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_equal_eigenvalues_skip(self, method):
        rep = swap2x2(TriangularPencil2(2, 0, 2, 1, 0, 1), method)
        assert rep.skipped
        assert rep.q.is_identity and rep.z.is_identity

    def test_both_infinite_eigenvalues_skip(self):
        rep = swap2x2(TriangularPencil2(1, 0.5, 2, 0, 1, 0))
        assert rep.skipped

    @pytest.mark.parametrize("method", METHODS)
    def test_case2_example(self, method):
        # sigma1 = 1 < sigma2 = 3: x = (-1, -2), Z e1 = (-1, -2)/sqrt(5)
        p = TriangularPencil2(1, 1, 3, 1, 0, 1)
        rep = swap2x2(p, method)
        if method is not SwapMethod.SYLVESTER:
            root5 = math.sqrt(5.0)
            assert abs(rep.z.c + 1 / root5) <= 8 * U
            assert abs(rep.z.s + 2 / root5) <= 8 * U
        assert rep.result.alpha1 / rep.result.beta1 == pytest.approx(3.0, abs=1e-14)
        assert rep.result.alpha2 / rep.result.beta2 == pytest.approx(1.0, abs=1e-14)
        norm_a = two_norm_2x2(1, 1, 0, 3)
        assert rep.res_a <= 8 * U and rep.res_b <= 8 * U
        assert norm_a > 0

    @pytest.mark.parametrize("method", METHODS)
    def test_case1_example(self, method):
        # sigma1 = 3 >= sigma2 = 1: x = (-1, 2); ratios end up (1, 3)
        p = TriangularPencil2(3, 1, 1, 1, 0, 1)
        rep = swap2x2(p, method)
        assert rep.result.alpha1 / rep.result.beta1 == pytest.approx(1.0, abs=1e-14)
        assert rep.result.alpha2 / rep.result.beta2 == pytest.approx(3.0, abs=1e-14)

    def test_regularity_enforced(self):
        with pytest.raises(ValueError, match="regular"):
            TriangularPencil2(0, 1, 1, 0, 0, 1)


class TestSwapProperties:
    @settings(max_examples=300)
    @given(pencils(), st.sampled_from(METHODS))
    def test_core_unitarity(self, p, method):
        rep = swap2x2(p, method)
        for g in (rep.q, rep.z):
            gm = g.matrix()
            assert np.linalg.norm(gm.conj().T @ gm - np.eye(2)) <= 8 * U

    @settings(max_examples=300)
    @given(pencils(), st.sampled_from(METHODS))
    def test_result_matches_explicit_equivalence(self, p, method):
        rep = swap2x2(p, method)
        if rep.skipped:
            return
        qm, zm = rep.q.matrix(), rep.z.matrix()
        ha = qm.conj().T @ p.a_matrix() @ zm
        hb = qm.conj().T @ p.b_matrix() @ zm
        r = rep.result
        got_a = np.array([[r.alpha1, r.a], [0.0, r.alpha2]])
        got_b = np.array([[r.beta1, r.b], [0.0, r.beta2]])
        na = two_norm_2x2(p.alpha1, p.a, 0, p.alpha2)
        nb = two_norm_2x2(p.beta1, p.b, 0, p.beta2)
        # identical except the zeroed (2,1) entry, whose size is the report;
        # the explicit matmul and the kernel's scalar products round
        # independently, so roundoff-level entries match only to ~32u
        assert np.max(np.abs(ha - got_a)) <= abs(ha[1, 0]) + 32 * U * na
        assert np.max(np.abs(hb - got_b)) <= abs(hb[1, 0]) + 32 * U * nb
        assert abs(abs(ha[1, 0]) - rep.res_a * na) <= 32 * U * na

    def test_eigenvalue_exchange_conditioned(self):
        # chordal(result (1,1) ratio, sigma2) <= 100 u kappa on stress draws,
        # and <= 1e-10 outright on the well-conditioned subset
        rng = np.random.default_rng(2024)
        rows = stress_entries(rng, 20000)
        seen_conditioned = 0
        for row in rows:
            p = TriangularPencil2(*row)
            rep = swap2x2(p, SwapMethod.NEW)
            if rep.skipped:
                continue
            sigma2 = make_projective(p.alpha2, p.beta2)
            got = make_projective(rep.result.alpha1, rep.result.beta1)
            chi = chordal_distance(got, sigma2)
            kappa = exchange_condition(p)
            assert chi <= 100.0 * U * kappa
            if kappa <= 1e4:
                seen_conditioned += 1
                assert chi <= 1e-10
        assert seen_conditioned > 5000

    def test_new_method_stress_guarantee(self):
        # the headline: every own-norm residual stays below 1e-15
        rng = np.random.default_rng(7)
        for row in stress_entries(rng, 20000):
            rep = swap2x2(TriangularPencil2(*row), SwapMethod.NEW)
            assert rep.res_a <= 1e-15
            assert rep.res_b <= 1e-15

    def test_baselines_have_own_norm_tails(self):
        rng = np.random.default_rng(7)
        rows = stress_entries(rng, 20000)
        tails = {m: 0 for m in (SwapMethod.VAN_DOOREN, SwapMethod.SYLVESTER)}
        for row in rows:
            p = TriangularPencil2(*row)
            for m in tails:
                rep = swap2x2(p, m)
                if max(rep.res_a, rep.res_b) > 1e-15:
                    tails[m] += 1
        for m, count in tails.items():
            assert count > 20, m


class TestCoresOnlyKernel:
    @pytest.mark.parametrize("method", METHODS)
    def test_agrees_with_swap2x2_bitwise(self, method):
        rng = np.random.default_rng(50)
        rows = stress_entries(rng, 12000)
        # equal eigenvalues and an all-infinite pair exercise the skip path
        rows[::500, 2] = rows[::500, 0]
        rows[::500, 5] = rows[::500, 3]
        rows[1::500, 3] = 0.0
        rows[1::500, 5] = 0.0
        skipped = 0
        for row in rows:
            p = TriangularPencil2(*row)
            cores = swap_cores(p, method)
            rep = swap2x2(p, method)
            if cores is None:
                skipped += 1
                assert rep.skipped
                continue
            assert not rep.skipped
            reported = (rep.z.c, rep.z.s, rep.q.c, rep.q.s)
            assert np.array_equal(
                np.array(cores, dtype=complex).view(np.uint64),
                np.array(reported, dtype=complex).view(np.uint64),
            )
        assert skipped >= 24


class TestExactSwapVectors:
    def test_closed_form_example(self):
        p = TriangularPencil2(1, 1, 3, 1, 0, 1)
        x, y, v, w = exact_swap_vectors(p)
        np.testing.assert_array_equal(x, np.array([-1.0, -2.0]))
        # y = (alpha1 b - beta1 a, beta2 alpha1 - alpha2 beta1) = (-1, -2)
        np.testing.assert_array_equal(y, np.array([-1.0, -2.0]))

    def test_equal_eigenvalues_zero_cross(self):
        p = TriangularPencil2(2, 1, 2, 1, 0.5, 1)
        x, _, _, _ = exact_swap_vectors(p)
        assert x[1] == 0

    @settings(max_examples=1000)
    @given(pencils())
    def test_deflating_identities_adversarial(self, p):
        # hypothesis searches out near-equal eigenvalues, where x and y are
        # tiny differences of large products; the correct error scale is then
        # the product magnitude, not ||x||
        x, y, v, w = exact_swap_vectors(p)
        a_mat, b_mat = p.a_matrix(), p.b_matrix()
        na = two_norm_2x2(p.alpha1, p.a, 0, p.alpha2)
        nb = two_norm_2x2(p.beta1, p.b, 0, p.beta2)
        prod = max(
            abs(p.alpha2 * p.b), abs(p.beta2 * p.a), abs(p.alpha1 * p.b),
            abs(p.beta1 * p.a), abs(p.beta2 * p.alpha1), abs(p.alpha2 * p.beta1),
        )
        sx = max(float(np.linalg.norm(x)), float(np.linalg.norm(y)), prod, 1e-300)
        sv = max(float(np.linalg.norm(v)), float(np.linalg.norm(w)), prod, 1e-300)
        assert np.linalg.norm(a_mat @ x - p.alpha2 * y) <= 16 * U * max(na, abs(p.alpha2)) * sx
        assert np.linalg.norm(b_mat @ x - p.beta2 * y) <= 16 * U * max(nb, abs(p.beta2)) * sx
        assert np.linalg.norm(v @ a_mat - p.alpha1 * w) <= 16 * U * max(na, abs(p.alpha1)) * sv
        assert np.linalg.norm(v @ b_mat - p.beta1 * w) <= 16 * U * max(nb, abs(p.beta1)) * sv

    def test_deflating_identities_random_at_stated_scale(self):
        # on random (non-adversarial) pencils the identities hold at the
        # plain 16u ||A|| ||x|| scale
        rng = np.random.default_rng(101)
        for row in stress_entries(rng, 1000, lo=-3.0, hi=3.0):
            p = TriangularPencil2(*row)
            x, y, v, w = exact_swap_vectors(p)
            a_mat, b_mat = p.a_matrix(), p.b_matrix()
            na = two_norm_2x2(p.alpha1, p.a, 0, p.alpha2)
            nb = two_norm_2x2(p.beta1, p.b, 0, p.beta2)
            nx = float(np.linalg.norm(x))
            nv = float(np.linalg.norm(v))
            assert np.linalg.norm(a_mat @ x - p.alpha2 * y) <= 16 * U * na * nx
            assert np.linalg.norm(b_mat @ x - p.beta2 * y) <= 16 * U * nb * nx
            assert np.linalg.norm(v @ a_mat - p.alpha1 * w) <= 16 * U * na * nv
            assert np.linalg.norm(v @ b_mat - p.beta1 * w) <= 16 * U * nb * nv


class TestFlipEquivalence:
    def test_diagonal_pencil(self):
        assert flip_swap_equivalence_check(TriangularPencil2(1, 0, 2, 1, 0, 1)) == 0.0

    def test_worked_example(self):
        assert flip_swap_equivalence_check(TriangularPencil2(1, 1, 3, 1, 0, 1)) <= 16 * U

    def test_random_moderate_moduli(self):
        rng = np.random.default_rng(11)
        rows = stress_entries(rng, 1000, lo=-3.0, hi=3.0)
        worst = max(flip_swap_equivalence_check(TriangularPencil2(*r)) for r in rows)
        assert worst <= 100 * U
