import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleswap.numerics import (
    UNIT_ROUNDOFF,
    CoreTransformation,
    IndeterminateRatio,
    apply_core,
    chordal_distance,
    core_annihilating,
    core_row_annihilating,
    identity_core,
    make_projective,
    two_norm_2x2,
)

U = UNIT_ROUNDOFF


def complexes(min_mag=1e-12, max_mag=1e12):
    mags = st.floats(min_value=math.log10(min_mag), max_value=math.log10(max_mag))
    phases = st.floats(min_value=0.0, max_value=2.0 * math.pi)
    return st.builds(lambda m, p: 10.0**m * cmath.exp(1j * p), mags, phases)


class TestMakeProjective:
    def test_scaling_to_max_modulus_one(self):
        p = make_projective(2.0, 1.0)
        assert p.alpha == 1.0
        assert p.beta == 0.5

    def test_beta_zero_encodes_infinity(self):
        p = make_projective(3.0, 0.0)
        assert p.is_infinite
        assert p.alpha == 1.0
        assert p.beta == 0.0

    def test_tiny_components_survive_normalization(self):
        # 1e-300/2e-300 must come out as the exact rational 1/2
        p = make_projective(1e-300, 2e-300)
        assert Fraction(p.alpha.real) / Fraction(p.beta.real) == Fraction(1, 2)
        assert p.beta == 1.0

    def test_zero_zero_rejected(self):
        with pytest.raises(IndeterminateRatio):
            make_projective(0.0, 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            make_projective(math.inf, 1.0)

    @given(complexes(), complexes(), complexes(min_mag=1e-6, max_mag=1e6))
    def test_scale_invariance(self, a, b, k):
        p = make_projective(a, b)
        q = make_projective(k * a, k * b)
        assert abs(p.alpha * q.beta - q.alpha * p.beta) <= 8 * U


class TestChordalDistance:
    def test_identical_values(self):
        p = make_projective(2.0, 1.0)
        assert chordal_distance(p, p) == 0.0

    def test_zero_vs_infinity(self):
        assert chordal_distance(make_projective(0, 1), make_projective(1, 0)) == 1.0

    def test_reciprocal_symmetry(self):
        p = make_projective(3.0 + 1.0j, 1.0)
        q = make_projective(2.0, 1.0)
        assert chordal_distance(p, q) == pytest.approx(
            chordal_distance(p.reciprocal(), q.reciprocal()), rel=1e-14
        )


class TestCoreAnnihilating:
    def test_already_annihilated_gives_identity(self):
        g, gamma = core_annihilating((1.0, 0.0))
        assert g.is_identity
        assert gamma == 1.0

    def test_pure_swap(self):
        g, gamma = core_annihilating((0.0, -1.0))
        assert abs(g.c) == 0.0
        assert abs(abs(g.s) - 1.0) <= 2 * U
        assert gamma == 1.0

    def test_one_three(self):
        g, gamma = core_annihilating((1.0, 3.0))
        root10 = math.sqrt(10.0)
        assert abs(gamma - root10) <= 4 * U * root10
        res = g.matrix().conj().T @ np.array([1.0, 3.0])
        assert abs(res[0] - root10) <= 4 * U * root10
        assert abs(res[1]) <= 4 * U * root10

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="no direction"):
            core_annihilating((0.0, 0.0))

    @given(complexes(), complexes())
    def test_embedding_unitarity(self, v1, v2):
        g, _ = core_annihilating((v1, v2))
        gm = g.matrix()
        assert np.linalg.norm(gm.conj().T @ gm - np.eye(2)) <= 8 * U

    @given(complexes(), complexes())
    def test_annihilation_residual(self, v1, v2):
        g, gamma = core_annihilating((v1, v2))
        res = g.matrix().conj().T @ np.array([v1, v2])
        nv = math.hypot(abs(v1), abs(v2))
        assert abs(res[1]) <= 8 * U * nv
        assert abs(abs(res[0]) - gamma) <= 8 * U * nv

    @given(complexes(), complexes())
    def test_row_annihilation(self, w1, w2):
        g, gamma = core_row_annihilating((w1, w2))
        res = np.array([w1, w2]) @ g.matrix()
        nw = math.hypot(abs(w1), abs(w2))
        assert abs(res[0]) <= 8 * U * nw
        assert abs(abs(res[1]) - gamma) <= 8 * U * nw


class TestApplyCore:
    def test_identity_core_is_noop(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        before = m.copy()
        apply_core(m, identity_core(1), side="left", conjugate=True)
        np.testing.assert_array_equal(m, before)

    def test_swap_core_exchanges_rows_up_to_phase(self):
        m = np.eye(2, dtype=complex)
        g = CoreTransformation(0.0, 1.0, 0)
        apply_core(m, g, side="left", conjugate=True)
        assert m[0, 0] == 0 and m[1, 1] == 0
        assert abs(abs(m[0, 1]) - 1.0) <= 2 * U
        assert abs(abs(m[1, 0]) - 1.0) <= 2 * U

    def test_consistency_with_core_annihilating(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0], m[1, 0] = 1.0, 3.0
        g, _ = core_annihilating((1.0, 3.0), index=0)
        apply_core(m, g, side="left", conjugate=True)
        assert abs(m[0, 0] - math.sqrt(10.0)) <= 4 * U * math.sqrt(10.0)
        assert abs(m[1, 0]) <= 4 * U * math.sqrt(10.0)

    def test_right_side_acts_on_columns(self):
        m = np.arange(9, dtype=float).reshape(3, 3).astype(complex)
        before = m.copy()
        g = CoreTransformation(0.0, 1.0, 1)
        apply_core(m, g, side="right")
        np.testing.assert_array_equal(m[:, 0], before[:, 0])
        gm = g.matrix()
        np.testing.assert_allclose(m[:, 1:3], before[:, 1:3] @ gm)

    def test_out_of_range_index(self):
        m = np.eye(2, dtype=complex)
        with pytest.raises(IndexError):
            apply_core(m, identity_core(1), side="left")

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_stack_matches_per_matrix_bitwise(self, side, conjugate):
        rng = np.random.default_rng(20)
        n = 9
        for _ in range(25):
            ab = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
            ab *= 10.0 ** rng.uniform(-12, 12, size=(2, n, n))
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            g, _ = core_annihilating(v, index=int(rng.integers(0, n - 1)))
            a, b = ab[0].copy(), ab[1].copy()
            apply_core(ab, g, side=side, conjugate=conjugate)
            apply_core(a, g, side=side, conjugate=conjugate)
            apply_core(b, g, side=side, conjugate=conjugate)
            # compare the raw binary64 words, so even a zero's sign counts
            assert np.array_equal(ab[0].view(np.uint64), a.view(np.uint64))
            assert np.array_equal(ab[1].view(np.uint64), b.view(np.uint64))

    def test_stack_out_of_range_index(self):
        ab = np.zeros((2, 3, 3), dtype=complex)
        with pytest.raises(IndexError):
            apply_core(ab, identity_core(2), side="left")
        with pytest.raises(IndexError):
            apply_core(ab, identity_core(2), side="right")


class TestMatrixNorms:
    @settings(max_examples=200)
    @given(complexes(), complexes(), complexes(), complexes())
    def test_two_norm_matches_svd(self, a, b, c, d):
        # the closed form loses up to ~sqrt(u) relative accuracy when the two
        # singular values nearly coincide; far tighter than the decade bins
        # and residual thresholds it feeds
        m = np.array([[a, b], [c, d]])
        got = two_norm_2x2(a, b, c, d)
        expected = float(np.linalg.norm(m, 2))
        assert got == pytest.approx(expected, rel=5e-8, abs=1e-300)
