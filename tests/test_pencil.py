import json
import math

import numpy as np
import pytest

from poleswap.numerics import UNIT_ROUNDOFF, chordal_distance, make_projective
from poleswap.pencil import (
    DeflationEvent,
    HessenbergPencil,
    PencilSplit,
    check_proper,
    detect_deflations,
    is_hessenberg,
    load_pencil,
    reduce_to_hessenberg_triangular,
    save_pencil,
    set_poles,
)

U = UNIT_ROUNDOFF


def random_pair(rng, n):
    return (
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
        rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)),
    )


def random_proper_hessenberg(rng, n, poles=None):
    """Proper Hessenberg pair with prescribed subdiagonal pole pairs."""
    a = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    b = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    for j in range(n - 1):
        scale = 0.5 + rng.random()
        if poles is None:
            a[j + 1, j] = scale * (rng.normal() + 1j * rng.normal())
            b[j + 1, j] = scale * (rng.normal() + 1j * rng.normal())
        else:
            a[j + 1, j] = scale * poles[j].alpha
            b[j + 1, j] = scale * poles[j].beta
    return HessenbergPencil(a, b)


class TestStackedBuffer:
    def test_constructor_copies_inputs(self):
        rng = np.random.default_rng(30)
        a, b = random_pair(rng, 5)
        a, b = np.triu(a, -1), np.triu(b, -1)
        a0, b0 = a.copy(), b.copy()
        p = HessenbergPencil(a, b)
        p.a[2, 1] = 7.0
        p.b[0, 0] = 7.0
        np.testing.assert_array_equal(a, a0)
        np.testing.assert_array_equal(b, b0)
        assert not np.shares_memory(p.ab, a) and not np.shares_memory(p.ab, b)

    def test_a_and_b_are_views_of_one_buffer(self):
        # one (A, B, Z, Q) buffer: a, b, z, q and ab are all views of it
        rng = np.random.default_rng(31)
        p = random_proper_hessenberg(rng, 5)
        assert p.m.shape == (4, 5, 5)
        assert all(v.base is p.m for v in (p.ab, p.a, p.b, p.z, p.q))
        assert p.ab.shape == (2, 5, 5)
        np.testing.assert_array_equal(p.z, np.eye(5))
        np.testing.assert_array_equal(p.q, np.eye(5))
        p.m[0, 1, 1] = 3.0
        p.m[1, 2, 2] = 4.0
        p.m[2, 0, 1] = 5.0
        p.m[3, 1, 0] = 6.0
        assert p.a[1, 1] == 3.0 and p.b[2, 2] == 4.0
        assert p.ab[0, 1, 1] == 3.0 and p.ab[1, 2, 2] == 4.0
        assert p.z[0, 1] == 5.0 and p.q[1, 0] == 6.0

    def test_copy_is_independent(self):
        rng = np.random.default_rng(32)
        p = random_proper_hessenberg(rng, 5)
        p.lo, p.hi = 1, 4
        c = p.copy()
        assert (c.lo, c.hi) == (1, 4)
        np.testing.assert_array_equal(c.ab, p.ab)
        assert not np.shares_memory(c.ab, p.ab)
        c.a[0, 0] = 99.0
        c.b[0, 0] = 99.0
        assert p.a[0, 0] != 99.0 and p.b[0, 0] != 99.0

    def test_copy_resets_q_and_z(self):
        rng = np.random.default_rng(33)
        p = reduce_to_hessenberg_triangular(*random_pair(rng, 5))
        assert not np.array_equal(p.q, np.eye(5))
        c = p.copy()
        np.testing.assert_array_equal(c.ab, p.ab)
        np.testing.assert_array_equal(c.q, np.eye(5))
        np.testing.assert_array_equal(c.z, np.eye(5))


class TestPoles:
    def test_direct_ratios(self):
        a = np.array([[1, 1, 1], [2, 1, 1], [0, 3, 1]], dtype=complex)
        b = np.array([[1, 1, 1], [1, 1, 1], [0, 1, 1]], dtype=complex)
        p = HessenbergPencil(a, b)
        vals = [v.to_complex() for v in p.poles()]
        assert vals == [2.0, 3.0]

    def test_b_subdiagonal_zero_gives_infinite_pole(self):
        a = np.array([[1, 1], [2, 1]], dtype=complex)
        b = np.array([[1, 1], [0, 1]], dtype=complex)
        assert HessenbergPencil(a, b).pole(0).is_infinite

    def test_both_zero_signals_split(self):
        a = np.array([[1, 1], [0, 1]], dtype=complex)
        b = np.array([[1, 1], [0, 1]], dtype=complex)
        with pytest.raises(PencilSplit) as err:
            HessenbergPencil(a, b).pole(0)
        assert err.value.position == 0

    def test_non_hessenberg_rejected(self):
        m = np.ones((3, 3), dtype=complex)
        with pytest.raises(ValueError, match="Hessenberg"):
            HessenbergPencil(m, np.triu(m))


class TestCheckProper:
    def test_generic_ht_pair_is_proper(self):
        rng = np.random.default_rng(0)
        p = reduce_to_hessenberg_triangular(*random_pair(rng, 5))
        assert check_proper(p).is_proper

    def test_identical_matrices_proportional_columns(self):
        a = np.array([[1, 1], [1, 1]], dtype=complex)
        rep = check_proper(HessenbergPencil(a.copy(), a.copy()))
        assert not rep.is_proper
        assert rep.violation == "proportional_first_columns"

    def test_zero_subdiagonal_pair(self):
        a = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 2]], dtype=complex)
        b = np.array([[2, 1, 1], [1, 3, 1], [0, 0, 1]], dtype=complex)
        rep = check_proper(HessenbergPencil(a, b))
        assert rep.violation == "zero_subdiagonal_pair"
        assert rep.position == 1

    def test_proportional_last_rows(self):
        a = np.array([[1, 2], [1, 1]], dtype=complex)
        b = np.array([[5, -3], [2, 2]], dtype=complex)
        rep = check_proper(HessenbergPencil(a, b))
        assert rep.violation == "proportional_last_rows"


class TestIsHessenberg:
    @staticmethod
    def full_hessenberg(n):
        m = np.arange(1, n * n + 1, dtype=float).reshape(n, n) * (1 + 1j)
        return np.triu(m, -1)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_nonzero_below_subdiagonal_rejected(self, n):
        for i in range(2, n):
            for j in range(i - 1):
                m = np.zeros((n, n), dtype=complex)
                m[i, j] = 1e-300j
                assert not is_hessenberg(m), (i, j)
                h = self.full_hessenberg(n)
                h[i, j] = 1.0
                assert not is_hessenberg(h), (i, j)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_negative_zero_below_subdiagonal_accepted(self, n):
        h = self.full_hessenberg(n)
        h[np.tril_indices(n, -2)] = complex(-0.0, -0.0)
        assert is_hessenberg(h)

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_full_hessenberg_accepted(self, n):
        assert is_hessenberg(self.full_hessenberg(n))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_small_orders_always_hessenberg(self, n):
        assert is_hessenberg(np.ones((n, n), dtype=complex))


class TestReduction:
    def test_already_reduced_pair(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        b = np.array([[2, 1], [0, 1]], dtype=complex)
        p = reduce_to_hessenberg_triangular(a, b)
        q, z = p.q, p.z
        assert is_hessenberg(p.a)
        assert not np.any(np.tril(p.b, -1))
        for v in p.poles():
            assert v.is_infinite
        np.testing.assert_allclose(q @ p.a @ z.conj().T, a, atol=20 * U * np.linalg.norm(a))

    def test_n_equals_one(self):
        p = reduce_to_hessenberg_triangular(np.array([[2.0]]), np.array([[3.0]]))
        assert p.a[0, 0] != 0

    def test_random_6x6_pattern_and_residual(self):
        rng = np.random.default_rng(3)
        a, b = random_pair(rng, 6)
        p = reduce_to_hessenberg_triangular(a, b)
        q, z = p.q, p.z
        n = 6
        assert is_hessenberg(p.a)
        assert not np.any(np.tril(p.b, -1))
        for v in p.poles():
            assert v.is_infinite
        res_a = np.linalg.norm(a - q @ p.a @ z.conj().T) / np.linalg.norm(a)
        res_b = np.linalg.norm(b - q @ p.b @ z.conj().T) / np.linalg.norm(b)
        assert res_a <= 50 * n * U
        assert res_b <= 50 * n * U
        assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 50 * n * U
        assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= 50 * n * U

    def test_overflowing_reduction_is_refused(self):
        # finite input whose first column's norm exceeds the largest float
        rng = np.random.default_rng(34)
        a = rng.normal(size=(5, 5)) + 0j
        a[:, 0] = 1.7e308
        b = np.ones((5, 5)) + np.eye(5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                reduce_to_hessenberg_triangular(a, b)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            a, b = random_pair(rng, 5)
            p = reduce_to_hessenberg_triangular(a, b)
            before = np.sort_complex(np.linalg.eigvals(np.linalg.solve(b, a)))
            after = np.sort_complex(np.linalg.eigvals(np.linalg.solve(p.b, p.a)))
            for x, y in zip(before, after):
                d = chordal_distance(make_projective(x, 1), make_projective(y, 1))
                assert d <= 1e4 * U


class TestSetPoles:
    def test_all_infinite_on_ht_pair_is_noop(self):
        rng = np.random.default_rng(5)
        p = reduce_to_hessenberg_triangular(*random_pair(rng, 5))
        a0, b0 = p.a.copy(), p.b.copy()
        inf = make_projective(1.0, 0.0)
        assert set_poles(p, [inf] * 4) is None
        np.testing.assert_array_equal(p.a, a0)
        np.testing.assert_array_equal(p.b, b0)

    def test_single_pole_matches_type1_move(self):
        from poleswap.moves import move_type1_top

        rng = np.random.default_rng(6)
        p = reduce_to_hessenberg_triangular(*random_pair(rng, 2))
        q = p.copy()
        rho = make_projective(0.7 - 0.2j, 1.0)
        set_poles(p, [rho])
        move_type1_top(q, rho)
        np.testing.assert_array_equal(p.a, q.a)
        np.testing.assert_array_equal(p.b, q.b)
        assert abs(projective_gap(p.pole(0), rho)) <= 8 * U

    def test_random_targets_installed(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            p = reduce_to_hessenberg_triangular(*random_pair(rng, 5))
            targets = [
                make_projective(10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.random()), 1.0)
                for _ in range(4)
            ]
            assert set_poles(p, targets) is None
            for got, want in zip(p.poles(), targets):
                assert abs(projective_gap(got, want)) <= 1e3 * U

    def test_move_count_bound(self):
        rng = np.random.default_rng(21)
        for n in (5, 6, 9):
            p = reduce_to_hessenberg_triangular(*random_pair(rng, n))
            targets = [
                make_projective(rng.normal() + 1j * rng.normal(), 1.0)
                for _ in range(n - 1)
            ]
            records = []
            assert set_poles(p, targets, record=records) is None
            m = n - 1
            assert len(records) <= math.ceil(m * m / 4) + m

    def test_installation_preserves_equivalence(self):
        rng = np.random.default_rng(8)
        a, b = random_pair(rng, 5)
        p = reduce_to_hessenberg_triangular(a, b)
        targets = [make_projective(c, 1.0) for c in (2.0, -1.0j, 0.5 + 0.5j, 3.0)]
        set_poles(p, targets)
        res = np.linalg.norm(a - p.q @ p.a @ p.z.conj().T) / np.linalg.norm(a)
        assert res <= 1e-13

    def test_graded_installation_is_complete(self):
        # A x 1e150, B x 1e-150, finite poles of the eigenvalues' size: the
        # leading subdiagonal pair turns negligible mid-installation, which
        # is not an exact split, so every target is still installed
        n = 60
        rng = np.random.default_rng(13)
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 1e150
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) * 1e-150
        mods = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
        phases = rng.uniform(0.0, 2.0 * math.pi, n - 1)
        targets = [
            make_projective(complex(m * math.cos(t), m * math.sin(t)) * 1e150, 1e-150)
            for m, t in zip(mods, phases)
        ]
        p = reduce_to_hessenberg_triangular(a, b)
        records = []
        assert set_poles(p, targets, record=records) is None
        # two-sided order: k = 30 targets from the top, 29 from the bottom
        m, k = n - 1, n // 2
        kinds = [r.kind for r in records]
        assert kinds.count("type2") == k * (k - 1) // 2 + (m - k) * (m - k - 1) // 2 == 841
        assert len(records) - kinds.count("type2") == m
        assert all(r.deflation is None for r in records)
        for got, want in zip(p.poles(), targets):
            assert abs(projective_gap(got, want)) <= 1e-12 * abs(got.alpha * want.beta)


def projective_gap(p, q):
    return p.alpha * q.beta - q.alpha * p.beta


class TestDetectDeflations:
    def test_exact_zero_bottom_pair(self):
        a = np.array([[1, 1, 1], [1, 2, 1], [0, 0, 3]], dtype=complex)
        b = np.array([[1, 0, 1], [2, 1, 1], [0, 0, 1]], dtype=complex)
        events = detect_deflations(HessenbergPencil(a, b))
        assert len(events) == 1
        assert events[0].kind == "bottom_eigenvalue"
        assert events[0].eigenvalue.to_complex() == pytest.approx(3.0)

    def test_no_small_pairs(self):
        rng = np.random.default_rng(9)
        p = reduce_to_hessenberg_triangular(*random_pair(rng, 4))
        # B-subdiagonals are exactly zero but A's are O(1): no deflation
        assert detect_deflations(p) == []

    def test_threshold_arithmetic(self):
        a = np.eye(4, dtype=complex) + np.diag([1.0, 1.0, 1.0], -1)
        b = np.eye(4, dtype=complex) + np.diag([1.0, 1.0, 1.0], -1)
        a[2, 1] = 1e-18
        b[2, 1] = 1e-18
        p = HessenbergPencil(a, b)
        events = detect_deflations(p, eps=1e-16)
        assert [e.position for e in events] == [1]
        assert events[0].kind == "split"
        assert p.a[2, 1] == 0.0 and p.b[2, 1] == 0.0


    @pytest.mark.parametrize("factor, deflates", [(0.99, True), (1.01, False)])
    def test_zero_neighbour_sum_falls_back_to_block_norm(self, factor, deflates):
        # A's diagonal vanishes, so its test uses ||A[act, act]||_F = sqrt(2)
        a = np.diag([1.0, 1.0, 0.0], -1).astype(complex)
        a[3, 2] = factor * U * math.sqrt(2.0)
        b = np.eye(4, dtype=complex) + np.diag([1.0, 1.0, 1e-300], -1)
        p = HessenbergPencil(a, b)
        events = detect_deflations(p)
        assert [e.position for e in events] == ([2] if deflates else [])
        assert (p.a[3, 2] == 0.0) == deflates


class TestFileFormat:
    def test_round_trip_binary64_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        a, b = random_pair(rng, 3)
        a *= 10.0 ** rng.uniform(-12, 12, size=(3, 3))
        path = tmp_path / "pair.json"
        save_pencil(path, a, b)
        a2, b2 = load_pencil(path)
        np.testing.assert_array_equal(a, a2)
        np.testing.assert_array_equal(b, b2)

    def test_inconsistent_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "a": [[1, 0]], "b": [[1, 0]]}))
        with pytest.raises(ValueError, match="inconsistent"):
            load_pencil(path)
