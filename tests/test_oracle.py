import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poleswap import oracle
from poleswap.experiments import (
    BLOCK_SIZE,
    StressDistribution,
    _block_rng,
    _hessenberg_from_entries,
    _stress_block,
)
from poleswap.numerics import chordal_distance, make_projective
from poleswap.oracle import (
    SingularPencilError,
    _cdd,
    _cdd_abs,
    _cdd_div,
    _cdd_mul,
    _cdd_sub,
    _dd_add,
    _dd_div,
    _dd_mul,
    _det_cubic,
    _finite_roots_dd,
    _horner,
    eig_2x2,
    eig_3x3_extended,
    max_relative_error,
)


def balanced_floats():
    return st.floats(
        min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
    ) | st.floats(min_value=-1e6, max_value=-1e-6)


def dd_sub(x, y):
    """x - y for double-double pairs, as the oracle subtracts."""
    return _dd_add(x[0], x[1], -y[0], -y[1])


class TestDoubleDouble:
    @settings(max_examples=500)
    @given(balanced_floats(), balanced_floats())
    def test_add_then_subtract_recovers(self, a, b):
        # (a + b) - b == a to double-double precision for balanced operands
        da = (a, 0.0)
        db = (b, 0.0)
        r = dd_sub(_dd_add(*da, *db), db)
        err = abs(dd_sub(r, da)[0])
        assert err <= 2.0**-104 * max(abs(a), abs(b))

    @settings(max_examples=500)
    @given(balanced_floats(), balanced_floats())
    def test_mul_div_roundtrip(self, a, b):
        da = (a, 0.0)
        db = (b, 0.0)
        r = _dd_div(*_dd_mul(*da, *db), *db)
        assert abs(dd_sub(r, da)[0]) <= 2.0**-100 * abs(a)

    @settings(max_examples=300)
    @given(balanced_floats(), balanced_floats())
    def test_normalized_representation(self, a, b):
        hi, lo = _dd_add(a, 0.0, b, 0.0)
        if hi != 0.0:
            assert abs(lo) <= abs(hi) * 2.0**-52

    def test_product_error_term_captured(self):
        # 1 + 2^-60 is not representable; the product keeps it in the tail
        x = 1.0 + 2.0**-30
        hi, lo = _dd_mul(x, 0.0, x, 0.0)
        exact_tail = 2.0 * 2.0**-30 + 2.0**-60
        assert hi + lo == pytest.approx(1.0 + exact_tail, abs=0.0)

    def test_complex_division(self):
        z = _cdd(3.0 + 4.0j)
        w = _cdd(1.0 - 2.0j)
        r = _cdd_mul(_cdd_div(z, w), w)
        assert abs(complex(r[0], r[2]) - (3.0 + 4.0j)) <= 1e-30


class TestEig2x2:
    def test_general_pencil(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        b = np.eye(2, dtype=complex)
        e1, e2 = eig_2x2(a, b)
        got = sorted([e1.to_complex().real, e2.to_complex().real])
        assert got == pytest.approx([-1.0, 1.0])

    def test_degree_drop(self):
        a = np.diag([2.0, 3.0]).astype(complex)
        b = np.diag([1.0, 0.0]).astype(complex)
        e1, e2 = eig_2x2(a, b)
        assert e1.to_complex() == pytest.approx(2.0)
        assert e2.is_infinite


class TestEig3x3Extended:
    def test_diagonal_exact(self):
        vals = eig_3x3_extended(np.diag([1.0, 2.0, 3.0]), np.eye(3))
        got = sorted(v.to_complex().real for v in vals)
        assert got == [1.0, 2.0, 3.0]

    def test_degree_drop_gives_infinity(self):
        vals = eig_3x3_extended(np.diag([2.0, 3.0, 5.0]), np.diag([1.0, 1.0, 0.0]))
        finite = sorted(v.to_complex().real for v in vals if not v.is_infinite)
        assert finite == [2.0, 3.0]
        assert sum(v.is_infinite for v in vals) == 1

    def test_singular_pencil_diagnosed(self):
        z = np.zeros((3, 3))
        with pytest.raises(SingularPencilError):
            eig_3x3_extended(z, z)

    def test_triangular_self_consistency(self):
        # the polished double-double roots match the diagonal ratios to
        # extended precision (the public interface then rounds to binary64)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = np.triu(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            b = np.triu(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            roots, n_inf = _finite_roots_dd(a, b)
            assert n_inf == 0
            exact = [_cdd_div(_cdd(a[i, i]), _cdd(b[i, i])) for i in range(3)]
            for e in exact:
                best = min(_cdd_abs(_cdd_sub(r, e)) for r in roots)
                assert best <= 1e-25 * max(_cdd_abs(e), 1e-30)

    def test_cross_validation_against_solver(self):
        # on stress pencils whose eigenvalues are insensitive to 1e-10
        # normwise perturbations (an oracle-internal condition estimate),
        # the working-precision solver agrees with the oracle to 1e-8
        from poleswap.rqz import SolveOptions, solve

        rng = np.random.default_rng(33)

        def stress_hess():
            mod = 10.0 ** rng.uniform(-12, 12, size=(2, 3, 3))
            ph = rng.uniform(0, 2 * math.pi, size=(2, 3, 3))
            a, b = mod * np.exp(1j * ph)
            a[2, 0] = b[2, 0] = 0
            return a, b

        def perturbed(m):
            g = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
            g[2, 0] = 0
            return m + 1e-10 * np.linalg.norm(m) * g / np.linalg.norm(g)

        from poleswap.oracle import OracleError

        kept = 0
        for _ in range(800):
            a, b = stress_hess()
            try:
                exact = eig_3x3_extended(a, b)
                movement = max(
                    max_relative_error(
                        eig_3x3_extended(perturbed(a), perturbed(b)), exact
                    )
                    for _ in range(2)
                )
            except OracleError:
                continue
            if movement > 1e-4:
                continue
            kept += 1
            res = solve(a, b, SolveOptions(record_sweeps=False))
            assert max_relative_error(res.eigenvalues, exact) <= 1e-8
        assert kept >= 5

    def test_cubic_residuals_certified(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            mod = 10.0 ** rng.uniform(-12, 12, size=(2, 3, 3))
            ph = rng.uniform(0, 2 * math.pi, size=(2, 3, 3))
            a, b = mod * np.exp(1j * ph)
            a[2, 0] = b[2, 0] = 0.0
            coeffs, bounds = _det_cubic(a, b)
            roots, _ = _finite_roots_dd(a, b)
            for z in roots:
                res = _cdd_abs(_horner(coeffs, z))
                scale = sum(bk * _cdd_abs(z) ** k for k, bk in enumerate(bounds))
                assert res <= 2.0**-85 * scale


def oracle_digest(record, count: int = 512) -> str:
    """SHA-256 of the binary64 words ``record(a, b)`` returns on the first
    ``count`` pencils of the first accuracy block at seed 20250, with the
    diagnostic class name in place of the words of each excluded pencil."""
    dist = StressDistribution(seed=20250)
    entries = _stress_block(dist, _block_rng(dist.seed, 0), BLOCK_SIZE, 16)[:count]
    h = hashlib.sha256()
    for row in entries:
        a, b = _hessenberg_from_entries(row)
        try:
            words = record(a, b)
        except oracle.OracleError as exc:
            h.update(type(exc).__name__.encode() + b"\n")
            continue
        h.update(struct.pack(f"<{len(words)}d", *words))
    return h.hexdigest()


def output_words(a, b):
    values = oracle.eig_3x3_extended(a, b)
    return [w for v in values for w in (v.alpha.real, v.alpha.imag, v.beta.real, v.beta.imag)]


def double_double_words(a, b):
    coeffs, _ = _det_cubic(a, b)
    roots, n_infinite = _finite_roots_dd(a, b)
    return [float(n_infinite)] + [w for c in coeffs + roots for w in c]


class TestOracleBitsPinned:
    """The double-double operation order decides the last bits of the
    oracle; both digests were recorded with the earlier dataclass
    implementation of the same arithmetic, and a reordered sum or a dropped
    zero tail changes them."""

    def test_eigenvalue_words(self):
        digest = "7026f9bef44ecdfb111221a5b5b7f6e79915069e756de73d22572810d6c4f5c3"
        assert oracle_digest(output_words) == digest

    def test_coefficient_and_root_words(self):
        # the rounded eigenvalues hide most tail changes; the full
        # double-double words of the cubic and its polished roots do not
        digest = "ed662fb80f9b260e385f8a466e1ce15ef07f19b6ee57834b31cac8e6f135663a"
        assert oracle_digest(double_double_words) == digest


class TestMaxRelativeError:
    def _vals(self, *xs):
        return [make_projective(x, 1.0) for x in xs]

    def test_identical_lists(self):
        v = self._vals(1.0, 2.0, 3.0)
        assert max_relative_error(v, v) == 0.0

    def test_permutation_invariance(self):
        assert max_relative_error(self._vals(2.0, 1.0), self._vals(1.0, 2.0)) == 0.0

    def test_direct_formula(self):
        got = max_relative_error(self._vals(1.001, 10.0), self._vals(1.0, 10.0))
        assert got == pytest.approx(1e-3, rel=1e-9)

    def test_infinite_exact_uses_reciprocal(self):
        computed = [make_projective(1e8, 1.0)]
        exact = [make_projective(1.0, 0.0)]
        assert max_relative_error(computed, exact) == pytest.approx(1e-8)

    def test_zero_exact_falls_back_to_chordal(self):
        computed = [make_projective(1e-3, 1.0)]
        exact = [make_projective(0.0, 1.0)]
        got = max_relative_error(computed, exact)
        assert got == pytest.approx(
            chordal_distance(computed[0], exact[0])
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            max_relative_error(self._vals(1.0), self._vals(1.0, 2.0))
