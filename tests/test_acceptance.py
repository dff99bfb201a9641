"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full suite takes a
few minutes on one core; the million-trial benchmark and the ten-thousand
trial accuracy study dominate.
"""

import math

import numpy as np
import pytest

from poleswap.experiments import StressDistribution, run_accuracy_experiment, run_swap_benchmark
from poleswap.numerics import UNIT_ROUNDOFF, chordal_distance, make_projective, two_norm_2x2
from poleswap.pencil import reduce_to_hessenberg_triangular
from poleswap.rqz import INF, SolveOptions, basic_sweep, choose_shift, solve
from poleswap.swapkernel import (
    SwapMethod,
    TriangularPencil2,
    exact_swap_vectors,
    flip_swap_equivalence_check,
)
from poleswap.theory import run_verification

from test_rqz import match_reciprocal

U = UNIT_ROUNDOFF
SEED = 20250
BENCH_TRIALS = 1_000_000
ACCURACY_TRIALS = 10_000


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def benchmark_histogram():
    return run_swap_benchmark(BENCH_TRIALS, StressDistribution(seed=SEED))


def test_criterion_1_own_norm_residual_distribution(benchmark_histogram):
    """Own-norm residual distribution at 1e6 stress trials: the new method
    never exceeds 1e-15 and is almost always below 1e-16; both baselines have
    real tails."""
    hist = benchmark_histogram
    new_tail = max(
        hist.tail_beyond("new", m, "own", 1e-15) for m in ("a", "b")
    )
    new_frac = min(
        hist.fraction_at_most("new", m, "own", 1e-16) for m in ("a", "b")
    )
    baseline_fracs = {
        name: min(
            hist.tail_beyond(name, m, "own", 1e-15) / hist.trials for m in ("a", "b")
        )
        for name in ("vandooren", "sylvester")
    }
    ok = (
        new_tail == 0
        and new_frac >= 0.99
        and all(f >= 0.005 for f in baseline_fracs.values())
    )
    report(
        "1 own-norm residuals (1e6 stress swaps)",
        ok,
        f"new: 0 above 1e-15 required, got {new_tail}; "
        f"fraction <=1e-16 {100 * new_frac:.2f}% (need >=99.0%); "
        f"baseline tails above 1e-15: "
        + ", ".join(f"{k} {100 * v:.2f}%" for k, v in baseline_fracs.items())
        + " (need >=0.50%)",
    )
    assert ok


def test_criterion_2_delta_denominator_distribution(benchmark_histogram):
    """With the shared denominator Delta = max(||A||, ||B||) no method
    exceeds 1e-15: the shared-scale criterion hides the difference the
    own-norm criterion exposes."""
    hist = benchmark_histogram
    tails = {
        name: max(hist.tail_beyond(name, m, "delta", 1e-15) for m in ("a", "b"))
        for name in ("new", "vandooren", "sylvester")
    }
    ok = all(t == 0 for t in tails.values())
    report(
        "2 delta-denominator residuals",
        ok,
        "trials above 1e-15/Delta: "
        + ", ".join(f"{k}={v}" for k, v in tails.items())
        + " (need all 0)",
    )
    assert ok


def test_criterion_3_accuracy_experiment():
    """1e4 random 3x3 Hessenberg stress pencils against the extended-precision
    oracle: error ratios mostly in (0.1, 10), significant cases favor the new
    method, and new-method Schur residuals never exceed 1e-14."""
    summary = run_accuracy_experiment(ACCURACY_TRIALS, StressDistribution(seed=SEED))
    scored = summary.scored()
    band_frac = summary.within_band / scored
    significant = summary.significant_new + summary.significant_baseline
    new_share = summary.significant_new / significant if significant else 1.0
    ok = band_frac >= 0.95 and new_share >= 0.60 and summary.r_max_new <= 1e-14
    report(
        "3 eigenvalue accuracy vs oracle (1e4 trials)",
        ok,
        f"in-band {100 * band_frac:.2f}% (need >=95%); significant cases "
        f"new/baseline {summary.significant_new}/{summary.significant_baseline} "
        f"(need new >=60%); max new-method Schur residual {summary.r_max_new:.2e} "
        f"(need <=1e-14); excluded {summary.excluded}",
    )
    assert ok


def test_criterion_4_theorem_suite():
    """All convergence-theory checks on 100 seeded conditioned pencils, n=8."""
    rep = run_verification(seed=SEED, n=8, pencils=100)
    detail = "; ".join(f"{c.name} {c.max_angle:.1e}" for c in rep.checks)
    report("4 theorem suite (100 pencils, n=8)", rep.passed, detail)
    assert rep.passed, rep.failing()


def test_criterion_5_qz_equivalence():
    """With all poles infinite and an infinite replacement pole, a basic sweep
    maps Hessenberg-triangular to Hessenberg-triangular and starts with the
    single-shift QZ direction."""
    rng = np.random.default_rng(SEED)
    n = 10
    worst_mass = 0.0
    worst_sine = 0.0
    for _ in range(100):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        # the copy's Q and Z start at I, so they hold the sweep's alone
        p = reduce_to_hessenberg_triangular(a, b).copy()
        a0, b0 = p.a.copy(), p.b.copy()
        q, z = p.q, p.z
        rho = choose_shift(p, "rayleigh")
        basic_sweep(p, rho, INF)
        worst_mass = max(
            worst_mass,
            float(np.linalg.norm(np.tril(p.b, -1)) / np.linalg.norm(p.b)),
        )
        e1 = np.zeros(n, dtype=complex)
        e1[0] = 1.0
        target = (rho.beta * a0 - rho.alpha * b0) @ np.linalg.solve(b0, e1)
        target /= np.linalg.norm(target)
        u = q[:, 0]
        worst_sine = max(
            worst_sine, float(np.linalg.norm(target - u * np.vdot(u, target)))
        )
    ok = worst_mass <= 1e-14 and worst_sine <= 1e-10
    report(
        "5 QZ equivalence (100 HT pairs, n=10)",
        ok,
        f"max strict-lower B mass {worst_mass:.2e} (need <=1e-14); "
        f"max first-column sine {worst_sine:.2e} (need <=1e-10)",
    )
    assert ok


def test_criterion_6_end_to_end_solver():
    """100 random dense pairs across n in {10, 25, 50}: convergence, residual
    bounds, and reciprocal consistency of solve(B, A)."""
    rng = np.random.default_rng(SEED + 1)
    sizes = [10, 25, 50]
    worst_res = 0.0
    all_ok = True
    failures = []
    for trial in range(100):
        n = sizes[trial % 3]
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        fwd = solve(a, b, SolveOptions(record_sweeps=False))
        rev = solve(b, a, SolveOptions(record_sweeps=False))
        res = max(fwd.r_a, fwd.r_b)
        worst_res = max(worst_res, res / n)
        if not (fwd.converged and rev.converged):
            failures.append(f"trial {trial} (n={n}): non-convergence")
            all_ok = False
            continue
        if res > 1e-14 * n:
            failures.append(f"trial {trial} (n={n}): residual {res:.2e}")
            all_ok = False
        if not match_reciprocal(fwd.eigenvalues, rev.eigenvalues, 1e-8):
            failures.append(f"trial {trial} (n={n}): reciprocal mismatch")
            all_ok = False
    report(
        "6 end-to-end solver (100 pairs, n in {10,25,50})",
        all_ok,
        f"max residual/n {worst_res:.2e} (need <=1e-14); "
        + (f"failures: {failures[:3]}" if failures else "all converged, reciprocal-consistent"),
    )
    assert all_ok, failures


def test_criterion_7_kernel_identities():
    """Deflating identities of the closed-form swap vectors to 16u and
    flip-equivalence of the two Case 2 constructions to 100u, on 1e4 random
    moderate-moduli pencils."""
    rng = np.random.default_rng(SEED + 2)
    mod = 10.0 ** rng.uniform(-3, 3, size=(10_000, 6))
    ph = rng.uniform(0.0, 2.0 * math.pi, size=(10_000, 6))
    entries = mod * np.exp(1j * ph)
    worst_identity = 0.0
    worst_flip = 0.0
    for row in entries:
        p = TriangularPencil2(*row)
        x, y, v, w = exact_swap_vectors(p)
        a_mat, b_mat = p.a_matrix(), p.b_matrix()
        na = two_norm_2x2(p.alpha1, p.a, 0, p.alpha2)
        nb = two_norm_2x2(p.beta1, p.b, 0, p.beta2)
        nx = float(np.linalg.norm(x))
        nv = float(np.linalg.norm(v))
        checks = (
            (np.linalg.norm(a_mat @ x - p.alpha2 * y), na * nx),
            (np.linalg.norm(b_mat @ x - p.beta2 * y), nb * nx),
            (np.linalg.norm(v @ a_mat - p.alpha1 * w), na * nv),
            (np.linalg.norm(v @ b_mat - p.beta1 * w), nb * nv),
        )
        for err, scale in checks:
            if scale > 0:
                worst_identity = max(worst_identity, float(err) / scale)
        worst_flip = max(worst_flip, flip_swap_equivalence_check(p))
    ok = worst_identity <= 16 * U and worst_flip <= 100 * U
    report(
        "7 kernel identities (1e4 moderate pencils)",
        ok,
        f"max deflating-identity error {worst_identity / U:.2f}u (need <=16u); "
        f"max flip deviation {worst_flip / U:.2f}u (need <=100u)",
    )
    assert ok
