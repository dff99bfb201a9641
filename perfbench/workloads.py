"""The four benchmark workloads: inputs from a seed, the timed call, and checks.

Every workload turns ``(seed, index)`` into the input of its ``index``-th
operation, so a seed fixes every input of a run however many operations the
run's time allows.  Only the operation itself is timed; input generation,
the scipy yardstick and the correctness checks run outside the timed region.

The checks never trust the solver's own report: backward errors are
recomputed here with scaling (so entries near 1e-164 cannot underflow to a
zero residual), eigenvalues are matched against ``scipy.linalg.qz`` with a
tolerance scaled by each eigenvalue's condition number, and the swap study's
histogram is rebuilt from direct kernel calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import poleswap
from poleswap import experiments
from poleswap.numerics import make_projective

U = float(np.finfo(float).eps) / 2
REFERENCE_SEED = 20250
BERR_LIMIT_NU = 100.0   # backward error allowed, in units of n*u
EIG_TOL_NU = 100.0      # eigenvalue distance allowed, in units of n*u*kappa
MISMATCH_FACTOR = 2.0   # reported vs recomputed residual disagreement


def spawn_rng(seed: int, *key: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def spawn_int(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def scaled_fro(m: np.ndarray) -> float:
    """Frobenius norm with the largest modulus factored out first."""
    s = float(np.max(np.abs(m))) if m.size else 0.0
    if s == 0.0:
        return 0.0
    return s * float(np.linalg.norm(m / s))


def backward_error(m, q, t, z) -> float:
    """||M - Q T Z*||_F / ||M||_F, computed on M / max|M| so that it can
    neither overflow nor underflow to zero."""
    s = float(np.max(np.abs(m)))
    if s == 0.0:
        return scaled_fro(q @ t @ z.conj().T)
    d = m / s - q @ (t / s) @ z.conj().T
    return float(np.linalg.norm(d)) / float(np.linalg.norm(m / s))


def chordal_matrix(a1, b1, a2, b2) -> np.ndarray:
    """Chordal distances between projective pairs (a1/b1)_i and (a2/b2)_j."""
    num = np.abs(np.outer(a1, b2) - np.outer(b1, a2))
    d1 = np.hypot(np.abs(a1), np.abs(b1))
    d2 = np.hypot(np.abs(a2), np.abs(b2))
    return num / np.outer(d1, d2)


def eigenvalue_check(a, b, schur_a, schur_b, qz_a, qz_b) -> float:
    """Largest eigenvalue distance to scipy's QZ, in units of n*u*kappa.

    Both eigenvalue sets are taken on the normalized pencil (A/||A||, B/||B||),
    whose backward error is the one the solver bounds.  kappa is the chordal
    condition number ||x|| ||y|| / |(y*Ax, y*Bx)| of each eigenvalue of the
    normalized pencil, from scipy's eigenvectors.
    """
    import scipy.linalg
    from scipy.optimize import linear_sum_assignment

    n = a.shape[0]
    na, nb = scaled_fro(a), scaled_fro(b)
    an, bn = a / na, b / nb
    w, vl, vr = scipy.linalg.eig(an, bn, left=True, right=True, homogeneous_eigvals=True)
    ya = np.einsum("ij,ik,kj->j", vl.conj(), an, vr)
    yb = np.einsum("ij,ik,kj->j", vl.conj(), bn, vr)
    kappa = (
        np.linalg.norm(vl, axis=0) * np.linalg.norm(vr, axis=0) / np.hypot(np.abs(ya), np.abs(yb))
    )
    qa, qb = np.diag(qz_a) / na, np.diag(qz_b) / nb
    rows, cols = linear_sum_assignment(chordal_matrix(qa, qb, w[0], w[1]))
    kappa_qz = np.empty(n)
    kappa_qz[rows] = kappa[cols]
    pa, pb = np.diag(schur_a) / na, np.diag(schur_b) / nb
    dist = chordal_matrix(pa, pb, qa, qb)
    rows, cols = linear_sum_assignment(dist)
    return float(np.max(dist[rows, cols] / (n * U * np.maximum(kappa_qz[cols], 1.0))))


@dataclass
class Tally:
    """What the checks found over the operations of one run phase."""

    attempted: int = 0
    failed_ops: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    berr_by_op: dict = field(default_factory=dict)
    qz_ratios: list = field(default_factory=list)
    residual_mismatch: int = 0

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.problems) < 20:
            self.problems.append(f"op {op}: {message}")

    def berr(self, op: int, value_nu: float, what: str) -> bool:
        """Record a backward error (in units of n*u); fail the op above the limit."""
        self.berr_by_op[op] = max(self.berr_by_op.get(op, 0.0), value_nu)
        if not value_nu <= BERR_LIMIT_NU:
            self.fail(op, f"{what} backward error {value_nu:.3g} n*u exceeds {BERR_LIMIT_NU:g}")
            return False
        return True


# ---------------------------------------------------------------------------
# Solve workloads
# ---------------------------------------------------------------------------


@dataclass
class SolveInput:
    a: np.ndarray
    b: np.ndarray
    options: poleswap.SolveOptions
    qz: tuple | None = None


class SolveWorkload:
    """One ``poleswap.solve`` per operation, on a fresh pencil each time."""

    unit = "solves"

    def __init__(self, name: str, key: int, n: int, graded: bool):
        self.name = name
        self.key = key
        self.n = n
        self.graded = graded

    def make_input(self, seed: int, index: int, n: int | None = None) -> SolveInput:
        n = self.n if n is None else n
        rng = spawn_rng(seed, self.key, index)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if not self.graded:
            return SolveInput(a, b, poleswap.SolveOptions())
        # ||A|| and ||B|| 300 orders apart; poles finite and of the size of
        # the eigenvalues (|lambda| ~ 1e300), so swaps meet both kernel cases
        a *= 1e150
        b *= 1e-150
        mods = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
        phases = rng.uniform(0.0, 2.0 * math.pi, n - 1)
        poles = [
            make_projective(complex(m * math.cos(t), m * math.sin(t)) * 1e150, 1e-150)
            for m, t in zip(mods, phases)
        ]
        return SolveInput(a, b, poleswap.SolveOptions(pole="rayleigh", prescribed_poles=poles))

    def units(self, inp) -> int:
        return 1

    def setup(self, seed: int) -> None:
        """Build the first input and make a first, small call."""
        self.make_input(seed, 0)
        self.run(self.make_input(seed, 2**32 - 1, n=8))

    def warm_up_input(self, seed: int) -> SolveInput:
        return self.make_input(seed, 2**32 - 2)

    def run(self, inp: SolveInput):
        return poleswap.solve(inp.a, inp.b, inp.options)

    counterpart = None  # the yardstick is compared with the operation itself

    def yardstick(self, inp: SolveInput) -> None:
        """scipy's complex QZ on the same pencil; ``run.py`` times it."""
        import scipy.linalg

        inp.qz = scipy.linalg.qz(inp.a, inp.b, output="complex")

    def expected_set_poles_type2(self) -> int:
        """Type II moves ``set_poles`` makes on an n x n proper pencil."""
        if not self.graded:
            return 0
        m = self.n - 1
        k = (m + 1) // 2
        return k * (k - 1) // 2 + sum(self.n - 2 - t for t in range(k, m))

    def check(self, inp: SolveInput, res, tally: Tally, op: int) -> None:
        n = self.n
        if not res.converged:
            tally.fail(op, f"converged=False, stuck block {res.stuck_block}")
            return
        r_a = backward_error(inp.a, res.q, res.schur_a, res.z)
        r_b = backward_error(inp.b, res.q, res.schur_b, res.z)
        for reported, own in ((res.r_a, r_a), (res.r_b, r_b)):
            if not own / MISMATCH_FACTOR <= reported <= own * MISMATCH_FACTOR:
                tally.residual_mismatch += 1
                break
        if not tally.berr(op, max(r_a, r_b) / (n * U), "Schur form"):
            return
        for t, name in ((res.schur_a, "A"), (res.schur_b, "B")):
            if np.any(np.tril(t, -1)):
                tally.fail(op, f"Schur factor {name} is not upper triangular")
                return
        worst = eigenvalue_check(inp.a, inp.b, res.schur_a, res.schur_b, inp.qz[0], inp.qz[1])
        if not worst <= EIG_TOL_NU:
            tally.fail(
                op,
                f"eigenvalue off scipy.linalg.qz by {worst:.3g} n*u*kappa "
                f"(limit {EIG_TOL_NU:g})",
            )

    @staticmethod
    def summarize(res):
        """(sweeps, type II moves in the sweep log): all a run keeps of a solve."""
        logged = sum(1 for rec in res.sweep_log for m in rec.moves if m.kind == "type2")
        return res.iteration_count, logged

    def reference_counts(self, summaries, tracer) -> dict:
        return {
            "sweeps": sum(s[0] for s in summaries),
            "type2_moves": tracer.stats["moves.type2"].calls,
        }

    def self_test(self, summaries, tracer) -> list[str]:
        """Tracer counts against counts the solver reports itself."""
        problems = []
        sweeps = sum(s[0] for s in summaries)
        if tracer.counts["sweeps"] != sweeps:
            problems.append(
                f"traced sweeps {tracer.counts['sweeps']} != sum of iteration_count {sweeps}"
            )
        logged = sum(s[1] for s in summaries)
        expected = logged + len(summaries) * self.expected_set_poles_type2()
        if tracer.stats["moves.type2"].calls != expected:
            problems.append(
                f"traced type II moves {tracer.stats['moves.type2'].calls} != "
                f"{expected} (sweep logs plus set_poles)"
            )
        if tracer.stats["rqz.solve"].calls != len(summaries):
            problems.append(f"traced solves {tracer.stats['rqz.solve'].calls} != {len(summaries)}")
        return problems


# ---------------------------------------------------------------------------
# Study workloads
# ---------------------------------------------------------------------------


def _stress_rows(dist, count: int, width: int) -> np.ndarray:
    # the inputs the study itself draws for its first block
    return experiments._stress_block(dist, experiments._block_rng(dist.seed, 0), count, width)


@dataclass
class StudyInput:
    dist: experiments.StressDistribution
    trials: int
    sample: list  # the first pencils of the block, ready for the yardstick


class StudyWorkload:
    """One study call per operation, on a fresh stress block each time.

    The yardstick compares a poleswap call on the first ``sample_size``
    pencils of the block (:meth:`counterpart`) with LAPACK on the same
    pencils (:meth:`yardstick`), right after each operation.
    """

    unit = "trials"
    width = 0
    sample_size = 0

    def make_input(self, seed: int, index: int, trials: int | None = None) -> StudyInput:
        dist = experiments.StressDistribution(seed=spawn_int(seed, self.key, index))
        trials = self.trials if trials is None else trials
        rows = _stress_rows(dist, trials, self.width)[: self.sample_size]
        return StudyInput(dist, trials, [self.prepare(r) for r in rows])

    def units(self, inp: StudyInput) -> int:
        return inp.trials

    @staticmethod
    def summarize(out):
        return out

    def setup(self, seed: int) -> None:
        """Build the first input and make a first, small call."""
        self.make_input(seed, 0)
        self.run(self.make_input(seed, 2**32 - 1, trials=self.setup_trials))

    def warm_up_input(self, seed: int) -> StudyInput:
        return self.make_input(seed, 2**32 - 2)


class SwapWorkload(StudyWorkload):
    """``run_swap_benchmark`` over a block of stress pencils, all three methods."""

    name = "swap-stress"
    key = 3
    trials = 2048
    setup_trials = 64
    width = 6
    sample_size = 256
    verify_ops = 16  # operations whose NEW histograms are rebuilt

    @staticmethod
    def prepare(row):
        p = poleswap.TriangularPencil2(*row)
        return p, p.a_matrix(), p.b_matrix()

    def run(self, inp: StudyInput):
        return experiments.run_swap_benchmark(inp.trials, inp.dist)

    def counterpart(self, inp: StudyInput) -> None:
        new = poleswap.SwapMethod.NEW
        for p, _, _ in inp.sample:
            poleswap.swap2x2(p, new)

    def yardstick(self, inp: StudyInput) -> None:
        """LAPACK ztgexc swapping the same 2x2 triangular pencils."""
        from scipy.linalg.lapack import ztgexc

        eye = np.eye(2, dtype=complex)
        for _, a, b in inp.sample:
            ztgexc(a, b, eye, eye, 1, 2)

    def check(self, inp: StudyInput, hist, tally: Tally, op: int) -> None:
        trials = inp.trials
        if hist.trials != trials:
            tally.fail(op, f"histogram holds {hist.trials} trials, expected {trials}")
            return
        for key, counts in hist.counts.items():
            if sum(counts) != trials:
                tally.fail(op, f"bin counts {key} sum to {sum(counts)}, not {trials}")
                return
        for matrix in ("a", "b"):
            tail = hist.tail_beyond("new", matrix, "own", 1e-15)
            if tail:
                tally.fail(op, f"{tail} NEW own-norm residuals of {matrix} above 1e-15")
                return
        if op < self.verify_ops:
            self._rebuild(inp, hist, tally, op)

    def _rebuild(self, inp: StudyInput, hist, tally: Tally, op: int) -> None:
        """Rebuild the NEW histogram from direct kernel calls binned with
        numpy, and bound each swap's backward error."""
        new = poleswap.SwapMethod.NEW
        rows = _stress_rows(inp.dist, inp.trials, 6)
        reports = [poleswap.swap2x2(poleswap.TriangularPencil2(*r), new) for r in rows]
        edges = np.array(experiments.BIN_EDGES)
        nbins = len(experiments.BIN_LABELS)
        for matrix in ("a", "b"):
            values = np.array([getattr(r, f"res_{matrix}") for r in reports])
            idx = np.minimum(np.searchsorted(edges, values, side="left"), nbins - 1)
            rebuilt = np.bincount(idx, minlength=nbins).tolist()
            if rebuilt != hist.counts[("new", matrix, "own")]:
                tally.fail(
                    op,
                    f"NEW {matrix} histogram {hist.counts[('new', matrix, 'own')]}"
                    f" != rebuilt {rebuilt}",
                )
        tally.berr(op, self._swap_backward_error(rows, reports) / (2 * U), "swap")

    @staticmethod
    def _swap_backward_error(rows: np.ndarray, reports) -> float:
        """Largest ||M - Q R Z*||_F / ||M||_F over the swaps, for M = A and B,
        with R the swapped triangular pencil and its (2,1) entry zero."""
        k = len(reports)

        def core(c, s):
            g = np.empty((k, 2, 2), dtype=complex)
            g[:, 0, 0], g[:, 0, 1] = c, -np.conj(s)
            g[:, 1, 0], g[:, 1, 1] = s, np.conj(c)
            return g

        q = core(np.array([r.q.c for r in reports]), np.array([r.q.s for r in reports]))
        z = core(np.array([r.z.c for r in reports]), np.array([r.z.s for r in reports]))
        worst = 0.0
        for cols, fields in (((0, 1, 2), ("alpha1", "a", "alpha2")), ((3, 4, 5), ("beta1", "b", "beta2"))):
            m = np.zeros((k, 2, 2), dtype=complex)
            m[:, 0, 0], m[:, 0, 1], m[:, 1, 1] = rows[:, cols[0]], rows[:, cols[1]], rows[:, cols[2]]
            r = np.zeros((k, 2, 2), dtype=complex)
            for (i, j), f in zip(((0, 0), (0, 1), (1, 1)), fields):
                r[:, i, j] = [getattr(rep.result, f) for rep in reports]
            s = np.max(np.abs(m), axis=(1, 2))[:, None, None]
            d = m / s - q @ (r / s) @ np.conj(np.transpose(z, (0, 2, 1)))
            ratio = np.linalg.norm(d, axis=(1, 2)) / np.linalg.norm(m / s, axis=(1, 2))
            worst = max(worst, float(np.max(ratio)))
        return worst

    def reference_counts(self, outputs, tracer) -> dict:
        hist = outputs[0]
        return {
            f"new.{matrix}.{denom}": list(hist.counts[("new", matrix, denom)])
            for matrix in ("a", "b")
            for denom in ("own", "delta")
        }

    def self_test(self, outputs, tracer) -> list[str]:
        trials = sum(h.trials for h in outputs)
        problems = []
        methods = len(outputs[0].methods)
        if tracer.stats["swapkernel.swap2x2"].calls != methods * trials:
            problems.append(
                f"traced swap2x2 calls {tracer.stats['swapkernel.swap2x2'].calls} != "
                f"{methods} x {trials} trials"
            )
        if tracer.stats["experiments.bin"].calls != 4 * methods * trials:
            problems.append(
                f"traced histogram adds {tracer.stats['experiments.bin'].calls} != "
                f"4 x {methods} x {trials} trials"
            )
        return problems


class AccuracyWorkload(StudyWorkload):
    """``run_accuracy_experiment`` on a block of 3x3 Hessenberg stress pencils."""

    name = "accuracy-3x3"
    key = 4
    trials = 32
    setup_trials = 2
    width = 16
    sample_size = 8
    options = poleswap.SolveOptions(method=poleswap.SwapMethod.NEW, record_sweeps=False)

    prepare = staticmethod(experiments._hessenberg_from_entries)

    def run(self, inp: StudyInput):
        return experiments.run_accuracy_experiment(inp.trials, inp.dist)

    def counterpart(self, inp: StudyInput) -> None:
        for a, b in inp.sample:
            poleswap.solve(a, b, self.options)

    def yardstick(self, inp: StudyInput) -> None:
        """scipy's complex QZ on the same 3x3 pencils."""
        import scipy.linalg

        for a, b in inp.sample:
            scipy.linalg.qz(a, b, output="complex")

    def check(self, inp: StudyInput, summary, tally: Tally, op: int) -> None:
        """Study bookkeeping, then the backward error of the NEW-method solve
        of each sample pencil, recomputed here."""
        if summary.trials != inp.trials:
            tally.fail(op, f"summary holds {summary.trials} trials, expected {inp.trials}")
            return
        if sum(summary.ratio_bins.values()) != summary.scored():
            tally.fail(
                op,
                f"ratio bins hold {sum(summary.ratio_bins.values())} trials, "
                f"{summary.scored()} scored",
            )
            return
        for t, (a, b) in enumerate(inp.sample):
            res = poleswap.solve(a, b, self.options)
            if not res.converged:
                tally.fail(op, f"trial {t}: NEW solve converged=False")
                return
            r = max(
                backward_error(a, res.q, res.schur_a, res.z),
                backward_error(b, res.q, res.schur_b, res.z),
            )
            tally.berr(op, r / (3 * U), f"trial {t}: NEW Schur form")

    def reference_counts(self, outputs, tracer) -> dict:
        summary = outputs[0]
        return {
            "ratio_bins": {str(k): v for k, v in sorted(summary.ratio_bins.items())},
            "excluded": summary.excluded,
        }

    def self_test(self, outputs, tracer) -> list[str]:
        trials = sum(s.trials for s in outputs)
        scored = sum(s.scored() for s in outputs)
        problems = []
        if tracer.stats["oracle.eig_3x3"].calls != trials:
            problems.append(f"traced oracle calls {tracer.stats['oracle.eig_3x3'].calls} != {trials}")
        if tracer.stats["rqz.solve"].calls != 2 * scored:
            problems.append(f"traced solves {tracer.stats['rqz.solve'].calls} != 2 x {scored}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload("solve-qz-dense", key=1, n=100, graded=False),
        SolveWorkload("solve-rational-graded", key=2, n=60, graded=True),
        SwapWorkload(),
        AccuracyWorkload(),
    )
}

