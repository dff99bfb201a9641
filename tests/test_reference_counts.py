"""Reference counts of the benchmark's solve and accuracy workloads.

``perfbench/reference.json`` pins the counts of each workload's first input
at seed 20250: sweeps and type II moves of the two solve workloads, and the
ratio bins and exclusions of the 32-trial ``accuracy-3x3`` study.  A change
that alters rounding anywhere in a solve, or in the oracle, almost always
moves them.  This test rebuilds those inputs with numpy alone and checks the
counts, so such a change fails here in seconds.

The counts depend on the BLAS thread count (with two threads the dense
input takes 280 sweeps, not 281), so the solves run in a child process with
BLAS pinned to one thread, as the benchmark runs them.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_SEED = 20250


def reference_counts() -> dict:
    """(iteration_count, logged type II moves) of both reference solves, and
    the ratio bins and exclusions of the reference accuracy study."""
    import numpy as np

    import poleswap
    from poleswap.experiments import StressDistribution, run_accuracy_experiment
    from poleswap.numerics import make_projective

    def pair(key, n):
        rng = np.random.default_rng(np.random.SeedSequence(REFERENCE_SEED, spawn_key=(key, 0)))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return rng, a, b

    def counts(res):
        type2 = sum(1 for rec in res.sweep_log for m in rec.moves if m.kind == "type2")
        return [res.iteration_count, type2]

    out = {}
    _, a, b = pair(1, 100)
    out["solve-qz-dense"] = counts(poleswap.solve(a, b))
    # the graded workload: A x 1e150, B x 1e-150, n-1 finite poles
    n = 60
    rng, a, b = pair(2, n)
    mods = 10.0 ** rng.uniform(-1.0, 1.0, n - 1)
    phases = rng.uniform(0.0, 2.0 * math.pi, n - 1)
    poles = [
        make_projective(complex(m * math.cos(t), m * math.sin(t)) * 1e150, 1e-150)
        for m, t in zip(mods, phases)
    ]
    options = poleswap.SolveOptions(pole="rayleigh", prescribed_poles=poles)
    out["solve-rational-graded"] = counts(poleswap.solve(a * 1e150, b * 1e-150, options))
    # the accuracy workload's first input: 32 trials at a spawned seed
    seed = int(np.random.SeedSequence(REFERENCE_SEED, spawn_key=(4, 0)).generate_state(1)[0])
    summary = run_accuracy_experiment(32, StressDistribution(seed=seed))
    out["accuracy-3x3"] = {
        "seed": seed,
        "ratio_bins": {str(k): v for k, v in sorted(summary.ratio_bins.items())},
        "excluded": summary.excluded,
    }
    return out


def test_reference_solve_counts():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got == {
        "solve-qz-dense": [281, 14960],
        "solve-rational-graded": [174, 5756],
        "accuracy-3x3": {"seed": 1298978002, "ratio_bins": {"-1": 6, "0": 26}, "excluded": 0},
    }


if __name__ == "__main__":
    print(json.dumps(reference_counts()))
