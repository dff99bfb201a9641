"""The benchmark's layer tracer still sees the solver's functions.

``perfbench/tracer.py`` times the solver by rebinding module attributes of
``poleswap`` from outside: ``rqz.basic_sweep`` (one call per sweep),
``pencil.set_poles``, ``pencil.detect_deflations`` and the three move
functions of ``moves``.  A refactor that renames one of them, or calls it
through an alias bound at import time, makes the benchmark's counts wrong.
These solves check the traced counts against the counts the solver logs
itself, so such a refactor fails here.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import poleswap
from poleswap.numerics import make_projective

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracer import Tracer  # noqa: E402


def pair(rng, n):
    return (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
    )


def plain():
    a, b = pair(np.random.default_rng(31), 12)
    return a, b, poleswap.SolveOptions(), 0


def graded():
    # A x 1e150, B x 1e-150, n-1 finite prescribed poles, as in the
    # benchmark's rational workload
    n = 10
    rng = np.random.default_rng(32)
    a, b = pair(rng, n)
    poles = [
        make_projective(complex(math.cos(t), math.sin(t)) * 1e150, 1e-150)
        for t in rng.uniform(0.0, 2.0 * math.pi, n - 1)
    ]
    options = poleswap.SolveOptions(pole="rayleigh", prescribed_poles=poles)
    return a * 1e150, b * 1e-150, options, n - 1


@pytest.mark.parametrize("make", [plain, graded])
def test_traced_counts_match_the_solver_logs(make):
    a, b, options, m = make()
    with Tracer() as tracer:
        res = poleswap.solve(a, b, options)
    assert res.converged
    kinds = [move.kind for rec in res.sweep_log for move in rec.moves]
    # set_poles installs m poles from both ends: k = ceil(m/2) from the top
    k = (m + 1) // 2
    set_poles_type2 = k * (k - 1) // 2 + (m - k) * (m - k - 1) // 2
    stats = tracer.stats
    assert tracer.counts["sweeps"] == res.iteration_count > 0
    assert stats["moves.type2"].calls == kinds.count("type2") + set_poles_type2
    assert stats["moves.type1"].calls == len(kinds) - kinds.count("type2") + m
    assert stats["pencil.set_poles"].calls == (1 if m else 0)
    assert stats["pencil.deflation_scan"].calls > 0
