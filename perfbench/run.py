"""Run one poleswap benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-qz-dense --seed 1 --seconds 20 --trace 0

One single-threaded process runs the workload in a closed loop: each
operation starts after the previous one returned, on a fresh input drawn
from ``--seed``, until the operations have taken ``--seconds`` in total.
Every output is checked (see ``workloads.py``), and the workload's
reference-seed counts are compared with ``reference.json`` before timing.

``--trace 0`` prints the end-to-end metrics; their times are paced (see
``pacer.py``).  ``--trace 1`` runs each input twice, back to back, untraced
and with the layer tracer installed, and prints the per-layer metrics of
the traced calls and the tracer's own cost, in unpaced wall time.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only if every check passed;
it is 2, without a result line, when the checkout holds no ``src/poleswap``.
"""

import bootstrap  # noqa: I001  (pins BLAS threads; must precede numpy)

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name: str, seed: int, pacer) -> list[float]:
    """Paced times of SETUP_REPEATS fresh set-ups (interpreter start, import,
    first input, first call)."""
    times = []
    for _ in range(SETUP_REPEATS):
        with pacer:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
            t1 = perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(pacer.paced(t0, t1))
    return times


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in bootstrap.THREAD_VARS},
        "machine": platform.machine(),
    }


class Op:
    """One timed operation: its wall ``seconds`` and its ``paced`` time."""

    __slots__ = ("seconds", "paced", "units", "summary")

    def __init__(self, seconds, paced, units, summary):
        self.seconds = seconds
        self.paced = paced
        self.units = units
        self.summary = summary


class Phase:
    """The operations of one run phase, with its checks and optional tracer."""

    def __init__(self, tracer=None):
        from workloads import Tally

        self.tracer = tracer
        self.tally = Tally()
        self.ops: list[Op] = []


def timed(pacer, fn, *args):
    """Run fn(*args) once: (result, exception, wall time, paced time).
    Without a pacer the paced time is the wall time."""
    out = exc = None
    with pacer if pacer is not None else nullcontext():
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as e:  # a failed operation is counted, not fatal
            exc = e
        t1 = perf_counter()
    return out, exc, t1 - t0, pacer.paced(t0, t1) if pacer is not None else t1 - t0


def run_ops(wl, seed, phases, budget_s=None, count=None, pacer=None) -> None:
    """Closed loop over inputs 0, 1, ...: until the operations have taken
    ``budget_s`` seconds, or for ``count`` inputs.  Each input is run once
    per phase, back to back, so a traced phase meets the same inputs and
    machine conditions as the untraced one.  Only the call into poleswap is
    timed; the yardstick and the checks follow each operation untimed."""
    spent = 0.0
    index = 0
    while (count is None and (index == 0 or spent < budget_s)) or (
        count is not None and index < count
    ):
        for phase in phases:
            inp = wl.make_input(seed, index)
            tally = phase.tally
            tally.attempted += 1
            with phase.tracer if phase.tracer is not None else nullcontext():
                out, exc, dt, paced = timed(pacer, wl.run, inp)
            spent += dt
            if exc is None and wl.counterpart is not None:
                _, exc, _, paced_mine = timed(pacer, wl.counterpart, inp)
            else:
                paced_mine = paced
            if exc is None:
                _, exc, _, paced_ref = timed(pacer, wl.yardstick, inp)
            if exc is None:
                tally.qz_ratios.append(paced_mine / paced_ref)
            if exc is not None:
                tally.fail(index, f"raised {type(exc).__name__}: {exc}")
                continue
            wl.check(inp, out, tally, index)
            phase.ops.append(Op(dt, paced, wl.units(inp), wl.summarize(out)))
        index += 1


def reference_check(wl):
    """Counts of the reference-seed operation, and the tracer self-test on it."""
    from tracer import Tracer
    from workloads import REFERENCE_SEED

    phase = Phase(Tracer())
    run_ops(wl, REFERENCE_SEED, [phase], count=1)
    problems = list(phase.tally.problems)
    if not phase.ops:
        return None, problems
    summaries = [op.summary for op in phase.ops]
    problems += [f"tracer self-test: {p}" for p in wl.self_test(summaries, phase.tracer)]
    return wl.reference_counts(summaries, phase.tracer), problems


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last in ("self_s", "wall_s"):
        return "s"
    if last == "us_per_call":
        return "us"
    if last == "bytes_computed":
        return "B"
    if last.endswith("frac") or last in ("sweeps_per_eig",):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bootstrap.use_checkout_source():
        print(f"no poleswap source under {bootstrap.SRC}", file=sys.stderr)
        return 2
    import workloads
    from pacer import Pacer
    from tracer import Tracer

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # time is paced only without the tracer: pacing ticks inside traced calls
    # would be charged to the layers
    pacer = None if args.trace else Pacer()
    setup_times = measure_setup(wl.name, args.seed, pacer) if pacer else []
    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    wl.setup(args.seed)
    wl.run(wl.warm_up_input(args.seed))

    problems = []
    counts, ref_problems = reference_check(wl)
    problems += [f"reference seed: {p}" for p in ref_problems]
    expected = json.loads(REFERENCE_FILE.read_text())[wl.name]
    if counts != expected:
        problems.append(f"reference counts {counts} != recorded {expected}")
    print(f"reference seed {workloads.REFERENCE_SEED}: {json.dumps(counts)}")

    plain = Phase()
    phases = [plain, Phase(Tracer())] if args.trace else [plain]
    run_ops(wl, args.seed, phases, budget_s=args.seconds, pacer=pacer)

    if args.trace:
        traced = phases[1]
        tracer = traced.tracer
        problems += [f"tracer self-test: {p}" for p in
                     wl.self_test([op.summary for op in traced.ops], tracer)]
        wall = sum(op.seconds for op in traced.ops)
        untraced = sum(op.seconds for op in plain.ops)
        metrics = tracer.layer_metrics()
        metrics["rqz.residual_report_mismatch"] = traced.tally.residual_mismatch
        metrics["trace.wall_s"] = wall
        metrics["trace.accounted_frac"] = (
            (tracer.self_sum() + tracer.overhead_s) / wall if wall else 0.0
        )
        if traced.ops and not 0.99 <= metrics["trace.accounted_frac"] <= 1.0 + 1e-9:
            problems.append(
                f"layer self times plus bookkeeping are {metrics['trace.accounted_frac']:.4f} "
                "of the traced time, not 1"
            )
        metrics["trace.bookkeeping_frac"] = tracer.overhead_s / wall if wall else 0.0
        metrics["trace_overhead_frac"] = wall / untraced - 1.0 if untraced else 0.0
        units = {name: layer_unit(name) for name in metrics}
    else:
        times = [op.paced for op in plain.ops]
        walls = [op.seconds for op in plain.ops]
        work = sum(op.units for op in plain.ops)
        metrics = {
            "setup_s": median(setup_times),
            "op_s.p50": median(times),
            "work_per_s": work / sum(times) if times else 0.0,
            "qz_time_ratio": median(plain.tally.qz_ratios),
            "berr_max_nu": mean(plain.tally.berr_by_op.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_s.p50": "s", "work_per_s": "1/s",
                 "qz_time_ratio": "ratio", "berr_max_nu": "nu", "peak_rss_mb": "MB"}
        berrs = plain.tally.berr_by_op.values()
        print(f"samples: {len(times)} operations ({work} {wl.unit}), "
              f"{len(plain.tally.qz_ratios)} yardstick ratios, {len(berrs)} operations "
              f"with backward errors (largest {max(berrs, default=0.0):.4g} n*u), "
              f"{len(setup_times)} set-ups")
        print(f"unpaced wall time: op p50 {median(walls):.6g} s, "
              f"{work / sum(walls) if walls else 0.0:.6g} {wl.unit}/s")

    tallies = [phase.tally for phase in phases]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failed_ops) for t in tallies)
    for t in tallies:
        problems += t.problems
    correct = failed == 0 and not problems
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / attempted if attempted else 0.0:>16.6g} "
          f"ratio  ({failed} of {attempted} operations)")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
