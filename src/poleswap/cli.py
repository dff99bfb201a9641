"""Command-line front end: solver, benchmarks, and theory verification.

Exit codes are a stable contract: 0 success, 1 input error, 2 non-convergence
(partial output still written), 3 verification failure.  Every run echoes its
full effective configuration into the output for provenance.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import theory
from .experiments import (
    StressDistribution,
    emit_results,
    rows_to_csv,
    run_accuracy_experiment,
    run_swap_benchmark,
    summary_payload,
)
from .pencil import load_pencil
from .rqz import SolveOptions, solve
from .swapkernel import SwapMethod

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFY_FAILED = 3

_METHODS = {m.value: m for m in SwapMethod}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poleswap",
        description="Pole-swapping generalized eigensolver, swap benchmarks, "
        "and convergence-theory verification.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    eig = sub.add_parser("eig", help="solve a matrix-pair file for all eigenvalues")
    eig.add_argument("--input", required=True, help="matrix pair (JSON, see docs)")
    eig.add_argument("--method", choices=sorted(_METHODS), default="new")
    eig.add_argument("--shift", choices=["rayleigh", "wilkinson"], default="wilkinson")
    eig.add_argument("--pole", choices=["infinity", "rayleigh"], default="infinity")
    eig.add_argument("--tol-deflate", type=float, default=None)
    eig.add_argument("--format", choices=["csv", "json"], default="json")
    eig.add_argument("--out", default=None, help="result file (default: stdout)")

    bench = sub.add_parser("swap-bench", help="2x2 swap residual histogram")
    bench.add_argument("--trials", type=int, default=1_000_000)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--method", choices=sorted(_METHODS), default=None,
                       help="restrict to one method (default: all three)")
    bench.add_argument("--min-exp", type=float, default=-12.0)
    bench.add_argument("--max-exp", type=float, default=12.0)
    bench.add_argument("--format", choices=["csv", "json"], default="json")
    bench.add_argument("--out", default=None)

    acc = sub.add_parser("accuracy", help="3x3 eigenvalue accuracy study vs the oracle")
    acc.add_argument("--trials", type=int, default=10_000)
    acc.add_argument("--seed", type=int, default=0)
    acc.add_argument("--method", choices=["vandooren", "sylvester"], default="vandooren",
                     help="baseline to compare the new method against")
    acc.add_argument("--min-exp", type=float, default=-12.0)
    acc.add_argument("--max-exp", type=float, default=12.0)
    acc.add_argument("--format", choices=["csv", "json"], default="json")
    acc.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the convergence-theorem suites")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--n", type=int, default=8)
    ver.add_argument("--trials", type=int, default=100, help="number of random pencils")
    ver.add_argument("--format", choices=["csv", "json"], default="json")
    ver.add_argument("--out", default=None)
    return parser


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def cmd_eig(args) -> int:
    try:
        a, b = load_pencil(args.input)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(
            f"error: {args.input} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}): {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    options = SolveOptions(
        method=_METHODS[args.method],
        shift=args.shift,
        pole=args.pole,
        tol_deflate=args.tol_deflate,
        record_sweeps=False,
    )
    try:
        result = solve(a, b, options)
    except ValueError as exc:
        # non-finite entries, dimension problems, singular-pencil diagonals
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    eigenvalues = []
    for v in result.eigenvalues:
        entry = {"alpha": _complex_pair(v.alpha), "beta": _complex_pair(v.beta)}
        if v.is_infinite:
            entry["value"] = "infinite"
        else:
            entry["value"] = _complex_pair(v.to_complex())
        eigenvalues.append(entry)
    payload = {
        "kind": "eig",
        "n": a.shape[0],
        "eigenvalues": eigenvalues,
        "r_a": repr(result.r_a),
        "r_b": repr(result.r_b),
        "iterations": result.iteration_count,
        "converged": result.converged,
        "stuck_block": list(result.stuck_block) if result.stuck_block else None,
        "config": {
            "input": args.input,
            "method": args.method,
            "shift": args.shift,
            "pole": args.pole,
            "tol_deflate": args.tol_deflate,
        },
    }
    if args.format == "csv":
        rows = [
            {
                "alpha_re": v.alpha.real, "alpha_im": v.alpha.imag,
                "beta_re": v.beta.real, "beta_im": v.beta.imag,
            }
            for v in result.eigenvalues
        ]
        csv_payload = {k: v for k, v in payload.items() if k != "eigenvalues"}
        csv_payload["rows"] = rows
        _write_text(
            rows_to_csv(csv_payload, "rows", ["alpha_re", "alpha_im", "beta_re", "beta_im"]),
            args.out,
        )
    else:
        _write(payload, args.out)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_swap_bench(args) -> int:
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return EXIT_INPUT
    dist = StressDistribution(args.min_exp, args.max_exp, args.seed)
    methods = None if args.method is None else (_METHODS[args.method],)
    hist = run_swap_benchmark(args.trials, dist, methods)
    if args.out is not None:
        emit_results(hist, args.format, args.out)
    lines = [f"swap-bench: {hist.trials} trials, seed {args.seed}"]
    for name in hist.methods:
        frac = hist.fraction_at_most(name, "a", "own", 1e-16)
        tail = hist.tail_beyond(name, "a", "own", 1e-15) + hist.tail_beyond(
            name, "b", "own", 1e-15
        )
        lines.append(f"  {name:10s} A-res <=1e-16: {100 * frac:.2f}%   own-norm >1e-15: {tail}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_accuracy(args) -> int:
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return EXIT_INPUT
    dist = StressDistribution(args.min_exp, args.max_exp, args.seed)
    summary = run_accuracy_experiment(args.trials, dist, _METHODS[args.method])
    if args.out is not None:
        emit_results(summary, args.format, args.out)
    payload = summary_payload(summary)
    print(
        f"accuracy: {summary.trials} trials ({summary.excluded} excluded), "
        f"{summary.within_band} in (0.1, 10); significant new/{args.method}: "
        f"{summary.significant_new}/{summary.significant_baseline}; "
        f"r_max new {payload['r_max_new']} baseline {payload['r_max_baseline']}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    report = theory.run_verification(seed=args.seed, n=args.n, pencils=args.trials)
    payload = {
        "kind": "verify",
        "seed": report.seed,
        "n": report.n,
        "pencils": report.pencils,
        "checks": [
            {
                "name": c.name,
                "max_angle": repr(c.max_angle),
                "threshold": repr(c.threshold),
                "passed": c.passed,
            }
            for c in report.checks
        ],
        "passed": report.passed,
        "config": {"seed": args.seed, "n": args.n, "trials": args.trials},
    }
    if args.out is not None:
        if args.format == "csv":
            _write_text(
                rows_to_csv(payload, "checks", ["name", "max_angle", "threshold", "passed"]),
                args.out,
            )
        else:
            _write(payload, args.out)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:32s} max angle {c.max_angle:.3e} (threshold {c.threshold:g})")
    if not report.passed:
        print(f"verification failed: {', '.join(report.failing())}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "eig":
        return cmd_eig(args)
    if args.subcommand == "swap-bench":
        return cmd_swap_bench(args)
    if args.subcommand == "accuracy":
        return cmd_accuracy(args)
    return cmd_verify(args)


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
