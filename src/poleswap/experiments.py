"""Random stress-pencil generation and the empirical studies.

Two studies are replayed at desk scale with machine-readable outputs:

* the swap benchmark bins the residuals |a21_hat|/||A||, |b21_hat|/||B|| (and
  the variants divided by Delta = max(||A||, ||B||)) over random 2x2
  upper-triangular pencils whose entries have log-uniformly distributed
  magnitudes, for each swapping method;
* the accuracy experiment solves random 3x3 upper Hessenberg stress pencils
  with the new-method and baseline swaps, scores both against the
  extended-precision oracle, and summarizes the error ratios.

Trials are partitioned into fixed-size blocks; block k draws from a generator
seeded by SeedSequence(seed, spawn_key=(k,)).  Workers that split the blocks
among themselves and merge integer counts reproduce the serial result
bitwise, and a fixed (seed, trials) pair is deterministic on one platform.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .numerics import chordal_distance
from .rqz import SolveOptions, solve
from .swapkernel import SwapMethod, TriangularPencil2, swap2x2

RNG_NAME = "numpy-PCG64"
BLOCK_SIZE = 16384
BIN_EDGES = (1e-16, 1e-15, 1e-10, 1e-5, 1.0)
BIN_LABELS = (
    "[0,1e-16]",
    "(1e-16,1e-15]",
    "(1e-15,1e-10]",
    "(1e-10,1e-5]",
    "(1e-5,1]",
)
RATIO_BIN_LIMIT = 16


@dataclass(frozen=True)
class StressDistribution:
    """Log-uniform modulus law: |entry| = 10^U(min_exponent, max_exponent),
    with the phase uniform on [0, 2 pi)."""

    min_exponent: float = -12.0
    max_exponent: float = 12.0
    seed: int = 0

    def __post_init__(self):
        if not self.min_exponent < self.max_exponent:
            raise ValueError("need min_exponent < max_exponent")


def _block_rng(seed: int, block: int):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))


def _stress_block(dist: StressDistribution, rng, rows: int, cols: int) -> np.ndarray:
    moduli = 10.0 ** rng.uniform(dist.min_exponent, dist.max_exponent, size=(rows, cols))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=(rows, cols))
    return moduli * np.exp(1j * phases)


def random_stress_entry(dist: StressDistribution, rng) -> complex:
    """One random complex scalar from the stress law."""
    modulus = 10.0 ** rng.uniform(dist.min_exponent, dist.max_exponent)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(modulus * math.cos(phase), modulus * math.sin(phase))


@dataclass
class ResidualHistogram:
    """Counts per (method, matrix, denominator) over the five residual bins."""

    trials: int
    dist: StressDistribution
    methods: tuple[str, ...]
    counts: dict = field(default_factory=dict)
    rng_name: str = RNG_NAME
    block_size: int = BLOCK_SIZE

    def __post_init__(self):
        for m in self.methods:
            for matrix in ("a", "b"):
                for denom in ("own", "delta"):
                    self.counts.setdefault((m, matrix, denom), [0] * len(BIN_LABELS))

    def add(self, method: str, matrix: str, denom: str, value: float) -> None:
        idx = bisect.bisect_left(BIN_EDGES, value)
        if idx >= len(BIN_LABELS):
            idx = len(BIN_LABELS) - 1
        self.counts[(method, matrix, denom)][idx] += 1

    def fraction_at_most(self, method: str, matrix: str, denom: str, edge: float) -> float:
        nbins = bisect.bisect_left(BIN_EDGES, edge) + 1
        return sum(self.counts[(method, matrix, denom)][:nbins]) / self.trials

    def tail_beyond(self, method: str, matrix: str, denom: str, edge: float) -> int:
        nbins = bisect.bisect_left(BIN_EDGES, edge) + 1
        return sum(self.counts[(method, matrix, denom)][nbins:])

    def merge(self, other: "ResidualHistogram") -> "ResidualHistogram":
        if (self.dist, self.methods) != (other.dist, other.methods):
            raise ValueError("histograms come from different configurations")
        merged = ResidualHistogram(self.trials + other.trials, self.dist, self.methods)
        for key in merged.counts:
            merged.counts[key] = [
                x + y for x, y in zip(self.counts[key], other.counts[key])
            ]
        return merged


def run_swap_benchmark(trials: int, dist: StressDistribution, methods=None, block_range=None) -> ResidualHistogram:
    """Bin swap residuals over random stress 2x2 triangular pencils.

    Every method sees the same pencils.  ``block_range`` restricts the run to
    a slice of the fixed trial blocks (worker partitioning); the merged
    histogram of disjoint ranges equals the full serial run.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if methods is None:
        methods = (SwapMethod.NEW, SwapMethod.VAN_DOOREN, SwapMethod.SYLVESTER)
    methods = tuple(methods)
    names = tuple(m.value for m in methods)
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    blocks = range(n_blocks) if block_range is None else block_range
    hist = ResidualHistogram(0, dist, names)
    done = 0
    for block in blocks:
        start = block * BLOCK_SIZE
        count = min(BLOCK_SIZE, trials - start)
        if count <= 0:
            continue
        rng = _block_rng(dist.seed, block)
        entries = _stress_block(dist, rng, count, 6)
        for row in entries:
            p = TriangularPencil2(row[0], row[1], row[2], row[3], row[4], row[5])
            for method, name in zip(methods, names):
                rep = swap2x2(p, method)
                hist.add(name, "a", "own", rep.res_a)
                hist.add(name, "b", "own", rep.res_b)
                hist.add(name, "a", "delta", rep.res_a_delta)
                hist.add(name, "b", "delta", rep.res_b_delta)
        done += count
    hist.trials = done
    return hist


@dataclass
class AccuracySummary:
    """Ratio statistics of baseline versus new-method eigenvalue errors.

    ``ratio_bins`` holds counts of floor(log10(e_baseline / e_new)) clipped
    to [-RATIO_BIN_LIMIT, RATIO_BIN_LIMIT]; trials with an oracle diagnostic
    are excluded and counted.  The ``filtered_*`` fields restrict to trials
    whose oracle roots are pairwise chordally separated by at least
    ``separation_filter``.
    """

    trials: int
    excluded: int
    dist: StressDistribution
    baseline: str
    ratio_bins: dict = field(default_factory=dict)
    within_band: int = 0
    significant_new: int = 0
    significant_baseline: int = 0
    filtered_trials: int = 0
    filtered_within_band: int = 0
    filtered_significant_new: int = 0
    filtered_significant_baseline: int = 0
    r_max_new: float = 0.0
    r_max_baseline: float = 0.0
    extreme_ratios: list = field(default_factory=list)
    separation_filter: float = 1e-6
    rng_name: str = RNG_NAME
    block_size: int = BLOCK_SIZE

    def scored(self) -> int:
        return self.trials - self.excluded


def _hessenberg_from_entries(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 8 entries per matrix, row-major over the Hessenberg pattern of a 3x3
    a = np.zeros((3, 3), dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    pattern = [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]
    for k, (i, j) in enumerate(pattern):
        a[i, j] = entries[k]
        b[i, j] = entries[8 + k]
    return a, b


def run_accuracy_experiment(
    trials: int,
    dist: StressDistribution,
    baseline: SwapMethod = SwapMethod.VAN_DOOREN,
    block_range=None,
) -> AccuracySummary:
    """Score new-method against baseline swaps on random 3x3 stress pencils.

    Each trial solves the pencil twice (same solver, different swap method),
    computes both maximum relative eigenvalue errors against the
    extended-precision oracle, and bins their ratio; Schur residuals of both
    runs are tracked.  Oracle diagnostics exclude the trial.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    summary = AccuracySummary(0, 0, dist, baseline.value)
    new_opts = SolveOptions(method=SwapMethod.NEW, record_sweeps=False)
    base_opts = SolveOptions(method=baseline, record_sweeps=False)
    n_blocks = (trials + BLOCK_SIZE - 1) // BLOCK_SIZE
    blocks = range(n_blocks) if block_range is None else block_range
    done = 0
    for block in blocks:
        start = block * BLOCK_SIZE
        count = min(BLOCK_SIZE, trials - start)
        if count <= 0:
            continue
        rng = _block_rng(dist.seed, block)
        entries = _stress_block(dist, rng, count, 16)
        for trial_in_block, row in enumerate(entries):
            a, b = _hessenberg_from_entries(row)
            try:
                exact = oracle.eig_3x3_extended(a, b)
            except oracle.OracleError:
                summary.excluded += 1
                continue
            res_new = solve(a, b, new_opts)
            res_base = solve(a, b, base_opts)
            summary.r_max_new = max(summary.r_max_new, res_new.r_a, res_new.r_b)
            summary.r_max_baseline = max(
                summary.r_max_baseline, res_base.r_a, res_base.r_b
            )
            e_new = oracle.max_relative_error(res_new.eigenvalues, exact)
            e_base = oracle.max_relative_error(res_base.eigenvalues, exact)
            if e_new == 0.0 and e_base == 0.0:
                ratio = 1.0
            elif e_new == 0.0:
                ratio = math.inf
            else:
                ratio = e_base / e_new
            if math.isinf(ratio):
                idx = RATIO_BIN_LIMIT
            else:
                idx = int(
                    min(
                        RATIO_BIN_LIMIT,
                        max(-RATIO_BIN_LIMIT, math.floor(math.log10(max(ratio, 1e-300)))),
                    )
                )
            summary.ratio_bins[idx] = summary.ratio_bins.get(idx, 0) + 1
            in_band = 0.1 < ratio < 10.0
            sig_new = ratio > 10.0
            sig_base = ratio < 0.1
            summary.within_band += in_band
            summary.significant_new += sig_new
            summary.significant_baseline += sig_base
            separation = min(
                (
                    chordal_distance(x, y)
                    for i, x in enumerate(exact)
                    for y in exact[i + 1 :]
                ),
                default=math.inf,
            )
            if separation >= summary.separation_filter:
                summary.filtered_trials += 1
                summary.filtered_within_band += in_band
                summary.filtered_significant_new += sig_new
                summary.filtered_significant_baseline += sig_base
            if not in_band:
                summary.extreme_ratios.append((start + trial_in_block, ratio))
        done += count
    summary.trials = done

    def extremity(item):
        ratio = item[1]
        if ratio <= 0.0 or math.isinf(ratio):
            return math.inf
        return abs(math.log10(ratio))

    summary.extreme_ratios.sort(key=extremity, reverse=True)
    summary.extreme_ratios = summary.extreme_ratios[:5]
    return summary


# ---------------------------------------------------------------------------
# Result emission
# ---------------------------------------------------------------------------


def _dist_meta(dist: StressDistribution) -> dict:
    return {
        "min_exponent": repr(dist.min_exponent),
        "max_exponent": repr(dist.max_exponent),
        "seed": dist.seed,
    }


def histogram_payload(hist: ResidualHistogram) -> dict:
    rows = []
    for (method, matrix, denom), counts in sorted(hist.counts.items()):
        for label, count in zip(BIN_LABELS, counts):
            rows.append(
                {
                    "method": method,
                    "matrix": matrix,
                    "denominator": denom,
                    "bin": label,
                    "count": count,
                }
            )
    return {
        "kind": "swap_benchmark",
        "trials": hist.trials,
        "methods": list(hist.methods),
        "distribution": _dist_meta(hist.dist),
        "rng": hist.rng_name,
        "block_size": hist.block_size,
        "bin_edges": [repr(e) for e in BIN_EDGES],
        "rows": rows,
    }


def summary_payload(summary: AccuracySummary) -> dict:
    return {
        "kind": "accuracy_experiment",
        "trials": summary.trials,
        "excluded": summary.excluded,
        "baseline": summary.baseline,
        "distribution": _dist_meta(summary.dist),
        "rng": summary.rng_name,
        "block_size": summary.block_size,
        "within_band": summary.within_band,
        "significant_new": summary.significant_new,
        "significant_baseline": summary.significant_baseline,
        "filtered": {
            "separation": repr(summary.separation_filter),
            "trials": summary.filtered_trials,
            "within_band": summary.filtered_within_band,
            "significant_new": summary.filtered_significant_new,
            "significant_baseline": summary.filtered_significant_baseline,
        },
        "r_max_new": repr(summary.r_max_new),
        "r_max_baseline": repr(summary.r_max_baseline),
        "ratio_bins": {str(k): v for k, v in sorted(summary.ratio_bins.items())},
        "extreme_ratios": [
            {"trial": t, "ratio": repr(r)} for t, r in summary.extreme_ratios
        ],
    }


def _payload_of(obj) -> dict:
    if isinstance(obj, ResidualHistogram):
        return histogram_payload(obj)
    if isinstance(obj, AccuracySummary):
        return summary_payload(obj)
    raise TypeError(f"cannot emit {type(obj).__name__}")


def rows_to_csv(payload: dict, rows_key: str, columns: list[str]) -> str:
    """CSV text of a result payload: every key but ``rows_key`` as a leading
    ``# key=<json>`` comment line, then the header ``columns`` and one line
    per row of ``payload[rows_key]``.  Cells are ``str()`` of the values,
    quoted by the csv module where they need it, and every line ends in LF.
    The one CSV writer of the package: the studies and the CLI use it."""
    buf = io.StringIO()
    for key, value in payload.items():
        if key != rows_key:
            buf.write(f"# {key}={json.dumps(value, sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([str(row[c]) for c in columns] for row in payload[rows_key])
    return buf.getvalue()


def render_csv(obj) -> str:
    """CSV rendering: metadata as leading comment lines, then fixed columns
    (one line per histogram bin, or one ``field,value`` line per summary
    field)."""
    payload = _payload_of(obj)
    if payload["kind"] == "swap_benchmark":
        return rows_to_csv(payload, "rows", ["method", "matrix", "denominator", "bin", "count"])
    fields = [
        {"field": key, "value": json.dumps(value, sort_keys=True)}
        for key, value in payload.items()
        if key != "kind"
    ]
    return rows_to_csv({**payload, "rows": fields}, "rows", ["field", "value"])


def emit_results(obj, format: str, path) -> None:
    """Write a histogram or accuracy summary as CSV or JSON.

    Column order is deterministic; the seed, trial count, method labels, and
    bin boundaries travel in the output, and floating-point values are
    serialized with round-trip-exact formatting.
    """
    if format == "json":
        text = json.dumps(_payload_of(obj), indent=2, sort_keys=True) + "\n"
    elif format == "csv":
        text = render_csv(obj)
    else:
        raise ValueError("format must be 'csv' or 'json'")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def parse_histogram_csv(path) -> dict:
    """Counts keyed (method, matrix, denominator, bin) from an emitted CSV."""
    counts = {}
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    reader = csv.DictReader(rows)
    for row in reader:
        key = (row["method"], row["matrix"], row["denominator"], row["bin"])
        counts[key] = int(row["count"])
    return counts


RESULT_SCHEMAS = {
    "swap_benchmark": {
        "type": "object",
        "required": ["kind", "trials", "distribution", "rng", "bin_edges", "rows"],
        "properties": {
            "kind": {"const": "swap_benchmark"},
            "trials": {"type": "integer", "minimum": 0},
            "methods": {"type": "array", "items": {"type": "string"}},
            "distribution": {
                "type": "object",
                "required": ["min_exponent", "max_exponent", "seed"],
            },
            "rng": {"type": "string"},
            "block_size": {"type": "integer"},
            "bin_edges": {"type": "array", "items": {"type": "string"}},
            "rows": {
                "type": "array",
                "items": {
                    "type": "object",
                    "required": ["method", "matrix", "denominator", "bin", "count"],
                    "properties": {
                        "method": {"type": "string"},
                        "matrix": {"enum": ["a", "b"]},
                        "denominator": {"enum": ["own", "delta"]},
                        "bin": {"type": "string"},
                        "count": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
    },
    "accuracy_experiment": {
        "type": "object",
        "required": [
            "kind",
            "trials",
            "excluded",
            "baseline",
            "distribution",
            "within_band",
            "significant_new",
            "significant_baseline",
            "ratio_bins",
            "r_max_new",
            "r_max_baseline",
        ],
        "properties": {
            "kind": {"const": "accuracy_experiment"},
            "trials": {"type": "integer", "minimum": 0},
            "excluded": {"type": "integer", "minimum": 0},
            "baseline": {"type": "string"},
            "within_band": {"type": "integer", "minimum": 0},
            "significant_new": {"type": "integer", "minimum": 0},
            "significant_baseline": {"type": "integer", "minimum": 0},
            "ratio_bins": {"type": "object"},
        },
    },
}
