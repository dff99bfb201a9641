import json
import math

import numpy as np
import pytest

from poleswap.experiments import (
    RESULT_SCHEMAS,
    AccuracySummary,
    ResidualHistogram,
    StressDistribution,
    _block_rng,
    emit_results,
    histogram_payload,
    parse_histogram_csv,
    run_accuracy_experiment,
    run_swap_benchmark,
    summary_payload,
)
from poleswap.swapkernel import SwapMethod


class TestStressDistribution:
    def test_collapsed_range_rejected(self):
        with pytest.raises(ValueError):
            StressDistribution(min_exponent=1.0, max_exponent=1.0)

    def test_log_moduli_uniform_ks(self):
        # Kolmogorov-Smirnov at the 1% level over 1e5 samples
        dist = StressDistribution(seed=3)
        rng = _block_rng(dist.seed, 0)
        n = 100_000
        moduli = 10.0 ** rng.uniform(-12, 12, size=n)
        u = (np.log10(np.sort(moduli)) + 12.0) / 24.0
        grid = np.arange(1, n + 1) / n
        d = np.max(np.maximum(np.abs(grid - u), np.abs(u - (np.arange(n) / n))))
        assert d <= 1.63 / math.sqrt(n)


class TestSwapBenchmark:
    def setup_method(self):
        self.dist = StressDistribution(seed=11)
        self.hist = run_swap_benchmark(5000, self.dist)

    def test_counts_sum_to_trials(self):
        for counts in self.hist.counts.values():
            assert sum(counts) == self.hist.trials

    def test_new_method_confined_to_leftmost_bins(self):
        for matrix in ("a", "b"):
            assert self.hist.tail_beyond("new", matrix, "own", 1e-15) == 0
            assert self.hist.fraction_at_most("new", matrix, "own", 1e-16) >= 0.99

    def test_baselines_have_tails(self):
        for method in ("vandooren", "sylvester"):
            assert self.hist.tail_beyond(method, "a", "own", 1e-15) > 0

    def test_delta_denominator_equalizes(self):
        for method in ("new", "vandooren", "sylvester"):
            for matrix in ("a", "b"):
                assert self.hist.tail_beyond(method, matrix, "delta", 1e-15) == 0

    def test_determinism_bitwise(self):
        again = run_swap_benchmark(5000, self.dist)
        assert again.counts == self.hist.counts

    def test_block_merge_equals_serial(self):
        serial = run_swap_benchmark(20000, self.dist)
        part1 = run_swap_benchmark(20000, self.dist, block_range=range(0, 1))
        part2 = run_swap_benchmark(20000, self.dist, block_range=range(1, 2))
        merged = part1.merge(part2)
        assert merged.counts == serial.counts
        assert merged.trials == serial.trials


class TestAccuracyExperiment:
    def test_smoke_statistics(self):
        summary = run_accuracy_experiment(300, StressDistribution(seed=5))
        scored = summary.scored()
        assert scored + summary.excluded == 300
        assert summary.within_band / scored >= 0.9
        assert summary.significant_new >= summary.significant_baseline
        assert summary.r_max_new <= 1e-14
        assert sum(summary.ratio_bins.values()) == scored
        assert summary.filtered_trials <= scored

    def test_extreme_ratios_reported(self):
        summary = run_accuracy_experiment(300, StressDistribution(seed=5))
        sig = summary.significant_new + summary.significant_baseline
        band_edges = summary.within_band + sig
        if sig:
            assert summary.extreme_ratios
            assert all(isinstance(t, int) for t, _ in summary.extreme_ratios)
        del band_edges


class TestEmission:
    def test_empty_histogram_header_only_csv(self, tmp_path):
        hist = ResidualHistogram(0, StressDistribution(seed=1), ())
        path = tmp_path / "empty.csv"
        emit_results(hist, "csv", path)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["method,matrix,denominator,bin,count"]

    def test_csv_round_trip_exact(self, tmp_path):
        hist = run_swap_benchmark(1000, StressDistribution(seed=2))
        path = tmp_path / "hist.csv"
        emit_results(hist, "csv", path)
        parsed = parse_histogram_csv(path)
        payload = histogram_payload(hist)
        assert len(parsed) == len(payload["rows"])
        for row in payload["rows"]:
            key = (row["method"], row["matrix"], row["denominator"], row["bin"])
            assert parsed[key] == row["count"]

    def test_json_validates_against_schema(self, tmp_path):
        import jsonschema

        hist = run_swap_benchmark(1000, StressDistribution(seed=2))
        path = tmp_path / "hist.json"
        emit_results(hist, "json", path)
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, RESULT_SCHEMAS["swap_benchmark"])

        summary = run_accuracy_experiment(50, StressDistribution(seed=2))
        path = tmp_path / "acc.json"
        emit_results(summary, "json", path)
        payload = json.loads(path.read_text())
        jsonschema.validate(payload, RESULT_SCHEMAS["accuracy_experiment"])

    def test_floats_round_trip_in_metadata(self, tmp_path):
        summary = run_accuracy_experiment(20, StressDistribution(seed=9))
        path = tmp_path / "acc.json"
        emit_results(summary, "json", path)
        payload = json.loads(path.read_text())
        assert float(payload["r_max_new"]) == summary.r_max_new

    def test_unknown_format_rejected(self, tmp_path):
        hist = ResidualHistogram(0, StressDistribution(seed=1), ())
        with pytest.raises(ValueError):
            emit_results(hist, "xml", tmp_path / "x")
