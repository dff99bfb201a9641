"""CSV outputs of the CLI and the studies: one writer, LF line endings.

``eig --format csv``, ``verify --format csv`` and the study emitters all
write through :func:`poleswap.experiments.rows_to_csv`: ``#`` metadata
lines, a fixed header, then one line per row.
"""

import numpy as np
import pytest

from poleswap.cli import EXIT_OK, main
from poleswap.experiments import (
    StressDistribution,
    emit_results,
    histogram_payload,
    parse_histogram_csv,
    run_accuracy_experiment,
    run_swap_benchmark,
)
from poleswap.pencil import save_pencil


def table(path):
    """(header, data lines) of a CSV file, after checking that every line
    ends in a bare LF."""
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = [line for line in raw.decode().split("\n")[:-1] if not line.startswith("#")]
    return lines[0], lines[1:]


@pytest.fixture
def pencil_file(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "pair.json"
    save_pencil(path, rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)), rng.normal(size=(5, 5)))
    return path


def test_eig_csv(pencil_file, tmp_path):
    out = tmp_path / "eig.csv"
    assert main(["eig", "--input", str(pencil_file), "--format", "csv", "--out", str(out)]) == EXIT_OK
    header, rows = table(out)
    assert header == "alpha_re,alpha_im,beta_re,beta_im"
    assert len(rows) == 5
    assert all(len(row.split(",")) == 4 for row in rows)


def test_verify_csv(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    argv = ["verify", "--n", "5", "--trials", "2", "--format", "csv", "--out", str(out)]
    assert main(argv) == EXIT_OK
    header, rows = table(out)
    assert header == "name,max_angle,threshold,passed"
    assert rows and all(row.endswith(",True") for row in rows)


def test_swap_benchmark_csv_reads_back(tmp_path):
    hist = run_swap_benchmark(50, StressDistribution(seed=3))
    path = tmp_path / "hist.csv"
    emit_results(hist, "csv", path)
    header, rows = table(path)
    assert header == "method,matrix,denominator,bin,count"
    payload = histogram_payload(hist)
    assert len(rows) == len(payload["rows"])
    parsed = parse_histogram_csv(path)
    for row in payload["rows"]:
        assert parsed[(row["method"], row["matrix"], row["denominator"], row["bin"])] == row["count"]


def test_accuracy_csv(tmp_path):
    summary = run_accuracy_experiment(10, StressDistribution(seed=3))
    path = tmp_path / "acc.csv"
    emit_results(summary, "csv", path)
    header, rows = table(path)
    assert header == "field,value"
    assert rows[0] == "trials,10"
