"""Smoke test of scripts/scale_probe.py on a tiny configuration. It bounds
no timing."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_configuration_reports_every_field():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "OPENBLAS_NUM_THREADS")}
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "scale_probe.py"),
            "--tokens", "300", "--labels", "3", "--vocab", "50", "--iterations", "2",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["tokens"] >= 300 and record["labels"] == 3 and record["vocab"] == 50
    F = record["features"]
    assert F > 0 and record["parameters"] == F * 3 + 3 * 3
    # Every feature is seen with at least one label, and some not with all.
    P = record["pairs"]
    assert F <= P < F * 3
    # 29 OWL-QN vectors (10 curvature pairs and 9 more) of P + L^2 float64.
    assert record["optimizer_state_mb"] == round(29 * (P + 3 * 3) * 8 / 2**20, 2)
    times = (
        "spec_s", "generate_s", "parse_s", "encode_s", "eval_s", "step_s", "save_s", "load_s", "load_index_s",
        "oracle_s", "decode_encode_s", "decode_s",
    )
    for key in times + ("iteration_s", "direction_s", "linesearch_s"):
        assert record[key] >= 0.0
    assert record["iterations"] == 2 and record["stop"] == "max_iterations"
    assert record["evals_per_iteration"] >= 1.0
    # One evaluation at x = 0 and one at the last iterate, each in parts
    # that sum to at most the whole; at x = 0 the transition span is 0, so
    # the normalizing stride is at its largest.
    split = record["eval_split"]
    assert set(split) == {"zero", "last"}
    for part in split.values():
        assert set(part) == {"eval_s", "emissions_s", "forward_backward_s", "scatter_s", "other_s", "every"}
        assert all(part[key] > 0.0 for key in ("eval_s", "emissions_s", "forward_backward_s", "scatter_s"))
        assert part["emissions_s"] + part["forward_backward_s"] + part["scatter_s"] <= part["eval_s"] + 3e-6
        assert part["every"] >= 1
    assert split["zero"]["every"] >= split["last"]["every"]
    assert record["eval_last_s"] == split["last"]["eval_s"]
    assert 0 < record["encode_peak_mb"] < record["peak_rss_mb"]
    assert 0 < record["eval_peak_mb"] < record["peak_rss_mb"]
    assert 0 < record["objective_state_mb"] < record["peak_rss_mb"]
    assert 0 < record["decode_peak_mb"] < record["peak_rss_mb"]
    extrapolated = record["extrapolated_8M"]
    assert extrapolated["tokens"] == 8_000_000
    assert set(extrapolated) == {"tokens", "eval_s", "iteration_s", "train_100_h", "peak_rss_gb"}
    assert extrapolated["peak_rss_gb"] * 1024 > record["peak_rss_mb"]
    assert record["model_mb"] > 0
    assert 0 < record["parsed_mb"] < record["peak_rss_mb"]
    # CRF2 puts 10 int32 ids and a type code per token in the encoding,
    # and the layout adds an int32 row and corpus position per token; the
    # focus ids per type and the arrays per sentence add a few more.
    assert 11 * 4 + 2 * 4 < record["encoded_bytes_per_token"] < 11 * 4 + 2 * 4 + 16
    assert 0 < record["peak_rss_mb"] <= record["io_peak_rss_mb"]
    assert record["machine"]["blas_threads"] == "1"
