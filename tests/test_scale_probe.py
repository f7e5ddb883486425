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
            "--tokens", "300", "--labels", "3", "--vocab", "50",
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
    for key in ("spec_s", "generate_s", "parse_s", "encode_s", "eval_s", "step_s", "save_s", "load_s", "oracle_s"):
        assert record[key] >= 0.0
    assert record["model_mb"] > 0
    assert 0 < record["parsed_mb"] < record["peak_rss_mb"]
    # CRF2 puts 19 int32 ids per token in the id matrix, and the layout
    # adds an int32 row and corpus position per token.
    assert 19 * 4 + 2 * 4 < record["encoded_bytes_per_token"] < 19 * 4 + 2 * 4 + 8
    assert 0 < record["peak_rss_mb"] <= record["io_peak_rss_mb"]
    assert record["machine"]["blas_threads"] == "1"
