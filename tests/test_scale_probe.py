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
        [sys.executable, str(ROOT / "scripts" / "scale_probe.py"), "--tokens", "300", "--labels", "3"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["tokens"] >= 300 and record["labels"] == 3
    F = record["features"]
    assert F > 0 and record["parameters"] == F * 3 + 3 * 3
    for key in ("parse_s", "index_s", "encode_s", "eval_s"):
        assert record[key] >= 0.0
    assert record["peak_rss_mb"] > 0
    assert record["machine"]["blas_threads"] == "1"
