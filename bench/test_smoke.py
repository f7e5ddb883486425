"""Smoke test of the benchmark: every workload runs at a tiny size, untraced
and traced, and prints valid JSON holding every metric that BENCHMARK.json
names. It bounds no timing.

    python -m pytest bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DETAIL_KEYS = {
    "train-pos-crf2": ("train_s", "error_rate"),
    "ingest-ezafe": ("train_s", "error_rate"),
    "tag-pipeline": ("batch_p50_ms", "batch_p90_ms", "error_rate"),
}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().split("\n")
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, record_line
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())

    record = json.loads(record_line)
    assert record["machine"]["nproc"] >= 1
    assert set(record["machine"]["blas_threads"].values()) == {"1"}
    if trace:
        # Top-level spans plus the unspanned remainder make up each
        # operation's wall time.
        assert record["detail"]["breakdown_max_residual_s"] < 1e-6
    else:
        assert all(k in record["detail"] for k in DETAIL_KEYS[workload])


def test_fails_without_the_toolkit(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "tag-pipeline", "--seed", "1", "--seconds", "1",
               "--trace", "0", "--size", "tiny")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_unused_and_missing_wrappers_report_zero():
    sys.path.insert(0, str(BENCH))
    import spans

    class Owner:
        @staticmethod
        def used(x):
            return x + 1

        @staticmethod
        def unused(x):
            return x

    tracer = spans.Tracer()
    targets = [
        (Owner, attr, lambda fn, name=f"a.{attr}": tracer.wrap(fn, name))
        for attr in ("used", "unused", "gone")
    ]
    with tracer.installed(targets), tracer.root_span("op") as root:
        assert Owner.used(1) == 2
    assert tracer.missing == ["Owner.gone"]
    s = tracer.summary()[root]
    assert s.calls("a.used") == 1
    assert (s.calls("a.unused"), s.total("a.unused")) == (0, 0.0)
    assert (s.calls("a.gone"), s.total("a.gone")) == (0, 0.0)
    assert s.self_total("op") + s.total("a.used") == pytest.approx(s.wall)
