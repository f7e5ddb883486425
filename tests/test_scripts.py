"""Smoke runs of scripts/run_synth_pipeline.py and
scripts/run_full_protocol.py at toy size. They bound no timing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("synth_run")
    stdout = run_script(
        "run_synth_pipeline.py", "--sentences", "80", "--max-iter", "3", "--out-dir", str(out_dir)
    )
    return out_dir, stdout


def test_synth_pipeline(synth_run):
    out_dir, stdout = synth_run
    files = ["process.spec", "train.tsv", "valid.tsv", "test.tsv"]
    files += ["ezafe_crf1.crf", "ezafe_crf2.crf", "pos_crf2_ez.crf"]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(files)
    for title in ("ezafe recognition", "POS tagging", "change in per-tag F1"):
        assert f"== {title}" in stdout


def test_full_protocol(synth_run, tmp_path):
    synth_dir, _ = synth_run
    out_dir = tmp_path / "protocol_run"
    stdout = run_script(
        "run_full_protocol.py", str(synth_dir / "train.tsv"), "--max-iter", "3", "--out-dir", str(out_dir)
    )
    models = ["ezafe_crf1", "ezafe_crf2", "pos_crf1", "pos_crf2", "pos_crf2_ez_input"]
    want = [f"{m}{suffix}" for m in models for suffix in (".crf", ".valid.txt", ".valid.json", ".test.txt", ".test.json")]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(want)
    assert "best ezafe model by validation F1" in stdout
