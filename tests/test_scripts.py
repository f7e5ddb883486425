"""Smoke runs of scripts/run_synth_pipeline.py and
scripts/run_full_protocol.py at toy size. They bound no timing."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pertcrf import features
from pertcrf.corpus import shuffle_split
from pertcrf.crf import TrainConfig
from pertcrf.datagen import generate, tuned_ezafe_spec

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


MODELS = ["ezafe_crf1", "ezafe_crf2", "pos_crf1", "pos_crf2", "pos_crf2_ez_input"]
SUFFIXES = (".crf", ".valid.txt", ".valid.json", ".test.txt", ".test.json")
PROTOCOL_FILES = [m + suffix for m in MODELS for suffix in SUFFIXES]  # what run_protocol writes
TABLES = (
    "per-POS statistics (train split)",
    "ezafe recognition (positive class)",
    "ezafe F1 per POS (best model, test split)",
    "POS tagging (macro average)",
    "POS F1 per tag, CRF2 (test split)",
    "change in per-tag F1 when ezafe flags are added (CRF2)",
)


def report_configs(out_dir):
    """The header of every JSON report in out_dir, by file name."""
    return {
        name: json.loads((out_dir / name).read_text(encoding="utf-8"))["config"]
        for name in PROTOCOL_FILES
        if name.endswith(".json")
    }


def test_synth_pipeline(synth_run):
    out_dir, stdout = synth_run
    files = ["process.spec", "train.tsv", "valid.tsv", "test.tsv"] + PROTOCOL_FILES
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(files)
    for title in TABLES:
        assert f"== {title}" in stdout
    # Every report names the three split files the run wrote.
    for name, config in report_configs(out_dir).items():
        for split in ("train", "valid", "test"):
            assert config[split] == str(out_dir / f"{split}.tsv"), name


def test_full_protocol(synth_run, tmp_path):
    synth_dir, _ = synth_run
    out_dir = tmp_path / "protocol_run"
    stdout = run_script(
        "run_full_protocol.py", str(synth_dir / "train.tsv"), "--max-iter", "3", "--out-dir", str(out_dir),
        "--seed", "5",
    )
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(PROTOCOL_FILES)
    best = re.search(r"best ezafe model by validation F1: (CRF[12])", stdout).group(1)
    for title in TABLES:
        assert f"== {title}" in stdout
    # Every report names the corpus as the source of all three splits and
    # the split's seed, and the CRF2+EZ reports name the saved recognizer
    # whose flags they read.
    for name, config in report_configs(out_dir).items():
        for split in ("train", "valid", "test"):
            assert config[split] == str(synth_dir / "train.tsv"), name
        assert config["seed"] == "5", name
        recognizer = str(out_dir / f"ezafe_{best.lower()}.crf") if name.startswith("pos_crf2_ez") else ""
        assert config["ezafe_model"] == recognizer, name


def test_protocol_makes_one_batch_per_split(tmp_path, monkeypatch, capsys):
    """run_protocol's five models share the batch of each of the three
    splits, and its packed layout. Each of the three CRF2 fits cuts the affixes of the train types
    to index them, and the CRF2 recognizer's encodes of the validation and
    test splits cut the forms that it lacks, which every later model,
    trained on the same split, lacks too: five cuts."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # undone after the test, with what the script adds
    from run_full_protocol import run_protocol
    corpora = shuffle_split(generate(tuned_ezafe_spec(0.22), 80, seed=17))
    assert all(set(split.forms) - set(corpora[0].forms) for split in corpora[1:])
    made, cuts, layouts = [], [], []
    batch, cut, layout = features.batch, features._cut, features._Layout
    monkeypatch.setattr(features, "batch", lambda *a: made.append(batch(*a)) or made[-1])
    monkeypatch.setattr(features, "_cut", lambda forms: cuts.append(tuple(forms)) or cut(forms))
    monkeypatch.setattr(features, "_Layout", lambda *a: layouts.append(layout(*a)) or layouts[-1])
    run_protocol(corpora, TrainConfig(max_iterations=3), str(tmp_path), ("corpus.tsv",) * 3, 17)
    assert "best ezafe model by validation F1" in capsys.readouterr().out
    assert len(made) == 3 and all(c.batch is b for c, b in zip(corpora, made))
    assert len(cuts) == 5
    assert len(layouts) == 3 and all(c.batch.layout is l for c, l in zip(corpora, layouts))
