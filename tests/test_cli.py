import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import assert_same_text
from pertcrf import cli, crf, features
from pertcrf.cli import build_parser, main
from pertcrf.corpus import MAX_SENTENCE_LEN, SplitSpec, Token, Corpus, parse_corpus, write_corpus
from pertcrf.crf import TrainConfig
from pertcrf.datagen import GeometricLength, generate, random_spec, tuned_ezafe_spec, write_hmm_spec
from pertcrf.features import FeatureTemplate
from pertcrf.rng import SplitMix64
from pertcrf.tasks import ExperimentConfig, parse_experiment_config


def small_corpus(n_sentences, seed):
    rng = SplitMix64(seed)
    vocab = [("ea", "N", 1), ("eb", "N", 1), ("na", "N", 0), ("ad", "ADJ", 0), ("v1", "V", 0)]
    sentences = []
    for _ in range(n_sentences):
        length = 3 + rng.randrange(4)
        picks = [vocab[rng.randrange(len(vocab))] for _ in range(length)]
        sentences.append(tuple(Token(form=f, pos=p, ezafe=e) for f, p, e in picks))
    return Corpus.from_sentences(sentences)


@pytest.fixture()
def corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(write_corpus(small_corpus(60, seed=1)), encoding="utf-8")
    return path


def train_args(tmp_path, corpus_file, task="ezafe", extra=()):
    train = tmp_path / "train.tsv"
    valid = tmp_path / "valid.tsv"
    train.write_text(write_corpus(small_corpus(60, seed=2)), encoding="utf-8")
    valid.write_text(write_corpus(small_corpus(20, seed=3)), encoding="utf-8")
    out = tmp_path / f"{task}.crf"
    return [
        "train",
        str(train),
        str(valid),
        "--task",
        task,
        "--max-iter",
        "10",
        "--out",
        str(out),
        *extra,
    ], out


class TestSplit:
    def test_writes_three_files_and_counts(self, tmp_path, corpus_file, capsys):
        out_dir = tmp_path / "splits"
        assert main(["split", str(corpus_file), "--out-dir", str(out_dir)]) == 0
        parts = {}
        for name in ("train", "valid", "test"):
            parts[name] = parse_corpus((out_dir / f"{name}.tsv").read_text(encoding="utf-8"))
        total = sum(c.n_sentences for c in parts.values())
        assert total == 60
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "set\tsentences\ttokens"
        assert lines[-1].startswith("total\t60\t")

    def test_deterministic_bytes(self, tmp_path, corpus_file):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        main(["split", str(corpus_file), "--out-dir", str(d1)])
        main(["split", str(corpus_file), "--out-dir", str(d2)])
        for name in ("train", "valid", "test"):
            assert (d1 / f"{name}.tsv").read_bytes() == (d2 / f"{name}.tsv").read_bytes()

    def test_bad_fractions_usage_error(self, tmp_path, corpus_file, capsys):
        code = main(
            ["split", str(corpus_file), "--out-dir", str(tmp_path / "x"), "--test", "0.6", "--valid", "0.5"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error" in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**64 + 17)])
    def test_seed_outside_64_bits_usage_error(self, tmp_path, corpus_file, capsys, seed):
        # 2**64 once wrote the split of seed 0, and 2**64 + 17 that of 17.
        out_dir = tmp_path / "x"
        assert main(["split", str(corpus_file), "--out-dir", str(out_dir), "--seed", seed]) == 1
        assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_negative_max_len_usage_error(self, tmp_path, corpus_file, capsys):
        out_dir = tmp_path / "x"
        assert main(["split", str(corpus_file), "--out-dir", str(out_dir), "--max-len", "-1"]) == 1
        assert "--max-len must be 0 (disabled) or positive" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_largest_seed_splits(self, tmp_path, corpus_file):
        assert main(["split", str(corpus_file), "--out-dir", str(tmp_path), "--seed", str(2**64 - 1)]) == 0

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert main(["split", str(tmp_path / "nope.tsv"), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err

    def test_no_partial_outputs_on_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tN\t7\n", encoding="utf-8")
        out_dir = tmp_path / "splits"
        assert main(["split", str(bad), "--out-dir", str(out_dir)]) == 2
        assert not out_dir.exists() or not list(out_dir.iterdir())


class TestStats:
    def test_stdout_table(self, corpus_file, capsys):
        assert main(["stats", str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "pos\tezafe_pct\tfreq_pct\tH"

    def test_out_file(self, tmp_path, corpus_file):
        out = tmp_path / "stats.tsv"
        assert main(["stats", str(corpus_file), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").startswith("pos\t")


class TestSynth:
    def test_generates_parseable_corpus(self, tmp_path, capsys):
        spec_path = tmp_path / "proc.spec"
        spec_path.write_text(write_hmm_spec(random_spec(3, 12, seed=4)), encoding="utf-8")
        out = tmp_path / "synth.tsv"
        code = main(
            ["synth", "--spec", str(spec_path), "--sentences", "25", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        corpus = parse_corpus(out.read_text(encoding="utf-8"))
        assert corpus.n_sentences == 25

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed must be an integer in [0, 2**64)"),
            (["--seed", str(2**64)], "seed must be an integer in [0, 2**64)"),
            (["--sentences", "0"], "--sentences must be positive"),
            (["--sentences", "-3"], "--sentences must be positive"),
        ],
    )
    def test_seed_and_sentences_out_of_range_usage_error(self, tmp_path, capsys, flags, message):
        # --seed -1 once wrote the corpus of seed 2**64 - 1, and
        # --sentences 0 exited 2 as a data error.
        spec_path = tmp_path / "proc.spec"
        spec_path.write_text(write_hmm_spec(random_spec(3, 12, seed=4)), encoding="utf-8")
        out = tmp_path / "synth.tsv"
        args = ["synth", "--spec", str(spec_path), "--sentences", "5", "--out", str(out)] + flags
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_generates(self, tmp_path):
        spec_path = tmp_path / "proc.spec"
        spec_path.write_text(write_hmm_spec(random_spec(3, 12, seed=4)), encoding="utf-8")
        out = tmp_path / "synth.tsv"
        args = ["synth", "--spec", str(spec_path), "--sentences", "5", "--seed", str(2**64 - 1)]
        assert main(args + ["--out", str(out)]) == 0

    def test_rejects_bad_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.spec"
        spec_path.write_text("STATES\nA\nSTART\n0.9\n", encoding="utf-8")
        assert main(["synth", "--spec", str(spec_path), "--sentences", "5", "--out", "x"]) == 2

    def test_rejects_nan_in_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "nan.spec"
        spec_path.write_text(
            "STATES\nA B\nSTART\nnan 1.0\nTRANS\n0.5 0.5\n0.5 0.5\n"
            "EMIT\nw\n1.0\n1.0\nEZAFE\n0 0\n0 0\n",
            encoding="utf-8",
        )
        out = tmp_path / "synth.tsv"
        assert main(["synth", "--spec", str(spec_path), "--sentences", "5", "--out", str(out)]) == 2
        assert "START row 'start'" in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_trains_and_logs(self, tmp_path, corpus_file, capsys):
        args, out = train_args(tmp_path, corpus_file)
        assert main(args) == 0
        assert out.exists()
        stdout = capsys.readouterr().out
        assert stdout.startswith("iter\t1\tobjective\t")
        assert "best_iteration" in stdout

    def test_rerun_identical_model_bytes(self, tmp_path, corpus_file):
        args, out = train_args(tmp_path, corpus_file)
        main(args)
        first = out.read_bytes().decode("utf-8")
        main(args)
        assert_same_text(out.read_bytes().decode("utf-8"), first)

    def test_model_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # Threaded BLAS sums the long products of a 30-label fit in another
        # order; the package runs BLAS on one thread unless told otherwise,
        # so an unset OPENBLAS_NUM_THREADS trains as 1 does on any host.
        spec = tuned_ezafe_spec(0.22, n_states=30)
        paths = [tmp_path / "train.tsv", tmp_path / "valid.tsv"]
        for path, (n, seed) in zip(paths, ((150, 1), (40, 2))):
            path.write_text(write_corpus(generate(spec, n, seed=seed)), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        unset = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
        unset["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        models = []
        for env in (unset, {**unset, "OPENBLAS_NUM_THREADS": "1"}):
            out = tmp_path / f"model{len(models)}.crf"
            args = ["train", *map(str, paths), "--task", "pos", "--template", "crf2", "--max-iter", "15"]
            subprocess.run(
                [sys.executable, "-m", "pertcrf", *args, "--out", str(out)], env=env, capture_output=True, check=True
            )
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_log_file(self, tmp_path, corpus_file):
        log = tmp_path / "train.log"
        args, _ = train_args(tmp_path, corpus_file, extra=["--log", str(log)])
        main(args)
        assert log.read_text(encoding="utf-8").startswith("iter\t")

    @pytest.mark.parametrize(
        "extra, reason", [(["--max-iter", "2"], "max_iterations"), (["--l1", "1e6"], "zero_step")]
    )
    def test_stop_reason_after_best_iteration(self, tmp_path, corpus_file, capsys, extra, reason):
        log = tmp_path / "train.log"
        args, out = train_args(tmp_path, corpus_file, extra=["--log", str(log), *extra])
        assert main(args) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[-2].startswith("best_iteration\t")
        assert stdout.endswith(f"\nstop\t{reason}\n")
        assert log.read_bytes().decode("utf-8") == stdout
        assert "stop" not in out.read_bytes().decode("utf-8")

    @pytest.mark.parametrize("flag", ["--l1", "--l2"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_regularization_is_usage_error(self, tmp_path, corpus_file, capsys, flag, value):
        args, out = train_args(tmp_path, corpus_file, extra=[flag, value])
        assert main(args) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_min_count_below_one_is_usage_error(self, tmp_path, corpus_file, capsys, value):
        args, out = train_args(tmp_path, corpus_file, extra=["--min-count", value])
        assert main(args) == 1
        assert "min_count must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_is_not_a_train_option(self, tmp_path, corpus_file, capsys):
        # train writes no report, so there is nothing a seed could go into
        args, out = train_args(tmp_path, corpus_file, extra=["--seed", "1"])
        assert main(args) == 1
        assert not out.exists()

    def test_empty_validation_split_is_data_error(self, tmp_path, corpus_file, capsys):
        args, out = train_args(tmp_path, corpus_file)
        (tmp_path / "valid.tsv").write_text("", encoding="utf-8")
        assert main(args) == 2
        assert "empty validation split" in capsys.readouterr().err
        assert not out.exists()

    def test_transition_span_is_training_failure(self, tmp_path, corpus_file, capsys, monkeypatch):
        # A guard this tight rejects even the zero start (span 0, but
        # log L > 0.5 for L >= 2), where the line search has no shorter step.
        monkeypatch.setattr(crf, "_LOG_MAX", 0.5)
        args, out = train_args(tmp_path, corpus_file)
        assert main(args) == 3
        assert "transition weights span" in capsys.readouterr().err
        assert not out.exists()

    def test_pos_ez_input_needs_ezafe_model(self, tmp_path, corpus_file, capsys):
        args, _ = train_args(tmp_path, corpus_file, task="pos-ez-input")
        assert main(args) == 1
        assert "ezafe-model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "task, extra",
        [("ezafe", []), ("pos", []), ("joint", []), ("pos-ez-input", ["--ezafe-source", "gold"])],
        ids=["ezafe", "pos", "joint", "pos-ez-input-gold"],
    )
    def test_unused_ezafe_model_is_usage_error(self, tmp_path, corpus_file, capsys, task, extra):
        missing = str(tmp_path / "nonexistent.crf")
        args, out = train_args(tmp_path, corpus_file, task=task, extra=["--ezafe-model", missing, *extra])
        assert main(args) == 1
        assert "--ezafe-model is used only by --task pos-ez-input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["ezafe", "pos", "joint"])
    @pytest.mark.parametrize("source", ["gold", "predicted"])
    def test_unused_ezafe_source_is_usage_error(self, tmp_path, corpus_file, capsys, task, source):
        args, out = train_args(tmp_path, corpus_file, task=task, extra=["--ezafe-source", source])
        assert main(args) == 1
        assert "--ezafe-source is used only by --task pos-ez-input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["pos", "pos-ez-input"])
    @pytest.mark.parametrize(
        "tags, message",
        [
            (("N|X", "V"), "pos tag 'N|X' contains reserved '|'"),
            (("0", "1"), "pos tags '0' and '1' would be read as ezafe flags"),
        ],
        ids=["separator", "flags"],
    )
    def test_pos_tags_read_as_other_labels_are_data_errors(self, tmp_path, corpus_file, capsys, task, tags, message):
        # eval reads a model's kind from its labels, so a POS model with
        # these tags would be scored as a joint or an ezafe model.
        extra = ["--ezafe-source", "gold"] if task == "pos-ez-input" else []
        args, out = train_args(tmp_path, corpus_file, task=task, extra=extra)
        text = "\n\n".join(f"a\t{tags[0]}\t0\nb\t{tags[1]}\t1\nc\t{tags[0]}\t0" for _ in range(4))
        for name in ("train.tsv", "valid.tsv"):
            (tmp_path / name).write_text(text + "\n", encoding="utf-8")
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEvalAndTag:
    @pytest.fixture()
    def ezafe_model_path(self, tmp_path, corpus_file):
        args, out = train_args(tmp_path, corpus_file, task="ezafe")
        assert main(args) == 0
        return out

    def test_eval_stdout(self, tmp_path, corpus_file, ezafe_model_path, capsys):
        assert main(["eval", str(ezafe_model_path), str(corpus_file)]) == 0
        out = capsys.readouterr().out
        assert "precision\t" in out and "ezafe_f1_per_pos" in out

    def test_eval_report_files_agree(self, tmp_path, corpus_file, ezafe_model_path):
        prefix = str(tmp_path / "report")
        assert main(["eval", str(ezafe_model_path), str(corpus_file), "--report", prefix]) == 0
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        for key in ("precision", "recall", "f1", "accuracy", "per_tag", "ezafe_f1_per_pos", "macro_mean"):
            assert key in data
        assert f"f1\t{data['f1']:.4f}" in text

    def test_eval_negative_header_count_is_data_error(self, tmp_path, corpus_file, capsys):
        model = tmp_path / "bad.crf"
        model.write_text("PERTCRF v1 CRF1 1 -1\na\n", encoding="utf-8")
        assert main(["eval", str(model), str(corpus_file)]) == 2
        assert "malformed header counts" in capsys.readouterr().err

    def test_eval_empty_corpus_is_data_error(self, tmp_path, ezafe_model_path, capsys):
        # No score of an empty corpus means anything: no all-zero report.
        corpus = tmp_path / "empty.tsv"
        corpus.write_text("", encoding="utf-8")
        prefix = tmp_path / "report"
        assert main(["eval", str(ezafe_model_path), str(corpus), "--report", str(prefix)]) == 2
        assert "empty corpus" in capsys.readouterr().err
        assert not list(tmp_path.glob("report*"))

    def test_eval_empty_model_is_data_error(self, tmp_path, corpus_file, capsys):
        model = tmp_path / "empty.crf"
        model.write_text("", encoding="utf-8")
        assert main(["eval", str(model), str(corpus_file)]) == 2
        assert "pertcrf: error: empty model file" in capsys.readouterr().err

    def test_eval_ezafe_model_for_model_without_ezafe_input_is_usage_error(
        self, tmp_path, corpus_file, ezafe_model_path, capsys
    ):
        prefix = tmp_path / "report"
        args = ["eval", str(ezafe_model_path), str(corpus_file), "--report", str(prefix)]
        assert main(args + ["--ezafe-model", str(tmp_path / "nonexistent.crf")]) == 1
        assert "--ezafe-model is used only by models with ezafe input" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()

    def test_eval_template_corpus_mismatch(self, tmp_path, ezafe_model_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not-a-corpus", encoding="utf-8")
        assert main(["eval", str(ezafe_model_path), str(bad)]) == 2

    def test_tag_pipeline(self, tmp_path, corpus_file, ezafe_model_path, capsys):
        args, pos_out = train_args(
            tmp_path,
            corpus_file,
            task="pos-ez-input",
            extra=["--ezafe-model", str(ezafe_model_path), "--template", "crf1"],
        )
        assert main(args) == 0
        raw = tmp_path / "raw.txt"
        raw.write_text("ea na v1\nad eb\n", encoding="utf-8")
        out = tmp_path / "tagged.tsv"
        code = main(
            ["tag", str(raw), "--ezafe-model", str(ezafe_model_path), "--pos-model", str(pos_out), "--out", str(out)]
        )
        assert code == 0
        tagged = parse_corpus(out.read_text(encoding="utf-8"))
        assert [len(s) for s in tagged.sentences] == [3, 2]
        assert [t.form for t in tagged.sentences[0]] == ["ea", "na", "v1"]

    def test_eval_joint_model_writes_both_reports(self, tmp_path, corpus_file):
        args, out = train_args(tmp_path, corpus_file, task="joint")
        assert main(args) == 0
        prefix = str(tmp_path / "joint_report")
        assert main(["eval", str(out), str(corpus_file), "--report", prefix]) == 0
        pos_data = json.loads((tmp_path / "joint_report.json").read_text(encoding="utf-8"))
        ez_data = json.loads((tmp_path / "joint_report.ezafe.json").read_text(encoding="utf-8"))
        assert pos_data["ezafe_f1_per_pos"] is None
        assert ez_data["ezafe_f1_per_pos"] is not None

    def test_tag_rejects_plain_pos_model(self, tmp_path, corpus_file, ezafe_model_path, capsys):
        args, pos_out = train_args(tmp_path, corpus_file, task="pos")
        assert main(args) == 0
        raw = tmp_path / "raw.txt"
        raw.write_text("ea\n", encoding="utf-8")
        code = main(
            ["tag", str(raw), "--ezafe-model", str(ezafe_model_path), "--pos-model", str(pos_out), "--out", "x"]
        )
        assert code == 2
        assert "ezafe input" in capsys.readouterr().err

    @staticmethod
    def rename_label(path, old, new):
        # Line 2 and the label's transition row; the weights stay.
        lines = path.read_text(encoding="utf-8").split("\n")
        labels = lines[1].split("\t")
        lines[1] = "\t".join(new if lab == old else lab for lab in labels)
        row = 2 + int(lines[0].split(" ")[4]) + labels.index(old)
        lines[row] = lines[row].replace(f"T\t{old}\t", f"T\t{new}\t", 1)
        path.write_text("\n".join(lines), encoding="utf-8")

    def test_eval_with_ezafe_model_makes_one_batch(self, tmp_path, corpus_file, ezafe_model_path, monkeypatch):
        args, pos_out = train_args(
            tmp_path, corpus_file, task="pos-ez-input", extra=["--ezafe-model", str(ezafe_model_path)]
        )
        assert main(args) == 0
        made = []
        batch = features.batch
        monkeypatch.setattr(features, "batch", lambda *a: made.append(batch(*a)) or made[-1])
        args = ["eval", str(pos_out), str(corpus_file), "--ezafe-model", str(ezafe_model_path)]
        assert main(args) == 0
        assert len(made) == 1

    def test_model_label_with_whitespace_is_data_error(self, tmp_path, corpus_file, ezafe_model_path, capsys):
        args, pos_out = train_args(
            tmp_path, corpus_file, task="pos-ez-input", extra=["--ezafe-model", str(ezafe_model_path)]
        )
        assert main(args) == 0
        self.rename_label(pos_out, "ADJ", "a b")
        raw = tmp_path / "raw.txt"
        raw.write_text("ea na v1\nad eb\n", encoding="utf-8")
        out = tmp_path / "tagged.tsv"
        capsys.readouterr()
        tag = ["tag", str(raw), "--ezafe-model", str(ezafe_model_path), "--pos-model", str(pos_out)]
        assert main(tag + ["--out", str(out)]) == 2
        assert "line 2: label must be non-empty and whitespace-free: 'a b'" in capsys.readouterr().err
        assert not out.exists()
        prefix = tmp_path / "report"
        assert main(["eval", str(pos_out), str(corpus_file), "--report", str(prefix)]) == 2
        assert "line 2: label must be non-empty and whitespace-free: 'a b'" in capsys.readouterr().err
        assert not (tmp_path / "report.txt").exists()


class TestExperiment:
    def test_full_run_writes_reports(self, tmp_path, capsys):
        train = tmp_path / "train.tsv"
        valid = tmp_path / "valid.tsv"
        test = tmp_path / "test.tsv"
        train.write_text(write_corpus(small_corpus(50, seed=6)), encoding="utf-8")
        valid.write_text(write_corpus(small_corpus(15, seed=7)), encoding="utf-8")
        test.write_text(write_corpus(small_corpus(15, seed=8)), encoding="utf-8")
        out = tmp_path / "model.crf"
        config = tmp_path / "exp.cfg"
        config.write_text(
            "task = ezafe\ntemplate = crf1\nmax_iter = 10\n"
            f"train = {train}\nvalid = {valid}\ntest = {test}\nout = {out}\n",
            encoding="utf-8",
        )
        assert main(["experiment", str(config)]) == 0
        assert out.exists()
        for suffix in (".valid.txt", ".valid.json", ".test.txt", ".test.json"):
            assert (tmp_path / ("model.crf" + suffix)).exists()
        report = json.loads((tmp_path / "model.crf.test.json").read_text(encoding="utf-8"))
        assert report["config"]["task"] == "ezafe"
        assert report["config"]["max_iter"] == "10"
        # The stop reason goes to the log on stdout, never into the files.
        assert "\nstop\t" in capsys.readouterr().out
        for path in tmp_path.glob("model.crf*"):
            assert "stop" not in path.read_bytes().decode("utf-8")

    def test_empty_validation_split_is_data_error(self, tmp_path, capsys):
        # An empty validation or test split, each with the other two present.
        for empty, name in (("valid", "validation"), ("test", "test")):
            splits = tmp_path / empty
            splits.mkdir()
            train, valid, test = (splits / f"{split}.tsv" for split in ("train", "valid", "test"))
            train.write_text(write_corpus(small_corpus(50, seed=6)), encoding="utf-8")
            valid.write_text(write_corpus(small_corpus(15, seed=7)), encoding="utf-8")
            test.write_text(write_corpus(small_corpus(15, seed=8)), encoding="utf-8")
            (splits / f"{empty}.tsv").write_text("", encoding="utf-8")
            out = splits / "model.crf"
            config = splits / "exp.cfg"
            config.write_text(
                "task = ezafe\ntemplate = crf1\nmax_iter = 10\n"
                f"train = {train}\nvalid = {valid}\ntest = {test}\nout = {out}\n",
                encoding="utf-8",
            )
            assert main(["experiment", str(config)]) == 2
            assert f"empty {name} split" in capsys.readouterr().err
            assert not list(splits.glob("model.crf*"))

    @pytest.mark.parametrize(
        "task, key", [("ezafe", "ezafe_model = /nonexistent.crf"), ("pos", "ezafe_source = gold")]
    )
    def test_key_the_task_does_not_read_is_data_error(self, tmp_path, capsys, task, key):
        splits = {}
        for name, sentences, seed in (("train", 50, 6), ("valid", 15, 7), ("test", 15, 8)):
            splits[name] = tmp_path / f"{name}.tsv"
            splits[name].write_text(write_corpus(small_corpus(sentences, seed=seed)), encoding="utf-8")
        out = tmp_path / "model.crf"
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"task = {task}\ntemplate = crf1\nmax_iter = 2\n"
            + "".join(f"{name} = {path}\n" for name, path in splits.items())
            + f"out = {out}\n{key}\n",
            encoding="utf-8",
        )
        assert main(["experiment", str(config)]) == 2
        assert "is read only by task pos-ez-input" in capsys.readouterr().err
        assert not list(tmp_path.glob("model.crf*"))

    def test_predicted_flags_without_ezafe_model_is_data_error(self, tmp_path, capsys):
        # Refused from the config alone: the corpus files do not exist.
        config = tmp_path / "exp.cfg"
        config.write_text(
            "task = pos-ez-input\ntemplate = crf1\n"
            + "".join(f"{name} = {tmp_path / name}.tsv\n" for name in ("train", "valid", "test")),
            encoding="utf-8",
        )
        assert main(["experiment", str(config)]) == 2
        assert "predicted needs ezafe_model" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_data_error(self, tmp_path, capsys, seed):
        config = tmp_path / "exp.cfg"
        config.write_text(
            f"task = ezafe\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\nseed = {seed}\n",
            encoding="utf-8",
        )
        assert main(["experiment", str(config)]) == 2
        assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err

    def test_bad_config_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("task = ezafe\nwat = 1\n", encoding="utf-8")
        assert main(["experiment", str(config)]) == 2
        config.write_text(
            "task = ezafe\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\nmin_count = 0\n",
            encoding="utf-8",
        )
        assert main(["experiment", str(config)]) == 2
        assert "min_count must be positive" in capsys.readouterr().err


class TestLineEndings:
    """Corpus, model and spec files are UTF-8 without a byte-order mark,
    with Unix newlines; anything else is a data error naming the line."""

    CASES = [
        ("bom+crlf", lambda t: "\ufeff" + t.replace("\n", "\r\n"), "line 1: byte-order mark"),
        ("crlf", lambda t: t.replace("\n", "\r\n"), "line 1: carriage return"),
        # line 3 ends in a lone carriage return
        (
            "cr-on-line-3",
            lambda t: t.replace("\n", "\r", 3).replace("\r", "\n", 2),
            "line 3: carriage return",
        ),
    ]

    @staticmethod
    def write(path, text):
        path.write_bytes(text.encode("utf-8"))

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_corpus(self, tmp_path, capsys, case):
        _, mangle, message = case
        path = tmp_path / "c.tsv"
        self.write(path, mangle(write_corpus(small_corpus(5, seed=1))))
        assert main(["stats", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_model(self, tmp_path, corpus_file, capsys, case):
        _, mangle, message = case
        args, out = train_args(tmp_path, corpus_file)
        assert main(args) == 0
        self.write(out, mangle(out.read_text(encoding="utf-8")))
        capsys.readouterr()
        assert main(["eval", str(out), str(corpus_file)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_raw_text(self, tmp_path, corpus_file, capsys, case):
        # tag's input follows the same rule: a BOM would otherwise be
        # tagged as part of the first form.
        _, mangle, message = case
        ez_args, ez_model = train_args(tmp_path, corpus_file, task="ezafe")
        assert main(ez_args) == 0
        pos_args, pos_model = train_args(
            tmp_path, corpus_file, task="pos-ez-input", extra=["--ezafe-model", str(ez_model)]
        )
        assert main(pos_args) == 0
        raw = tmp_path / "raw.txt"
        self.write(raw, mangle("ea na v1\nad eb\nv1\nea\n"))
        out = tmp_path / "tagged.tsv"
        capsys.readouterr()
        args = ["tag", str(raw), "--ezafe-model", str(ez_model), "--pos-model", str(pos_model)]
        assert main(args + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
    def test_spec(self, tmp_path, capsys, case):
        _, mangle, message = case
        path = tmp_path / "p.spec"
        self.write(path, mangle(write_hmm_spec(random_spec(3, 12, seed=4))))
        out = tmp_path / "synth.tsv"
        assert main(["synth", "--spec", str(path), "--sentences", "5", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


EXPERIMENT = ExperimentConfig(task="ezafe", template=FeatureTemplate(id="CRF1"))

# Each setting's default as its config class (or module constant) holds it,
# by subcommand and flag. --ezafe-source has no parser default: train
# resolves an unset one through ExperimentConfig.ezafe_source.
CLASS_DEFAULTS = {
    ("split", "--seed"): SplitSpec().seed,
    ("split", "--test"): SplitSpec().test_fraction,
    ("split", "--valid"): SplitSpec().valid_fraction,
    ("split", "--max-len"): MAX_SENTENCE_LEN,
    ("synth", "--seed"): SplitSpec().seed,
    ("synth", "--min-len"): GeometricLength().min_len,
    ("synth", "--max-len"): GeometricLength().max_len,
    ("synth", "--continue-prob"): GeometricLength().continue_prob,
    ("train", "--l1"): TrainConfig().l1,
    ("train", "--l2"): TrainConfig().l2,
    ("train", "--max-iter"): TrainConfig().max_iterations,
    ("train", "--min-count"): TrainConfig().min_count,
    ("train", "--eval-every"): EXPERIMENT.eval_every,
    ("train", "--ezafe-source"): EXPERIMENT.ezafe_source,
}


def flags(command: str):
    """(subcommand, flag) and the argparse action of each flag of command."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
    return [((command, a.option_strings[-1]), a) for a in sub._actions if a.option_strings]


COMMANDS = ["split", "stats", "synth", "train", "tag", "eval", "experiment"]


class TestDefaults:
    def test_parser_defaults_are_the_class_defaults(self):
        for command in COMMANDS:
            for key, action in flags(command):
                if key in CLASS_DEFAULTS and key[1] != "--ezafe-source":
                    value = CLASS_DEFAULTS[key]
                    assert action.default == value and type(action.default) is type(value), key
                elif action.default not in (None, argparse.SUPPRESS):
                    # No other flag holds a setting of a config class.
                    assert key == ("train", "--template"), key
        assert ExperimentConfig.seed == SplitSpec.seed

    def test_front_ends_apply_the_class_defaults(self):
        flags = ["train", "t", "v", "--task", "pos-ez-input", "--ezafe-model", "m", "--out", "o"]
        from_flags = cli._experiment_config_from_args(build_parser().parse_args(flags))
        from_file = parse_experiment_config(
            "task = pos-ez-input\ntemplate = crf1\ntrain = t\nvalid = v\ntest = c\nezafe_model = m\n"
        )
        for cfg in (from_flags, from_file):
            assert cfg.train_config == TrainConfig()
            assert cfg.eval_every == EXPERIMENT.eval_every
            assert cfg.ezafe_source == EXPERIMENT.ezafe_source
            assert cfg.seed == SplitSpec().seed

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_renders_the_class_defaults(self, command, capsys):
        # argparse %-formats each help string only when help is asked for.
        with pytest.raises(SystemExit) as e:
            main([command, "--help"])
        assert e.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for key, action in flags(command):
            if key in CLASS_DEFAULTS:
                metavar = "{" + ",".join(action.choices) + "}" if action.choices else action.dest.upper()
                shown = action.help % {"default": CLASS_DEFAULTS[key]}
                assert shown.endswith(f" (default {CLASS_DEFAULTS[key]})"), key
                assert f"{key[1]} {metavar} {shown}" in text, key


class TestUsage:
    def test_unknown_flag(self, capsys):
        assert main(["stats", "file", "--bogus"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("pertcrf: usage error:") and err.count("\n") == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0

    def test_module_entry_point(self):
        # The child does not inherit pytest's sys.path, so it gets the
        # source tree through PYTHONPATH.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "pertcrf", "--help"], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0
        for sub in ("split", "stats", "synth", "train", "tag", "eval", "experiment"):
            assert sub in proc.stdout
