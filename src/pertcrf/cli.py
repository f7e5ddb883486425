"""Command-line front end.

Subcommands: split, stats, synth, train, tag, eval, experiment.
Exit codes: 0 success, 1 usage error, 2 data error, 3 training failure.
Output files are written to a temp name and renamed on success, so a
failing run never leaves partial files behind.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from . import crf, features, tasks
from .corpus import (
    CorpusFormatError,
    SplitSpec,
    corpus_stats,
    filter_long,
    format_stats,
    non_unix_line,
    read_corpus_file,
    shuffle_split,
    write_corpus,
    write_corpus_file,
)
from .crf import ModelFormatError, TrainConfig, TransitionSpanError
from .datagen import GeometricLength, HmmSpecError, generate, read_hmm_spec_file
from .features import FeatureTemplate
from .optim import DivergenceError
from .tasks import ConfigError, ExperimentConfig

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _atomic_write(path: str, text: str) -> None:
    target = os.path.abspath(path)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=os.path.basename(target) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _template_from_args(args, ezafe_input: bool = False) -> FeatureTemplate:
    return FeatureTemplate(id=args.template.upper(), ezafe_input=ezafe_input)


def _counts_table(parts: dict[str, object]) -> str:
    lines = ["set\tsentences\ttokens"]
    total_s = total_t = 0
    for name, c in parts.items():
        lines.append(f"{name}\t{c.n_sentences}\t{c.n_tokens}")
        total_s += c.n_sentences
        total_t += c.n_tokens
    lines.append(f"total\t{total_s}\t{total_t}")
    return "\n".join(lines)


def cmd_split(args) -> int:
    try:
        spec = SplitSpec(seed=args.seed, test_fraction=args.test, valid_fraction=args.valid)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.max_len < 0:
        raise UsageError("--max-len must be 0 (disabled) or positive")
    corpus = read_corpus_file(args.input)
    train, valid, test = shuffle_split(corpus, spec)
    if args.max_len:
        train, valid, test = (filter_long(c, args.max_len) for c in (train, valid, test))
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        _atomic_write(os.path.join(args.out_dir, f"{name}.tsv"), write_corpus(part))
    print(_counts_table({"train": train, "valid": valid, "test": test}))
    return 0


def cmd_stats(args) -> int:
    corpus = read_corpus_file(args.input)
    text = format_stats(corpus_stats(corpus))
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    spec = read_hmm_spec_file(args.spec)
    try:
        length_dist = GeometricLength(
            min_len=args.min_len, max_len=args.max_len, continue_prob=args.continue_prob
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    corpus = generate(spec, args.sentences, args.seed, length_dist)
    _atomic_write(args.out, write_corpus(corpus))
    print(f"wrote {corpus.n_sentences} sentences / {corpus.n_tokens} tokens to {args.out}")
    return 0


def _experiment_config_from_args(args) -> ExperimentConfig:
    if args.ezafe_source and args.task != "pos-ez-input":
        raise UsageError("--ezafe-source is used only by --task pos-ez-input")
    ezafe_source = args.ezafe_source or "predicted"
    predicted = args.task == "pos-ez-input" and ezafe_source == "predicted"
    if predicted and not args.ezafe_model:
        raise UsageError("--task pos-ez-input with predicted flags requires --ezafe-model")
    if args.ezafe_model and not predicted:
        raise UsageError("--ezafe-model is used only by --task pos-ez-input with predicted flags")
    try:
        return ExperimentConfig(
            task=args.task,
            template=_template_from_args(args, ezafe_input=(args.task == "pos-ez-input")),
            train_config=TrainConfig(
                l1=args.l1, l2=args.l2, max_iterations=args.max_iter, min_count=args.min_count
            ),
            train_path=args.train,
            valid_path=args.valid,
            test_path="",
            out_path=args.out,
            ezafe_model_path=args.ezafe_model,
            ezafe_source=ezafe_source,
            eval_every=args.eval_every,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _print_log(log, best_iteration: int, stop: str, out_path: str | None) -> None:
    lines = [
        f"iter\t{e.iteration}\tobjective\t{e.objective!r}\tvalid_f1\t"
        + ("-" if e.valid_f1 is None else f"{e.valid_f1:.4f}")
        for e in log
    ]
    lines.append(f"best_iteration\t{best_iteration}")
    lines.append(f"stop\t{stop}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        _atomic_write(out_path, text)


def cmd_train(args) -> int:
    cfg = _experiment_config_from_args(args)
    train_c = read_corpus_file(args.train)
    valid_c = read_corpus_file(args.valid)
    started = time.monotonic()
    batches = [features.batch(c.forms, c.offsets) for c in (train_c, valid_c)]
    train_flags, valid_flags = tasks.make_flags(cfg, [train_c, valid_c], batches)
    model, log, best_it, stop, _ = tasks.fit(cfg, train_c, valid_c, train_flags, valid_flags, batches)
    _atomic_write(args.out, crf.save_model(model))
    _print_log(log, best_it, stop, args.log)
    print(f"model written to {args.out}", file=sys.stderr)
    print(f"wall_time_s\t{time.monotonic() - started:.1f}", file=sys.stderr)
    return 0


def cmd_tag(args) -> int:
    ezafe_model = crf.load_model_file(args.ezafe_model)
    pos_model = crf.load_model_file(args.pos_model)
    with open(args.input, encoding="utf-8", newline="") as f:
        text = f.read()
    bad = non_unix_line(text)
    if bad is not None:
        raise CorpusFormatError(bad[1], bad[0])
    sentences = [forms for forms in map(str.split, text.split("\n")) if forms]
    tagged = tasks.pipeline_tag(sentences, ezafe_model, pos_model)
    _atomic_write(args.out, write_corpus(tagged))
    print(f"tagged {tagged.n_sentences} sentences to {args.out}")
    return 0


def _write_report(report, prefix: str) -> None:
    _atomic_write(prefix + ".txt", report.to_text())
    _atomic_write(prefix + ".json", report.to_json())


def cmd_eval(args) -> int:
    model = crf.load_model_file(args.model)
    if args.ezafe_model and not model.template.ezafe_input:
        raise UsageError("--ezafe-model is used only by models with ezafe input")
    corpus = read_corpus_file(args.corpus)
    header = {"model": args.model, "corpus": args.corpus, "template": model.template.token}
    batch = features.batch(corpus.forms, corpus.offsets)
    flags = None
    if args.ezafe_model:
        ezafe_model = crf.load_model_file(args.ezafe_model)
        flags = tasks.predict_flags(ezafe_model, batch)
        header["ezafe_source"] = "predicted"
    elif model.template.ezafe_input:
        flags = corpus.ezafe
        header["ezafe_source"] = "gold"
    reports = tasks.evaluate(model, corpus, flags, header, batch)
    if args.report:
        for report, suffix in zip(reports, ("", ".ezafe")):
            _write_report(report, args.report + suffix)
    else:
        sys.stdout.write("\n".join(report.to_text() for report in reports))
    return 0


def cmd_experiment(args) -> int:
    cfg = tasks.read_experiment_config_file(args.config)
    started = time.monotonic()
    result = tasks.run_experiment(cfg)
    _print_log(result.log, result.best_iteration, result.stop, None)
    if cfg.out_path:
        _atomic_write(cfg.out_path, crf.save_model(result.model))
        prefix = cfg.out_path
        _write_report(result.valid_report, prefix + ".valid")
        _write_report(result.test_report, prefix + ".test")
        for name, report in result.extra.items():
            _write_report(report, f"{prefix}.{name}")
    sys.stdout.write(result.test_report.to_text())
    print(f"wall_time_s\t{time.monotonic() - started:.1f}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pertcrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("split", help="shuffle a corpus and write train/valid/test files")
    p.add_argument("input", help="corpus file in canonical 3-column TSV")
    p.add_argument("--out-dir", required=True, help="directory for train.tsv/valid.tsv/test.tsv")
    p.add_argument("--seed", type=int, default=17, help="shuffle seed (default 17)")
    p.add_argument("--test", type=float, default=0.1, help="test fraction (default 0.1)")
    p.add_argument("--valid", type=float, default=0.1, help="validation fraction (default 0.1)")
    p.add_argument(
        "--max-len",
        type=int,
        default=512,
        help="drop sentences longer than this after splitting; 0 disables (default 512)",
    )
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="per-POS ezafe/frequency/diversity statistics")
    p.add_argument("input", help="corpus file")
    p.add_argument("--out", help="write TSV here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a process spec")
    p.add_argument("--spec", required=True, help="process spec file")
    p.add_argument("--sentences", type=int, required=True, help="number of sentences")
    p.add_argument("--seed", type=int, default=17, help="generation seed (default 17)")
    p.add_argument("--out", required=True, help="output corpus file")
    p.add_argument("--min-len", type=int, default=3, help="minimum sentence length (default 3)")
    p.add_argument("--max-len", type=int, default=40, help="maximum sentence length (default 40)")
    p.add_argument(
        "--continue-prob",
        type=float,
        default=0.85,
        help="geometric length continuation probability (default 0.85)",
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model; logs one line per iteration")
    p.add_argument("train", help="training corpus file")
    p.add_argument("valid", help="validation corpus file (checkpoint selection)")
    p.add_argument("--task", required=True, choices=tasks.TASKS, help="labeling task")
    p.add_argument(
        "--template", default="crf1", choices=("crf1", "crf2"), help="feature template (default crf1)"
    )
    p.add_argument("--l1", type=float, default=0.1, help="L1 coefficient (default 0.1)")
    p.add_argument("--l2", type=float, default=0.1, help="L2 coefficient (default 0.1)")
    p.add_argument("--max-iter", type=int, default=100, help="iteration cap (default 100)")
    p.add_argument(
        "--eval-every", type=int, default=10, help="validate every N iterations (default 10)"
    )
    p.add_argument("--min-count", type=int, default=1, help="feature count cutoff (default 1)")
    p.add_argument("--ezafe-model", help="trained ezafe model (pos-ez-input with predicted flags)")
    p.add_argument(
        "--ezafe-source",
        choices=tasks.EZAFE_SOURCES,
        help="where pos-ez-input training flags come from (default predicted)",
    )
    p.add_argument("--out", required=True, help="model output file")
    p.add_argument("--log", help="also write the training log here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="annotate raw text with the two-stage pipeline")
    p.add_argument("input", help="text file, one sentence per line, tokens separated by spaces")
    p.add_argument("--ezafe-model", required=True, help="stage-1 ezafe model")
    p.add_argument("--pos-model", required=True, help="stage-2 POS model (ezafe-input template)")
    p.add_argument("--out", required=True, help="output corpus file with predictions")
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="evaluate a model on an annotated corpus")
    p.add_argument("model", help="model file")
    p.add_argument("corpus", help="corpus file with gold annotations")
    p.add_argument(
        "--report", help="write <prefix>.txt and <prefix>.json instead of printing to stdout"
    )
    p.add_argument(
        "--ezafe-model",
        help="decode input flags with this ezafe model (ezafe-input POS models; default: gold flags)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a full experiment from a key-value config file")
    p.add_argument("config", help="flat key-value experiment config")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"pertcrf: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, TransitionSpanError) as exc:
        print(f"pertcrf: training failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (CorpusFormatError, ModelFormatError, HmmSpecError, ConfigError) as exc:
        print(f"pertcrf: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"pertcrf: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
