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
import time

from . import crf, tasks
from .corpus import (
    MAX_SENTENCE_LEN,
    CorpusFormatError,
    SplitSpec,
    atomic_write,
    corpus_stats,
    filter_long,
    format_stats,
    non_unix_line,
    read_corpus_file,
    shuffle_split,
    write_corpus_file,
)
from .crf import ModelFormatError, TrainConfig, TransitionSpanError
from .datagen import GeometricLength, HmmSpecError, generate, read_hmm_spec_file
from .features import FeatureTemplate
from .optim import DivergenceError
from .rng import check_seed
from .tasks import ConfigError, ExperimentConfig

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


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
        write_corpus_file(part, os.path.join(args.out_dir, f"{name}.tsv"))
    print(_counts_table({"train": train, "valid": valid, "test": test}))
    return 0


def cmd_stats(args) -> int:
    corpus = read_corpus_file(args.input)
    text = format_stats(corpus_stats(corpus))
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_synth(args) -> int:
    if args.sentences < 1:
        raise UsageError("--sentences must be positive")
    try:
        check_seed(args.seed)
        length_dist = GeometricLength(
            min_len=args.min_len, max_len=args.max_len, continue_prob=args.continue_prob
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    spec = read_hmm_spec_file(args.spec)
    corpus = generate(spec, args.sentences, args.seed, length_dist)
    write_corpus_file(corpus, args.out)
    print(f"wrote {corpus.n_sentences} sentences / {corpus.n_tokens} tokens to {args.out}")
    return 0


def _experiment_config_from_args(args) -> ExperimentConfig:
    if args.ezafe_source and args.task != "pos-ez-input":
        raise UsageError("--ezafe-source is used only by --task pos-ez-input")
    ezafe_source = args.ezafe_source or ExperimentConfig.ezafe_source
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
        atomic_write(out_path, text)


def cmd_train(args) -> int:
    cfg = _experiment_config_from_args(args)
    train_c = read_corpus_file(args.train)
    valid_c = read_corpus_file(args.valid)
    started = time.monotonic()
    train_flags, valid_flags = tasks.make_flags(cfg, [train_c, valid_c])
    model, log, best_it, stop, _ = tasks.fit(cfg, train_c, valid_c, train_flags, valid_flags)
    crf.save_model_file(model, args.out)
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
    write_corpus_file(tagged, args.out)
    print(f"tagged {tagged.n_sentences} sentences to {args.out}")
    return 0


def _write_report(report, prefix: str) -> None:
    atomic_write(prefix + ".txt", report.to_text())
    atomic_write(prefix + ".json", report.to_json())


def cmd_eval(args) -> int:
    model = crf.load_model_file(args.model)
    if args.ezafe_model and not model.template.ezafe_input:
        raise UsageError("--ezafe-model is used only by models with ezafe input")
    corpus = read_corpus_file(args.corpus)
    header = {"model": args.model, "corpus": args.corpus, "template": model.template.token}
    flags = None
    if args.ezafe_model:
        ezafe_model = crf.load_model_file(args.ezafe_model)
        flags = tasks.predict_flags(ezafe_model, corpus.batch)
        header["ezafe_source"] = "predicted"
    elif model.template.ezafe_input:
        flags = corpus.ezafe
        header["ezafe_source"] = "gold"
    reports = tasks.evaluate(model, corpus, flags, header)
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
        crf.save_model_file(result.model, cfg.out_path)
        prefix = cfg.out_path
        _write_report(result.valid_report, prefix + ".valid")
        _write_report(result.test_report, prefix + ".test")
        for name, report in result.extra.items():
            _write_report(report, f"{prefix}.{name}")
    sys.stdout.write(result.test_report.to_text())
    print(f"wall_time_s\t{time.monotonic() - started:.1f}", file=sys.stderr)
    return 0


def _option(p: argparse.ArgumentParser, flag: str, default, help: str) -> None:
    """A flag of default's type; default is the config class field (or
    module constant) that holds the setting's default, named in the help."""
    p.add_argument(flag, type=type(default), default=default, help=help + " (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pertcrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("split", help="shuffle a corpus and write train/valid/test files")
    p.add_argument("input", help="corpus file in canonical 3-column TSV")
    p.add_argument("--out-dir", required=True, help="directory for train.tsv/valid.tsv/test.tsv")
    _option(p, "--seed", SplitSpec.seed, "shuffle seed")
    _option(p, "--test", SplitSpec.test_fraction, "test fraction")
    _option(p, "--valid", SplitSpec.valid_fraction, "validation fraction")
    _option(
        p, "--max-len", MAX_SENTENCE_LEN, "drop sentences longer than this after splitting; 0 disables"
    )
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="per-POS ezafe/frequency/diversity statistics")
    p.add_argument("input", help="corpus file")
    p.add_argument("--out", help="write TSV here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("synth", help="generate a synthetic corpus from a process spec")
    p.add_argument("--spec", required=True, help="process spec file")
    p.add_argument("--sentences", type=int, required=True, help="number of sentences")
    _option(p, "--seed", SplitSpec.seed, "generation seed")
    p.add_argument("--out", required=True, help="output corpus file")
    _option(p, "--min-len", GeometricLength.min_len, "minimum sentence length")
    _option(p, "--max-len", GeometricLength.max_len, "maximum sentence length")
    _option(
        p, "--continue-prob", GeometricLength.continue_prob, "geometric length continuation probability"
    )
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model; logs one line per iteration")
    p.add_argument("train", help="training corpus file")
    p.add_argument("valid", help="validation corpus file (checkpoint selection)")
    p.add_argument("--task", required=True, choices=tasks.TASKS, help="labeling task")
    p.add_argument(
        "--template", default="crf1", choices=("crf1", "crf2"), help="feature template (default crf1)"
    )
    _option(p, "--l1", TrainConfig.l1, "L1 coefficient")
    _option(p, "--l2", TrainConfig.l2, "L2 coefficient")
    _option(p, "--max-iter", TrainConfig.max_iterations, "iteration cap")
    _option(p, "--eval-every", ExperimentConfig.eval_every, "validate every N iterations")
    _option(p, "--min-count", TrainConfig.min_count, "feature count cutoff")
    p.add_argument("--ezafe-model", help="trained ezafe model (pos-ez-input with predicted flags)")
    p.add_argument(
        "--ezafe-source",
        choices=tasks.EZAFE_SOURCES,
        help=f"where pos-ez-input training flags come from (default {ExperimentConfig.ezafe_source})",
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
