"""Experiment orchestration: one runner (run_experiment) for every task,
that is ezafe recognition, POS tagging with and without ezafe input and
joint cross-product tagging; one evaluator (evaluate); and the two-stage
annotation pipeline.

Every per-token quantity is a flat column in corpus order beside the
sentence offsets, as corpus.Corpus holds them: the forms of each corpus
become its one features.batch (Corpus.batch), which every model that reads
the corpus encodes (with ezafe input flags for ezafe-input templates) and
whose work they share, across calls as long as the corpus object lives
(the batch keeps the affix cut of the last set of forms that a model
lacks); gold label ids go into crf.train, and crf.decode returns one label
id per token.
Evaluation maps those ids to rows of the confusion table by label name
(an ezafe model may list "1" before "0"), and metrics counts the table
and the per-POS ezafe F1 from the codes.

Checkpoint rule: the validation split is encoded once per fit with the
training index and decoded every eval_every iterations (and at the final
iteration); the weights with the best validation F1 are the ones
evaluated on test, and their validation decode gives the validation
report.

Report rule: a model's labels decide its reports (label_kind). Labels
exactly {"0", "1"} give the binary ezafe report, labels that hold "|" give
the POS and the ezafe projection of a joint model, and any other labels
give the macro POS report. So fit refuses POS training tags that this rule
would misread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Callable, Sequence

import numpy as np

from . import crf, features
from .corpus import Corpus, SplitSpec, check_token_rule, read_corpus_file, whitespace_free
from .crf import CrfModel, TrainConfig
from .features import Batch, FeatureTemplate
from .metrics import (
    EvalReport,
    _macro_of,
    binary_metrics,
    confusion_codes,
    ezafe_f1_per_pos,
    per_tag_metrics,
)
from .rng import check_seed

TASKS = ("ezafe", "pos", "pos-ez-input", "joint")
EZAFE_SOURCES = ("gold", "predicted")
JOINT_SEP = "|"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    template: FeatureTemplate
    train_config: TrainConfig = TrainConfig()
    train_path: str = ""
    valid_path: str = ""
    test_path: str = ""
    out_path: str | None = None
    ezafe_model_path: str | None = None
    ezafe_source: str = "predicted"
    eval_every: int = 10
    seed: int = SplitSpec.seed  # the split seed that the reports name

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.ezafe_source not in EZAFE_SOURCES:
            raise ConfigError(f"ezafe_source must be one of {EZAFE_SOURCES}")
        if self.task == "pos-ez-input":
            if not self.template.ezafe_input:
                raise ConfigError("pos-ez-input needs an ezafe-input template")
        elif self.template.ezafe_input:
            raise ConfigError(f"task {self.task} does not take an ezafe-input template")
        # A path that the task would not read is refused, not ignored.
        if self.ezafe_model_path is not None and _flag_mode(self) != "predicted":
            raise ConfigError(
                "ezafe_model is read only by task pos-ez-input with ezafe_source = predicted"
            )
        if self.eval_every < 1:
            raise ConfigError("eval_every must be positive")
        try:
            check_seed(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class TrainLogEntry:
    iteration: int
    objective: float
    valid_f1: float | None = None


@dataclass
class ExperimentResult:
    model: CrfModel
    valid_report: EvalReport
    test_report: EvalReport
    log: list[TrainLogEntry]
    best_iteration: int
    stop: str  # why training stopped: optim.OwlQnResult.stop
    extra: dict[str, EvalReport] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Decoding and evaluation over corpus columns


def decode(model: CrfModel, batch: Batch, ezafe: Sequence[int] | None = None) -> np.ndarray:
    """The label id (an index into model.labels) of every position of batch
    (a Corpus.batch or features.batch), in corpus order, with one ezafe
    input flag per position for ezafe-input templates."""
    return crf.decode(model, features.encode(model.feature_index, model.template, batch, ezafe))


def predict_flags(model: CrfModel, batch: Batch) -> np.ndarray:
    """The decoded int8 ezafe flag of every position (see decode), mapped
    from each label id by the label's name."""
    return _flag_of(model.labels)[decode(model, batch)]


def _flag_of(labels: Sequence[str]) -> np.ndarray:
    """The int8 ezafe flag of each label id of an ezafe model's labels."""
    if label_kind(labels) != "ezafe":
        raise ValueError("not an ezafe model: labels are not {0, 1}")
    return np.array([int(lab) for lab in labels], dtype=np.int8)


def label_kind(labels: Sequence[str]) -> str:
    """The task whose reports the labels get: "ezafe", "joint" or "pos"."""
    if set(labels) == {"0", "1"}:
        return "ezafe"
    if any(JOINT_SEP in lab for lab in labels):
        return "joint"
    return "pos"


def _gold_labels(task: str, corpus: Corpus) -> tuple[np.ndarray, tuple[str, ...]]:
    """The gold label id of every token for task, and the labels. POS tags
    that label_kind would not read as POS tags are refused."""
    if task == "ezafe":
        return corpus.ezafe, ("0", "1")
    for pos in corpus.tag_inventory:
        if JOINT_SEP in pos:
            raise ValueError(f"pos tag {pos!r} contains reserved {JOINT_SEP!r}")
    if task == "joint":
        # Tag code t with flag e is joint code 2t + e; from_codes renumbers
        # the pairs in order of first occurrence.
        names = [f"{pos}{JOINT_SEP}{ez}" for pos in corpus.tag_inventory for ez in (0, 1)]
        joint = Corpus.from_codes(
            corpus.forms, 2 * corpus.tags + corpus.ezafe, names, corpus.ezafe, corpus.offsets
        )
        return joint.tags, joint.tag_inventory
    if label_kind(corpus.tag_inventory) == "ezafe":
        raise ValueError("pos tags '0' and '1' would be read as ezafe flags")
    return corpus.tags, corpus.tag_inventory


def _ezafe_report(flags: np.ndarray, corpus: Corpus, header: dict | None = None) -> EvalReport:
    """Positive-class report of the predicted flag of every token, plus the
    per-POS F1 breakdown (gold POS)."""
    table = confusion_codes(corpus.ezafe, flags, ("0", "1"))
    per_pos, mean = ezafe_f1_per_pos(corpus.ezafe, flags, corpus.tags, corpus.tag_inventory)
    return EvalReport(
        kind="binary",
        headline=binary_metrics(table, positive="1"),
        per_tag=per_tag_metrics(table),
        table=table,
        ezafe_per_pos=per_pos,
        ezafe_per_pos_mean=mean,
        header=dict(header or {}),
    )


def _pos_report(
    pred: np.ndarray, names: Sequence[str], corpus: Corpus, header: dict | None = None
) -> EvalReport:
    """Macro-averaged report with the per-tag F1 table of the predicted tag
    of every token, given as an index into names. Tags that the corpus
    lacks follow its inventory in the order of names."""
    tagset = corpus.tag_inventory + tuple(t for t in names if t not in corpus.tag_inventory)
    row = {tag: i for i, tag in enumerate(tagset)}
    rows = np.array([row[name] for name in names], dtype=np.intp)
    table = confusion_codes(corpus.tags, rows[pred], tagset)
    per_tag = per_tag_metrics(table)
    return EvalReport(
        kind="macro",
        headline=_macro_of(per_tag),
        per_tag=per_tag,
        table=table,
        header=dict(header or {}),
    )


def split_joint(label: str) -> tuple[str, int]:
    pos, _, ez = label.rpartition(JOINT_SEP)
    if ez not in ("0", "1") or not pos:
        raise ValueError(f"malformed joint label {label!r}")
    return pos, int(ez)


def _reports(
    labels: Sequence[str], pred: np.ndarray, corpus: Corpus, header: dict | None = None
) -> list[EvalReport]:
    """The reports of the label id of every token (an index into labels),
    by label_kind: the ezafe report, the POS report, or a joint model's POS
    and then ezafe projection. A joint model's POS tags that the corpus
    lacks follow its inventory in sorted order."""
    kind = label_kind(labels)
    if kind == "ezafe":
        return [_ezafe_report(_flag_of(labels)[pred], corpus, header)]
    if kind == "pos":
        return [_pos_report(pred, labels, corpus, header)]
    pos, flags = zip(*map(split_joint, labels))
    names = sorted(set(pos))
    pos_of = np.array([names.index(p) for p in pos], dtype=np.intp)
    return [
        _pos_report(pos_of[pred], names, corpus, header),
        _ezafe_report(np.array(flags, dtype=np.int8)[pred], corpus, header),
    ]


def evaluate(
    model: CrfModel,
    corpus: Corpus,
    ezafe: np.ndarray | None = None,
    header: dict | None = None,
) -> list[EvalReport]:
    """Decode corpus, with one ezafe input flag per token for ezafe-input
    templates, and report it (see _reports): the primary report, then the
    ezafe projection for joint models. Gold labels unseen in training only
    affect the scores, never the decoding."""
    pred = decode(model, corpus.batch, ezafe)
    return _reports(model.labels, pred, corpus, header)


# ---------------------------------------------------------------------------
# Training with best-validation-F1 checkpointing


def _flag_mode(cfg: ExperimentConfig) -> str:
    return cfg.ezafe_source if cfg.task == "pos-ez-input" else "none"


def make_flags(
    cfg: ExperimentConfig,
    corpora: Sequence[Corpus],
    ezafe_model: CrfModel | None = None,
) -> list[np.ndarray | None]:
    """Ezafe input flags of each corpus, one per token: none unless cfg.task
    is pos-ez-input, then gold or predicted as cfg.ezafe_source says, by
    ezafe_model (read from cfg.ezafe_model_path when not given)."""
    mode = _flag_mode(cfg)
    if mode == "none":
        return [None] * len(corpora)
    if mode == "gold":
        return [c.ezafe for c in corpora]
    if ezafe_model is None:
        if not cfg.ezafe_model_path:
            raise ValueError("ezafe_source=predicted needs an ezafe model")
        ezafe_model = crf.load_model_file(cfg.ezafe_model_path)
    return [predict_flags(ezafe_model, c.batch) for c in corpora]


def fit(
    cfg: ExperimentConfig,
    train_c: Corpus,
    valid_c: Corpus,
    train_flags: np.ndarray | None = None,
    valid_flags: np.ndarray | None = None,
) -> tuple[CrfModel, list[TrainLogEntry], int, str, np.ndarray]:
    """Train cfg.task on train_c (with its ezafe input flags, one per token,
    for ezafe-input templates), decoding valid_c every cfg.eval_every
    iterations and at the last one. valid_c is encoded once, with the
    training index. Returns the model of the checkpoint with the best
    validation F1 (positive-class F1 for ezafe, macro F1 otherwise; the
    earliest among ties), the log, the checkpoint's iteration, why
    training stopped (OwlQnResult.stop), and the model's label id of
    every token of valid_c."""
    if train_c.n_sentences == 0:
        raise ValueError("empty train split")
    if valid_c.n_sentences == 0:
        raise ValueError("empty validation split")
    gold, labels = _gold_labels(cfg.task, train_c)
    index, encoded = features.index_and_encode(
        cfg.template, train_c.batch, train_flags, cfg.train_config.min_count
    )
    valid = features.encode(index, cfg.template, valid_c.batch, valid_flags)
    log: list[TrainLogEntry] = []
    best = {"f1": float("-inf"), "model": None, "iteration": 0, "pred": None}

    def checkpoint(it: int, model: CrfModel) -> float:
        pred = crf.decode(model, valid)
        f1 = _reports(labels, pred, valid_c)[0].headline.f1
        if f1 > best["f1"]:
            best.update(f1=f1, model=model, iteration=it, pred=pred)
        return f1

    def on_iteration(it: int, objective: float, model: Callable[[], CrfModel]) -> None:
        f1 = checkpoint(it, model()) if it % cfg.eval_every == 0 else None
        log.append(TrainLogEntry(iteration=it, objective=objective, valid_f1=f1))

    model, stop = crf.train(
        index, encoded, gold, labels, cfg.template, cfg.train_config, on_iteration=on_iteration
    )
    if log and log[-1].valid_f1 is None:
        log[-1].valid_f1 = checkpoint(log[-1].iteration, model)
    if best["model"] is None:  # no accepted step: the zero start is the model
        return model, log, 0, stop, crf.decode(model, valid)
    return best["model"], log, best["iteration"], stop, best["pred"]


# ---------------------------------------------------------------------------
# Experiment runners


def _config_header(cfg: ExperimentConfig) -> dict[str, str]:
    tc = cfg.train_config
    return {
        "task": cfg.task,
        "template": cfg.template.token,
        "l1": repr(tc.l1),
        "l2": repr(tc.l2),
        "max_iter": str(tc.max_iterations),
        "seed": str(cfg.seed),
        "train": cfg.train_path,
        "valid": cfg.valid_path,
        "test": cfg.test_path,
        "ezafe_model": cfg.ezafe_model_path or "",
        "out": cfg.out_path or "",
        "ezafe_source": cfg.ezafe_source if cfg.task == "pos-ez-input" else "",
    }


def load_corpora(cfg: ExperimentConfig) -> tuple[Corpus, Corpus, Corpus]:
    return (
        read_corpus_file(cfg.train_path),
        read_corpus_file(cfg.valid_path),
        read_corpus_file(cfg.test_path),
    )


def run_experiment(
    cfg: ExperimentConfig,
    corpora: tuple[Corpus, Corpus, Corpus] | None = None,
    ezafe_model: CrfModel | None = None,
) -> ExperimentResult:
    """Train cfg.task on the train split with the flags of make_flags (see
    fit) and report on validation and test. A joint model's primary reports
    are its POS projection; its ezafe projections land in extra as
    valid_ezafe and test_ezafe."""
    corpora = corpora if corpora is not None else load_corpora(cfg)
    train_c, valid_c, test_c = corpora
    train_flags, valid_flags, test_flags = make_flags(cfg, corpora, ezafe_model)
    header = _config_header(cfg)
    model, log, best_it, stop, valid_pred = fit(cfg, train_c, valid_c, train_flags, valid_flags)
    valid = _reports(model.labels, valid_pred, valid_c, header)
    test = evaluate(model, test_c, test_flags, header)
    return ExperimentResult(
        model=model,
        valid_report=valid[0],
        test_report=test[0],
        log=log,
        best_iteration=best_it,
        stop=stop,
        extra={"valid_ezafe": valid[1], "test_ezafe": test[1]} if len(valid) > 1 else {},
    )


# The entry points that bench/workloads.py calls, each one call into the
# runner or the evaluator.


def run_ezafe(
    cfg: ExperimentConfig, corpora: tuple[Corpus, Corpus, Corpus] | None = None
) -> ExperimentResult:
    return run_experiment(cfg, corpora)


def run_pos(
    cfg: ExperimentConfig,
    ezafe_mode: str,
    corpora: tuple[Corpus, Corpus, Corpus] | None = None,
    ezafe_model: CrfModel | None = None,
) -> ExperimentResult:
    """run_experiment, where ezafe_mode ("none", "gold" or "predicted")
    must be the flag mode that cfg sets."""
    if ezafe_mode != _flag_mode(cfg):
        raise ValueError(
            f"ezafe mode {ezafe_mode!r} contradicts task {cfg.task!r} "
            f"with ezafe_source {cfg.ezafe_source!r}"
        )
    return run_experiment(cfg, corpora, ezafe_model)


def evaluate_pos(
    model: CrfModel,
    corpus: Corpus,
    ezafe: np.ndarray | None = None,
    header: dict | None = None,
) -> EvalReport:
    """The primary report of evaluate."""
    return evaluate(model, corpus, ezafe, header)[0]


def pipeline_tag(
    sentences: Sequence[Sequence[str]], ezafe_model: CrfModel, pos_model: CrfModel
) -> Corpus:
    """Two-stage annotation: decode ezafe flags, then decode POS with the
    flags as input features, both from one features.batch of the text
    (which does the text's share of encoding once) and over one packed
    layout. Output tokens carry the predictions and obey the token rule."""
    if not pos_model.template.ezafe_input:
        raise ValueError("pos model was not trained with ezafe input")
    forms = list(chain.from_iterable(sentences))
    batch = features.batch(forms, np.cumsum([0, *map(len, sentences)]))
    layout = crf._Layout(batch.offsets)

    def tag(model: CrfModel, flags: np.ndarray | None = None) -> np.ndarray:
        encoded = features.encode(model.feature_index, model.template, batch, flags)
        return crf._decode(model, encoded, layout)

    flags = _flag_of(ezafe_model.labels)[tag(ezafe_model)]
    pred = tag(pos_model, flags)
    # The token rule is checked once per distinct form and predicted label;
    # the scan per token runs only to name the first token that breaks it.
    predicted = compress(pos_model.labels, np.bincount(pred, minlength=len(pos_model.labels)).tolist())
    if not (whitespace_free(batch.words) and whitespace_free(predicted)):
        check_token_rule(forms, [pos_model.labels[i] for i in pred.tolist()])
    return Corpus.from_codes(forms, pred, pos_model.labels, flags, batch.offsets)


# ---------------------------------------------------------------------------
# Flat key-value experiment config files (key = value, one per line).

_CONFIG_KEYS = (
    "task",
    "template",
    "l1",
    "l2",
    "max_iter",
    "seed",
    "train",
    "valid",
    "test",
    "ezafe_model",
    "out",
    "ezafe_source",
    "eval_every",
    "min_count",
)
_REQUIRED_KEYS = ("task", "template", "train", "valid", "test")


def parse_experiment_config(text: str) -> ExperimentConfig:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    missing = [k for k in _REQUIRED_KEYS if not values.get(k)]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    task = values["task"]
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    # Keys that the task would not read are refused, not ignored.
    if "ezafe_source" in values and task != "pos-ez-input":
        raise ConfigError(f"ezafe_source is read only by task pos-ez-input, not {task}")
    ezafe_source = values.get("ezafe_source", ExperimentConfig.ezafe_source)
    predicted = task == "pos-ez-input" and ezafe_source == "predicted"
    if predicted and not values.get("ezafe_model"):
        raise ConfigError("task pos-ez-input with ezafe_source = predicted needs ezafe_model")
    try:
        template = FeatureTemplate(
            id=values["template"].upper(), ezafe_input=(task == "pos-ez-input")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def number(key: str, conv):
        try:
            return conv(values[key])
        except ValueError:
            raise ConfigError(f"bad value for {key}: {values[key]!r}") from None

    def given(**fields: tuple[str, Callable]) -> dict:
        """Each field = (key, type) whose key the file sets, read as its
        type; the config classes hold the defaults of the others."""
        return {name: number(key, conv) for name, (key, conv) in fields.items() if key in values}

    try:
        train_config = TrainConfig(
            **given(l1=("l1", float), l2=("l2", float)),
            **given(max_iterations=("max_iter", int), min_count=("min_count", int)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(
        task=task,
        template=template,
        train_config=train_config,
        train_path=values["train"],
        valid_path=values["valid"],
        test_path=values["test"],
        out_path=values.get("out") or None,
        ezafe_model_path=values.get("ezafe_model"),
        ezafe_source=ezafe_source,
        **given(eval_every=("eval_every", int), seed=("seed", int)),
    )


def read_experiment_config_file(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_experiment_config(f.read())
