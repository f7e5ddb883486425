"""Experiment orchestration: ezafe recognition, POS tagging with and
without ezafe input, joint cross-product tagging, and the two-stage
annotation pipeline.

Checkpoint rule: during training the validation split is decoded every
eval_every iterations (and at the final iteration); the weights with the
best validation F1 are the ones evaluated on test.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

from . import crf
from .corpus import Corpus, Token, read_corpus_file
from .crf import CrfModel, TrainConfig
from .features import (
    FeatureIndex,
    FeatureTemplate,
    FeatureVector,
    build_feature_index,
    corpus_features,
    sentence_features,
)
from .metrics import (
    EvalReport,
    binary_metrics,
    confusion,
    ezafe_f1_per_pos,
    macro_metrics,
    per_tag_metrics,
)

TASKS = ("ezafe", "pos", "pos-ez-input", "joint")
EZAFE_SOURCES = ("gold", "predicted")
JOINT_SEP = "|"
DEFAULT_EVAL_EVERY = 10

Flags = Sequence[Sequence[int]]


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
    eval_every: int = DEFAULT_EVAL_EVERY
    seed: int = 17
    min_count: int = 1

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
        if self.eval_every < 1:
            raise ConfigError("eval_every must be positive")


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
    extra: dict[str, EvalReport] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Corpus plumbing


def gold_flags(corpus: Corpus) -> list[tuple[int, ...]]:
    return [tuple(t.ezafe for t in s) for s in corpus.sentences]


def predict_flags(model: CrfModel, sentences: Sequence[Sequence[str]]) -> list[tuple[int, ...]]:
    """Decode per-token ezafe flags for raw sentences (lists of forms)."""
    if set(model.labels) != {"0", "1"}:
        raise ValueError("not an ezafe model: labels are not {0, 1}")
    feats = (sentence_features(forms, model.template) for forms in sentences)
    return [tuple(int(lab) for lab in labels) for labels in crf.decode(model, feats)]


def _label_fn(task: str) -> Callable[[Token], str]:
    if task == "ezafe":
        return lambda t: str(t.ezafe)
    if task == "joint":

        def joint(t: Token) -> str:
            if JOINT_SEP in t.pos:
                raise ValueError(f"pos tag {t.pos!r} contains reserved {JOINT_SEP!r}")
            return f"{t.pos}{JOINT_SEP}{t.ezafe}"

        return joint
    return lambda t: t.pos


def corpus_instances(
    corpus: Corpus,
    template: FeatureTemplate,
    label_of: Callable[[Token], str],
    ezafe: Flags | None = None,
) -> Iterator[tuple[list[FeatureVector], list[str]]]:
    """(features, labels) per sentence, generated lazily so that training
    can encode each one and drop its feature strings."""
    feats = corpus_features(corpus, template, ezafe)
    return ((f, [label_of(t) for t in sent]) for sent, f in zip(corpus.sentences, feats))


def decode_corpus(model: CrfModel, corpus: Corpus, ezafe: Flags | None = None) -> list[list[str]]:
    return crf.decode(model, corpus_features(corpus, model.template, ezafe))


# ---------------------------------------------------------------------------
# Evaluation


def _tagset(corpus: Corpus, more: Sequence[str]) -> tuple[str, ...]:
    tags = list(corpus.tag_inventory)
    tags += [t for t in more if t not in corpus.tag_inventory]
    return tuple(tags)


def evaluate_ezafe(
    model_or_pred: CrfModel | list[list[str]], corpus: Corpus, header: dict | None = None
) -> EvalReport:
    """Positive-class report plus the per-POS F1 breakdown (gold POS)."""
    if isinstance(model_or_pred, CrfModel):
        pred = decode_corpus(model_or_pred, corpus)
    else:
        pred = model_or_pred
    gold = [[str(t.ezafe) for t in s] for s in corpus.sentences]
    table = confusion(gold, pred, ("0", "1"))
    per_pos, mean = ezafe_f1_per_pos(
        [[t.ezafe for t in s] for s in corpus.sentences],
        [[int(v) for v in ps] for ps in pred],
        [[t.pos for t in s] for s in corpus.sentences],
    )
    return EvalReport(
        kind="binary",
        headline=binary_metrics(table, positive="1"),
        per_tag=per_tag_metrics(table),
        table=table,
        ezafe_per_pos=per_pos,
        ezafe_per_pos_mean=mean,
        header=dict(header or {}),
    )


def evaluate_pos(
    model_or_pred: CrfModel | list[list[str]],
    corpus: Corpus,
    ezafe: Flags | None = None,
    header: dict | None = None,
) -> EvalReport:
    """Macro-averaged report with the per-tag F1 table."""
    if isinstance(model_or_pred, CrfModel):
        pred = decode_corpus(model_or_pred, corpus, ezafe)
        extra: Sequence[str] = model_or_pred.labels
    else:
        pred = model_or_pred
        extra = sorted({t for ps in pred for t in ps})
    gold = [[t.pos for t in s] for s in corpus.sentences]
    table = confusion(gold, pred, _tagset(corpus, extra))
    return EvalReport(
        kind="macro",
        headline=macro_metrics(table),
        per_tag=per_tag_metrics(table),
        table=table,
        header=dict(header or {}),
    )


def split_joint(label: str) -> tuple[str, int]:
    pos, _, ez = label.rpartition(JOINT_SEP)
    if ez not in ("0", "1") or not pos:
        raise ValueError(f"malformed joint label {label!r}")
    return pos, int(ez)


def evaluate_joint(
    model: CrfModel, corpus: Corpus, header: dict | None = None
) -> tuple[EvalReport, EvalReport]:
    """Decode once, project to POS-only and ezafe-only sequences, and report
    both. Gold pairs unseen in training only affect the scores, never the
    decoding."""
    pred = decode_corpus(model, corpus)
    pos_pred = [[split_joint(lab)[0] for lab in ps] for ps in pred]
    ez_pred = [[str(split_joint(lab)[1]) for lab in ps] for ps in pred]
    pos_report = evaluate_pos(pos_pred, corpus, header=header)
    ez_report = evaluate_ezafe(ez_pred, corpus, header=header)
    return pos_report, ez_report


# ---------------------------------------------------------------------------
# Training with best-validation-F1 checkpointing


def train_checkpointed(
    train_instances,
    feature_index: FeatureIndex,
    labels: Sequence[str],
    template: FeatureTemplate,
    config: TrainConfig,
    valid_f1: Callable[[CrfModel], float] | None = None,
    eval_every: int = DEFAULT_EVAL_EVERY,
) -> tuple[CrfModel, list[TrainLogEntry], int]:
    """Returns (model restored to the best-validation snapshot, training
    log, iteration of the snapshot)."""
    log: list[TrainLogEntry] = []
    best = {"f1": float("-inf"), "weights": None, "iteration": 0}

    def snapshot(it: int, model: CrfModel) -> float:
        f1 = valid_f1(model)
        if f1 > best["f1"]:
            best.update(
                f1=f1, weights=(model.emission.copy(), model.transition.copy()), iteration=it
            )
        return f1

    def on_iteration(it: int, objective: float, model: CrfModel) -> None:
        f1 = None
        if valid_f1 is not None and it % eval_every == 0:
            f1 = snapshot(it, model)
        log.append(TrainLogEntry(iteration=it, objective=objective, valid_f1=f1))

    model = crf.train(
        train_instances,
        feature_index,
        labels,
        template,
        config,
        on_iteration=on_iteration,
    )
    if valid_f1 is not None and log and log[-1].valid_f1 is None:
        f1 = snapshot(log[-1].iteration, model)
        log[-1] = replace(log[-1], valid_f1=f1)
    if best["weights"] is not None:
        em, tr = best["weights"]
        model = CrfModel(
            labels=model.labels,
            feature_index=feature_index,
            emission=em,
            transition=tr,
            template=template,
        )
        best_iteration = best["iteration"]
    else:
        best_iteration = log[-1].iteration if log else 0
    return model, log, best_iteration


def _make_flags(
    cfg: ExperimentConfig,
    mode: str,
    corpora: Sequence[Corpus],
    ezafe_model: CrfModel | None,
) -> list[list[tuple[int, ...]] | None]:
    if mode == "none":
        return [None] * len(corpora)
    if mode == "gold":
        return [gold_flags(c) for c in corpora]
    if mode != "predicted":
        raise ValueError(f"unknown ezafe mode {mode!r}")
    if ezafe_model is None:
        if not cfg.ezafe_model_path:
            raise ValueError("mode=predicted needs an ezafe model")
        ezafe_model = crf.load_model_file(cfg.ezafe_model_path)
    return [
        predict_flags(ezafe_model, [[t.form for t in s] for s in c.sentences]) for c in corpora
    ]


def fit(
    cfg: ExperimentConfig,
    train_c: Corpus,
    valid_c: Corpus | None,
    ezafe_mode: str = "none",
    ezafe_model: CrfModel | None = None,
) -> tuple[CrfModel, list[TrainLogEntry], int, list | None]:
    """Train cfg.task on train_c, selecting the checkpoint by validation F1
    (positive-class F1 for ezafe, macro F1 otherwise). Returns the model,
    the log, the chosen iteration, and the validation ezafe flags (for
    reuse by callers that evaluate the same split)."""
    if train_c.n_sentences == 0:
        raise ValueError("empty train split")
    if valid_c is not None and valid_c.n_sentences == 0:
        raise ValueError("empty validation split")
    corpora = [train_c] + ([valid_c] if valid_c is not None else [])
    flags = _make_flags(cfg, ezafe_mode, corpora, ezafe_model)
    train_flags = flags[0]
    valid_flags = flags[1] if valid_c is not None else None

    task = cfg.task
    label_of = _label_fn(task)
    if task == "ezafe":
        labels: tuple[str, ...] = ("0", "1")
    elif task == "joint":
        seen: dict[str, None] = {}
        for sent in train_c.sentences:
            for tok in sent:
                seen.setdefault(label_of(tok), None)
        labels = tuple(seen)
    else:
        labels = train_c.tag_inventory

    index = build_feature_index(train_c, cfg.template, cfg.min_count, ezafe=train_flags)
    instances = corpus_instances(train_c, cfg.template, label_of, ezafe=train_flags)

    valid_f1 = None
    if valid_c is not None:
        if task == "ezafe":
            valid_f1 = lambda m: evaluate_ezafe(m, valid_c).headline.f1
        elif task == "joint":
            valid_f1 = lambda m: evaluate_joint(m, valid_c)[0].headline.f1
        else:
            valid_f1 = lambda m: evaluate_pos(m, valid_c, ezafe=valid_flags).headline.f1

    model, log, best_it = train_checkpointed(
        instances,
        index,
        labels,
        cfg.template,
        cfg.train_config,
        valid_f1=valid_f1,
        eval_every=cfg.eval_every,
    )
    return model, log, best_it, valid_flags


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


def run_ezafe(
    cfg: ExperimentConfig, corpora: tuple[Corpus, Corpus, Corpus] | None = None
) -> ExperimentResult:
    """Train the binary ezafe recognizer and report positive-class metrics
    on validation and test, with the per-POS F1 breakdown."""
    train_c, valid_c, test_c = corpora if corpora is not None else load_corpora(cfg)
    header = _config_header(cfg)
    model, log, best_it, _ = fit(cfg, train_c, valid_c)
    return ExperimentResult(
        model=model,
        valid_report=evaluate_ezafe(model, valid_c, header),
        test_report=evaluate_ezafe(model, test_c, header),
        log=log,
        best_iteration=best_it,
    )


def run_pos(
    cfg: ExperimentConfig,
    ezafe_mode: str | None = None,
    corpora: tuple[Corpus, Corpus, Corpus] | None = None,
    ezafe_model: CrfModel | None = None,
) -> ExperimentResult:
    """Train the tagger; for gold/predicted modes the ezafe flags are
    attached to the input features of every split before extraction."""
    train_c, valid_c, test_c = corpora if corpora is not None else load_corpora(cfg)
    if ezafe_mode is None:
        ezafe_mode = cfg.ezafe_source if cfg.task == "pos-ez-input" else "none"
    header = _config_header(cfg)
    model, log, best_it, valid_flags = fit(cfg, train_c, valid_c, ezafe_mode, ezafe_model)
    test_flags = _make_flags(cfg, ezafe_mode, [test_c], ezafe_model)[0]
    return ExperimentResult(
        model=model,
        valid_report=evaluate_pos(model, valid_c, ezafe=valid_flags, header=header),
        test_report=evaluate_pos(model, test_c, ezafe=test_flags, header=header),
        log=log,
        best_iteration=best_it,
    )


def run_joint(
    cfg: ExperimentConfig, corpora: tuple[Corpus, Corpus, Corpus] | None = None
) -> ExperimentResult:
    """Tag with the observed (pos, ezafe) pairs as the label space; the
    primary report is the POS projection, the ezafe projection lands in
    extra."""
    train_c, valid_c, test_c = corpora if corpora is not None else load_corpora(cfg)
    header = _config_header(cfg)
    model, log, best_it, _ = fit(cfg, train_c, valid_c)
    valid_pos, valid_ez = evaluate_joint(model, valid_c, header)
    test_pos, test_ez = evaluate_joint(model, test_c, header)
    return ExperimentResult(
        model=model,
        valid_report=valid_pos,
        test_report=test_pos,
        log=log,
        best_iteration=best_it,
        extra={"valid_ezafe": valid_ez, "test_ezafe": test_ez},
    )


def run_experiment(
    cfg: ExperimentConfig, corpora: tuple[Corpus, Corpus, Corpus] | None = None
) -> ExperimentResult:
    if cfg.task == "ezafe":
        return run_ezafe(cfg, corpora)
    if cfg.task == "pos":
        return run_pos(cfg, "none", corpora)
    if cfg.task == "pos-ez-input":
        return run_pos(cfg, cfg.ezafe_source, corpora)
    if cfg.task == "joint":
        return run_joint(cfg, corpora)
    raise ConfigError(f"unknown task {cfg.task!r}")


def pipeline_tag(
    sentences: Sequence[Sequence[str]], ezafe_model: CrfModel, pos_model: CrfModel
) -> Corpus:
    """Two-stage annotation: decode ezafe flags, then decode POS with the
    flags as input features. Output tokens carry the predictions."""
    if not pos_model.template.ezafe_input:
        raise ValueError("pos model was not trained with ezafe input")
    flags = predict_flags(ezafe_model, sentences)
    feats = (
        sentence_features(forms, pos_model.template, fl) for forms, fl in zip(sentences, flags)
    )
    tagged = [
        tuple(Token(form=f, pos=p, ezafe=e) for f, p, e in zip(forms, pos_labels, fl))
        for forms, pos_labels, fl in zip(sentences, crf.decode(pos_model, feats), flags)
    ]
    return Corpus.from_sentences(tagged)


def model_task_kind(model: CrfModel) -> str:
    if set(model.labels) == {"0", "1"}:
        return "ezafe"
    if any(JOINT_SEP in lab for lab in model.labels):
        return "joint"
    return "pos"


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
    try:
        template = FeatureTemplate(
            id=values["template"].upper(), ezafe_input=(task == "pos-ez-input")
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def number(key: str, default, conv):
        if key not in values:
            return default
        try:
            return conv(values[key])
        except ValueError:
            raise ConfigError(f"bad value for {key}: {values[key]!r}") from None

    try:
        train_config = TrainConfig(
            l1=number("l1", 0.1, float),
            l2=number("l2", 0.1, float),
            max_iterations=number("max_iter", 100, int),
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
        ezafe_model_path=values.get("ezafe_model") or None,
        ezafe_source=values.get("ezafe_source", "predicted"),
        eval_every=number("eval_every", DEFAULT_EVAL_EVERY, int),
        seed=number("seed", 17, int),
        min_count=number("min_count", 1, int),
    )


def read_experiment_config_file(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return parse_experiment_config(f.read())
