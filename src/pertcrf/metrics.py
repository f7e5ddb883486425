"""Evaluation measures: positive-class precision/recall/F1 for the binary
ezafe task, macro averages and accuracy for tagging, per-tag breakdowns,
and per-POS ezafe F1.

Zero-denominator convention: precision or recall with an empty denominator
is 0, and F1 is 0 whenever P + R = 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    accuracy: float


@dataclass(frozen=True)
class ConfusionTable:
    tags: tuple[str, ...]
    counts: np.ndarray  # (n_tags, n_tags) gold x predicted

    def __post_init__(self):
        n = len(self.tags)
        if self.counts.shape != (n, n):
            raise ValueError("counts must be square over the declared tag set")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def tag_id(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise ValueError(f"tag {tag!r} not in table") from None


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def confusion_codes(gold: np.ndarray, pred: np.ndarray, tags: Sequence[str]) -> ConfusionTable:
    """Token-level confusion counts from the gold and the predicted tag of
    every token, each given as its row in tags."""
    tags = tuple(tags)
    if len(set(tags)) != len(tags):
        raise ValueError("tagset contains duplicates")
    gold = np.asarray(gold, dtype=np.intp)
    pred = np.asarray(pred, dtype=np.intp)
    if gold.shape != pred.shape:
        raise ValueError(f"{len(gold)} gold tokens vs {len(pred)} predicted")
    n = len(tags)
    if len(gold) and (min(gold.min(), pred.min()) < 0 or max(gold.max(), pred.max()) >= n):
        raise ValueError(f"tag code outside the {n} tags")
    counts = np.bincount(gold * n + pred, minlength=n * n).astype(np.int64).reshape(n, n)
    return ConfusionTable(tags=tags, counts=counts)


def confusion(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]], tagset: Sequence[str]
) -> ConfusionTable:
    """Token-level confusion counts over sentence-aligned tag sequences."""
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    for s, (gs, ps) in enumerate(zip(gold, pred)):
        if len(gs) != len(ps):
            raise ValueError(f"sentence {s}: {len(gs)} gold tokens vs {len(ps)} predicted")
    ids = {t: i for i, t in enumerate(tagset)}
    try:
        codes = [np.fromiter(map(ids.__getitem__, chain.from_iterable(s)), np.intp) for s in (gold, pred)]
    except KeyError as exc:
        raise ValueError(f"tag {exc.args[0]!r} outside tagset") from None
    return confusion_codes(*codes, tagset)


def one_vs_rest(table: ConfusionTable, tag: str) -> Metrics:
    """P/R/F1 treating one tag as the positive class; accuracy is the
    table-wide token accuracy."""
    i = table.tag_id(tag)
    tp = float(table.counts[i, i])
    fp = float(table.counts[:, i].sum()) - tp
    fn = float(table.counts[i, :].sum()) - tp
    p = _ratio(tp, tp + fp)
    r = _ratio(tp, tp + fn)
    acc = _ratio(float(np.trace(table.counts)), float(table.total))
    return Metrics(precision=p, recall=r, f1=_f1(p, r), accuracy=acc)


def binary_metrics(table: ConfusionTable, positive: str) -> Metrics:
    if len(table.tags) != 2:
        raise ValueError("binary_metrics requires a 2-tag table")
    return one_vs_rest(table, positive)


def macro_metrics(table: ConfusionTable) -> Metrics:
    """Unweighted means of one-vs-rest P/R/F1 over tags that occur in gold
    or prediction (per_tag_metrics); tags absent from both are excluded."""
    return _macro_of(per_tag_metrics(table))


def _macro_of(per_tag: dict[str, Metrics]) -> Metrics:
    """macro_metrics of the table whose per_tag_metrics are per_tag."""
    per = list(per_tag.values())
    if not per:
        return Metrics(0.0, 0.0, 0.0, 0.0)
    return Metrics(
        precision=sum(m.precision for m in per) / len(per),
        recall=sum(m.recall for m in per) / len(per),
        f1=sum(m.f1 for m in per) / len(per),
        accuracy=per[0].accuracy,
    )


def per_tag_metrics(table: ConfusionTable) -> dict[str, Metrics]:
    return {
        t: one_vs_rest(table, t)
        for i, t in enumerate(table.tags)
        if table.counts[i, :].sum() > 0 or table.counts[:, i].sum() > 0
    }


def ezafe_f1_per_pos(
    gold_ezafe: np.ndarray,
    pred_ezafe: np.ndarray,
    gold_pos: np.ndarray,
    pos_names: Sequence[str],
) -> tuple[dict[str, float], float]:
    """Positive-class F1 of the ezafe flags inside each gold-POS bucket,
    plus the unweighted mean over reported buckets, from the gold and the
    predicted 0/1 flag and the gold POS (an index into pos_names) of every
    token. Buckets with no gold and no predicted positives are omitted."""
    gold_ezafe, pred_ezafe = np.asarray(gold_ezafe), np.asarray(pred_ezafe)
    gold_pos = np.asarray(gold_pos, dtype=np.intp)
    if not (gold_ezafe.shape == pred_ezafe.shape == gold_pos.shape):
        raise ValueError("token counts differ between inputs")
    gold, pred = gold_ezafe == 1, pred_ezafe == 1
    n = len(pos_names)
    tp, fp, fn = (
        np.bincount(gold_pos[m], minlength=n).tolist() for m in (gold & pred, ~gold & pred, gold & ~pred)
    )
    scores: dict[str, float] = {}
    for k, pos in enumerate(pos_names):
        if tp[k] + fp[k] + fn[k] == 0:
            continue
        p = _ratio(tp[k], tp[k] + fp[k])
        r = _ratio(tp[k], tp[k] + fn[k])
        scores[pos] = _f1(p, r)
    ordered = dict(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    mean = sum(ordered.values()) / len(ordered) if ordered else 0.0
    return ordered, mean


def delta_report(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    """Per-tag (after - before), sorted by descending change."""
    if set(before) != set(after):
        raise ValueError("before/after report different tag sets")
    deltas = {t: after[t] - before[t] for t in before}
    return dict(sorted(deltas.items(), key=lambda kv: (-kv[1], kv[0])))


@dataclass
class EvalReport:
    """One evaluation of one model on one corpus. kind is 'binary' for the
    positive-class view or 'macro' for the tag-averaged view."""

    kind: str
    headline: Metrics
    per_tag: dict[str, Metrics]
    table: ConfusionTable
    ezafe_per_pos: dict[str, float] | None = None
    ezafe_per_pos_mean: float | None = None
    header: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        r4 = lambda v: round(v, 4)
        return {
            "precision": r4(self.headline.precision),
            "recall": r4(self.headline.recall),
            "f1": r4(self.headline.f1),
            "accuracy": r4(self.headline.accuracy),
            "per_tag": {
                t: {"precision": r4(m.precision), "recall": r4(m.recall), "f1": r4(m.f1)}
                for t, m in self.per_tag.items()
            },
            "ezafe_f1_per_pos": (
                None
                if self.ezafe_per_pos is None
                else {t: r4(v) for t, v in self.ezafe_per_pos.items()}
            ),
            "macro_mean": None if self.ezafe_per_pos_mean is None else r4(self.ezafe_per_pos_mean),
            "config": dict(self.header),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"kind\t{self.kind}"]
        for k, v in self.header.items():
            lines.append(f"{k}\t{v}")
        lines.append("")
        m = self.headline
        lines.append(f"precision\t{m.precision:.4f}")
        lines.append(f"recall\t{m.recall:.4f}")
        lines.append(f"f1\t{m.f1:.4f}")
        lines.append(f"accuracy\t{m.accuracy:.4f}")
        lines.append("")
        lines.append("per_tag\tprecision\trecall\tf1")
        for t, pm in self.per_tag.items():
            lines.append(f"{t}\t{pm.precision:.4f}\t{pm.recall:.4f}\t{pm.f1:.4f}")
        if self.ezafe_per_pos is not None:
            lines.append("")
            lines.append("ezafe_f1_per_pos\tf1")
            for t, v in self.ezafe_per_pos.items():
                lines.append(f"{t}\t{v:.4f}")
            lines.append(f"macro_mean\t{self.ezafe_per_pos_mean:.4f}")
        return "\n".join(lines) + "\n"
