"""Linear-chain CRF: lattice scoring, exact log-space inference, elastic-net
training via orthant-wise quasi-Newton, Viterbi decoding, and a text model
format.

The chain factorizes into per-position emission scores (sums of indexed
feature weights) and a single label-pair transition matrix shared across
positions. There are no start/stop parameters; boundary information rides
on the BOS/EOS features.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .features import FeatureIndex, FeatureTemplate, FeatureVector
from .optim import minimize_owlqn

MODEL_MAGIC = "PERTCRF"
MODEL_VERSION = "v1"


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    l1: float = 0.1
    l2: float = 0.1
    max_iterations: int = 100
    memory: int = 10
    tolerance: float = 1e-5

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l1, self.l2, self.tolerance)):
            raise ValueError("l1, l2 and tolerance must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization coefficients must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.memory < 1:
            raise ValueError("memory must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class CrfModel:
    labels: tuple[str, ...]
    feature_index: FeatureIndex
    emission: np.ndarray  # (F, L)
    transition: np.ndarray  # (L, L)
    template: FeatureTemplate

    def __post_init__(self):
        L = len(self.labels)
        if L == 0 or len(set(self.labels)) != L:
            raise ValueError("labels must be non-empty and distinct")
        if self.emission.shape != (len(self.feature_index), L):
            raise ValueError(
                f"emission weights shape {self.emission.shape} != "
                f"({len(self.feature_index)}, {L})"
            )
        if self.transition.shape != (L, L):
            raise ValueError(f"transition weights shape {self.transition.shape} != ({L}, {L})")
        if not (np.all(np.isfinite(self.emission)) and np.all(np.isfinite(self.transition))):
            raise ValueError("weights must be finite")
        self.emission.flags.writeable = False
        self.transition.flags.writeable = False

    def label_ids(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}


@dataclass(frozen=True)
class Lattice:
    log_emission: np.ndarray  # (T, L)
    log_transition: np.ndarray  # (L, L)

    def __post_init__(self):
        if self.log_emission.ndim != 2 or self.log_emission.shape[0] < 1:
            raise ValueError("log_emission must be (T, L) with T >= 1")
        L = self.log_emission.shape[1]
        if self.log_transition.shape != (L, L):
            raise ValueError("log_transition must be (L, L)")


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """Max-shifted log(sum(exp(a))), stable for large magnitudes."""
    a = np.asarray(a, dtype=np.float64)
    if axis is None:
        m = float(a.max())
        return m + float(np.log(np.exp(a - m).sum()))
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)), axis=axis)


def score_lattice(model: CrfModel, features: Sequence[FeatureVector]) -> Lattice:
    """Emission scores from active indexed features; unknown strings score 0."""
    em = _emissions(_encode_features([features], model.feature_index), model.emission)
    return Lattice(log_emission=em, log_transition=model.transition)


def _forward(em: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """Log-space forward recursion over a (B, T, L) batch of right-padded
    lattices. A row's alphas are exact up to its own last position; past it
    they are finite values that callers must mask."""
    alphas = np.empty_like(em)
    alphas[:, 0] = em[:, 0]
    for t in range(1, em.shape[1]):
        scores = alphas[:, t - 1, :, None] + trans
        m = scores.max(axis=1)
        alphas[:, t] = em[:, t] + m + np.log(np.exp(scores - m[:, None, :]).sum(axis=1))
    return alphas


def _backward(em: np.ndarray, trans: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Log-space backward recursion over a (B, T, L) batch; last holds each
    row's final position, where beta restarts at 0. Past it betas are
    finite values that callers must mask."""
    T = em.shape[1]
    betas = np.empty_like(em)
    betas[:, T - 1] = 0.0
    for t in range(T - 2, -1, -1):
        scores = trans + (em[:, t + 1] + betas[:, t + 1])[:, None, :]
        m = scores.max(axis=2)
        step = m + np.log(np.exp(scores - m[:, :, None]).sum(axis=2))
        betas[:, t] = np.where((last == t)[:, None], 0.0, step)
    return betas


def _marginals(
    em: np.ndarray,
    trans: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    log_z: np.ndarray,
    valid: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unary (B, T, L) and pairwise (B, T-1, L, L) posteriors of a batch,
    with log_z per row and valid (B, T) marking real positions. Padded
    cells are set to -inf before exponentiation, so they come out 0 however
    large their unmasked values are."""
    lz = log_z[:, None, None]
    unary = np.exp(np.where(valid[:, :, None], alphas + betas - lz, -np.inf))
    pair = (
        alphas[:, :-1, :, None]
        + trans
        + (em[:, 1:] + betas[:, 1:])[:, :, None, :]
        - lz[:, :, :, None]
    )
    pairwise = np.exp(np.where(valid[:, 1:, None, None], pair, -np.inf))
    return unary, pairwise


def _viterbi(em: np.ndarray, trans: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best paths (B, T) and their scores (B,) over a (B, T, L) batch of
    right-padded lattices; last holds each row's final position, where its
    backtrace starts. argmax takes the first maximum, so ties break toward
    the lower label index. Past its last position a row's path repeats the
    label it ends on."""
    B, T, L = em.shape
    rows = np.arange(B)
    back = np.empty((T, B, L), dtype=np.min_scalar_type(L - 1))
    deltas = np.empty_like(em)
    deltas[:, 0] = em[:, 0]
    for t in range(1, T):
        scores = deltas[:, t - 1, :, None] + trans
        back[t] = scores.argmax(axis=1)
        deltas[:, t] = scores.max(axis=1) + em[:, t]
    end = deltas[rows, last]
    y = end.argmax(axis=1).astype(back.dtype)
    paths = np.empty((B, T), dtype=back.dtype)
    for t in range(T - 1, 0, -1):
        paths[:, t] = y
        y = np.where(t <= last, back[t, rows, y], y)
    paths[:, 0] = y
    return paths, end.max(axis=1)


def forward(lattice: Lattice) -> tuple[np.ndarray, float]:
    """Forward recursion in log space; returns (alphas, log_Z)."""
    alphas = _forward(lattice.log_emission[None], lattice.log_transition)[0]
    return alphas, float(logsumexp(alphas[-1]))


def backward(lattice: Lattice) -> tuple[np.ndarray, float]:
    """Backward recursion; log_Z from this direction must agree with
    forward's."""
    em = lattice.log_emission
    last = np.array([em.shape[0] - 1])
    betas = _backward(em[None], lattice.log_transition, last)[0]
    return betas, float(logsumexp(em[0] + betas[0]))


def marginals(
    lattice: Lattice, alphas: np.ndarray, betas: np.ndarray, log_z: float
) -> tuple[np.ndarray, np.ndarray]:
    """Unary (T, L) and pairwise (T-1, L, L) posterior marginals."""
    em = lattice.log_emission
    unary, pairwise = _marginals(
        em[None],
        lattice.log_transition,
        alphas[None],
        betas[None],
        np.array([log_z]),
        np.ones((1, em.shape[0]), dtype=bool),
    )
    return unary[0], pairwise[0]


def decode_lattice(lattice: Lattice) -> tuple[list[int], float]:
    """Viterbi over a scored lattice; ties break toward the lower label
    index at every backtrace decision."""
    em = lattice.log_emission
    paths, scores = _viterbi(em[None], lattice.log_transition, np.array([em.shape[0] - 1]))
    return paths[0].tolist(), float(scores[0])


def viterbi(model: CrfModel, features: Sequence[FeatureVector]) -> tuple[list[str], float]:
    path, score = decode_lattice(score_lattice(model, features))
    return [model.labels[i] for i in path], score


def decode(model: CrfModel, sentences: Iterable[Sequence[FeatureVector]]) -> list[list[str]]:
    """Viterbi labels of every sentence, each given as its feature vectors.
    sentences may be any iterable, a generator included; it is read once
    and encoded as it arrives, then decoded in batches of similar length.
    Each result equals viterbi(model, features)[0]."""
    enc = _encode_features(sentences, model.feature_index)
    em = _emissions(enc, model.emission)
    best = np.empty(len(em), dtype=np.min_scalar_type(len(model.labels) - 1))
    for b in _buckets(enc.offsets):
        paths, _ = _viterbi(em[b.pos], model.transition, b.last)
        best[b.flat] = paths[b.valid]
    tags = [model.labels[i] for i in best.tolist()]
    bounds = enc.offsets.tolist()
    return [tags[start:end] for start, end in zip(bounds, bounds[1:])]


def gold_path_score(lattice: Lattice, label_ids: Sequence[int]) -> float:
    em = lattice.log_emission
    y = np.asarray(label_ids, dtype=np.int64)
    score = float(em[np.arange(len(y)), y].sum())
    if len(y) > 1:
        score += float(lattice.log_transition[y[:-1], y[1:]].sum())
    return score


def nll_and_gradient(
    model: CrfModel,
    batch: Iterable[tuple[Sequence[FeatureVector], Sequence[str]]],
    l2: float = 0.0,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Negative log-likelihood of the batch plus an optional ridge term,
    with its gradient (expected minus empirical feature counts, plus l2*w).
    This is the objective that training minimizes.

    The L1 penalty is deliberately absent: it is non-smooth and belongs to
    the optimizer, not the gradient.
    """
    F, L = model.emission.shape
    encoded, labels = _encode(batch, model.feature_index, model.label_ids())
    x = np.concatenate([model.emission.ravel(), model.transition.ravel()])
    nll, grad = _Objective(encoded, labels, F, L, l2)(x)
    return nll, (grad[: F * L].reshape(F, L), grad[F * L :].reshape(L, L))


# ---------------------------------------------------------------------------
# A corpus encoded once into flat int32 arrays, with inference batched over
# sentences of similar length. Training and decoding share the encoding,
# the emission kernel and the bucketing.


@dataclass(frozen=True)
class _Encoded:
    feat: np.ndarray  # int32 indexed feature ids of every position, in order
    tok: np.ndarray  # int32 position that each entry of feat belongs to
    offsets: np.ndarray  # int32 (S+1,) sentence starts, then the position count


def _encode_features(sentences: Iterable[Sequence[FeatureVector]], index: FeatureIndex) -> _Encoded:
    """Encode sentences, each given as its feature vectors, as they arrive,
    so that the feature strings of a whole corpus never need to exist at
    once."""
    feat, counts, offsets = array("i"), array("i"), array("i", [0])
    for i, features in enumerate(sentences):
        if not features:
            raise ValueError(f"sentence {i}: no positions")
        for keys in features:
            idx = index.encode(keys)
            feat.extend(idx)
            counts.append(len(idx))
        offsets.append(len(counts))
    return _Encoded(
        feat=np.frombuffer(feat, dtype=np.intc),
        tok=np.repeat(np.arange(len(counts), dtype=np.intc), np.frombuffer(counts, dtype=np.intc)),
        offsets=np.frombuffer(offsets, dtype=np.intc),
    )


def _encode(
    data: Iterable[tuple[Sequence[FeatureVector], Sequence[str]]],
    index: FeatureIndex,
    ids: dict[str, int],
) -> tuple[_Encoded, np.ndarray]:
    """Encode (features, labels) pairs as they arrive; returns the encoded
    features and the int32 gold label id of every position."""
    labels = array("i")

    def checked() -> Iterator[Sequence[FeatureVector]]:
        for i, (features, gold) in enumerate(data):
            if len(features) != len(gold):
                raise ValueError(f"sentence {i}: {len(features)} positions, {len(gold)} labels")
            try:
                labels.extend([ids[g] for g in gold])
            except KeyError as exc:
                raise ValueError(f"gold label {exc.args[0]!r} not in model labels") from None
            yield features

    encoded = _encode_features(checked(), index)
    return encoded, np.frombuffer(labels, dtype=np.intc)


def _emissions(encoded: _Encoded, w_e: np.ndarray) -> np.ndarray:
    """(positions, L) emission scores: each position's indexed feature
    weights, summed in the order its features were given."""
    n = int(encoded.offsets[-1])
    em = np.empty((n, w_e.shape[1]))
    for lab in range(w_e.shape[1]):
        em[:, lab] = np.bincount(encoded.tok, weights=w_e[encoded.feat, lab], minlength=n)
    return em


@dataclass(frozen=True)
class _Bucket:
    pos: np.ndarray  # (B, T) position of each cell; padding repeats the row's last
    valid: np.ndarray  # (B, T) bool, True at real positions
    last: np.ndarray  # (B,) index of each row's final position
    flat: np.ndarray  # pos[valid]: the positions the valid cells hold, in cell order


def _buckets(offsets: np.ndarray) -> list[_Bucket]:
    """Group sentences into length classes [2^k, 2^(k+1)), so padding
    stays under 2x with at most log2(max length) + 1 buckets. Classes come
    in ascending order and keep corpus order inside, so the accumulation
    order, and with it every result, is fixed by the corpus."""
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    length_class = np.frexp(lengths)[1]
    out = []
    for c in np.flatnonzero(np.bincount(length_class)):
        rows = np.flatnonzero(length_class == c)
        lens = lengths[rows]
        steps = np.arange(lens.max())
        valid = steps < lens[:, None]
        pos = starts[rows, None] + np.minimum(steps, lens[:, None] - 1)
        out.append(_Bucket(pos=pos, valid=valid, last=lens - 1, flat=pos[valid]))
    return out


class _Objective:
    """Smooth part of the training objective (NLL + ridge) as a flat-vector
    function for the optimizer. One evaluation makes a fixed number of
    numpy passes: emissions for every position, batched forward-backward
    per length bucket, and one scatter of expected counts. Accumulation
    order is fixed, so results are bit-reproducible for a fixed corpus."""

    def __init__(
        self, encoded: _Encoded, labels: np.ndarray, n_features: int, n_labels: int, l2: float
    ):
        self.encoded = encoded
        self.F = n_features
        self.L = n_labels
        self.l2 = l2
        self.buckets = _buckets(encoded.offsets)
        # Empirical counts never change, and the gold path score is their
        # dot product with the weights.
        L, y = n_labels, labels
        chained = np.ones(max(len(y) - 1, 0), dtype=bool)  # t and t+1 in one sentence
        chained[encoded.offsets[1:-1] - 1] = False
        emp_e = np.bincount(encoded.feat * np.int64(L) + y[encoded.tok], minlength=n_features * L)
        emp_t = np.bincount(y[:-1][chained] * L + y[1:][chained], minlength=L * L)
        self._emp = np.concatenate([emp_e, emp_t]).astype(np.float64)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        enc, L = self.encoded, self.L
        split = self.F * L
        w_e = x[:split].reshape(self.F, L)
        w_t = x[split:].reshape(L, L)
        em = _emissions(enc, w_e)

        log_z = 0.0
        unary = np.empty((L, len(em)))  # label-major, so each label's scatter reads a row
        exp_t = np.zeros((L, L))
        for b in self.buckets:
            e = em[b.pos]
            alphas = _forward(e, w_t)
            betas = _backward(e, w_t, b.last)
            lz = logsumexp(alphas[np.arange(len(b.last)), b.last], axis=1)
            u, pairwise = _marginals(e, w_t, alphas, betas, lz, b.valid)
            unary[:, b.flat] = u[b.valid].T
            exp_t += pairwise.sum(axis=(0, 1))
            log_z += float(lz.sum())

        grad = np.empty_like(x)
        exp_e = grad[:split].reshape(self.F, L)
        for lab in range(L):
            exp_e[:, lab] = np.bincount(enc.feat, weights=unary[lab][enc.tok], minlength=self.F)
        grad[split:] = exp_t.ravel()
        grad -= self._emp
        nll = log_z - float(np.dot(self._emp, x))
        if self.l2 > 0.0:
            nll += 0.5 * self.l2 * float(np.dot(x, x))
            grad += self.l2 * x
        return nll, grad


def train(
    train_data: Iterable[tuple[Sequence[FeatureVector], Sequence[str]]],
    feature_index: FeatureIndex,
    labels: Sequence[str],
    template: FeatureTemplate,
    config: TrainConfig = TrainConfig(),
    on_iteration: Callable[[int, float, CrfModel], None] | None = None,
) -> CrfModel:
    """Fit weights by minimizing NLL + l1*|w| + (l2/2)*w^2 from a zero
    start. train_data may be any iterable, a generator included; it is
    read once. Raises optim.DivergenceError if the objective turns
    non-finite.

    on_iteration(iteration, objective, model) fires after every accepted
    optimizer step with a read-only view of the current weights; copy them
    if you want a snapshot.
    """
    labels = tuple(labels)
    ids = {lab: i for i, lab in enumerate(labels)}
    if len(ids) != len(labels):
        raise ValueError("labels must be distinct")
    encoded, gold = _encode(train_data, feature_index, ids)
    if len(encoded.offsets) == 1:
        raise ValueError("training data is empty")
    F, L = len(feature_index), len(labels)
    objective = _Objective(encoded, gold, F, L, config.l2)

    def _view(x: np.ndarray) -> CrfModel:
        return CrfModel(
            labels=labels,
            feature_index=feature_index,
            emission=x[: F * L].reshape(F, L),
            transition=x[F * L :].reshape(L, L),
            template=template,
        )

    callback = None
    if on_iteration is not None:
        callback = lambda it, obj, x: on_iteration(it, obj, _view(x))

    result = minimize_owlqn(
        objective,
        np.zeros(F * L + L * L),
        l1=config.l1,
        max_iterations=config.max_iterations,
        memory=config.memory,
        tolerance=config.tolerance,
        callback=callback,
    )
    return CrfModel(
        labels=labels,
        feature_index=feature_index,
        emission=result.x[: F * L].reshape(F, L).copy(),
        transition=result.x[F * L :].reshape(L, L).copy(),
        template=template,
    )


# ---------------------------------------------------------------------------
# Model persistence. Text format:
#   line 1: PERTCRF v1 <template-token> <L> <F>
#   line 2: tab-separated labels
#   F lines: F<TAB><feature-string><TAB><w per label ...>
#   L lines: T<TAB><from-label><TAB><w per to-label ...>
# Weights are rendered as the shortest decimal string that round-trips.


def save_model(model: CrfModel) -> str:
    L = len(model.labels)
    F = len(model.feature_index)
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION} {model.template.token} {L} {F}",
        "\t".join(model.labels),
    ]
    for key, row in zip(model.feature_index.keys(), model.emission.tolist()):
        lines.append("F\t" + key + "\t" + "\t".join(map(repr, row)))
    for lab, row in zip(model.labels, model.transition.tolist()):
        lines.append("T\t" + lab + "\t" + "\t".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def load_model(text: str) -> CrfModel:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ModelFormatError("empty model file")
    header = lines[0].split(" ")
    if len(header) != 5 or header[0] != MODEL_MAGIC:
        raise ModelFormatError("not a model file (bad header)")
    if header[1] != MODEL_VERSION:
        raise ModelFormatError(f"unsupported version {header[1]!r}")
    try:
        template = FeatureTemplate.from_token(header[2])
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    try:
        L, F = int(header[3]), int(header[4])
    except ValueError:
        raise ModelFormatError("malformed header counts") from None
    if len(lines) != 2 + F + L:
        raise ModelFormatError(f"truncated model file: expected {2 + F + L} lines, got {len(lines)}")
    labels = tuple(lines[1].split("\t"))
    if len(labels) != L:
        raise ModelFormatError(f"expected {L} labels, got {len(labels)}")

    def _row(line: str, lineno: int, kind: str) -> tuple[str, np.ndarray]:
        cols = line.split("\t")
        if len(cols) != 2 + L or cols[0] != kind:
            raise ModelFormatError(f"line {lineno}: malformed {kind} row")
        try:
            return cols[1], np.array([float(c) for c in cols[2:]])
        except ValueError:
            raise ModelFormatError(f"line {lineno}: bad weight value") from None

    feature_keys = []
    emission = np.zeros((F, L))
    for i in range(F):
        key, row = _row(lines[2 + i], 3 + i, "F")
        feature_keys.append(key)
        emission[i] = row
    transition = np.zeros((L, L))
    for i in range(L):
        lab, row = _row(lines[2 + F + i], 3 + F + i, "T")
        if lab != labels[i]:
            raise ModelFormatError(f"transition row {i} names {lab!r}, expected {labels[i]!r}")
        transition[i] = row
    try:
        index = FeatureIndex(feature_keys)
        return CrfModel(
            labels=labels,
            feature_index=index,
            emission=emission,
            transition=transition,
            template=template,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def save_model_file(model: CrfModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(save_model(model))


def load_model_file(path: str) -> CrfModel:
    with open(path, encoding="utf-8") as f:
        return load_model(f.read())
