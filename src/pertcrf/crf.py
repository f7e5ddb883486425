"""Linear-chain CRF: packed-batch inference, elastic-net training via
orthant-wise quasi-Newton, Viterbi decoding, and a text model format.

The chain factorizes into per-position emission scores (sums of indexed
feature weights) and a single label-pair transition matrix shared across
positions. There are no start/stop parameters; boundary information rides
on the BOS/EOS features.

Layout. A corpus is encoded once into flat int32 arrays whose positions
are packed rows in time-major order: sentences are sorted by length,
longest first (a stable sort, so corpus order is kept among equal
lengths), and step t holds, contiguously, position t of every sentence
longer than t. Step t's rows are thus a prefix of step t-1's in sentence
order, so the recursions make one pass per step over a block with no
padding, and training and decoding share the layout.

Scaling. Training runs sum-product in the exp domain with per-step
normalisation (Rabiner 1989, section V.A): P = exp(em - row max),
E = exp(trans - max(trans)), alpha_t = (alpha_{t-1} @ E) * P_t divided by
its sum c_t, and beta_t = E @ (P_{t+1} beta_{t+1} / c_{t+1}), 1 at a
sentence's last row. Unary posteriors are alpha * beta, expected
transitions E * (alpha[prev]^T @ (P beta / c)[cur]), and
log Z = sum log c + sum row max + (positions - sentences) * max(trans).

Span bound. With span = max(trans) - min(trans), E lies in
[exp(-span), 1]. Each alpha_t sums to 1 and each P_t peaks at 1, so
c_t >= exp(-span) / L. The alpha-weighted mean of beta_t is 1 and two
rows of E differ by at most a factor exp(span), so beta <= exp(span) and
P beta / c <= L exp(2 span); each term alpha(i) (P beta / c)(j) of the
expected-transition product is a pairwise marginal over E_ij, so at most
exp(span), and their sum over N rows at most N exp(span). All of these
stay finite, and c far above the smallest normal
float, when 2 span + log L < log(largest float64) ~ 709.78: spans up to
~354 for L = 2. Wider spans raise TransitionSpanError instead of returning
NaN, and the optimizer's line search backtracks from them. Viterbi adds
log scores and has no such bound.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .features import FeatureIndex, FeatureTemplate, FeatureVector
from .optim import DomainError, minimize_owlqn

MODEL_MAGIC = "PERTCRF"
MODEL_VERSION = "v1"


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    l1: float = 0.1
    l2: float = 0.1
    max_iterations: int = 100
    tolerance: float = 1e-5

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l1, self.l2, self.tolerance)):
            raise ValueError("l1, l2 and tolerance must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization coefficients must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
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


class TransitionSpanError(DomainError):
    """Transition weights span too wide a range for the scaled recursion.
    Training backtracks from such trial points (optim.DomainError)."""


# Largest x with exp(x) finite in float64; bounds the span (module docstring).
_LOG_MAX = math.log(np.finfo(np.float64).max)


def decode(model: CrfModel, sentences: Iterable[Sequence[FeatureVector]]) -> list[list[str]]:
    """Viterbi labels of every sentence, each given as its feature vectors.
    sentences may be any iterable, a generator included; it is read once,
    encoded as it arrives, then decoded in one packed batch. Unknown
    feature strings score 0."""
    enc = _encode_features(sentences, model.feature_index)
    if len(enc.offsets) == 1:
        return []
    paths, _ = _viterbi(_emissions(enc, model.emission), model.transition, enc.steps)
    tags = [model.labels[i] for i in paths[enc.row].tolist()]
    bounds = enc.offsets.tolist()
    return [tags[start:end] for start, end in zip(bounds, bounds[1:])]


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
    ids = {lab: i for i, lab in enumerate(model.labels)}
    encoded, labels = _encode(batch, model.feature_index, ids)
    x = np.concatenate([model.emission.ravel(), model.transition.ravel()])
    nll, grad = _Objective(encoded, labels, F, L, l2)(x)
    return nll, (grad[: F * L].reshape(F, L), grad[F * L :].reshape(L, L))


# ---------------------------------------------------------------------------
# A corpus encoded once into flat int32 arrays over the packed layout (see
# the module docstring). Training and decoding share the encoding, the
# layout and the emission kernel.


@dataclass(frozen=True)
class _Encoded:
    feat: np.ndarray  # int32 indexed feature ids of every position, in corpus order
    tok: np.ndarray  # int32 packed row of the position that each entry of feat belongs to
    offsets: np.ndarray  # int32 (S+1,) sentence starts in corpus order, then the position count
    steps: np.ndarray  # (T+1,) first packed row of each step, then the position count
    row: np.ndarray  # int32 packed row of each position, in corpus order


def _layout(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed layout of sentences with the given corpus offsets: (steps,
    row). Sentences rank by length, longest first, in corpus order among
    equal lengths; step t holds position t of each sentence longer than t,
    in rank order, at rows steps[t] .. steps[t+1]-1."""
    lengths = np.diff(offsets)
    S = len(lengths)
    rank = np.empty(S, dtype=np.intp)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(S)
    alive = S - np.cumsum(np.bincount(lengths))[:-1]  # sentences longer than t
    steps = np.concatenate([[0], np.cumsum(alive)])
    sentence = np.repeat(np.arange(S), lengths)
    t = np.arange(len(sentence)) - offsets[:-1][sentence]
    return steps, (steps[t] + rank[sentence]).astype(np.intc)


def _encode_features(sentences: Iterable[Sequence[FeatureVector]], index: FeatureIndex) -> _Encoded:
    """Encode sentences, each given as its feature vectors, as they arrive,
    so that the feature strings of a whole corpus never need to exist at
    once. Keys missing from the index are dropped."""
    feat, counts, offsets = array("i"), array("i"), array("i", [0])
    for i, features in enumerate(sentences):
        if not features:
            raise ValueError(f"sentence {i}: no positions")
        feat.extend(index.encode(features))
        counts.extend([len(keys) for keys in features])
        offsets.append(len(counts))
    ids = np.frombuffer(feat, dtype=np.intc)
    offsets = np.frombuffer(offsets, dtype=np.intc)
    steps, row = _layout(offsets)
    tok = np.repeat(row, np.frombuffer(counts, dtype=np.intc))
    known = ids >= 0
    return _Encoded(feat=ids[known], tok=tok[known], offsets=offsets, steps=steps, row=row)


def _encode(
    data: Iterable[tuple[Sequence[FeatureVector], Sequence[str]]],
    index: FeatureIndex,
    ids: dict[str, int],
) -> tuple[_Encoded, np.ndarray]:
    """Encode (features, labels) pairs as they arrive; returns the encoded
    features and the int32 gold label id of every position, in corpus
    order."""
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
    """(positions, L) emission scores in packed rows: each position's
    indexed feature weights, summed in the order its features were given.
    Each label's gather reads one column of w_e, in whatever memory order
    w_e has; nothing is copied."""
    n = int(encoded.offsets[-1])
    em = np.empty((n, w_e.shape[1]))
    for lab, w in enumerate(w_e.T):
        em[:, lab] = np.bincount(encoded.tok, weights=w[encoded.feat], minlength=n)
    return em


def _sum_product(
    P: np.ndarray, E: np.ndarray, steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward and backward messages over a packed batch, from
    exp-domain emissions P (N, L) and transitions E (L, L). Returns
    (alpha, beta, c): each row of alpha sums to 1 after division by its
    normaliser c, beta is 1 on each sentence's last row, and alpha * beta
    are the unary posteriors."""
    bounds = steps.tolist()
    alpha = np.empty_like(P)
    c = np.empty(len(P))
    for t in range(len(bounds) - 1):
        a, b = bounds[t], bounds[t + 1]
        if t == 0:
            alpha[a:b] = P[a:b]
        else:
            prev = bounds[t - 1]
            np.matmul(alpha[prev : prev + b - a], E, out=alpha[a:b])
            alpha[a:b] *= P[a:b]
        c[a:b] = alpha[a:b].sum(axis=1)
        alpha[a:b] /= c[a:b, None]
    beta = np.ones_like(P)
    for t in range(len(bounds) - 2, 0, -1):
        a, b = bounds[t], bounds[t + 1]
        prev = bounds[t - 1]
        right = P[a:b] * beta[a:b]
        right /= c[a:b, None]
        np.matmul(right, E.T, out=beta[prev : prev + b - a])
    return alpha, beta, c


def _viterbi(em: np.ndarray, trans: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-product over a packed batch of log-domain emissions em (N, L).
    Returns the best label of every packed row and the best score of every
    sentence, in rank order. argmax takes the first maximum, so ties break
    toward the lower label index."""
    bounds = steps.tolist()
    L = em.shape[1]
    S = bounds[1]
    back = np.empty(em.shape, dtype=np.min_scalar_type(L - 1))
    deltas = np.empty_like(em)
    deltas[:S] = em[:S]
    for t in range(1, len(bounds) - 1):
        a, b = bounds[t], bounds[t + 1]
        prev = bounds[t - 1]
        scores = deltas[prev : prev + b - a, :, None] + trans
        back[a:b] = scores.argmax(axis=1)
        deltas[a:b] = scores.max(axis=1) + em[a:b]
    # Sentences ending at step t hold the last rows of its block, so the
    # ranks end, in ascending order, at steps T-1 down to 0.
    sizes = np.diff(steps)
    ending = sizes - np.append(sizes[1:], 0)
    last_step = np.repeat(np.arange(len(sizes))[::-1], ending[::-1])
    ranks = np.arange(S)
    end = deltas[steps[last_step] + ranks]
    y = end.argmax(axis=1).astype(back.dtype)
    paths = np.empty(len(em), dtype=back.dtype)
    for t in range(len(bounds) - 2, 0, -1):
        a, b = bounds[t], bounds[t + 1]
        n = b - a
        paths[a:b] = y[:n]
        y[:n] = back[a:b][ranks[:n], y[:n]]
    paths[:S] = y
    return paths, end.max(axis=1)


class _Objective:
    """Smooth part of the training objective (NLL + ridge) as a flat-vector
    function for the optimizer. One evaluation makes a fixed number of
    numpy passes: emissions for every position, scaled forward-backward
    over the packed layout, one product for the expected transitions and
    one scatter of expected emission counts. Accumulation order is fixed,
    so results are bit-reproducible for a fixed corpus."""

    def __init__(
        self, encoded: _Encoded, labels: np.ndarray, n_features: int, n_labels: int, l2: float
    ):
        self.encoded = encoded
        self.F = n_features
        self.L = n_labels
        self.l2 = l2
        # Rows of step 0 start the sentences; every later row pairs with the
        # row its sentence holds one step earlier.
        sizes = np.diff(encoded.steps)
        self.S = int(sizes[0]) if len(sizes) else 0
        self._prev = np.arange(self.S, int(encoded.steps[-1])) - np.repeat(sizes[:-1], sizes[1:])
        # Empirical counts never change, and the gold path score is their
        # dot product with the weights.
        L, y = n_labels, labels
        chained = np.ones(max(len(y) - 1, 0), dtype=bool)  # t and t+1 in one sentence
        chained[encoded.offsets[1:-1] - 1] = False
        y_row = np.empty_like(y)
        y_row[encoded.row] = y
        emp_e = np.bincount(encoded.feat * np.int64(L) + y_row[encoded.tok], minlength=n_features * L)
        emp_t = np.bincount(y[:-1][chained] * L + y[1:][chained], minlength=L * L)
        self._emp = np.concatenate([emp_e, emp_t]).astype(np.float64)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        enc, L, S = self.encoded, self.L, self.S
        split = self.F * L
        w_e = x[:split].reshape(self.F, L)
        w_t = x[split:].reshape(L, L)
        top = float(w_t.max())
        span = top - float(w_t.min())
        if 2.0 * span + math.log(L) >= _LOG_MAX:
            raise TransitionSpanError(
                f"transition weights span {span:.6g}, above the {(_LOG_MAX - math.log(L)) / 2:.6g} "
                f"that the scaled recursion keeps finite for {L} labels"
            )
        E = np.exp(w_t - top)
        # A column-major copy, so that each label's gather reads contiguous
        # memory; the gradient below is O(F L) anyway.
        P = _emissions(enc, np.asfortranarray(w_e))
        shift = P.max(axis=1)
        P -= shift[:, None]
        np.exp(P, out=P)
        alpha, beta, c = _sum_product(P, E, enc.steps)
        log_z = float(np.log(c).sum()) + float(shift.sum()) + (len(P) - S) * top
        right = P[S:]  # becomes P beta / c, the pairwise factor of each later row
        right *= beta[S:]
        right /= c[S:, None]
        exp_t = E * (alpha[self._prev].T @ right)
        alpha *= beta  # unary posteriors

        grad = np.empty_like(x)
        exp_e = grad[:split].reshape(self.F, L)
        for lab, unary in enumerate(np.ascontiguousarray(alpha.T)):
            exp_e[:, lab] = np.bincount(enc.feat, weights=unary[enc.tok], minlength=self.F)
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
    non-finite. Trial steps whose transition weights lie too far apart for
    the scaled recursion are backtracked from, never accepted.

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
