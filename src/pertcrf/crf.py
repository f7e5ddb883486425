"""Linear-chain CRF: packed-batch inference, elastic-net training via
orthant-wise quasi-Newton, Viterbi decoding, and a text model format.

The chain factorizes into per-position emission scores (sums of indexed
feature weights) and a single label-pair transition matrix shared across
positions. There are no start/stop parameters; boundary information rides
on the BOS/EOS features.

Layout. A corpus arrives encoded by features (features.Encoded: a (K, N)
int32 matrix holding the feature id of each of K slots at each of N
positions, with the sentinel F where a slot has no indexed key, and the
sentence offsets), and its positions become packed rows in time-major
order: sentences are sorted by length, longest first (a stable sort, so
corpus order is kept among equal lengths), and step t holds, contiguously,
position t of every sentence longer than t. Step t's rows are thus a
prefix of step t-1's in sentence order, so the recursions make one pass
per step over a block with no padding, and training and decoding share
the layout. The id matrix stays in corpus order: emissions gather it by
each packed row's corpus position, and the expected counts scatter over
it from posteriors put back in corpus order.

Weights. Emission kernels read an (F+1, L) weight matrix whose last row
is zero, so the sentinel adds nothing. A CrfModel owns one, and its
emission weights are the first F rows; training builds one per objective
evaluation.

Parameters. Training fits only the (feature, label) pairs seen in the
training data, as CRFsuite does by default (feature.possible_states=0),
plus the L * L transitions: the optimizer's vector holds those pair
weights in ascending cell order (f * L + label), then the transitions,
and every other emission weight stays exactly 0.0. Models and their files
still hold every one of the F * L emission cells.

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
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import non_unix_line
from .features import Encoded, FeatureIndex, FeatureTemplate
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
    min_count: int = 1  # features.index_and_encode keeps the keys seen this often

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l1, self.l2, self.tolerance)):
            raise ValueError("l1, l2 and tolerance must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization coefficients must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.min_count < 1:
            raise ValueError("min_count must be positive")


@dataclass(frozen=True)
class CrfModel:
    """A trained tagger. The model owns an (F+1, L) float64 weight matrix
    whose last row is zero (see Weights in the module docstring), and
    emission is a read-only view of its first F rows. An emission given as
    the first F rows of such a matrix is taken as it is; any other is
    copied into a new one."""

    labels: tuple[str, ...]
    feature_index: FeatureIndex
    emission: np.ndarray  # (F, L)
    transition: np.ndarray  # (L, L)
    template: FeatureTemplate
    _weights: np.ndarray = field(init=False, repr=False, compare=False)  # (F+1, L)

    def __post_init__(self):
        L = len(self.labels)
        if L == 0 or len(set(self.labels)) != L:
            raise ValueError("labels must be non-empty and distinct")
        F = len(self.feature_index)
        if self.emission.shape != (F, L):
            raise ValueError(f"emission weights shape {self.emission.shape} != ({F}, {L})")
        if self.transition.shape != (L, L):
            raise ValueError(f"transition weights shape {self.transition.shape} != ({L}, {L})")
        weights = self.emission.base
        if not _pads(weights, self.emission):
            weights = _padded(self.emission)
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(self.transition))):
            raise ValueError("weights must be finite")
        weights.flags.writeable = False
        self.transition.flags.writeable = False
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "emission", weights[:F])


def _padded(w_e: np.ndarray) -> np.ndarray:
    """A new (F+1, L) float64 matrix: the (F, L) w_e, then a zero row."""
    weights = np.zeros((len(w_e) + 1, w_e.shape[1]))
    weights[:-1] = w_e
    return weights


def _pads(weights, w_e: np.ndarray) -> bool:
    """Whether w_e is the first F rows of weights, an (F+1, L) float64
    C-contiguous matrix whose last row is zero."""
    return (
        isinstance(weights, np.ndarray)
        and weights.dtype == np.float64
        and weights.flags.c_contiguous
        and weights.shape == (len(w_e) + 1, w_e.shape[1])
        and w_e.ctypes.data == weights.ctypes.data
        and w_e.strides == weights.strides
        and not weights[-1].any()
    )


class TransitionSpanError(DomainError):
    """Transition weights span too wide a range for the scaled recursion.
    Training backtracks from such trial points (optim.DomainError)."""


# Largest x with exp(x) finite in float64; bounds the span (module docstring).
_LOG_MAX = math.log(np.finfo(np.float64).max)


def decode(model: CrfModel, encoded: Encoded) -> np.ndarray:
    """The Viterbi label id (an index into model.labels) of every position
    of encoded (see features.encode), in corpus order, as intp, decoded in
    one packed batch."""
    if len(encoded.offsets) == 1:
        return np.empty(0, dtype=np.intp)
    packed = _pack(encoded)
    paths, _ = _viterbi(_emissions(packed, model._weights), model.transition, packed.steps)
    return paths.astype(np.intp)[packed.row]


def nll_and_gradient(
    model: CrfModel,
    encoded: Encoded,
    gold: np.ndarray,
    l2: float = 0.0,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Negative log-likelihood of the encoded sentences with their gold
    label ids (indices into model.labels, one per position in corpus
    order), plus an optional ridge term, with its gradient (expected minus
    empirical feature counts, plus l2*w), over every emission cell.
    Training minimizes the same objective over the cells seen with their
    gold label, holding the others at 0.0.

    The L1 penalty is deliberately absent: it is non-smooth and belongs to
    the optimizer, not the gradient.
    """
    F, L = model.emission.shape
    packed, labels = _pack(encoded), _checked_gold(encoded, gold, L)
    x = np.concatenate([model.emission.ravel(), model.transition.ravel()])
    objective = _Objective(packed, labels, F, L, l2, cells=np.arange(F * L))
    nll, grad = objective(x)
    return nll, (grad[: F * L].reshape(F, L), grad[F * L :].reshape(L, L))


# ---------------------------------------------------------------------------
# The encoded corpus over the packed layout (see the module docstring).
# Training and decoding share the layout and the emission kernel.


@dataclass(frozen=True)
class _Packed:
    ids: np.ndarray  # (K, N) int32 feature id of each slot at each position, in corpus order
    offsets: np.ndarray  # int32 (S+1,) sentence starts in corpus order, then the position count
    steps: np.ndarray  # (T+1,) first packed row of each step, then the position count
    row: np.ndarray  # int32 packed row of each position, in corpus order
    order: np.ndarray  # int32 corpus position of each packed row


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


def _pack(encoded: Encoded) -> _Packed:
    steps, row = _layout(encoded.offsets)
    order = np.empty_like(row)
    order[row] = np.arange(len(row), dtype=row.dtype)
    return _Packed(ids=encoded.ids, offsets=encoded.offsets, steps=steps, row=row, order=order)


def _checked_gold(encoded: Encoded, gold: np.ndarray, n_labels: int) -> np.ndarray:
    """gold as intc, checked to hold one label id below n_labels per
    position."""
    gold = np.asarray(gold)
    n = int(encoded.offsets[-1])
    if gold.shape != (n,):
        raise ValueError(f"gold label ids of shape {gold.shape} for {n} positions")
    if gold.dtype.kind not in "iu" and gold.size:
        raise ValueError(f"gold label ids must be integers, got {gold.dtype}")
    outside = gold[(gold < 0) | (gold >= n_labels)]
    if len(outside):
        raise ValueError(f"gold label id {outside[0]} outside the {n_labels} labels")
    return gold.astype(np.intc)


# Float64 weights gathered at once by _emissions: a block of packed rows
# gathers (K, rows, L) of them. Larger blocks raise peak memory and gain
# nothing.
_GATHER_BLOCK = 1 << 16


def _emissions(packed: _Packed, weights: np.ndarray) -> np.ndarray:
    """(positions, L) emission scores in packed rows from (F+1, L) weights
    whose last row is zero: each position's weight rows, one per slot,
    summed in slot order. Each block of packed rows gathers its columns of
    the id matrix by corpus position, then their weight rows."""
    K, n = packed.ids.shape
    L = weights.shape[1]
    em = np.empty((n, L))
    size = max(1, _GATHER_BLOCK // max(1, K * L))
    for a in range(0, n, size):
        ids = np.take(packed.ids, packed.order[a : a + size], axis=1)
        np.take(weights, ids, axis=0).sum(axis=0, out=em[a : a + size])
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
    function for the optimizer. The vector holds the weights of the
    emission cells given as cells (f * L + label, ascending; by default the
    cells seen with their gold label, see train), then the L * L
    transitions; every other emission weight is 0.0.

    One evaluation makes a fixed number of numpy passes: the cell weights
    scattered into a zero-padded (F+1, L) matrix, emissions for every
    position gathered from it (the matrix is dropped before
    forward-backward), scaled forward-backward over the packed layout, one
    product for the expected transitions, and per label one bincount of
    the posteriors, tiled over the K slots, by the raveled id matrix, read
    at that label's cells for the expected emission counts. A grammar
    feature belongs to one slot, so each of its counts sums its positions
    in corpus order. Accumulation order is fixed, so results are
    bit-reproducible for a fixed corpus."""

    def __init__(
        self,
        encoded: _Packed,
        labels: np.ndarray,
        n_features: int,
        n_labels: int,
        l2: float,
        cells: np.ndarray | None = None,
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
        emp_e = np.bincount(
            encoded.ids.ravel() * np.int64(L) + np.tile(y, len(encoded.ids)),
            minlength=(n_features + 1) * L,
        )[: n_features * L]  # the sentinel row's cells are no parameters
        self.cells = np.flatnonzero(emp_e) if cells is None else cells
        emp_t = np.bincount(y[:-1][chained] * L + y[1:][chained], minlength=L * L)
        self._emp = np.concatenate([emp_e[self.cells], emp_t]).astype(np.float64)
        # Where each label's cells sit in the vector, and their features.
        feature, label = np.divmod(self.cells, L)
        self._by_label = [(np.flatnonzero(label == lab), feature[label == lab]) for lab in range(L)]

    @property
    def size(self) -> int:
        """Length of the parameter vector."""
        return len(self.cells) + self.L * self.L

    def weights(self, x: np.ndarray) -> np.ndarray:
        """A new zero-padded (F+1, L) emission matrix holding x's cell
        weights and 0.0 elsewhere (see Weights in the module docstring)."""
        weights = np.zeros((self.F + 1) * self.L)
        weights[self.cells] = x[: len(self.cells)]
        return weights.reshape(self.F + 1, self.L)

    def transitions(self, x: np.ndarray) -> np.ndarray:
        """The (L, L) transition weights of x, a view."""
        return x[len(self.cells) :].reshape(self.L, self.L)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        enc, L, S = self.encoded, self.L, self.S
        w_t = self.transitions(x)
        top = float(w_t.max())
        span = top - float(w_t.min())
        if 2.0 * span + math.log(L) >= _LOG_MAX:
            raise TransitionSpanError(
                f"transition weights span {span:.6g}, above the {(_LOG_MAX - math.log(L)) / 2:.6g} "
                f"that the scaled recursion keeps finite for {L} labels"
            )
        E = np.exp(w_t - top)
        P = _emissions(enc, self.weights(x))
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
        ids, K = enc.ids.ravel(), len(enc.ids)
        for (at, feature), unary in zip(self._by_label, np.ascontiguousarray(alpha.T)):
            counts = np.bincount(ids, weights=np.tile(unary[enc.row], K), minlength=self.F + 1)
            grad[at] = counts[feature]
        grad[len(self.cells) :] = exp_t.ravel()
        grad -= self._emp
        nll = log_z - float(np.dot(self._emp, x))
        if self.l2 > 0.0:
            nll += 0.5 * self.l2 * float(np.dot(x, x))
            grad += self.l2 * x
        return nll, grad


def train(
    feature_index: FeatureIndex,
    encoded: Encoded,
    gold: np.ndarray,
    labels: Sequence[str],
    template: FeatureTemplate,
    config: TrainConfig = TrainConfig(),
    on_iteration: Callable[[int, float, Callable[[], CrfModel]], None] | None = None,
) -> tuple[CrfModel, str]:
    """Fit weights by minimizing NLL + l1*|w| + (l2/2)*w^2 from a zero
    start, on sentences encoded with feature_index (features.index_and_encode
    makes both) and their gold label ids, indices into labels, one per
    position in corpus order. Only the (feature, label) pairs seen in the
    gold data are parameters (CRFsuite's feature.possible_states=0); every
    other emission weight of the model is exactly 0.0. Returns the model
    and why the optimizer stopped (optim.OwlQnResult.stop). Raises
    optim.DivergenceError if the objective turns non-finite. Trial steps
    whose transition weights lie too far apart for the scaled recursion
    are backtracked from, never accepted.

    on_iteration(iteration, objective, model) fires after every accepted
    optimizer step; model() builds a CrfModel of the step's weights, so a
    callback that does not call it costs no model. When the callback built
    the model of the last accepted step, that model is returned.
    """
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    if len(encoded.offsets) == 1:
        raise ValueError("training data is empty")
    F, L = len(feature_index), len(labels)
    objective = _Objective(_pack(encoded), _checked_gold(encoded, gold, L), F, L, config.l2)

    last = None  # (x, model) of the last model built

    def model(x: np.ndarray) -> CrfModel:
        nonlocal last
        if last is None or last[0] is not x:
            last = x, CrfModel(
                labels=labels,
                feature_index=feature_index,
                emission=objective.weights(x)[:F],
                transition=objective.transitions(x).copy(),
                template=template,
            )
        return last[1]

    callback = None
    if on_iteration is not None:
        callback = lambda it, obj, x: on_iteration(it, obj, lambda: model(x))

    result = minimize_owlqn(
        objective,
        np.zeros(objective.size),
        l1=config.l1,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
        callback=callback,
    )
    return model(result.x), result.stop


# ---------------------------------------------------------------------------
# Model persistence. Text format:
#   line 1: PERTCRF v1 <template-token> <L> <F>
#   line 2: tab-separated labels
#   F lines: F<TAB><feature-string><TAB><w per label ...>
#   L lines: T<TAB><from-label><TAB><w per to-label ...>
# Weights are rendered as repr(float(w)), the shortest decimal string that
# round-trips. The F rows are rendered _SAVE_BLOCK rows at a time: each
# distinct weight of a block (by bit pattern, so -0.0 and 0.0 stay apart)
# is formatted once, and the block's cells are joined in one call. A
# feature string enters as two cells, its slot prefix and its value
# (FeatureIndex.key_parts), so no key string is built.

_SAVE_BLOCK = 4096


def save_model(model: CrfModel) -> str:
    L = len(model.labels)
    F = len(model.feature_index)
    header = f"{MODEL_MAGIC} {MODEL_VERSION} {model.template.token} {L} {F}\n"
    parts = [header + "\t".join(model.labels) + "\n"]
    emission = np.asarray(model.emission, dtype=np.float64)
    prefixes, values = model.feature_index.key_parts()
    # Cells of one row: "F\t", key prefix, key value, then "\t" and a
    # weight per label, "\n".
    cells = np.empty((min(F, _SAVE_BLOCK), 2 * L + 4), dtype=object)
    cells[:, 0] = "F\t"
    cells[:, 3:-1:2] = "\t"
    cells[:, -1] = "\n"
    for start in range(0, F, _SAVE_BLOCK):
        block = emission[start : start + _SAVE_BLOCK]
        n = len(block)
        # 0.0 (bit pattern 0), which L1 training leaves in most cells, is
        # set aside before the sort: long runs of one key slow the sort down.
        flat = block.ravel().view(np.int64)
        nonzero = flat != 0
        bits, inverse = np.unique(flat[nonzero], return_inverse=True)
        strings = np.array(["0.0", *map(repr, bits.view(np.float64).tolist())], dtype=object)
        index = np.zeros(flat.size, dtype=np.intp)
        index[nonzero] = inverse + 1
        rows = cells[:n]
        rows[:, 1] = prefixes[start : start + n]
        rows[:, 2] = values[start : start + n]
        rows[:, 4:-1:2] = strings[index].reshape(n, L)
        parts.append("".join(rows.ravel().tolist()))
    for lab, row in zip(model.labels, np.asarray(model.transition, dtype=np.float64).tolist()):
        parts.append("T\t" + lab + "\t" + "\t".join(map(repr, row)) + "\n")
    return "".join(parts)


def load_model(text: str) -> CrfModel:
    bad = non_unix_line(text)
    if bad is not None:
        raise ModelFormatError(f"line {bad[0]}: {bad[1]}")
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
        if L < 1 or F < 0:
            raise ValueError
    except ValueError:
        raise ModelFormatError("malformed header counts") from None
    if len(lines) != 2 + F + L:
        raise ModelFormatError(f"truncated model file: expected {2 + F + L} lines, got {len(lines)}")
    labels = tuple(lines[1].split("\t"))
    if len(labels) != L:
        raise ModelFormatError(f"expected {L} labels, got {len(labels)}")
    for lab in labels:
        # The rule corpus.Token applies to tags.
        if lab.split() != [lab]:
            raise ModelFormatError(f"line 2: label must be non-empty and whitespace-free: {lab!r}")

    def _row(line: str, lineno: int, kind: str) -> tuple[str, np.ndarray]:
        cols = line.split("\t")
        if len(cols) != 2 + L or cols[0] != kind:
            raise ModelFormatError(f"line {lineno}: malformed {kind} row")
        try:
            return cols[1], np.array([float(c) for c in cols[2:]])
        except ValueError:
            raise ModelFormatError(f"line {lineno}: bad weight value") from None

    feature_keys = []
    weights = np.zeros((F + 1, L))  # the model's own (see CrfModel)
    for i in range(F):
        key, row = _row(lines[2 + i], 3 + i, "F")
        feature_keys.append(key)
        weights[i] = row
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
            emission=weights[:F],
            transition=transition,
            template=template,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def save_model_file(model: CrfModel, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(save_model(model))


def load_model_file(path: str) -> CrfModel:
    with open(path, encoding="utf-8", newline="") as f:
        return load_model(f.read())
