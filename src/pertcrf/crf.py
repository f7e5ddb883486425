"""Linear-chain CRF: packed-batch inference, elastic-net training via
orthant-wise quasi-Newton, Viterbi decoding, and a text model format.

The chain factorizes into per-position emission scores (sums of indexed
feature weights) and a single label-pair transition matrix shared across
positions. There are no start/stop parameters; boundary information rides
on the BOS/EOS features.

Layout. A corpus arrives encoded by features (features.Encoded): a (K, N)
int32 matrix holding the feature id of each of the K slots that move
along the window (w[-5..-1], w[1..5], then the ez slots) at each of the N
positions; the type code of each position and a (J, T) table holding the
ids of the J focus slots (w[0], then the affixes for CRF2) of each of the
T form types; the ids of BOS and EOS (CRF2); the sentence offsets; and
their packed layout. The sentinel F stands where a slot has no indexed
key. Positions become packed rows in time-major order: sentences are
sorted by length, longest first (a stable sort, so corpus order is kept
among equal lengths), and step t holds, contiguously, position t of every
sentence longer than t. Step t's rows are thus a prefix of step t-1's in
sentence order, so the recursions make one pass per step over a block
with no padding, and training, decoding and datagen's sampler share the
layout. features._Layout is the one place its facts come from: the steps,
each position's row (intp), each row's corpus position, each sentence's
last row and its step, each step's rows beside the rows their sentences
held one step earlier, and each row's predecessor (prev, made on first
use). A text's batch makes its layout once (features.Batch.layout), and
every encoding of the batch carries it (Encoded.layout), so the
objective, each checkpoint and every decode of one text read one layout.
The encoding stays in corpus order: emissions gather it by each packed
row's corpus position, and the expected counts scatter over it from
posteriors put back in corpus order.

Weights. Emission kernels read an (F+1, L) weight matrix whose last row
is zero, so the sentinel adds nothing. A CrfModel owns one, and its
emission weights are the first F rows; training builds one per objective
evaluation.

Emission order. _emissions sums the J focus rows of each type once per
call, in slot order, into a (T, L) block. A position's score is its K
moving slots' rows summed in slot order, plus its type's row of that
block; then BOS's row is added at every sentence's first row and EOS's at
its last (a one-token sentence gets both, BOS first). Training and
decoding share this order, so the scores they see are the same bits.

Parameters. Training fits only the (feature, label) pairs seen in the
training data, as CRFsuite does by default (feature.possible_states=0),
plus the L * L transitions: the optimizer's vector holds those pair
weights in ascending cell order (f * L + label), then the transitions,
and every other emission weight stays exactly 0.0. Models and their files
still hold every one of the F * L emission cells.

Scaling. Training runs sum-product in the exp domain with scaling
(Rabiner 1989, section V.A), which allows any positive normalisers c_t so
long as forward and backward share them: P = exp(em - row max),
E = exp(trans - max(trans)), alpha_t = (alpha_{t-1} @ E) * P_t, divided by
its sum c_t on the steps t that a stride k divides (step 0 among them) and
kept as it is, with c_t = 1, on the others; and
beta_t = E @ (P_{t+1} beta_{t+1} / c_{t+1}). On the last row of each
sentence, whose alpha sums to s (taken as 1 where that row was
normalized), beta is 1 / s and s is folded into c, so that
alpha * beta are the unary posteriors, expected transitions are
E * (alpha[prev]^T @ (P beta / c)[cur]) with c the normaliser of the
step, not the folded one, and
log Z = sum log c + sum row max + (positions - sentences) * max(trans).
The objective picks k on every evaluation from the transition span
(_normalize_every); datagen.bayes_decode keeps k = 1, where results are
those of normalizing every step, bit for bit. A step makes 4 numpy calls,
a product and a matmul each way, and a normalized step 3 more: the row sum
and the division going forward, the division going back. A _Plan holds,
for one _Layout, the buffers P, alpha, beta and c and the views into them
of every step of the layout's spans; training builds one per objective
and datagen.bayes_decode one per block. The backward pass leaves P beta /
c (P beta on the steps it does not normalize) in P's rows after step 0,
where the expected transitions read it.

Span bound. With span = max(trans) - min(trans), E lies in
[exp(-span), 1], and each P_t peaks at 1, so a step multiplies the sum of
an alpha row by a factor in [exp(-span), L]. After a normalized row (sum
1), the next k - 1 rows sum to between exp(-(k-1) span) and L^(k-1), and
the k-th, before its division, to its c, between exp(-k span) and L^k;
step 0's c lies in [1, L]. The posteriors sum to 1, so
sum(alpha_t * beta_t) = 1 on every row, and two entries of beta_t differ
by at most a factor exp(span), as two rows of E do (a last row's beta is
constant). So beta_t lies between exp(-span) / L^(k-1) and
exp(span) / sum(alpha_t) <= exp(k span), 1 / s <= exp((k-1) span), P beta
<= exp(k span) where a step is not normalized, and P beta / c <=
exp(span) / c <= exp((k+1) span) where it is. Each term alpha(i)
(P beta / c)(j) of the expected-transition product is a pairwise marginal
over E_ij, so at most exp(span), and their sum over N rows at most
N exp(span). Every stored value and normaliser thus lies inside
exp(+-B), B = (k+1) span + k log L, and _normalize_every takes the
largest k with B <= _LOG_MAX / 2 ~ 354.9 (the log of the largest float64
over 2): a product of two stored values stays finite, normalisers stay
far above the smallest normal float, and an entry of an alpha row goes
subnormal only below exp(-354) times its row's sum, a share that no
posterior or count can show. Where even k = 2 passes that bound, k = 1
and B = 2 span + log L, and all of these stay finite, and c far above
the smallest normal float, when B < _LOG_MAX: spans up to ~354 for L = 2.
Wider spans raise TransitionSpanError instead of returning NaN, and the
optimizer's line search backtracks from them. Viterbi (log scores) and
datagen.bayes_decode (probabilities; raises if c = 0) have none.

Decoding. decode runs _viterbi, max-product over the encoding's layout in
log scores, which keeps only each row's best scores (deltas), no
back-pointer array; the deltas overwrite the emissions, so a decode holds
one (N, L) array. It reads each step's rows and their sentences' previous
rows from the layout's spans, and where each sentence ends from its ends.
A step adds the previous step's deltas, transposed, to the rows of trans
in one (from, rows, to) buffer allocated once per call, takes np.maximum
over its outer axis (from) into one more row of that buffer, then adds it
to the step's emissions. A step with more rows than the buffer holds
(_VITERBI_BLOCK float64 cells) runs over blocks of rows: the forward pass
walks one list of blocks, the layout's spans as they are when no step
exceeds the buffer (as at the benchmark's sizes), else the spans cut into
blocks (_blocks), with the same loop body either way. The backtrace
recomputes each chosen label's predecessor from the same float sums,
deltas of the previous row plus the column of trans into the label, and
argmax keeps the first maximum. Paths and scores are thus those of a
back-pointer kernel: ties break toward the lower label.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import atomic_write, non_unix_line
from .features import Encoded, FeatureIndex, FeatureTemplate, _Layout
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
    min_count: int = 1  # features.index_and_encode keeps the keys seen this often

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.l1, self.l2)):
            raise ValueError("l1 and l2 must be finite")
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError("regularization coefficients must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
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

    def __reduce__(self):  # through __post_init__: one padded matrix, and emission its view
        return CrfModel, (self.labels, self.feature_index, self.emission, self.transition, self.template)


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
    one packed batch over the encoding's layout."""
    layout = encoded.layout
    paths, _ = _viterbi(_emissions(encoded, model._weights), model.transition, layout)
    return paths.astype(np.intp)[layout.row]


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
    labels = _checked_gold(encoded, gold, L)
    x = np.concatenate([model.emission.ravel(), model.transition.ravel()])
    objective = _Objective(encoded, labels, F, L, l2, cells=np.arange(F * L))
    nll, grad = objective(x)
    return nll, (grad[: F * L].reshape(F, L), grad[F * L :].reshape(L, L))


# ---------------------------------------------------------------------------
# The encoded corpus over the packed layout (see the module docstring).
# Training and decoding share the layout and the emission kernel.


def _sentence_groups(offsets: np.ndarray, size: int) -> list[tuple[int, int]]:
    """The (first, last) bounds, in corpus order, of the groups of
    consecutive sentences first..last-1 that offsets are cut into: each
    group takes as many whole sentences as fit in size positions, and a
    longer sentence forms a group by itself."""
    bounds, first = [], 0
    while first < len(offsets) - 1:
        last = max(first + 1, int(np.searchsorted(offsets, offsets[first] + size, "right")) - 1)
        bounds.append((first, last))
        first = last
    return bounds


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
# gathers (K, rows, L) of them, and a block of types (J, types, L). Larger
# blocks raise peak memory and gain nothing. _row_maxima reads its rows in
# blocks of as many floats.
_GATHER_BLOCK = 1 << 16


def _row_maxima(a: np.ndarray) -> np.ndarray:
    """(N,) the maximum of each row of a (N, L), equal bit for bit to
    a.max(axis=1): np.maximum one column at a time, over blocks of rows of
    _GATHER_BLOCK floats so that a block's columns stay in cache. For
    small L this runs several times faster than the reduction."""
    n, L = a.shape
    out = np.empty(n)
    size = max(1, _GATHER_BLOCK // L)
    for start in range(0, n, size):
        block, top = a[start : start + size], out[start : start + size]
        np.copyto(top, block[:, 0])
        for j in range(1, L):
            np.maximum(top, block[:, j], out=top)
    return out


def _emissions(encoded: Encoded, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(positions, L) emission scores in the packed rows of encoded.layout,
    written into out when given, from (F+1, L) weights whose last row is
    zero. The focus slots'
    rows of each type are summed once, in slot order. Each position sums
    its moving slots' rows in slot order, then adds its type's sum; last,
    BOS's row is added at each sentence's first row and EOS's at its last.
    Each block of packed rows gathers its columns of the id matrix and its
    type codes by corpus position, then their weight rows."""
    K, n = encoded.ids.shape
    J, T = encoded.focus.shape
    L = weights.shape[1]
    layout = encoded.layout
    em = np.empty((n, L)) if out is None else out
    if J:
        typed = np.empty((T, L))
        size = max(1, _GATHER_BLOCK // (J * L))
        for a in range(0, T, size):
            weights.take(encoded.focus[:, a : a + size], axis=0).sum(axis=0, out=typed[a : a + size])
    size = max(1, _GATHER_BLOCK // max(1, (K + 1) * L))
    for a in range(0, n, size):
        at = layout.order[a : a + size]
        block = em[a : a + size]
        weights.take(encoded.ids.take(at, axis=1), axis=0).sum(axis=0, out=block)
        if J:
            block += typed.take(encoded.types.take(at), axis=0)
    if len(encoded.edges):
        bos, eos = weights.take(encoded.edges, axis=0)
        em[: layout.S] += bos  # step 0 holds every sentence's first row
        em[layout.ends] += eos
    return em


class _Plan:
    """The buffers of sum-product over one packed layout with L labels, and
    the views of every step that it reads and writes: P (N, L), which the
    caller fills with exp-domain emissions; alpha and beta (N, L); c (N,).
    Each step's views come with its index t. No step writes beta's rows
    where a sentence ends: _sum_product sets them on every call, from the
    layout's ends and end_steps, the last row of each sentence and its
    step."""

    def __init__(self, layout: _Layout, n_labels: int):
        n = len(layout.row)
        self.P = np.empty((n, n_labels))
        self.alpha = np.empty((n, n_labels))
        self.beta = np.empty((n, n_labels))
        self.c = np.empty(n)
        self.layout = layout
        self._forward, self._backward = [], []
        for t, (a, b, p) in enumerate(layout.spans, 1):
            prev = slice(p, p + b - a)
            norm = self.c[a:b]
            self._forward.append((t, self.alpha[prev], self.alpha[a:b], self.P[a:b], norm, norm[:, None]))
            self._backward.append((t, self.P[a:b], self.beta[a:b], norm[:, None], self.beta[prev]))
        self._backward.reverse()


def _normalize_every(span: float, n_labels: int) -> int:
    """The stride k of the steps whose alpha _sum_product normalizes for
    transitions of this span over n_labels labels: the largest k with
    (k + 1) span + k log L <= _LOG_MAX / 2, and 1 when there is none (see
    Span bound in the module docstring)."""
    per_step = span + math.log(n_labels)
    if per_step <= 0.0:  # one label and no span: no row ever moves from 1
        return sys.maxsize
    return max(1, int((_LOG_MAX / 2 - span) // per_step))


def _sum_product(plan: _Plan, E: np.ndarray, every: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scaled forward and backward messages over a packed batch, from the
    exp-domain emissions in plan.P and transitions E (L, L), into the
    plan's buffers, normalizing alpha on the steps t that every divides
    (step 0 among them). Returns (alpha, beta, c). A normalized row of
    alpha sums to 1 after division by its normaliser c; every other row
    has c = 1. On each sentence's last row, whose alpha sums to s, beta is
    1 / s and c is multiplied by s, where s is taken as 1 on a normalized
    row: alpha * beta are the unary posteriors, and log Z is the sum of
    log c plus the shifts, for every stride. The rows of P after step 0
    are left holding P beta / c on normalized steps and P beta on the
    others, the pairwise factor of each row with the row before it."""
    layout, c, S = plan.layout, plan.c, plan.layout.S
    c.fill(1.0)
    first, norm = plan.alpha[:S], c[:S]
    np.copyto(first, plan.P[:S])
    np.add.reduce(first, axis=1, out=norm)
    first /= norm[:, None]
    # np.dot gives np.matmul's bits here at less cost per call on these small blocks.
    for t, prev, cur, P, norm, scale in plan._forward:
        np.dot(prev, E, out=cur)
        cur *= P
        if t % every == 0:
            np.add.reduce(cur, axis=1, out=norm)
            cur /= scale
    ends = layout.ends
    s = np.add.reduce(plan.alpha[ends], axis=1)
    s[layout.end_steps % every == 0] = 1.0
    c[ends] *= s
    plan.beta[ends] = (1.0 / s)[:, None]
    E_T = E.T
    for t, P, beta, scale, out in plan._backward:
        P *= beta
        if t % every == 0:
            P /= scale
        np.dot(P, E_T, out=out)
    return plan.alpha, plan.beta, c


# Float64 cells of the (from, rows, to) buffer of one Viterbi step: a step
# with more than _VITERBI_BLOCK // L^2 rows runs over blocks of that many.
# Larger blocks fall out of cache and run slower.
_VITERBI_BLOCK = 1 << 16


def _blocks(spans: list[tuple[int, int, int]], size: int) -> list[tuple[int, int, int]]:
    """spans (see _Layout) cut into blocks of at most size rows: each
    (a, b, p) of a span's rows a..b-1 and their sentences' rows from p."""
    return [(c, min(c + size, b), p + c - a) for a, b, p in spans for c in range(a, b, size)]


def _viterbi(em: np.ndarray, trans: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Max-product over a packed batch of log-domain emissions em (N, L),
    which it consumes: each row's best scores overwrite its emissions.
    Returns the best label of every packed row and the best score of every
    sentence, in rank order. argmax takes the first maximum, so ties break
    toward the lower label index (see the module docstring)."""
    L = em.shape[1]
    size = max(1, _VITERBI_BLOCK // (L * L))
    # L rows of (from, rows, to) sums, then the row their maximum goes into;
    # no step has more rows than step 0.
    buffer = np.empty((L + 1, min(size, layout.S), L))
    sums, maxima = buffer[:L], buffer[L]
    froms, cols = em.T[:, :, None], trans[:, None, :]
    # The ufuncs take out positionally: at bench sizes a step costs a few
    # microseconds, most of it per-call overhead.
    for a, b, p in layout.spans if layout.S <= size else _blocks(layout.spans, size):
        rows, best, scores = em[a:b], maxima[: b - a], sums[:, : b - a]
        np.add(froms[:, p : p + b - a], cols, scores)
        np.maximum.reduce(scores, 0, None, best)
        np.add(rows, best, rows)
    end = em[layout.ends]
    paths = np.empty(len(em), dtype=np.intp)
    paths[layout.ends] = end.argmax(axis=1)
    # Each row of a step gets the predecessor of its label at the row its
    # sentence holds one step back.
    into = np.ascontiguousarray(trans.T)
    for a, b, p in reversed(layout.spans):
        prev = slice(p, p + b - a)
        scores = into.take(paths[a:b], axis=0)
        scores += em[prev]
        scores.argmax(axis=1, out=paths[prev])
    return paths.astype(np.min_scalar_type(L - 1)), end.max(axis=1)


class _Objective:
    """Smooth part of the training objective (NLL + ridge) as a flat-vector
    function for the optimizer. The vector holds the weights of the
    emission cells given as cells (f * L + label, ascending; by default the
    cells seen with their gold label, see train), then the L * L
    transitions; every other emission weight is 0.0.

    One evaluation makes a fixed number of numpy passes: the cell weights
    scattered into a zero-padded (F+1, L) matrix, emissions for every
    position gathered from it into the plan's P (the matrix is dropped
    before forward-backward), each row's maximum (a column at a time,
    _row_maxima) taken out before exp, scaled forward-backward over the
    packed layout at the stride that the transition span allows
    (_normalize_every), one product for the expected transitions, the unary
    posteriors in place (alpha *= beta), copied label-major into P, per
    label one bincount for the expected emission counts into its row of an
    (L, F+1) matrix, and one take of the vector's cells from that matrix.
    Its keys are fixed at construction: the moving slots' id matrix,
    raveled, then the focus slots' id table, then BOS's id and EOS's id once
    per sentence. Its weights go into one buffer allocated with them: the
    label's posterior in corpus order under every row of the id matrix, the
    sum of the posteriors of each type (one bincount over the type codes)
    under every row of the table, and the posteriors of the sentences' first
    and last positions under BOS and EOS. A grammar feature belongs to one
    slot, so a moving slot's count sums its positions in corpus order, a
    focus slot's sums its types' sums in type order, and an edge's sums the
    sentences in corpus order. The empirical counts come from the same keys.
    Accumulation order is fixed, so results are bit-reproducible for a fixed
    corpus."""

    def __init__(
        self,
        encoded: Encoded,
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
        self.layout = layout = encoded.layout
        self.plan = _Plan(layout, n_labels)
        S = layout.S
        # The scatter's keys and the buffer of its weights, in three parts.
        (K, N), (J, T), E = encoded.ids.shape, encoded.focus.shape, len(encoded.edges)
        parts = [encoded.ids.ravel(), encoded.focus.ravel(), np.repeat(encoded.edges, S)]
        self._keys = np.concatenate(parts, dtype=np.intp)
        self._weights = np.empty(len(self._keys))
        self._window = self._weights[: K * N].reshape(K, N)
        self._typed = self._weights[K * N : K * N + J * T].reshape(J, T)
        self._edge = self._weights[K * N + J * T :]
        self._unary = self._window[0] if K else np.empty(N)  # a label's weight per position
        self._types = encoded.types.astype(np.intp) if J else None
        offsets = encoded.offsets.astype(np.intp)
        self._ends = np.concatenate([offsets[:-1], offsets[1:] - 1])[: E * S]  # read by BOS, EOS
        # Empirical counts never change, and the gold path score is their
        # dot product with the weights.
        L, y = n_labels, labels
        emp_e = np.empty((n_features, L))
        for lab in range(L):
            np.equal(y, lab, out=self._unary, casting="unsafe")
            emp_e[:, lab] = self._counts()[:n_features]  # the sentinel row's cells are no parameters
        emp_e = emp_e.ravel()
        self.cells = np.flatnonzero(emp_e) if cells is None else cells
        chained = np.ones(max(len(y) - 1, 0), dtype=bool)  # t and t+1 in one sentence
        chained[encoded.offsets[1:-1] - 1] = False
        emp_t = np.bincount(y[:-1][chained] * L + y[1:][chained], minlength=L * L)
        self._emp = np.concatenate([emp_e[self.cells], emp_t])
        # Where each cell's count sits in the (L, F+1) matrix of each label's
        # counts (_counts) that an evaluation fills.
        feature, label = np.divmod(self.cells, L)
        self._at = label * (n_features + 1) + feature

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

    def _counts(self) -> np.ndarray:
        """(F+1,) the sum of the weight that _unary gives each position (in
        corpus order) over every feature's positions, the sentinel's last."""
        u = self._unary
        self._window[1:] = u
        if self._types is not None:
            self._typed[...] = np.bincount(self._types, weights=u, minlength=self._typed.shape[1])
        u.take(self._ends, out=self._edge)
        return np.bincount(self._keys, weights=self._weights, minlength=self.F + 1)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        plan, L, layout, S = self.plan, self.L, self.layout, self.layout.S
        w_t = self.transitions(x)
        top = float(w_t.max())
        span = top - float(w_t.min())
        if 2.0 * span + math.log(L) >= _LOG_MAX:
            raise TransitionSpanError(
                f"transition weights span {span:.6g}, above the {(_LOG_MAX - math.log(L)) / 2:.6g} "
                f"that the scaled recursion keeps finite for {L} labels"
            )
        E = np.exp(w_t - top)
        P = _emissions(self.encoded, self.weights(x), out=plan.P)
        shift = _row_maxima(P)
        P -= shift[:, None]
        np.exp(P, out=P)
        alpha, beta, c = _sum_product(plan, E, _normalize_every(span, L))
        log_z = float(np.log(c).sum()) + float(shift.sum()) + (len(P) - S) * top
        exp_t = E * (alpha[layout.prev].T @ P[S:])  # P[S:] holds the pairwise factors
        alpha *= beta  # unary posteriors
        unary = P.reshape(L, -1)  # P's buffer is free: the posteriors, label-major
        unary[...] = alpha.T

        counts = np.empty((L, self.F + 1))
        for column, count in zip(unary, counts):
            # mode="clip" writes out unbuffered; every row is in range.
            column.take(layout.row, out=self._unary, mode="clip")
            count[...] = self._counts()
        grad = np.empty_like(x)
        n = len(self.cells)
        counts.take(self._at, out=grad[:n], mode="clip")
        grad[n:] = exp_t.ravel()
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
    objective = _Objective(encoded, _checked_gold(encoded, gold, L), F, L, config.l2)

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
# round-trips. The F rows are rendered _SAVE_BLOCK rows at a time, each row
# as L + 3 cells: "F\t" and the key's slot prefix, the key's value, "\t" and
# a weight per label, then "\n". "F\t" is joined to each distinct prefix
# (FeatureIndex.key_parts) once per model, so no key string is built, and
# "\t" to each distinct weight of a block (by bit pattern, so -0.0 and 0.0
# stay apart) as it is formatted, once; the block's cells are then joined in
# one call. load_model parses the weights of the F rows in one numpy call
# (_bulk_rows), or a row at a time where that fails, so that an error names
# its line.

_SAVE_BLOCK = 4096


def save_model(model: CrfModel) -> str:
    L = len(model.labels)
    F = len(model.feature_index)
    header = f"{MODEL_MAGIC} {MODEL_VERSION} {model.template.token} {L} {F}\n"
    parts = [header + "\t".join(model.labels) + "\n"]
    emission = np.asarray(model.emission, dtype=np.float64)
    prefixes, prefix_at, values = model.feature_index.key_parts()
    heads = "F\t" + prefixes
    cells = np.empty((min(F, _SAVE_BLOCK), L + 3), dtype=object)
    cells[:, -1] = "\n"
    for start in range(0, F, _SAVE_BLOCK):
        block = emission[start : start + _SAVE_BLOCK]
        n = len(block)
        # 0.0 (bit pattern 0), which L1 training leaves in most cells, is
        # set aside before the sort: long runs of one key slow the sort down.
        flat = block.ravel().view(np.int64)
        nonzero = flat != 0
        bits, inverse = np.unique(flat[nonzero], return_inverse=True)
        strings = "\t" + np.array(["0.0", *map(repr, bits.view(np.float64).tolist())], dtype=object)
        index = np.zeros(flat.size, dtype=np.intp)
        index[nonzero] = inverse + 1
        rows = cells[:n]
        rows[:, 0] = heads[prefix_at[start : start + n]]
        rows[:, 1] = values[start : start + n]
        rows[:, 2:-1] = strings[index].reshape(n, L)
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

    weights = np.zeros((F + 1, L))  # the model's own (see CrfModel)
    bulk = _bulk_rows(lines[2 : 2 + F], L)
    if bulk is not None:
        feature_keys, weights[:F] = bulk
    else:
        feature_keys = []
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


def _bulk_rows(rows: list[str], L: int) -> tuple[list[str], np.ndarray] | None:
    """The keys and the (F, L) weights of F rows, the weights parsed in one
    numpy call; None when there are no rows, when a row is not an F row of
    2 + L cells, or when numpy refuses a weight, so that load_model's row
    loop finds the line to name. numpy parses a subset of the strings that
    float() takes (not 1_000, say), each to the same bits."""
    heads = [row.split("\t", 2) for row in rows]
    if not rows or not all(len(h) == 3 and h[0] == "F" and h[2].count("\t") == L - 1 for h in heads):
        return None
    try:
        weights = np.loadtxt(
            rows, delimiter="\t", comments=None, quotechar=None, usecols=range(2, 2 + L), ndmin=2
        )
    except ValueError:
        return None
    return [h[1] for h in heads], weights


def save_model_file(model: CrfModel, path: str) -> None:
    atomic_write(path, save_model(model))


def load_model_file(path: str) -> CrfModel:
    with open(path, encoding="utf-8", newline="") as f:
        return load_model(f.read())
