"""Synthetic annotated corpora from a known hidden-Markov process, plus a
posterior-decoding oracle that upper-bounds any trained tagger on data from
the same process. The oracle runs crf's packed sum-product on the spec's
probabilities, over blocks of whole sentences of bounded size: no span
bound applies, and zero-probability sentences raise. The sampler's chunks
and the oracle's blocks come from the same cut, crf._sentence_groups, and
both step through the same packed layout: the sampler through its steps
and each row's corpus position (a crf._Steps), the oracle through a whole
crf._Layout.

Ezafe flags are generated conditionally on (state, next state), so the flag
carries exactly the phrase-boundary signal that makes it informative for
tagging; the last token of a sentence never carries ezafe (there is no
following word to link to).

Reproducibility contract: sentence i of a corpus draws from substream(seed,
i), in this order, and nothing else does:
  1. its length: n - min_len continuation draws, plus the one that stops
     the sentence when n < max_len;
  2. its start state;
  3. n - 1 transitions;
  4. n emissions;
  5. n - 1 ezafe flags, one per (state, next state) pair.
A categorical draw u picks the first index whose cumulative probability
exceeds u (the last index when rounding leaves u above them all); a flag
is u < rule[state, next state]. generate computes these draws in bulk
(rng.randoms_at indexed by the offsets above) and samples every sentence
of a chunk at once, so its corpora equal, byte for byte, those of one
draw per Python call; tests/oracles.py keeps that scalar sampler as the
reference.

Spec rows are drawn in bulk too (rng.SplitMix64.randoms), but the
exponential weights -log(1 - u) keep math.log: np.log rounds some of the
logs differently, which would change every spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import Corpus, non_unix_line, whitespace_free
from .crf import _Layout, _Plan, _Steps, _sentence_groups, _sum_product
from .features import checked_offsets
from .rng import SplitMix64, check_seed, randoms_at, substream_states

# Uniform draws that one chunk of generate holds at most, whatever the
# length law; a single sentence longer than a third of this is one chunk.
_DRAW_BLOCK = 1 << 18
# Positions that one block of bayes_decode holds at most; a longer
# sentence is a block of its own. A block holds three (positions, states)
# float64 arrays: 47 MB at 30 states.
_ORACLE_BLOCK = 1 << 16


class HmmSpecError(ValueError):
    pass


@dataclass(frozen=True)
class GeometricLength:
    """Truncated geometric sentence-length law: from min_len, keep extending
    with continue_prob until max_len."""

    min_len: int = 3
    max_len: int = 40
    continue_prob: float = 0.85

    def __post_init__(self):
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if not 0.0 <= self.continue_prob < 1.0:
            raise ValueError("continue_prob must lie in [0, 1)")

    def continuations(self, states: np.ndarray) -> np.ndarray:
        """The number of continuation draws (n - min_len) of the streams in
        states (uint64, see rng.randoms_at): the index of each stream's
        first draw >= continue_prob, max_len - min_len if none comes
        first. The streams still open draw blocks of 8, 16, 32, ... draws."""
        span = self.max_len - self.min_len
        extra = np.full(len(states), span, dtype=np.int64)
        open_ = np.arange(len(states))
        done, width = 0, 8
        while open_.size and done < span:
            block = np.arange(done, min(done + width, span))
            stop = randoms_at(states[open_, None], block) >= self.continue_prob
            hit = stop.any(axis=1)
            extra[open_[hit]] = done + stop[hit].argmax(axis=1)
            open_ = open_[~hit]
            done, width = done + len(block), 2 * width
        return extra

    def pmf(self) -> np.ndarray:
        """Probabilities for lengths min_len..max_len (inclusive)."""
        q = self.continue_prob
        span = self.max_len - self.min_len
        p = np.array([(1 - q) * q**k for k in range(span + 1)])
        p[-1] = q**span  # truncation lumps the tail at max_len
        return p


def _check_row(section: str, row_name: str, row: np.ndarray, stochastic: bool) -> None:
    if not np.all((row >= 0) & (row <= 1)):  # NaN fails both
        raise HmmSpecError(f"{section} row {row_name!r} has NaN entries or entries outside [0, 1]")
    if stochastic and abs(float(row.sum()) - 1.0) > 1e-12:
        raise HmmSpecError(f"{section} row {row_name!r} sums to {float(row.sum())!r}, not 1")


@dataclass(frozen=True)
class HmmSpec:
    states: tuple[str, ...]
    vocab: tuple[str, ...]
    start: np.ndarray  # (L,)
    trans: np.ndarray  # (L, L) row-stochastic
    emit: np.ndarray  # (L, V) row-stochastic
    ezafe_rule: np.ndarray  # (L, L) P(ezafe=1 | state, next state)
    word_ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, V = len(self.states), len(self.vocab)
        if L == 0 or len(set(self.states)) != L:
            raise HmmSpecError("states must be non-empty and distinct")
        object.__setattr__(self, "word_ids", {w: i for i, w in enumerate(self.vocab)})
        if V == 0 or len(self.word_ids) != V:
            raise HmmSpecError("vocab must be non-empty and distinct")
        # The corpus token rule, checked here once for every tag and form
        # that generate can emit.
        for name, values in (("state", self.states), ("word", self.vocab)):
            if not whitespace_free(values):
                bad = next(v for v in values if v.split() != [v])
                raise HmmSpecError(f"{name} must be non-empty and whitespace-free: {bad!r}")
        if self.start.shape != (L,):
            raise HmmSpecError("START must have one entry per state")
        if self.trans.shape != (L, L) or self.emit.shape != (L, V):
            raise HmmSpecError("TRANS/EMIT dimensions do not match states/vocab")
        if self.ezafe_rule.shape != (L, L):
            raise HmmSpecError("EZAFE must be (states x states)")
        _check_row("START", "start", self.start, stochastic=True)
        for i, s in enumerate(self.states):
            _check_row("TRANS", s, self.trans[i], stochastic=True)
            _check_row("EMIT", s, self.emit[i], stochastic=True)
            _check_row("EZAFE", s, self.ezafe_rule[i], stochastic=False)


def generate(
    spec: HmmSpec,
    n_sentences: int,
    seed: int,
    length_dist: GeometricLength = GeometricLength(),
) -> Corpus:
    """Sample n_sentences independent sentences; deterministic under
    (seed, length_dist). Each sentence draws from its own substream (see
    the module docstring for the order), so prefixes of the corpus do not
    depend on n_sentences. Sentences are sampled a chunk at a time, each
    chunk making at most _DRAW_BLOCK draws."""
    if n_sentences < 1:
        raise ValueError("n_sentences must be positive")
    check_seed(seed)
    span = length_dist.max_len - length_dist.min_len
    group = max(1, _DRAW_BLOCK // max(span, 1))
    extra = np.concatenate([
        length_dist.continuations(substream_states(seed, a, min(group, n_sentences - a)))
        for a in range(0, n_sentences, group)
    ])
    lengths = length_dist.min_len + extra
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    tables = (
        np.cumsum(spec.start),
        np.cumsum(spec.trans, axis=1),
        np.cumsum(spec.emit, axis=1),
        spec.ezafe_rule,
    )
    chunks = []
    # Three draws per token: its state, its word and its flag.
    for a, b in _sentence_groups(offsets, _DRAW_BLOCK // 3):
        streams = substream_states(seed, a, b - a)
        chunks.append(_sample_chunk(tables, streams, extra[a:b] + (extra[a:b] < span), lengths[a:b]))
    states, words, flags = (np.concatenate(column) for column in zip(*chunks))
    vocab = np.array(spec.vocab, dtype=object)
    # HmmSpec holds its states and vocab to the token rule.
    return Corpus.from_codes(vocab[words].tolist(), states, spec.states, flags, offsets)


def _categorical(cumulative: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each u, the number of entries of its cumulative row (the last
    axis) that are <= u, at most the row length - 1: what searchsorted
    with side="right" gives on a non-decreasing row."""
    return np.minimum((cumulative <= u[:, None]).sum(axis=1), cumulative.shape[-1] - 1)


def _sample_chunk(tables, streams, skip, lengths):
    """State codes, word ids and flags of the sentences drawn from streams,
    whose first skip draws went to their lengths."""
    cum_start, cum_trans, cum_emit, rule = tables
    L, V = cum_emit.shape
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    T, starts = int(offsets[-1]), offsets[:-1]
    sent = np.repeat(np.arange(len(lengths)), lengths)  # sentence of each token
    draw = skip[sent] + np.arange(T) - starts[sent]  # the token's state draw
    n = lengths[sent]
    u_state = randoms_at(streams[sent], draw)
    u_word = randoms_at(streams[sent], draw + n)
    u_flag = randoms_at(streams[sent], draw + 2 * n)  # unused at a last token

    states = np.empty(T, dtype=np.int32)
    states[starts] = _categorical(cum_start, u_state[starts])
    # Step t of the packed layout samples position t of every sentence
    # longer than t, at the corpus positions of its rows.
    steps = _Steps(offsets)
    for a, b, _ in steps.spans:
        rows = steps.order[a:b]
        states[rows] = _categorical(cum_trans[states[rows - 1]], u_state[rows])

    words = np.empty(T, dtype=np.int64)
    by_state = np.argsort(states, kind="stable")
    bounds = np.searchsorted(states[by_state], np.arange(L + 1))
    for k in range(L):
        rows = by_state[bounds[k] : bounds[k + 1]]
        words[rows] = np.searchsorted(cum_emit[k], u_word[rows], side="right")
    np.minimum(words, V - 1, out=words)

    flags = np.zeros(T, dtype=np.int8)
    flags[:-1] = u_flag[:-1] < rule[states[:-1], states[1:]]
    flags[starts[1:] - 1] = 0
    return states, words, flags


def bayes_decode(spec: HmmSpec, words: Sequence[str], offsets: Sequence[int] | None = None) -> list[str]:
    """Posterior-mode state of each word under the true process, in corpus order,
    ties to the lower index; offsets cut words into sentences (one by default).
    Consecutive whole sentences are decoded together, in blocks of at most
    _ORACLE_BLOCK positions."""
    offsets = checked_offsets([0, len(words)] if offsets is None else offsets, len(words))
    try:
        obs = np.fromiter(map(spec.word_ids.__getitem__, words), np.intp, len(words))
    except KeyError as exc:
        raise ValueError(f"word {exc.args[0]!r} not in spec vocabulary") from None
    modes = np.empty(len(words), dtype=np.intp)
    for first, last in _sentence_groups(offsets, _ORACLE_BLOCK):
        a, b = offsets[first], offsets[last]
        modes[a:b] = _posterior_modes(spec, obs[a:b], offsets[first : last + 1] - a, first)
    return list(map(spec.states.__getitem__, modes.tolist()))


def _posterior_modes(spec: HmmSpec, obs: np.ndarray, offsets: np.ndarray, first: int) -> np.ndarray:
    """bayes_decode's state ids of the word ids obs, cut into sentences by
    offsets, whose first sentence is sentence first of the corpus."""
    layout = _Layout(offsets)
    plan = _Plan(layout, len(spec.states))
    plan.P[...] = spec.emit.take(obs[layout.order], axis=1).T  # packed rows
    plan.P[: layout.S] *= spec.start  # step 0: each sentence's first row
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha, beta, c = _sum_product(plan, spec.trans)
    if not (c > 0).all():  # also where c is NaN; c[layout.row] is in corpus order
        sentence = first + np.searchsorted(offsets, np.flatnonzero(~(c[layout.row] > 0))[0], "right") - 1
        raise ValueError(f"sentence {sentence}: zero probability under the spec")
    alpha *= beta
    return alpha.argmax(axis=1)[layout.row]


def expected_ezafe_rate(spec: HmmSpec, length_dist: GeometricLength = GeometricLength()) -> float:
    """Analytic fraction of generated tokens carrying ezafe: expected flag
    count over expected sentence length under the length law."""
    return _ezafe_rate(spec.start, spec.trans, spec.ezafe_rule, length_dist)


def _ezafe_rate(start, trans, rule, length_dist: GeometricLength) -> float:
    pmf = length_dist.pmf()
    lengths = np.arange(length_dist.min_len, length_dist.max_len + 1)
    # r[t] = P(flag at position t is 1) for a long enough sentence
    r = np.empty(length_dist.max_len)
    p_t = start.copy()
    for t in range(length_dist.max_len):
        r[t] = float(((p_t[:, None] * trans) * rule).sum())
        p_t = p_t @ trans
    cum_r = np.concatenate([[0.0], np.cumsum(r)])
    expected_flags = float(sum(pmf[i] * cum_r[n - 1] for i, n in enumerate(lengths)))
    expected_tokens = float(np.dot(pmf, lengths))
    return expected_flags / expected_tokens


# ---------------------------------------------------------------------------
# Plain-text spec files. Sections in order: STATES, START, TRANS, EMIT
# (first line of EMIT is the vocabulary), EZAFE. Values are whitespace
# separated; rows that should be stochastic are rejected when they are not.

_SECTIONS = ("STATES", "START", "TRANS", "EMIT", "EZAFE")


def write_hmm_spec(spec: HmmSpec) -> str:
    def row(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    lines = ["STATES", " ".join(spec.states), "START", row(spec.start), "TRANS"]
    lines += [row(r) for r in spec.trans]
    lines += ["EMIT", " ".join(spec.vocab)]
    lines += [row(r) for r in spec.emit]
    lines += ["EZAFE"]
    lines += [row(r) for r in spec.ezafe_rule]
    return "\n".join(lines) + "\n"


def parse_hmm_spec(text: str) -> HmmSpec:
    bad = non_unix_line(text)
    if bad is not None:
        raise HmmSpecError(f"line {bad[0]}: {bad[1]}")
    lines = [ln.strip() for ln in text.split("\n")]
    lines = [ln for ln in lines if ln]
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for ln in lines:
        if ln in _SECTIONS:
            if ln in sections:
                raise HmmSpecError(f"duplicate section {ln}")
            current = ln
            sections[ln] = []
        elif current is None:
            raise HmmSpecError(f"content before first section: {ln!r}")
        else:
            sections[current].append(ln)
    missing = [s for s in _SECTIONS if s not in sections]
    if missing:
        raise HmmSpecError(f"missing sections: {', '.join(missing)}")

    def floats(ln: str, where: str) -> np.ndarray:
        try:
            return np.array([float(v) for v in ln.split()])
        except ValueError:
            raise HmmSpecError(f"{where}: bad number in {ln!r}") from None

    if len(sections["STATES"]) != 1:
        raise HmmSpecError("STATES must be a single line")
    states = tuple(sections["STATES"][0].split())
    L = len(states)
    if len(sections["START"]) != 1:
        raise HmmSpecError("START must be a single line")
    start = floats(sections["START"][0], "START")
    if len(sections["TRANS"]) != L:
        raise HmmSpecError(f"TRANS needs {L} rows, got {len(sections['TRANS'])}")
    trans = np.vstack([floats(ln, f"TRANS row {i}") for i, ln in enumerate(sections["TRANS"])])
    emit_lines = sections["EMIT"]
    if len(emit_lines) != L + 1:
        raise HmmSpecError(f"EMIT needs a vocabulary line plus {L} rows")
    vocab = tuple(emit_lines[0].split())
    emit = np.vstack([floats(ln, f"EMIT row {i}") for i, ln in enumerate(emit_lines[1:])])
    if len(sections["EZAFE"]) != L:
        raise HmmSpecError(f"EZAFE needs {L} rows, got {len(sections['EZAFE'])}")
    ezafe = np.vstack([floats(ln, f"EZAFE row {i}") for i, ln in enumerate(sections["EZAFE"])])
    return HmmSpec(
        states=states, vocab=vocab, start=start, trans=trans, emit=emit, ezafe_rule=ezafe
    )


def read_hmm_spec_file(path: str) -> HmmSpec:
    with open(path, encoding="utf-8", newline="") as f:
        return parse_hmm_spec(f.read())


def write_hmm_spec_file(spec: HmmSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(write_hmm_spec(spec))


# ---------------------------------------------------------------------------
# Ready-made specs used by the experiment scripts and the acceptance suite.


def _dirichlet1(rng: SplitMix64, n: int, skew: float = 1.0) -> np.ndarray:
    # math.log, not np.log: the two round some logs differently.
    logs = np.fromiter(map(math.log, (1.0 - rng.randoms(n)).tolist()), dtype=np.float64, count=n)
    w = (-logs) ** skew
    return w / w.sum()


def _random_process(n_states, vocab_size, seed, self_bias, emission_skew):
    """start, trans and emit of random_spec."""
    rng = SplitMix64(seed)
    start = _dirichlet1(rng, n_states)
    trans = np.vstack(
        [
            (1 - self_bias) * _dirichlet1(rng, n_states) + self_bias * np.eye(n_states)[i]
            for i in range(n_states)
        ]
    )
    emit = np.vstack([_dirichlet1(rng, vocab_size, emission_skew) for _ in range(n_states)])
    return start, trans, emit


def _names(n_states: int, vocab_size: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    return tuple(f"T{i}" for i in range(n_states)), tuple(f"w{i:03d}" for i in range(vocab_size))


def random_spec(
    n_states: int = 4,
    vocab_size: int = 200,
    seed: int = 0,
    self_bias: float = 0.3,
    emission_skew: float = 3.0,
    ezafe_prob: float = 0.85,
) -> HmmSpec:
    """Random stochastic process with moderately sticky transitions and
    skewed emissions, so states are learnable from words. The first third
    of the states accept ezafe with probability ezafe_prob."""
    start, trans, emit = _random_process(n_states, vocab_size, seed, self_bias, emission_skew)
    n_accepting = max(1, n_states // 3)
    ezafe = np.zeros((n_states, n_states))
    ezafe[:n_accepting, :] = ezafe_prob
    return HmmSpec(*_names(n_states, vocab_size), start=start, trans=trans, emit=emit, ezafe_rule=ezafe)


def tuned_ezafe_spec(
    target_rate: float = 0.22,
    n_states: int = 6,
    vocab_size: int = 300,
    seed: int = 11,
    length_dist: GeometricLength = GeometricLength(),
) -> HmmSpec:
    """Spec whose analytic ezafe rate equals target_rate and whose flags are
    nearly deterministic given (state, next state): accepting states link
    forward to modifier-like next states, so recognition hinges on the word
    window rather than a coin flip. A binary pair rule grows one next-state
    column at a time until it clears the target, then a single closed-form
    rescale hits the target exactly (the rate is linear in the rule). The
    process is random_spec's at emission_skew 5.0."""
    start, trans, emit = _random_process(n_states, vocab_size, seed, self_bias=0.3, emission_skew=5.0)
    accepting = max(1, n_states // 3)
    rule = np.zeros((n_states, n_states))
    rate = 0.0
    for j in range(n_states):
        rule[:accepting, j] = 1.0
        rate = _ezafe_rate(start, trans, rule, length_dist)
        if rate >= target_rate:
            break
    if rate < target_rate:
        raise ValueError(f"target rate {target_rate} exceeds attainable rate {rate:.4f}")
    rule = rule * (target_rate / rate)
    return HmmSpec(*_names(n_states, vocab_size), start=start, trans=trans, emit=emit, ezafe_rule=rule)


def homograph_spec(seed: int = 5) -> HmmSpec:
    """Two states (H1, H2) share one emission distribution and identical
    incoming/outgoing transitions; they differ only in ezafe behavior. No
    tagger can separate them from words alone, while the ezafe flag makes
    them trivially separable: the construction behind the ezafe-helps-POS
    check."""
    rng = SplitMix64(seed)
    states = ("D", "H1", "H2", "V")
    d_words = tuple(f"d{i}" for i in range(5))
    h_words = tuple(f"h{i}" for i in range(12))
    v_words = tuple(f"v{i}" for i in range(8))
    vocab = d_words + h_words + v_words
    V = len(vocab)

    def emission(words: tuple[str, ...]) -> np.ndarray:
        row = np.zeros(V)
        weights = _dirichlet1(rng, len(words))
        for w, p in zip(words, weights):
            row[vocab.index(w)] = p
        return row

    e_d = emission(d_words)
    e_h = emission(h_words)  # shared by H1 and H2
    e_v = emission(v_words)
    emit = np.vstack([e_d, e_h, e_h.copy(), e_v])
    start = np.array([0.6, 0.1, 0.1, 0.2])
    trans = np.array(
        [
            [0.10, 0.45, 0.45, 0.00],  # D
            [0.30, 0.00, 0.00, 0.70],  # H1
            [0.30, 0.00, 0.00, 0.70],  # H2
            [0.60, 0.00, 0.00, 0.40],  # V
        ]
    )
    ezafe = np.zeros((4, 4))
    ezafe[1, :] = 1.0  # H1 always links forward; H2 never does
    return HmmSpec(states=states, vocab=vocab, start=start, trans=trans, emit=emit, ezafe_rule=ezafe)
