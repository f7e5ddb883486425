"""Independent reference implementations used only by tests.

Everything here enumerates label sequences exhaustively, perturbs inputs
numerically, builds and counts feature strings one key at a time, renders
model text one weight at a time, counts confusion cells and per-POS ezafe
outcomes one token at a time, parses corpus text one line at a time,
shuffles, samples corpora and spec rows with one draw at a time, runs the
Bayes oracle with one vocabulary scan per word, or applies the OWL-QN
projections with masks; none of it shares code with the package's
inference, training, encoding, model-writing, metrics, parsing, sampling
or optimizer paths. The string extractor
is the reference for the key grammar and its order (see the
pertcrf.features docstring). The exceptions run the package's packed
layout and forward-backward (sum_product, a new plan per call) around
their own kernels: loop_nll_and_gradient pins the emission and
expected-count kernels bit for bit, adding one row or count at a time in
their order, and ragged_nll_and_gradient keeps the ragged kernels that
preceded the id matrix, which sum in key order. viterbi_reference is
the packed Viterbi kernel that preceded crf._viterbi, kept to pin its
paths and scores bit for bit.
"""

import itertools
import math
from collections import Counter

import numpy as np

from pertcrf.corpus import Corpus, CorpusFormatError, Token, non_unix_line
from pertcrf.crf import _Layout, _Plan, _sum_product as _crf_sum_product
from pertcrf.datagen import GeometricLength, HmmSpec, expected_ezafe_rate, random_spec
from pertcrf.features import Encoded, FeatureIndex
from pertcrf.rng import SplitMix64, substream

WINDOW = 5
W_KEYS = [f"w[{k}]=" for k in range(-WINDOW, WINDOW + 1)]
EZ_KEYS = [f"ez[{k}]=" for k in range(-WINDOW, WINDOW + 1)]


def sentence_features(forms, template, ezafe=None):
    """The key strings of every token of a sentence, in token order, each
    position's keys in emission order."""
    n = len(forms)
    if not template.ezafe_input:
        if ezafe is not None:
            raise ValueError("template does not take an ezafe annotation")
    elif ezafe is None:
        raise ValueError("template requires an ezafe annotation")
    elif len(ezafe) != n:
        raise ValueError(f"ezafe annotation length {len(ezafe)} != sentence length {n}")
    else:
        for v in ezafe:
            if v not in (0, 1):
                raise ValueError(f"ezafe flags must be 0 or 1, got {v!r}")
        ez = ["_"] * WINDOW + ["1" if v else "0" for v in ezafe] + ["_"] * WINDOW
    words = ["__BOS__"] * WINDOW + list(forms) + ["__EOS__"] * WINDOW
    out = []
    for i, focus in enumerate(forms):
        keys = [p + w for p, w in zip(W_KEYS, words[i : i + 2 * WINDOW + 1])]
        if template.id == "CRF2":
            for ln in (1, 2, 3):
                if len(focus) >= ln:
                    keys.append(f"pre{ln}={focus[:ln]}")
            for ln in (1, 2, 3):
                if len(focus) >= ln:
                    keys.append(f"suf{ln}={focus[-ln:]}")
            if i == 0:
                keys.append("BOS")
            if i == n - 1:
                keys.append("EOS")
        if template.ezafe_input:
            keys += [p + v for p, v in zip(EZ_KEYS, ez[i : i + 2 * WINDOW + 1])]
        out.append(keys)
    return out


def corpus_features(corpus, template, ezafe=None):
    """sentence_features of every sentence of a corpus, with ezafe, when
    given, holding one flag per token."""
    if ezafe is not None and len(ezafe) != corpus.n_tokens:
        raise ValueError(f"{len(ezafe)} ezafe flags for {corpus.n_tokens} tokens")
    flags = corpus.by_sentence(list(ezafe)) if ezafe is not None else [None] * corpus.n_sentences
    return [
        sentence_features([t.form for t in s], template, f) for s, f in zip(corpus.sentences, flags)
    ]


def reference_keys(sentences, min_count=1):
    """Every key of sentences (each a list of key lists, one per position)
    occurring at least min_count times, in first-occurrence order, from a
    Counter."""
    counts = Counter()
    for features in sentences:
        for keys in features:
            counts.update(keys)
    return [k for k, c in counts.items() if c >= min_count]


def reference_index(corpus, template, min_count=1, ezafe=None) -> FeatureIndex:
    """The feature index of a corpus's key strings at min_count."""
    return FeatureIndex(reference_keys(corpus_features(corpus, template, ezafe), min_count))


def encode_keys(index, sentences) -> Encoded:
    """Encode sentences given as key lists, one dict lookup per key: the
    index of every key of every position, keys the index lacks dropped, as
    the (K, N) id matrix with the sentinel len(index) below each position's
    ids, K the largest count of them at any position. Reaches any key,
    grammar or not, so tests can use keys such as f0."""
    ids = {k: i for i, k in enumerate(index.keys())}
    columns, offsets = [], [0]
    for i, features in enumerate(sentences):
        if not features:
            raise ValueError(f"sentence {i}: no positions")
        for keys in features:
            columns.append([ids[k] for k in keys if k in ids])
        offsets.append(len(columns))
    matrix = np.full((max(map(len, columns), default=0), len(columns)), len(ids), dtype=np.int32)
    for p, column in enumerate(columns):
        matrix[: len(column), p] = column
    return Encoded(
        ids=matrix,
        offsets=np.array(offsets, dtype=np.int32),
        types=np.zeros(len(columns), dtype=np.int32),
        focus=np.empty((0, 0), dtype=np.int32),
        edges=np.empty(0, dtype=np.int32),
    )


def expanded_ids(encoded, n_features):
    """The (slots, positions) id matrix of an encoding, rows in key order
    (the template's slots): w[-5..-1], w[0] and the affixes read through
    each position's type, w[1..5], BOS at each sentence's first position
    and EOS at its last (the sentinel n_features elsewhere), then the ez
    slots. A matrix with no focus slots (encode_keys) is returned as it
    is."""
    ids, focus, edges = encoded.ids, encoded.focus, encoded.edges
    if not len(focus):
        return ids
    n = ids.shape[1]
    at_types = [[int(row[t]) for t in encoded.types.tolist()] for row in focus.tolist()]
    rows = ids[:5].tolist() + at_types[:1] + ids[5:10].tolist() + at_types[1:]
    starts, ends = set(encoded.offsets[:-1].tolist()), set((encoded.offsets[1:] - 1).tolist())
    for edge, at in zip(edges.tolist(), (starts, ends)):
        rows.append([edge if p in at else n_features for p in range(n)])
    rows += ids[10:].tolist()
    return np.array(rows, dtype=np.int32).reshape(len(rows), n)


def position_ids(encoded, n_features):
    """The feature ids of every position of an encoding, sentinels (ids
    n_features and above) dropped, in slot order."""
    return [[i for i in column if i < n_features] for column in expanded_ids(encoded, n_features).T.tolist()]


def sum_product(P, E, layout):
    """crf._sum_product over a new plan for layout (a crf._Layout), from a
    copy of the exp-domain emissions P, which stay as they are: (alpha,
    beta, c)."""
    plan = _Plan(layout, P.shape[1])
    plan.P[...] = P
    return _crf_sum_product(plan, E)


def _objective_rest(em, encoded, w_t, gold):
    """The objective's arithmetic after the emissions em (packed rows):
    (log Z, expected transitions, the unary posteriors in packed rows, the
    empirical transition counts)."""
    layout = _Layout(encoded.offsets)
    steps, row = layout.steps, layout.row
    n, S = len(row), int(steps[1]) if len(steps) > 1 else 0
    y = np.asarray(gold).astype(np.intc)
    L = len(w_t)
    P = em.copy()
    top = float(w_t.max())
    E = np.exp(w_t - top)
    shift = P.max(axis=1)
    P -= shift[:, None]
    np.exp(P, out=P)
    alpha, beta, c = sum_product(P, E, layout)
    log_z = float(np.log(c).sum()) + float(shift.sum()) + (n - S) * top
    sizes = np.diff(steps)
    prev = np.arange(S, n) - np.repeat(sizes[:-1], sizes[1:])
    right = P[S:]
    right *= beta[S:]
    right /= c[S:, None]
    exp_t = E * (alpha[prev].T @ right)
    unary = alpha * beta
    chained = np.ones(max(n - 1, 0), dtype=bool)
    chained[encoded.offsets[1:-1] - 1] = False
    emp_t = np.bincount(y[:-1][chained] * L + y[1:][chained], minlength=L * L)
    return log_z, exp_t, unary, emp_t


def _finish(x, log_z, exp_e, emp_e, exp_t, emp_t, l2):
    """The objective's value and gradient from its counts, in its order."""
    F, L = exp_e.shape
    emp = np.concatenate([emp_e.ravel(), emp_t]).astype(np.float64)
    grad = np.concatenate([exp_e.ravel(), exp_t.ravel()])
    grad -= emp
    nll = log_z - float(np.dot(emp, x))
    if l2 > 0.0:
        nll += 0.5 * l2 * float(np.dot(x, x))
        grad += l2 * x
    return nll, (grad[: F * L].reshape(F, L), grad[F * L :].reshape(L, L))


def ragged_nll_and_gradient(model, encoded, gold, l2=0.0):
    """crf.nll_and_gradient with the ragged kernels that preceded the id
    matrix: the indexed ids of every position, in (position, key slot)
    order (feat), beside the packed row of each (tok); emissions from one
    bincount of w[feat] by tok per label, expected counts from one
    bincount of unary[tok] by feat per label. The rest is the objective's
    arithmetic in its order."""
    F, L = model.emission.shape
    ids = expanded_ids(encoded, F).T
    known = ids < F
    feat = ids[known]
    row = _Layout(encoded.offsets).row
    tok = np.repeat(row, known.sum(axis=1))
    n = len(row)
    y = np.asarray(gold).astype(np.intc)
    x = np.concatenate([model.emission.ravel(), model.transition.ravel()])
    w_e, w_t = x[: F * L].reshape(F, L), x[F * L :].reshape(L, L)

    em = np.empty((n, L))
    for lab, w in enumerate(np.asfortranarray(w_e).T):
        em[:, lab] = np.bincount(tok, weights=w[feat], minlength=n)
    log_z, exp_t, unary, emp_t = _objective_rest(em, encoded, w_t, y)

    y_row = np.empty_like(y)
    y_row[row] = y
    emp_e = np.bincount(feat * np.int64(L) + y_row[tok], minlength=F * L).reshape(F, L)
    exp_e = np.empty((F, L))
    for lab, u in enumerate(np.ascontiguousarray(unary.T)):
        exp_e[:, lab] = np.bincount(feat, weights=u[tok], minlength=F)
    return _finish(x, log_z, exp_e, emp_e, exp_t, emp_t, l2)


def loop_nll_and_gradient(model, encoded, gold, l2=0.0):
    """crf.nll_and_gradient with loops, one weight row or count at a time,
    in the kernels' order of summation (crf._emissions, crf._Objective).
    A position's emission row is its moving slots' weight rows added in
    slot order, plus its type's focus rows (themselves added in slot
    order), plus BOS's row at a sentence's first position, then EOS's at
    its last. The expected counts take, one entry at a time: every moving
    slot's posterior at each position in corpus order, slot by slot; then
    every focus slot's per-type sum (each added position by position in
    corpus order), type by type; then the posteriors of the sentences'
    first positions under BOS and of their last under EOS, in corpus
    order. Forward-backward and the rest are the objective's arithmetic in
    its order."""
    F, L = model.emission.shape
    w = np.vstack([model.emission, np.zeros((1, L))])  # the sentinel's row
    n = int(encoded.offsets[-1])
    moving = encoded.ids.T.tolist()
    types = encoded.types.tolist()
    edges = encoded.edges.tolist()
    starts, ends = encoded.offsets[:-1].tolist(), (encoded.offsets[1:] - 1).tolist()
    typed = []
    for column in encoded.focus.T.tolist():
        acc = w[column[0]].copy()
        for f in column[1:]:
            acc = acc + w[f]
        typed.append(acc)
    em_corpus = np.empty((n, L))
    for p in range(n):
        acc = np.zeros(L)
        for k, f in enumerate(moving[p]):
            acc = w[f].copy() if k == 0 else acc + w[f]
        if len(encoded.focus):
            acc = acc + typed[types[p]]
        if edges:
            if p in starts:
                acc = acc + w[edges[0]]
            if p in ends:
                acc = acc + w[edges[1]]
        em_corpus[p] = acc
    row = _Layout(encoded.offsets).row
    em = np.empty_like(em_corpus)
    em[row] = em_corpus
    x = np.concatenate([model.emission.ravel(), model.transition.ravel()])
    log_z, exp_t, unary, emp_t = _objective_rest(em, encoded, model.transition, gold)
    unary = unary[row]  # in corpus order

    y = np.asarray(gold).tolist()
    counts = np.zeros((F + 1, L))
    emp_e = np.zeros((F + 1, L))
    for slot in encoded.ids.tolist():
        for p, f in enumerate(slot):
            counts[f] += unary[p]
            emp_e[f, y[p]] += 1
    type_sums = np.zeros((encoded.focus.shape[1], L))
    type_gold = np.zeros((encoded.focus.shape[1], L))
    for p, t in enumerate(types if len(encoded.focus) else []):
        type_sums[t] += unary[p]
        type_gold[t, y[p]] += 1
    for slot in encoded.focus.tolist():
        for t, f in enumerate(slot):
            counts[f] += type_sums[t]
            emp_e[f] += type_gold[t]
    for f, at in zip(edges, (starts, ends)):
        for p in at:
            counts[f] += unary[p]
            emp_e[f, y[p]] += 1
    return _finish(x, log_z, counts[:F], emp_e[:F], exp_t, emp_t, l2)


def reference_model_text(model) -> str:
    """The model text (see pertcrf.crf) with every weight rendered on its
    own as repr(float(w)), one line at a time."""
    L, F = len(model.labels), len(model.feature_index)
    lines = [f"PERTCRF v1 {model.template.token} {L} {F}", "\t".join(model.labels)]
    for kind, names, weights in (
        ("F", model.feature_index.keys(), model.emission),
        ("T", model.labels, model.transition),
    ):
        for name, row in zip(names, weights):
            lines.append(f"{kind}\t{name}\t" + "\t".join(repr(float(w)) for w in row))
    return "\n".join(lines) + "\n"


def all_sequences(T: int, L: int) -> np.ndarray:
    return np.array(list(itertools.product(range(L), repeat=T)), dtype=np.int64)


def path_scores(em: np.ndarray, trans: np.ndarray, seqs: np.ndarray) -> np.ndarray:
    """Score every sequence, accumulating left to right in the same
    operation order as the dynamic program: ((s + transition) + emission)."""
    T = em.shape[0]
    scores = em[0][seqs[:, 0]].astype(np.float64)
    for t in range(1, T):
        scores = (scores + trans[seqs[:, t - 1], seqs[:, t]]) + em[t][seqs[:, t]]
    return scores


def brute_log_z(em: np.ndarray, trans: np.ndarray) -> float:
    scores = path_scores(em, trans, all_sequences(em.shape[0], em.shape[1]))
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_posteriors(em: np.ndarray, trans: np.ndarray):
    """(unary (T,L), pairwise (T-1,L,L)) marginals by full enumeration."""
    T, L = em.shape
    seqs = all_sequences(T, L)
    scores = path_scores(em, trans, seqs)
    w = np.exp(scores - scores.max())
    w /= w.sum()
    unary = np.zeros((T, L))
    for t in range(T):
        for y in range(L):
            unary[t, y] = w[seqs[:, t] == y].sum()
    pairwise = np.zeros((max(T - 1, 0), L, L))
    for t in range(T - 1):
        for i in range(L):
            for j in range(L):
                pairwise[t, i, j] = w[(seqs[:, t] == i) & (seqs[:, t + 1] == j)].sum()
    return unary, pairwise


def brute_viterbi(em: np.ndarray, trans: np.ndarray):
    """Exhaustive argmax. Among max-scoring sequences, picks the one whose
    reversed tuple is lexicographically smallest, which reproduces a
    backtrace that prefers the lower label index at every step."""
    seqs = all_sequences(em.shape[0], em.shape[1])
    scores = path_scores(em, trans, seqs)
    best = scores.max()
    candidates = seqs[scores == best]
    pick = min(range(len(candidates)), key=lambda i: tuple(candidates[i][::-1]))
    return list(int(v) for v in candidates[pick]), float(best)


def viterbi_reference(em: np.ndarray, trans: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max-product over a packed batch of log-domain emissions em (N, L).
    Returns the best label of every packed row and the best score of every
    sentence, in rank order. argmax takes the first maximum, so ties break
    toward the lower label index.

    The kernel that crf._viterbi replaced, kept as it was: each step takes
    max and argmax along the middle axis of a fresh (rows, from, to) array
    and keeps the argmax in an (N, L) back-pointer array, which the
    backtrace reads."""
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


def central_differences(fun, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Gradient of fun (scalar-valued) by central finite differences."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += step
        xm = x.copy()
        xm.flat[i] -= step
        g.flat[i] = (fun(xp) - fun(xm)) / (2 * step)
    return g


def brute_nll_and_gradient(batch, n_features: int, n_labels: int, x: np.ndarray, l2: float = 0.0):
    """NLL + (l2/2)|x|^2 of a batch and its gradient, sentence by sentence
    from enumeration: the sum of brute_log_z minus the gold path scores, and
    brute_posteriors expected counts minus empirical counts, plus l2*x.

    batch holds (feature ids per position, label ids) pairs; x is the flat
    weight vector, emission (F, L) then transition (L, L), row-major.
    """
    F, L = n_features, n_labels
    w_e = x[: F * L].reshape(F, L)
    w_t = x[F * L :].reshape(L, L)
    nll = 0.0
    g_e = np.zeros((F, L))
    g_t = np.zeros((L, L))
    for feats, y in batch:
        T = len(y)
        em = np.zeros((T, L))
        for t, ids in enumerate(feats):
            for k in ids:
                em[t] += w_e[k]
        gold = sum(em[t, y[t]] for t in range(T)) + sum(w_t[y[t], y[t + 1]] for t in range(T - 1))
        nll += brute_log_z(em, w_t) - gold
        unary, pairwise = brute_posteriors(em, w_t)
        for t, ids in enumerate(feats):
            for k in ids:
                g_e[k] += unary[t]
                g_e[k, y[t]] -= 1.0
        g_t += pairwise.sum(axis=0)
        for t in range(T - 1):
            g_t[y[t], y[t + 1]] -= 1.0
    grad = np.concatenate([g_e.ravel(), g_t.ravel()])
    return nll + 0.5 * l2 * float(x @ x), grad + l2 * x


def reference_confusion(gold, pred, tagset):
    """Confusion counts (gold x predicted, over tagset) of sentence-aligned
    tag sequences, one dict lookup and one increment per token."""
    tags = tuple(tagset)
    ids = {t: i for i, t in enumerate(tags)}
    counts = np.zeros((len(tags), len(tags)), dtype=np.int64)
    for s, (gs, ps) in enumerate(zip(gold, pred)):
        if len(gs) != len(ps):
            raise ValueError(f"sentence {s}: {len(gs)} gold tokens vs {len(ps)} predicted")
        for g, p in zip(gs, ps):
            if g not in ids:
                raise ValueError(f"sentence {s}: gold tag {g!r} outside tagset")
            if p not in ids:
                raise ValueError(f"sentence {s}: predicted tag {p!r} outside tagset")
            counts[ids[g], ids[p]] += 1
    return counts


def reference_ezafe_f1_per_pos(gold_ezafe, pred_ezafe, gold_pos):
    """Per-POS ezafe F1 and its mean from sentence-aligned flag and tag
    sequences, counting true positives, false positives and false negatives
    in per-tag dicts one token at a time."""
    tp, fp, fn = {}, {}, {}
    for s, (ge, pe, gp) in enumerate(zip(gold_ezafe, pred_ezafe, gold_pos)):
        if not (len(ge) == len(pe) == len(gp)):
            raise ValueError(f"sentence {s}: token counts differ between inputs")
        for g, p, pos in zip(ge, pe, gp):
            tp.setdefault(pos, 0)
            fp.setdefault(pos, 0)
            fn.setdefault(pos, 0)
            if g == 1 and p == 1:
                tp[pos] += 1
            elif g == 0 and p == 1:
                fp[pos] += 1
            elif g == 1 and p == 0:
                fn[pos] += 1
    scores = {}
    for pos in tp:
        if tp[pos] + fp[pos] + fn[pos] == 0:
            continue
        p = tp[pos] / (tp[pos] + fp[pos]) if tp[pos] + fp[pos] > 0 else 0.0
        r = tp[pos] / (tp[pos] + fn[pos]) if tp[pos] + fn[pos] > 0 else 0.0
        scores[pos] = 2 * p * r / (p + r) if p + r > 0 else 0.0
    ordered = dict(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    mean = sum(ordered.values()) / len(ordered) if ordered else 0.0
    return ordered, mean


def reference_parse(text: str) -> Corpus:
    """parse_corpus one line at a time, building a Token per token and
    raising CorpusFormatError at the first malformed line."""
    bad = non_unix_line(text)
    if bad is not None:
        raise CorpusFormatError(bad[1], bad[0])
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    sentences, current = [], []
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            if not current:
                raise CorpusFormatError("empty sentence", lineno)
            sentences.append(tuple(current))
            current = []
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise CorpusFormatError(f"expected 3 tab-separated columns, got {len(cols)}", lineno)
        form, pos, ez = cols
        if ez not in ("0", "1"):
            raise CorpusFormatError(f"ezafe flag must be 0 or 1, got {ez!r}", lineno)
        try:
            current.append(Token(form=form, pos=pos, ezafe=int(ez)))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), lineno) from None
    if current:
        sentences.append(tuple(current))
    return Corpus.from_sentences(sentences)


def reference_shuffle(seed: int, items: list) -> None:
    """Fisher-Yates with one SplitMix64.randrange draw per swap."""
    rng = SplitMix64(seed)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


# Synthetic corpora, spec rows and the Bayes oracle with one draw (or one
# vocabulary scan) at a time. Each sentence draws from its own substream:
# its length, its start state, n - 1 transitions, n emissions and n - 1
# flags, in that order.


def _sample_categorical(rng, cumulative):
    u = rng.random()
    i = int(np.searchsorted(cumulative, u, side="right"))
    return min(i, len(cumulative) - 1)


def reference_generate(spec, n_sentences, seed, length_dist=GeometricLength()):
    cum_start = np.cumsum(spec.start)
    cum_trans = np.cumsum(spec.trans, axis=1)
    cum_emit = np.cumsum(spec.emit, axis=1)
    forms, states, flags, offsets = [], [], [], [0]
    for s in range(n_sentences):
        rng = substream(seed, s)
        n = length_dist.min_len
        while n < length_dist.max_len and rng.random() < length_dist.continue_prob:
            n += 1
        sent = [_sample_categorical(rng, cum_start)]
        for t in range(1, n):
            sent.append(_sample_categorical(rng, cum_trans[sent[t - 1]]))
        forms += [spec.vocab[_sample_categorical(rng, cum_emit[state])] for state in sent]
        flags += [1 if rng.random() < spec.ezafe_rule[a, b] else 0 for a, b in zip(sent, sent[1:])]
        flags.append(0)
        states += sent
        offsets.append(offsets[-1] + n)
    return Corpus.from_codes(forms, np.array(states, dtype=np.int32), spec.states, flags, offsets)


def reference_dirichlet1(rng, n, skew=1.0):
    w = np.array([-math.log(1.0 - rng.random()) for _ in range(n)]) ** skew
    return w / w.sum()


def reference_tuned_ezafe_spec(
    target_rate=0.22, n_states=6, vocab_size=300, seed=11, length_dist=GeometricLength()
):
    """tuned_ezafe_spec's rule search over one validated HmmSpec per
    candidate column. Its process comes from random_spec, which draws one
    uniform at a time when datagen._dirichlet1 is reference_dirichlet1."""
    base = random_spec(
        n_states=n_states, vocab_size=vocab_size, seed=seed, emission_skew=5.0, ezafe_prob=1.0
    )

    def with_rule(rule):
        return HmmSpec(base.states, base.vocab, base.start, base.trans, base.emit, rule)

    accepting = max(1, n_states // 3)
    rule = np.zeros((n_states, n_states))
    for j in range(n_states):
        rule[:accepting, j] = 1.0
        rate = expected_ezafe_rate(with_rule(rule), length_dist)
        if rate >= target_rate:
            break
    return with_rule(rule * (target_rate / rate))


def reference_bayes_decode(spec, words):
    obs = np.array([spec.vocab.index(w) for w in words])
    T, L = len(obs), len(spec.states)
    alphas = np.empty((T, L))
    a = spec.start * spec.emit[:, obs[0]]
    alphas[0] = a / a.sum()
    for t in range(1, T):
        a = (alphas[t - 1] @ spec.trans) * spec.emit[:, obs[t]]
        alphas[t] = a / a.sum()
    betas = np.empty((T, L))
    betas[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        b = spec.trans @ (spec.emit[:, obs[t + 1]] * betas[t + 1])
        betas[t] = b / b.sum()
    posterior = alphas * betas
    return [spec.states[int(posterior[t].argmax())] for t in range(T)]


# OWL-QN's sign handling (see pertcrf.optim) written with masks.


def reference_pseudo_gradient(x, grad, l1):
    pg = np.where(x > 0, grad + l1, np.where(x < 0, grad - l1, 0.0))
    at_zero = x == 0
    right = grad + l1
    left = grad - l1
    pg[at_zero & (right < 0)] = right[at_zero & (right < 0)]
    pg[at_zero & (left > 0)] = left[at_zero & (left > 0)]
    return pg


def reference_orthant(x, pg):
    return np.where(x != 0, np.sign(x), -np.sign(pg))


def reference_projection(x_new, orthant):
    out = x_new.copy()
    out[out * orthant < 0] = 0.0
    return out
