import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_same_text, corpora, decode_keys, flat, persian_tokens
from oracles import (
    brute_nll_and_gradient,
    brute_viterbi,
    central_differences,
    encode_keys,
    expanded_ids,
    loop_nll_and_gradient,
    ragged_nll_and_gradient,
    reference_keys,
    reference_model_text,
    sentence_features,
)
from pertcrf import crf, features
from pertcrf.corpus import Corpus, Token
from pertcrf.crf import (
    CrfModel,
    ModelFormatError,
    TrainConfig,
    load_model,
    nll_and_gradient,
    save_model,
    train,
)
from pertcrf.datagen import generate, tuned_ezafe_spec
from pertcrf.features import FeatureIndex, FeatureTemplate, encode, index_and_encode

CRF1 = FeatureTemplate(id="CRF1")
CRF2 = FeatureTemplate(id="CRF2")
CRF2_EZ = FeatureTemplate(id="CRF2", ezafe_input=True)


# Batches here are (key lists per position, labels) pairs whose keys, such
# as f0, lie outside the feature grammar; the string oracle encodes them.


def gold_ids(labels, gold):
    """The label id of every position of gold, one label list per sentence."""
    return np.array([list(labels).index(lab) for g in gold for lab in g], dtype=int)


def objective(model, batch, l2=0.0):
    """nll_and_gradient of a batch."""
    encoded = encode_keys(model.feature_index, [feats for feats, _ in batch])
    return nll_and_gradient(model, encoded, gold_ids(model.labels, [g for _, g in batch]), l2=l2)


def train_keys(batch, labels, config=TrainConfig(), on_iteration=None):
    """train on a batch, indexing its keys in first-occurrence order; the
    model only."""
    sentences = [feats for feats, _ in batch]
    index = FeatureIndex(reference_keys(sentences))
    encoded = encode_keys(index, sentences)
    gold = gold_ids(labels, [g for _, g in batch])
    return train(index, encoded, gold, labels, CRF1, config, on_iteration=on_iteration)[0]


def model_from_flat(x, F, L, features, labels):
    x = np.asarray(x, dtype=float)
    return CrfModel(
        labels=tuple(labels),
        feature_index=FeatureIndex(features),
        emission=x[: F * L].reshape(F, L).copy(),
        transition=x[F * L :].reshape(L, L).copy(),
        template=CRF1,
    )


def random_problem(rng, max_features=8, max_labels=3, max_sentences=3, max_len=4):
    F = int(rng.integers(2, max_features + 1))
    L = int(rng.integers(2, max_labels + 1))
    features = [f"f{i}" for i in range(F)]
    labels = [f"y{i}" for i in range(L)]
    batch = []
    for _ in range(int(rng.integers(1, max_sentences + 1))):
        T = int(rng.integers(1, max_len + 1))
        feats = []
        for _ in range(T):
            k = int(rng.integers(1, min(4, F) + 1))
            feats.append(list(rng.choice(features, size=k, replace=False)))
        gold = [labels[int(rng.integers(0, L))] for _ in range(T)]
        batch.append((feats, gold))
    x = rng.normal(0, 0.5, size=F * L + L * L)
    return F, L, features, labels, batch, x


class TestNllGradient:
    def test_uniform_model_single_token(self):
        model = model_from_flat(np.zeros(2 * 2 + 4), 2, 2, ["f0", "f1"], ["a", "b"])
        nll, (ge, gt) = objective(model, [([["f0"]], ["a"])])
        assert nll == pytest.approx(math.log(2), abs=1e-12)
        assert ge[0, 0] == pytest.approx(0.5 - 1.0, abs=1e-12)
        assert ge[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert np.all(ge[1] == 0.0)
        assert np.all(gt == 0.0)

    def test_batch_additivity(self):
        rng = np.random.default_rng(2)
        F, L, features, labels, batch, x = random_problem(rng)
        model = model_from_flat(x, F, L, features, labels)
        one = batch[:1]
        nll1, (ge1, gt1) = objective(model, one)
        nll2, (ge2, gt2) = objective(model, one + one)
        assert nll2 == pytest.approx(2 * nll1, rel=1e-12)
        assert np.allclose(ge2, 2 * ge1, atol=1e-12)
        assert np.allclose(gt2, 2 * gt1, atol=1e-12)

    def test_unknown_gold_label(self):
        model = model_from_flat(np.zeros(8), 2, 2, ["f0", "f1"], ["a", "b"])
        encoded = encode_keys(model.feature_index, [[["f0"]]])
        for bad in (2, -1):
            with pytest.raises(ValueError, match=f"gold label id {bad} outside the 2 labels"):
                nll_and_gradient(model, encoded, np.array([bad]))
            with pytest.raises(ValueError, match=f"gold label id {bad} outside the 2 labels"):
                train(model.feature_index, encoded, np.array([bad]), model.labels, CRF1)
        with pytest.raises(ValueError, match="gold label ids must be integers"):
            nll_and_gradient(model, encoded, np.array([0.0]))

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_matches_finite_differences(self, l2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            F, L, features, labels, batch, x = random_problem(rng)

            def value(v):
                m = model_from_flat(v, F, L, features, labels)
                return objective(m, batch, l2=l2)[0]

            model = model_from_flat(x, F, L, features, labels)
            _, (ge, gt) = objective(model, batch, l2=l2)
            analytic = np.concatenate([ge.ravel(), gt.ravel()])
            numeric = central_differences(value, x, step=1e-5)
            denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
            assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


def oracle_problem(rng, lengths, L, scale, F=6, keys_per_position=(0, 4)):
    """A batch with the given sentence lengths over F indexed features plus
    a string the index lacks, so that some positions have no indexed
    feature; returns the string batch and the same batch as ids."""
    features = [f"f{i}" for i in range(F)]
    labels = [f"y{i}" for i in range(L)]
    batch, ids = [], []
    for T in lengths:
        feats = []
        for _ in range(T):
            k = int(rng.integers(*keys_per_position))
            keys = list(rng.choice(features, size=k, replace=False))
            feats.append(keys + ["unindexed"] * int(rng.integers(0, 2)))
        y = [int(rng.integers(0, L)) for _ in range(T)]
        batch.append((feats, [labels[v] for v in y]))
        ids.append(([[int(k[1:]) for k in keys if k in features] for keys in feats], y))
    x = rng.normal(0, scale, size=F * L + L * L)
    return features, labels, batch, ids, x


def assert_matches_oracle(features, labels, batch, ids, x, l2=0.0):
    F, L = len(features), len(labels)
    model = model_from_flat(x, F, L, features, labels)
    nll, (ge, gt) = objective(model, batch, l2=l2)
    ref_nll, ref_grad = brute_nll_and_gradient(ids, F, L, x, l2=l2)
    grad = np.concatenate([ge.ravel(), gt.ravel()])
    assert np.isfinite(nll) and np.all(np.isfinite(grad))
    assert nll == pytest.approx(ref_nll, rel=1e-10, abs=1e-10)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-8


class TestObjectiveOracle:
    """The batched training objective against enumeration, sentence by
    sentence, on batches mixing many lengths."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tiny_batches(self, seed):
        rng = np.random.default_rng(100 + seed)
        L = int(rng.integers(2, 4))
        # T=1, repeated lengths, and lengths in four different classes.
        lengths = [1, 1, 2, 3, 3, 4, 6] + ([8] if L == 2 else [])
        lengths = [int(v) for v in rng.permutation(lengths)]
        features, labels, batch, ids, x = oracle_problem(rng, lengths, L, scale=0.7)
        assert any(not pos for feats, _ in ids for pos in feats)
        assert_matches_oracle(features, labels, batch, ids, x, l2=float(rng.choice([0.0, 0.3])))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", range(6))
    def test_extreme_weights_and_heavy_padding(self, seed):
        # Weights of scale 50, ten 8-token sentences beside one of 15, so
        # that steps 8-14 of the packed layout hold one row each. Neither
        # inf, NaN nor a floating-point warning may come of them.
        rng = np.random.default_rng(200 + seed)
        lengths = [int(v) for v in rng.permutation([8] * 10 + [15])]
        features, labels, batch, ids, x = oracle_problem(
            rng, lengths, 2, scale=50.0, F=24, keys_per_position=(8, 17)
        )
        assert_matches_oracle(features, labels, batch, ids, x)

    def test_length_mismatch(self):
        model = model_from_flat(np.zeros(8), 2, 2, ["f0", "f1"], ["a", "b"])
        encoded = encode_keys(model.feature_index, [[["f0"]], [["f0"], ["f1"]]])
        with pytest.raises(ValueError, match=r"gold label ids of shape \(2,\) for 3 positions"):
            nll_and_gradient(model, encoded, np.array([0, 0]))


class TestRaggedKernels:
    """The kernels against the ragged ones that preceded the id matrix
    (oracles.ragged_nll_and_gradient), which sum a position's emission in
    key order and every count position by position. The kernels sum the
    focus slots once per type, and BOS and EOS once per sentence (see
    TestTypeKernels), so the results agree to rounding, within 1e-12
    relative."""

    @pytest.mark.parametrize("template", [CRF2, CRF2_EZ])
    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_nll_and_gradient_bit_identical(self, template, l2):
        corpus = generate(tuned_ezafe_spec(0.22), 60, seed=3)
        flags = corpus.ezafe if template.ezafe_input else None
        index, encoded = index_and_encode(template, features.batch(corpus.forms, corpus.offsets), flags)
        F, L = len(index), len(corpus.tag_inventory)
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 0.5, size=F * L + L * L)
        x[rng.random(x.size) < 0.3] = 0.0  # as L1 training leaves most weights
        model = model_from_flat(x, F, L, index.keys(), corpus.tag_inventory)
        nll, (g_e, g_t) = nll_and_gradient(model, encoded, corpus.tags, l2=l2)
        want, (w_e, w_t) = ragged_nll_and_gradient(model, encoded, corpus.tags, l2=l2)
        assert nll == pytest.approx(want, rel=1e-12)
        for got, ragged in ((g_e, w_e), (g_t, w_t)):
            assert np.all(np.abs(got - ragged) <= 1e-12 * np.maximum(1.0, np.abs(ragged)))


class TestRowMaxima:
    """crf._row_maxima, the objective's shift before exp, against
    a.max(axis=1), bit for bit, on row counts below, at and above one
    block of rows."""

    @pytest.mark.parametrize("L", [1, 2, 6, 30])
    @pytest.mark.parametrize("extra", [-1, 0, 1, crf._GATHER_BLOCK])
    def test_equals_max_bit_for_bit(self, L, extra):
        n = crf._GATHER_BLOCK // L + extra
        rng = np.random.default_rng(L * 7 + extra)
        a = rng.normal(0.0, 30.0, size=(n, L))
        # Ties and signed zeros, as emissions of weights left at 0.0 give,
        # and infinities, where the order of a reduction could show.
        a[rng.random(a.shape) < 0.2] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0
        a[rng.random(a.shape) < 0.01] = -np.inf
        got = crf._row_maxima(a)
        assert got.shape == (n,)
        assert np.array_equal(got.view(np.int64), a.max(axis=1).view(np.int64))


# Sentences for the type-wise kernels: one-token sentences, where BOS and
# EOS fall on one row; tokens spelled __BOS__; forms shorter than an affix;
# and ketabi, seen once, so that at min_count 2 its w[0] is unindexed while
# the prefixes it shares with ketab are indexed.
KERNEL_SENTENCES = [
    ["__BOS__"],
    ["ketab", "e", "xub"],
    ["a"],
    ["ketab", "ab", "ketabha", "e"],
    ["ab", "a", "xub", "__BOS__"],
    ["ketabi", "e"],
    ["xub"],
    ["ab", "ketab", "e"],
]
KERNEL_TEMPLATES = [CRF1, CRF2, CRF2_EZ]


def kernel_corpus():
    tags = ("N", "ADJ", "V")
    return Corpus.from_sentences([
        tuple(Token(form=f, pos=tags[(len(f) + i) % 3], ezafe=i % 2) for i, f in enumerate(s))
        for s in KERNEL_SENTENCES
    ])


class TestTypeKernels:
    """The kernels that sum the focus slots once per form type, and BOS and
    EOS once per sentence (crf._emissions, crf._Objective), on CRF1, CRF2
    and CRF2+EZ encodings of the kernel corpus."""

    @staticmethod
    def problem(template, min_count):
        corpus = kernel_corpus()
        flags = corpus.ezafe if template.ezafe_input else None
        batch = features.batch(corpus.forms, corpus.offsets)
        index, encoded = index_and_encode(template, batch, flags, min_count)
        return corpus, index, encoded

    @staticmethod
    def random_model(corpus, index, template, seed):
        F, L = len(index), len(corpus.tag_inventory)
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 0.5, size=F * L + L * L)
        x[rng.random(x.size) < 0.3] = 0.0
        return CrfModel(
            labels=corpus.tag_inventory,
            feature_index=index,
            emission=x[: F * L].reshape(F, L).copy(),
            transition=x[F * L :].reshape(L, L).copy(),
            template=template,
        )

    def test_corpus_holds_the_cases(self):
        corpus, index, encoded = self.problem(CRF2, 2)
        keys = set(index.keys())
        assert "w[0]=ketabi" not in keys and {"pre3=ket", "w[0]=__BOS__", "pre3=__B", "BOS"} <= keys
        assert 1 in np.diff(corpus.offsets) and min(map(len, corpus.forms)) < 3
        assert encoded.ids.shape[0] == 10 and encoded.focus.shape[0] == 7 and len(encoded.edges) == 2

    @pytest.mark.parametrize("min_count", [1, 2])
    @pytest.mark.parametrize("template", KERNEL_TEMPLATES, ids=lambda t: t.token)
    def test_gradient_matches_central_differences(self, template, min_count):
        corpus, index, encoded = self.problem(template, min_count)
        F, L = len(index), len(corpus.tag_inventory)
        objective = crf._Objective(encoded, corpus.tags, F, L, 0.1)
        x = np.random.default_rng(6).normal(0.0, 0.5, size=objective.size)
        _, grad = objective(x)
        numeric = central_differences(lambda v: objective(v)[0], x, step=1e-5)
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        assert np.max(np.abs(grad - numeric) / denom) <= 1e-6

    @pytest.mark.parametrize("min_count", [1, 2])
    @pytest.mark.parametrize("template", KERNEL_TEMPLATES, ids=lambda t: t.token)
    def test_kernels_equal_loop_oracle(self, template, min_count):
        # oracles.loop_nll_and_gradient adds one weight row or count at a
        # time in the kernels' order, so the results are equal, not close.
        generated = generate(tuned_ezafe_spec(0.22), 40, seed=3)
        for corpus in (kernel_corpus(), generated):
            flags = corpus.ezafe if template.ezafe_input else None
            batch = features.batch(corpus.forms, corpus.offsets)
            index, encoded = index_and_encode(template, batch, flags, min_count)
            model = self.random_model(corpus, index, template, seed=7)
            nll, (g_e, g_t) = nll_and_gradient(model, encoded, corpus.tags, l2=0.1)
            want, (w_e, w_t) = loop_nll_and_gradient(model, encoded, corpus.tags, l2=0.1)
            assert nll == want
            assert np.array_equal(g_e, w_e) and np.array_equal(g_t, w_t)

    def test_loop_oracle_on_key_lists(self):
        # A matrix of keys outside the grammar has no focus slots or edges.
        rng = np.random.default_rng(8)
        F, L, features_, labels, batch, x = random_problem(rng, max_sentences=5)
        model = model_from_flat(x, F, L, features_, labels)
        encoded = encode_keys(model.feature_index, [feats for feats, _ in batch])
        gold = gold_ids(labels, [g for _, g in batch])
        nll, (g_e, g_t) = nll_and_gradient(model, encoded, gold)
        want, (w_e, w_t) = loop_nll_and_gradient(model, encoded, gold)
        assert nll == want and np.array_equal(g_e, w_e) and np.array_equal(g_t, w_t)

    @pytest.mark.parametrize("template", KERNEL_TEMPLATES, ids=lambda t: t.token)
    def test_decode_matches_brute_force(self, template):
        corpus, index, encoded = self.problem(template, 2)
        model = self.random_model(corpus, index, template, seed=9)
        ids = {k: i for i, k in enumerate(index.keys())}
        flags = corpus.by_sentence(corpus.ezafe.tolist()) if template.ezafe_input else [None] * len(KERNEL_SENTENCES)
        decoded = crf.decode(model, encoded).tolist()
        L = len(corpus.tag_inventory)
        for forms, f, (a, b) in zip(KERNEL_SENTENCES, flags, zip(corpus.offsets, corpus.offsets[1:])):
            keys = sentence_features(forms, template, f)
            em = np.array([sum((model.emission[ids[k]] for k in ks if k in ids), np.zeros(L)) for ks in keys])
            path, _ = brute_viterbi(em, model.transition)
            assert decoded[a:b] == path

    @pytest.mark.parametrize("template", KERNEL_TEMPLATES, ids=lambda t: t.token)
    def test_retraining_gives_identical_model_text(self, template):
        corpus = generate(tuned_ezafe_spec(0.22), 30, seed=4)
        flags = corpus.ezafe if template.ezafe_input else None
        batch = features.batch(corpus.forms, corpus.offsets)
        index, encoded = index_and_encode(template, batch, flags, 2)
        config = TrainConfig(max_iterations=10)
        runs = [
            save_model(train(index, encoded, corpus.tags, corpus.tag_inventory, template, config)[0])
            for _ in range(2)
        ]
        assert_same_text(runs[0], runs[1])


class TestPairObjective:
    """The objective that crf.train minimizes: its parameters are the
    (feature, label) cells seen with their gold label, then the
    transitions."""

    @staticmethod
    def problem(n_sentences=12, seed=3):
        corpus = generate(tuned_ezafe_spec(0.22), n_sentences, seed=seed)
        index, encoded = index_and_encode(CRF2, features.batch(corpus.forms, corpus.offsets))
        F, L = len(index), len(corpus.tag_inventory)
        return corpus, index, encoded, F, L

    def objective(self, l2=0.0):
        corpus, _, encoded, F, L = self.problem()
        return crf._Objective(encoded, corpus.tags, F, L, l2), encoded, corpus.tags

    def test_pairs_are_the_gold_cells_of_the_id_matrix(self):
        objective, encoded, gold = self.objective()
        F, L = objective.F, objective.L
        seen = {(f, int(y)) for row in expanded_ids(encoded, F) for f, y in zip(row.tolist(), gold) if f != F}
        assert objective.cells.tolist() == sorted(f * L + y for f, y in seen)
        assert len(seen) < F * L
        assert objective.size == len(seen) + L * L

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_matches_central_differences(self, l2):
        objective, _, _ = self.objective(l2)
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 0.5, size=objective.size)
        _, grad = objective(x)
        numeric = central_differences(lambda v: objective(v)[0], x, step=1e-5)
        denom = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(numeric)))
        assert np.max(np.abs(grad - numeric) / denom) <= 1e-6

    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_equals_the_full_objective_at_the_pair_cells(self, l2):
        # Over every cell (nll_and_gradient), with 0.0 off the pairs, the
        # objective is the same and its gradient holds the same values at
        # the pair cells.
        corpus, index, encoded, F, L = self.problem()
        objective = crf._Objective(encoded, corpus.tags, F, L, l2)
        x = np.random.default_rng(5).normal(0.0, 0.5, size=objective.size)
        nll, grad = objective(x)
        model = CrfModel(
            labels=corpus.tag_inventory,
            feature_index=index,
            emission=objective.weights(x)[:F],
            transition=objective.transitions(x).copy(),
            template=CRF2,
        )
        full, (g_e, g_t) = nll_and_gradient(model, encoded, corpus.tags, l2=l2)
        assert nll == pytest.approx(full, rel=1e-12)
        assert np.array_equal(grad, np.concatenate([g_e.ravel()[objective.cells], g_t.ravel()]))

    def test_training_leaves_unseen_pairs_at_zero(self):
        corpus, index, encoded, F, L = self.problem(n_sentences=40)
        config = TrainConfig(l1=0.0, l2=0.1, max_iterations=15)
        model, _ = train(index, encoded, corpus.tags, corpus.tag_inventory, CRF2, config)
        seen = np.zeros((F + 1) * L, dtype=bool)  # the sentinel's cells last
        seen[(expanded_ids(encoded, F) * np.int64(L) + corpus.tags).ravel()] = True
        seen = seen[: F * L]
        emission = model.emission.ravel()
        assert np.all(emission[~seen].view(np.int64) == 0)  # +0.0, bit for bit
        assert np.all(emission[seen] != 0.0)

    def test_reruns_give_identical_model_text(self):
        corpus, index, encoded, _, _ = self.problem(n_sentences=40)
        config = TrainConfig(max_iterations=15)
        runs = [
            save_model(train(index, encoded, corpus.tags, corpus.tag_inventory, CRF2, config)[0])
            for _ in range(2)
        ]
        assert_same_text(runs[0], runs[1])


def span_limit(L):
    """Widest transition span the scaled recursion accepts for L labels."""
    return (math.log(np.finfo(np.float64).max) - math.log(L)) / 2


@pytest.mark.filterwarnings("error")
class TestTransitionSpan:
    """The range guard of the scaled recursion (see the crf module
    docstring): a span just inside the bound gives finite values that match
    enumeration, one just outside raises TransitionSpanError; neither gives
    NaN, inf or a floating-point warning."""

    @staticmethod
    def problem(seed, L, span):
        rng = np.random.default_rng(700 + seed)
        lengths = [int(v) for v in rng.permutation([1, 1, 2, 3, 6])]
        features, labels, batch, ids, x = oracle_problem(rng, lengths, L, scale=50.0)
        # Transitions at both ends of the span, so that E holds exp(-span);
        # 0 -> 1 and 1 -> 0 cost the whole span.
        trans = -span * rng.integers(0, 2, size=(L, L)).astype(float)
        trans[0, 0], trans[0, 1], trans[1, 0], trans[1, 1] = 0.0, -span, -span, 0.0
        x[len(features) * L :] = trans.ravel()
        # f0 and f1 outweigh the span for labels 0 and 1, so that a sentence
        # alternating them crosses the costliest transitions at every step,
        # where the normalisers fall to about exp(-span).
        w_e = x[: len(features) * L].reshape(len(features), L)
        w_e[0], w_e[1] = 0.0, 0.0
        w_e[0, 0] = w_e[1, 1] = span + 50.0
        alternating = [0, 1, 0, 1, 0]
        batch.append(([[f"f{k}"] for k in alternating], [labels[k] for k in alternating]))
        ids.append(([[k] for k in alternating], alternating))
        return features, labels, batch, ids, x

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_inside_bound_matches_oracle(self, seed, L):
        features, labels, batch, ids, x = self.problem(seed, L, span_limit(L) - 0.5)
        assert_matches_oracle(features, labels, batch, ids, x)

    @pytest.mark.parametrize("L", [2, 3, 30])
    def test_outside_bound_raises(self, L):
        features, labels, batch, _, x = self.problem(0, L, span_limit(L) + 0.5)
        model = model_from_flat(x, len(features), L, features, labels)
        with pytest.raises(crf.TransitionSpanError, match="transition weights span"):
            objective(model, batch)


    def test_training_backtracks_from_wide_spans(self, monkeypatch):
        # Under a guard whose limit is a third of the transition span that
        # unregularized training reaches here (0.267), the line search
        # backtracks from the trial steps beyond it instead of failing, and
        # the run still fits the data.
        batch, labels = separable_data()
        config = TrainConfig(l1=0.0, l2=0.0, max_iterations=60)
        free = train_keys(batch, labels, config)
        limit = np.ptp(free.transition) / 3
        assert np.ptp(free.transition) > limit > 0.05
        monkeypatch.setattr(crf, "_LOG_MAX", math.log(len(labels)) + 2 * limit)
        guarded = train_keys(batch, labels, config)
        assert np.ptp(guarded.transition) <= limit
        assert decode_keys(guarded, [f for f, _ in batch]) == [g for _, g in batch]


def separable_data(n=40, length=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = ["x", "y", "z"]
    batch = []
    for _ in range(n):
        gold = [labels[int(rng.integers(0, 3))] for _ in range(length)]
        batch.append(([[f"lab={g}"] for g in gold], gold))
    return batch, labels


class TestTrain:
    def test_separable_data_perfect_accuracy(self):
        batch, labels = separable_data()
        config = TrainConfig(l1=0.0, l2=0.0, max_iterations=60)
        model = train_keys(batch, labels, config)
        assert decode_keys(model, [feats for feats, _ in batch]) == [gold for _, gold in batch]

    def test_l1_sparsity(self):
        batch, labels = separable_data(n=60)
        # noise features make the dense solution use everything
        rng = np.random.default_rng(1)
        noisy = []
        for feats, gold in batch:
            noisy.append(([ks + [f"noise={rng.integers(0, 15)}"] for ks in feats], gold))
        dense = train_keys(noisy, labels, TrainConfig(l1=0.0, l2=0.01, max_iterations=40))
        sparse = train_keys(noisy, labels, TrainConfig(l1=0.1, l2=0.01, max_iterations=40))
        assert np.sum(sparse.emission == 0.0) > np.sum(dense.emission == 0.0)

    @pytest.mark.parametrize("field", ["l1", "l2", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    def test_defaults_match_reference_settings(self):
        config = TrainConfig()
        assert (config.l1, config.l2, config.max_iterations) == (0.1, 0.1, 100)

    def test_deterministic(self):
        batch, labels = separable_data(n=20)
        config = TrainConfig(max_iterations=25)
        a = train_keys(batch, labels, config)
        b = train_keys(batch, labels, config)
        assert np.array_equal(a.emission, b.emission)
        assert np.array_equal(a.transition, b.transition)

    def test_callback_objective_nonincreasing(self):
        batch, labels = separable_data(n=15)
        seen = []
        train_keys(
            batch,
            labels,
            TrainConfig(max_iterations=20),
            on_iteration=lambda it, obj, m: seen.append((it, obj)),
        )
        assert seen
        assert [it for it, _ in seen] == list(range(1, len(seen) + 1))
        objs = [o for _, o in seen]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_min_count_drops_rare_keys_from_the_encoding(self):
        # The objective that training reports must be the one of the
        # retained keys alone: the same as encoding the data afresh with
        # the trained index, which drops unknown keys. Each form is its
        # label plus a rare number, so pre1 is frequent and w[0] rare.
        rng = np.random.default_rng(2)
        batch, labels = separable_data(n=30)
        forms = [[f"{g}{rng.integers(0, 40)}" for g in gold] for _, gold in batch]
        gold = gold_ids(labels, [gold for _, gold in batch])
        config = TrainConfig(l1=0.0, l2=0.1, max_iterations=3, min_count=4)
        column, offsets = flat(forms)
        index, encoded = index_and_encode(CRF2, features.batch(column, offsets), min_count=config.min_count)
        seen = []
        on_iteration = lambda it, obj, m: seen.append(obj)
        model, _ = train(index, encoded, gold, labels, CRF2, config, on_iteration=on_iteration)
        counts = {}
        for sentence in forms:
            for keys in sentence_features(sentence, CRF2):
                for k in keys:
                    counts[k] = counts.get(k, 0) + 1
        assert set(model.feature_index.keys()) == {k for k, c in counts.items() if c >= 4}
        assert len(model.feature_index) < len(counts)
        encoded = encode(model.feature_index, CRF2, features.batch(column, offsets))
        nll, _ = nll_and_gradient(model, encoded, gold, l2=config.l2)
        assert seen[-1] == pytest.approx(nll, rel=1e-12)

    @pytest.mark.parametrize("min_count", [0, -5])
    def test_config_rejects_min_count_below_one(self, min_count):
        with pytest.raises(ValueError, match="min_count"):
            TrainConfig(min_count=min_count)

    def test_empty_training_data(self):
        index, encoded = index_and_encode(CRF1, features.batch([], [0]))
        with pytest.raises(ValueError, match="empty"):
            train(index, encoded, np.empty(0, dtype=int), ["a", "b"], CRF1)


def model_of(emission, transition, labels=("a", "b", "c")):
    """A CRF1 model over features f0, f1, ... with the given weights."""
    L = transition.shape[0]
    return CrfModel(
        labels=labels[:L],
        feature_index=FeatureIndex([f"f{i}" for i in range(len(emission))]),
        emission=emission.reshape(len(emission), L),
        transition=transition,
        template=CRF1,
    )


class TestModelIO:
    def trained(self):
        batch, labels = separable_data(n=10)
        return train_keys(batch, labels, TrainConfig(max_iterations=10)), batch

    def test_round_trip_exact(self):
        model, batch = self.trained()
        restored = load_model(save_model(model))
        assert restored.labels == model.labels
        assert np.array_equal(restored.emission, model.emission)
        assert np.array_equal(restored.transition, model.transition)
        assert restored.template == model.template
        sentences = [feats for feats, _ in batch]
        assert decode_keys(restored, sentences) == decode_keys(model, sentences)

    def test_hand_built_file(self):
        text = (
            "PERTCRF v1 CRF1 2 1\n"
            "a\tb\n"
            "F\tw[0]=tak\t0.25\t-1.5\n"
            "T\ta\t0.0\t2.0\n"
            "T\tb\t-0.125\t0.0\n"
        )
        model = load_model(text)
        assert model.labels == ("a", "b")
        assert model.emission[0, 0] == 0.25
        assert model.emission[0, 1] == -1.5
        assert model.transition[0, 1] == 2.0
        assert model.transition[1, 0] == -0.125
        assert save_model(model) == text

    # load_model parses the F rows' weights in one numpy call
    # (crf._bulk_rows) and falls back to a row at a time; both paths must
    # give the same model, and the same error naming the same line.

    @staticmethod
    def load_both_ways(text):
        """load_model(text) by the bulk parse and by the row loop alone, as
        (model or error message) pairs."""
        out = []
        for bulk in (crf._bulk_rows, lambda rows, L: None):
            with mock.patch.object(crf, "_bulk_rows", bulk):
                try:
                    out.append(load_model(text))
                except ModelFormatError as exc:
                    out.append(str(exc))
        return out

    def test_bulk_parse_equals_row_loop(self):
        keys = ["w[0]=#", 'w[0]="', 'pre1="#', "f#0", "w[1]=a=b", "suf2=''"]
        special = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -1.5e-7, 123456789.125, 2.0**-1074, -1e-310]
        rng = np.random.default_rng(5)
        emission = rng.choice(special + list(rng.normal(size=8)), size=(len(keys), 3))
        model = CrfModel(
            labels=("a", "b", "c"),
            feature_index=FeatureIndex(keys),
            emission=emission,
            transition=rng.normal(size=(3, 3)),
            template=CRF1,
        )
        text = save_model(model)
        assert crf._bulk_rows(text.split("\n")[2 : 2 + len(keys)], 3) is not None  # not the loop
        bulk_model, loop_model = self.load_both_ways(text)
        for got in (bulk_model, loop_model):
            assert got.feature_index.keys() == keys
            assert np.array_equal(got.emission.view(np.int64), emission.view(np.int64))
            assert_same_text(save_model(got), text)

    @pytest.mark.parametrize(
        "row, error",
        [
            ("F\tf\tx\t1.0", "line 3: bad weight value"),
            ("F\tf\t\t1.0", "line 3: bad weight value"),
            ("F\tf\t1.0\t2.0\t3.0", "line 3: malformed F row"),
            ("F\tf\t1.0", "line 3: malformed F row"),
            ("T\tf\t1.0\t2.0", "line 3: malformed F row"),
            ("F\tf\tnan\t1.0", "weights must be finite"),
            ("F\tf\t1e400\t1.0", "weights must be finite"),
        ],
    )
    def test_bad_rows_named_on_both_paths(self, row, error):
        # The second F row is the good one; the bad one is line 3.
        text = f"PERTCRF v1 CRF1 2 2\na\tb\n{row}\nF\tg\t0.5\t-0.5\nT\ta\t0\t0\nT\tb\t0\t0\n"
        assert self.load_both_ways(text) == [error, error]

    @pytest.mark.parametrize("weight, value", [("1_000", 1000.0), ("\u0661.5", 1.5), (" 2.5 ", 2.5)])
    def test_weights_only_float_parses_load_by_the_row_loop(self, weight, value):
        # numpy refuses the first two, which float() takes.
        text = f"PERTCRF v1 CRF1 2 1\na\tb\nF\tf\t{weight}\t1.0\nT\ta\t0\t0\nT\tb\t0\t0\n"
        for model in self.load_both_ways(text):
            assert model.emission.tolist() == [[value, 1.0]]

    def test_weights_render_as_per_element_repr(self):
        # The text must equal the per-element rendering repr(float(w)) byte
        # for byte, on weights whose shortest round-trip forms are unusual.
        special = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -1.5e-7, 123456789.125]
        rng = np.random.default_rng(7)
        emission = np.concatenate([np.reshape(special, (3, 2)), rng.normal(size=(5, 2))])
        transition = np.array([[-0.0, 5e-324], [0.1 + 0.2, -1e308]])
        model = model_of(emission, transition)
        text = save_model(model)
        assert_same_text(text, reference_model_text(model))
        assert "-0.0\t5e-324" in text and "0.30000000000000004" in text
        restored = load_model(text)
        assert np.array_equal(restored.emission, emission)
        assert np.signbit(restored.transition[0, 0])

    # save_model renders the F rows in blocks of crf._SAVE_BLOCK rows; each
    # case below must equal the per-element reference byte for byte.

    @pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1", "2B+3"])
    def test_block_edges(self, rows):
        B = crf._SAVE_BLOCK
        F = {"0": 0, "1": 1, "B-1": B - 1, "B": B, "B+1": B + 1, "2B+3": 2 * B + 3}[rows]
        rng = np.random.default_rng(F)
        emission = np.round(rng.normal(size=(F, 3)), 2)  # repeats within each block
        emission[rng.random((F, 3)) < 0.3] = 0.0
        model = model_of(emission, rng.normal(size=(3, 3)))
        text = save_model(model)
        assert_same_text(text, reference_model_text(model))
        assert text.count("\nF\t") == F
        restored = load_model(text)
        assert np.array_equal(restored.emission, emission)

    def test_signed_zeros_in_one_block(self):
        emission = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0], [-0.0, -0.0]])
        model = model_of(emission, np.array([[-0.0, 0.0], [0.0, -0.0]]))
        text = save_model(model)
        assert_same_text(text, reference_model_text(model))
        assert "F\tf0\t0.0\t-0.0\nF\tf1\t-0.0\t0.0\n" in text
        assert np.array_equal(np.signbit(load_model(text).emission), np.signbit(emission))

    def test_subnormals_and_extremes(self):
        values = [5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308]
        emission = np.array(values * 2).reshape(7, 2)
        model = model_of(emission, np.array([[1e308, -5e-324], [-1e-310, 0.0]]))
        text = save_model(model)
        assert_same_text(text, reference_model_text(model))
        assert np.array_equal(load_model(text).emission, emission)

    def test_values_repeated_across_a_block_boundary(self):
        B = crf._SAVE_BLOCK
        rng = np.random.default_rng(3)
        pool = rng.normal(size=5)
        emission = pool[rng.integers(0, 5, size=(B + 7, 2))]
        emission[B - 1 : B + 1] = [[pool[0], -0.0], [pool[0], -0.0]]
        model = model_of(emission, np.zeros((2, 2)))
        assert_same_text(save_model(model), reference_model_text(model))

    def test_integer_weights_render_as_floats(self):
        emission = np.array([[0, -3], [7, 0], [2**53 + 1, -(2**40)]], dtype=np.int64)
        model = model_of(emission, np.array([[1, 0], [0, -1]], dtype=np.int64))
        text = save_model(model)
        assert_same_text(text, reference_model_text(model))
        assert "F\tf0\t0.0\t-3.0\n" in text and "9007199254740992.0" in text
        assert np.array_equal(load_model(text).emission, emission.astype(np.float64))

    @given(
        st.integers(1, 5),
        st.integers(1, 3),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    )
    def test_any_weights_at_any_block_size(self, block, L, pool):
        # A tiny block puts many block boundaries into a small model.
        F = len(pool)
        emission = np.array([pool[(i * 7 + j) % F] for i in range(F) for j in range(L)]).reshape(F, L)
        model = model_of(emission, np.zeros((L, L)))
        with mock.patch.object(crf, "_SAVE_BLOCK", block):
            assert_same_text(save_model(model), reference_model_text(model))

    @pytest.mark.parametrize("label", ["a b", "", "a\u00a0b", "b\u2028"])
    def test_label_with_whitespace_names_line_2(self, label):
        # The rule corpus.Token applies to tags; the T row names the same label.
        text = f"PERTCRF v1 CRF1 2 0\nx\t{label}\nT\tx\t0.0\t0.0\nT\t{label}\t0.0\t0.0\n"
        with pytest.raises(ModelFormatError, match="line 2: label must be non-empty and whitespace-free"):
            load_model(text)

    def test_label_with_joiners_loads(self):
        # ZWNJ, ZWSP and the word joiner are not whitespace (as in Token).
        labels = ("N\u200cEZ", "V\u200b\u2060")
        text = f"PERTCRF v1 CRF1 2 0\n{labels[0]}\t{labels[1]}\nT\t{labels[0]}\t0.0\t0.0\nT\t{labels[1]}\t0.0\t0.0\n"
        assert load_model(text).labels == labels

    def test_pickle_round_trip_keeps_one_padded_matrix(self):
        # A model crosses a process boundary by pickle, so the copy must
        # hold its weights as the constructor does: once, read-only, with
        # emission a view of the padded matrix that decode reads.
        model, batch = self.trained()
        restored = pickle.loads(pickle.dumps(model))
        F, L = model.emission.shape
        assert restored._weights.shape == (F + 1, L) and not restored._weights[F].any()
        assert restored.emission.base is restored._weights
        for array in (restored.emission, restored._weights, restored.transition):
            assert not array.flags.writeable
        assert save_model(restored) == save_model(model)
        sentences = [feats for feats, _ in batch]
        assert decode_keys(restored, sentences) == decode_keys(model, sentences)

    @pytest.mark.parametrize(
        "text, error",
        [
            ("", "^empty model file$"),
            ("PERTCRF v1 CRF1 2 0\na\nT\ta\t0.0\t0.0\nT\tb\t0.0\t0.0\n", "^expected 2 labels, got 1$"),
            (
                "PERTCRF v1 CRF1 2 0\na\tb\nT\tb\t0.0\t0.0\nT\ta\t0.0\t0.0\n",
                "^transition row 0 names 'b', expected 'a'$",
            ),
        ],
    )
    def test_malformed_file_named(self, text, error):
        with pytest.raises(ModelFormatError, match=error):
            load_model(text)

    def test_unsupported_version(self):
        with pytest.raises(ModelFormatError, match="unsupported version"):
            load_model("PERTCRF v99 CRF1 2 0\na\tb\nT\ta\t0.0\t0.0\nT\tb\t0.0\t0.0\n")

    def test_truncated_file(self):
        model, _ = self.trained()
        text = save_model(model)
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model("\n".join(text.splitlines()[:-2]) + "\n")

    def test_unknown_template(self):
        with pytest.raises(ModelFormatError, match="template"):
            load_model("PERTCRF v1 CRF7 2 0\na\tb\nT\ta\t0.0\t0.0\nT\tb\t0.0\t0.0\n")

    def test_not_a_model_file(self):
        with pytest.raises(ModelFormatError):
            load_model("definitely not\n")

    @pytest.mark.parametrize("counts", ["1 -1", "0 0", "-1 2", "2 x"])
    def test_malformed_header_counts(self, counts):
        # A negative F with one label line once reached numpy as a negative
        # array size.
        with pytest.raises(ModelFormatError, match="malformed header counts"):
            load_model(f"PERTCRF v1 CRF1 {counts}\na\n")

    def test_bad_weight_value(self):
        with pytest.raises(ModelFormatError, match="bad weight"):
            load_model("PERTCRF v1 CRF1 2 1\na\tb\nF\tf\tx\t1.0\nT\ta\t0\t0\nT\tb\t0\t0\n")

    @given(
        corpora(max_sentences=6, tokens=persian_tokens),
        st.sampled_from([CRF1, CRF2, FeatureTemplate(id="CRF2", ezafe_input=True)]),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip_persian_keys_and_labels(self, c, template, seed):
        # Keys and labels with ZWNJ, digits, = and |; weights of every
        # magnitude, signed zeros and subnormals.
        flags = c.ezafe if template.ezafe_input else None
        index, encoded = index_and_encode(template, features.batch(c.forms, c.offsets), flags)
        labels = c.tag_inventory
        rng = np.random.default_rng(seed)
        F, L = len(index), len(labels)
        weights = rng.normal(size=F * L + L * L) * 10.0 ** rng.integers(-300, 300, size=F * L + L * L)
        weights[rng.random(weights.size) < 0.2] = rng.choice([0.0, -0.0, 5e-324, -1e-310])
        model = CrfModel(
            labels=labels,
            feature_index=index,
            emission=weights[: F * L].reshape(F, L),
            transition=weights[F * L :].reshape(L, L),
            template=template,
        )
        text = save_model(model)
        assert_same_text(text, reference_model_text(model))
        restored = load_model(text)
        assert restored.labels == labels and restored.template == template
        assert list(restored.feature_index.keys()) == list(index.keys())
        assert np.array_equal(restored.emission, model.emission)
        assert np.array_equal(np.signbit(restored.emission), np.signbit(model.emission))
        assert np.array_equal(restored.transition, model.transition)
        assert_same_text(save_model(restored), text)
        again = encode(restored.feature_index, template, features.batch(c.forms, c.offsets), flags)
        assert np.array_equal(expanded_ids(again, F), expanded_ids(encoded, F))

    def test_file_round_trip(self, tmp_path):
        model, _ = self.trained()
        path = tmp_path / "m.crf"
        crf.save_model_file(model, str(path))
        restored = crf.load_model_file(str(path))
        assert np.array_equal(restored.emission, model.emission)
