import math

import numpy as np
import pytest

from oracles import brute_nll_and_gradient, central_differences
from pertcrf import crf
from pertcrf.crf import (
    CrfModel,
    ModelFormatError,
    TrainConfig,
    decode,
    load_model,
    nll_and_gradient,
    save_model,
    train,
)
from pertcrf.features import FeatureIndex, FeatureTemplate

CRF1 = FeatureTemplate(id="CRF1")


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
        nll, (ge, gt) = nll_and_gradient(model, [([["f0"]], ["a"])])
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
        nll1, (ge1, gt1) = nll_and_gradient(model, one)
        nll2, (ge2, gt2) = nll_and_gradient(model, one + one)
        assert nll2 == pytest.approx(2 * nll1, rel=1e-12)
        assert np.allclose(ge2, 2 * ge1, atol=1e-12)
        assert np.allclose(gt2, 2 * gt1, atol=1e-12)

    def test_unknown_gold_label(self):
        model = model_from_flat(np.zeros(8), 2, 2, ["f0", "f1"], ["a", "b"])
        with pytest.raises(ValueError, match="not in model labels"):
            nll_and_gradient(model, [([["f0"]], ["zzz"])])

    @pytest.mark.parametrize("l2", [0.0, 0.3])
    def test_matches_finite_differences(self, l2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            F, L, features, labels, batch, x = random_problem(rng)

            def value(v):
                m = model_from_flat(v, F, L, features, labels)
                return nll_and_gradient(m, batch, l2=l2)[0]

            model = model_from_flat(x, F, L, features, labels)
            _, (ge, gt) = nll_and_gradient(model, batch, l2=l2)
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
    nll, (ge, gt) = nll_and_gradient(model, batch, l2=l2)
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
        with pytest.raises(ValueError, match="sentence 1: 2 positions, 1 labels"):
            nll_and_gradient(model, [([["f0"]], ["a"]), ([["f0"], ["f1"]], ["a"])])


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
            nll_and_gradient(model, batch)


    def test_training_backtracks_from_wide_spans(self, monkeypatch):
        # Unregularized training here ends with a transition span above
        # 0.3; under a guard whose limit is 0.1 the line search backtracks
        # from the trial steps beyond it instead of failing, and the run
        # still fits the data.
        batch, labels = separable_data()
        index = FeatureIndex(sorted({k for f, _ in batch for ks in f for k in ks}))
        config = TrainConfig(l1=0.0, l2=0.0, max_iterations=60)
        free = train(batch, index, labels, CRF1, config)
        assert np.ptp(free.transition) > 0.3
        monkeypatch.setattr(crf, "_LOG_MAX", math.log(len(labels)) + 0.2)
        guarded = train(batch, index, labels, CRF1, config)
        assert np.ptp(guarded.transition) <= 0.1
        assert decode(guarded, [f for f, _ in batch]) == [g for _, g in batch]


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
        index = FeatureIndex(sorted({k for f, _ in batch for ks in f for k in ks}))
        config = TrainConfig(l1=0.0, l2=0.0, max_iterations=60)
        model = train(batch, index, labels, CRF1, config)
        assert decode(model, [feats for feats, _ in batch]) == [gold for _, gold in batch]

    def test_l1_sparsity(self):
        batch, labels = separable_data(n=60)
        # noise features make the dense solution use everything
        rng = np.random.default_rng(1)
        noisy = []
        for feats, gold in batch:
            noisy.append(([ks + [f"noise={rng.integers(0, 15)}"] for ks in feats], gold))
        index = FeatureIndex(sorted({k for f, _ in noisy for ks in f for k in ks}))
        dense = train(noisy, index, labels, CRF1, TrainConfig(l1=0.0, l2=0.01, max_iterations=40))
        sparse = train(noisy, index, labels, CRF1, TrainConfig(l1=0.1, l2=0.01, max_iterations=40))
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
        index = FeatureIndex(sorted({k for f, _ in batch for ks in f for k in ks}))
        config = TrainConfig(max_iterations=25)
        a = train(batch, index, labels, CRF1, config)
        b = train(batch, index, labels, CRF1, config)
        assert np.array_equal(a.emission, b.emission)
        assert np.array_equal(a.transition, b.transition)

    def test_callback_objective_nonincreasing(self):
        batch, labels = separable_data(n=15)
        index = FeatureIndex(sorted({k for f, _ in batch for ks in f for k in ks}))
        seen = []
        train(
            batch,
            index,
            labels,
            CRF1,
            TrainConfig(max_iterations=20),
            on_iteration=lambda it, obj, m: seen.append((it, obj)),
        )
        assert seen
        assert [it for it, _ in seen] == list(range(1, len(seen) + 1))
        objs = [o for _, o in seen]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_empty_training_data(self):
        with pytest.raises(ValueError, match="empty"):
            train([], FeatureIndex(["f0"]), ["a", "b"], CRF1)


class TestModelIO:
    def trained(self):
        batch, labels = separable_data(n=10)
        index = FeatureIndex(sorted({k for f, _ in batch for ks in f for k in ks}))
        return train(batch, index, labels, CRF1, TrainConfig(max_iterations=10)), batch

    def test_round_trip_exact(self):
        model, batch = self.trained()
        restored = load_model(save_model(model))
        assert restored.labels == model.labels
        assert np.array_equal(restored.emission, model.emission)
        assert np.array_equal(restored.transition, model.transition)
        assert restored.template == model.template
        sentences = [feats for feats, _ in batch]
        assert decode(restored, sentences) == decode(model, sentences)

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

    def test_weights_render_as_per_element_repr(self):
        # The text must equal the per-element rendering repr(float(w)) byte
        # for byte, on weights whose shortest round-trip forms are unusual.
        special = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -1.5e-7, 123456789.125]
        rng = np.random.default_rng(7)
        emission = np.concatenate([np.reshape(special, (3, 2)), rng.normal(size=(5, 2))])
        transition = np.array([[-0.0, 5e-324], [0.1 + 0.2, -1e308]])
        keys = [f"f{i}" for i in range(8)]
        model = CrfModel(
            labels=("a", "b"),
            feature_index=FeatureIndex(keys),
            emission=emission,
            transition=transition,
            template=CRF1,
        )
        lines = ["PERTCRF v1 CRF1 2 8", "a\tb"]
        for kind, names, weights in (("F", keys, emission), ("T", "ab", transition)):
            for name, row in zip(names, weights):
                lines.append(f"{kind}\t{name}\t" + "\t".join(repr(float(w)) for w in row))
        text = save_model(model)
        assert text.encode("utf-8") == ("\n".join(lines) + "\n").encode("utf-8")
        assert "-0.0\t5e-324" in text and "0.30000000000000004" in text
        restored = load_model(text)
        assert np.array_equal(restored.emission, emission)
        assert np.signbit(restored.transition[0, 0])

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

    def test_bad_weight_value(self):
        with pytest.raises(ModelFormatError, match="bad weight"):
            load_model("PERTCRF v1 CRF1 2 1\na\tb\nF\tf\tx\t1.0\nT\ta\t0\t0\nT\tb\t0\t0\n")

    def test_file_round_trip(self, tmp_path):
        model, _ = self.trained()
        path = tmp_path / "m.crf"
        crf.save_model_file(model, str(path))
        restored = crf.load_model_file(str(path))
        assert np.array_equal(restored.emission, model.emission)
