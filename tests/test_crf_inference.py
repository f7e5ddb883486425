import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lattices
from oracles import brute_log_z, brute_posteriors, brute_viterbi
from pertcrf.crf import (
    CrfModel,
    Lattice,
    _emissions,
    _encode_features,
    _viterbi,
    backward,
    decode,
    decode_lattice,
    forward,
    logsumexp,
    marginals,
    score_lattice,
    viterbi,
)
from pertcrf.features import FeatureIndex, FeatureTemplate

CRF1 = FeatureTemplate(id="CRF1")


def make_lattice(em, trans):
    return Lattice(log_emission=np.asarray(em, dtype=float), log_transition=np.asarray(trans, dtype=float))


def tiny_model(emission, transition, labels=("a", "b"), features=("f1", "f2")):
    return CrfModel(
        labels=tuple(labels),
        feature_index=FeatureIndex(features),
        emission=np.asarray(emission, dtype=float),
        transition=np.asarray(transition, dtype=float),
        template=CRF1,
    )


class TestForwardBackward:
    def test_single_position_two_labels(self):
        lat = make_lattice(np.zeros((1, 2)), np.zeros((2, 2)))
        alphas, log_z = forward(lat)
        assert log_z == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(alphas[0], 0.0)

    def test_two_positions_uniform(self):
        lat = make_lattice(np.zeros((2, 2)), np.zeros((2, 2)))
        assert forward(lat)[1] == pytest.approx(math.log(4), abs=1e-12)

    def test_backward_length_one_betas_zero(self):
        lat = make_lattice([[0.3, -1.2]], np.zeros((2, 2)))
        betas, log_z_b = backward(lat)
        assert np.all(betas == 0.0)
        assert log_z_b == pytest.approx(forward(lat)[1], abs=1e-12)

    @given(lattices())
    def test_forward_matches_enumeration(self, lat):
        em, trans = lat
        _, log_z = forward(make_lattice(em, trans))
        expected = brute_log_z(em, trans)
        assert abs(log_z - expected) <= 1e-8 * max(1.0, abs(expected))

    @given(lattices())
    def test_partition_agreement(self, lat):
        em, trans = lat
        l = make_lattice(em, trans)
        _, log_z = forward(l)
        _, log_z_b = backward(l)
        assert abs(log_z - log_z_b) <= 1e-9 * max(1.0, abs(log_z))

    @given(lattices())
    def test_shift_invariance(self, lat):
        em, trans = lat
        l = make_lattice(em, trans)
        _, log_z = forward(l)
        a1, b1 = forward(l)[0], backward(l)[0]
        u1, _ = marginals(l, a1, b1, log_z)
        path1, _ = decode_lattice(l)

        shifted = em.copy()
        c = 3.7
        shifted[0] += c
        l2 = make_lattice(shifted, trans)
        _, log_z2 = forward(l2)
        assert abs(log_z2 - (log_z + c)) <= 1e-9 * max(1.0, abs(log_z + c))
        a2, b2 = forward(l2)[0], backward(l2)[0]
        u2, _ = marginals(l2, a2, b2, log_z2)
        assert np.allclose(u1, u2, atol=1e-9)
        assert decode_lattice(l2)[0] == path1


class TestMarginals:
    def test_uniform_three_labels(self):
        lat = make_lattice(np.zeros((4, 3)), np.zeros((3, 3)))
        alphas, log_z = forward(lat)
        betas, _ = backward(lat)
        unary, pairwise = marginals(lat, alphas, betas, log_z)
        assert np.allclose(unary, 1.0 / 3.0, atol=1e-12)
        assert np.allclose(pairwise, 1.0 / 9.0, atol=1e-12)

    def test_single_position_softmax(self):
        lat = make_lattice([[math.log(3), 0.0]], np.zeros((2, 2)))
        alphas, log_z = forward(lat)
        betas, _ = backward(lat)
        unary, _ = marginals(lat, alphas, betas, log_z)
        assert unary[0] == pytest.approx([0.75, 0.25], abs=1e-12)

    @given(lattices())
    def test_normalization_and_consistency(self, lat):
        em, trans = lat
        l = make_lattice(em, trans)
        alphas, log_z = forward(l)
        betas, _ = backward(l)
        unary, pairwise = marginals(l, alphas, betas, log_z)
        assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
        if len(pairwise):
            assert np.allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-9)
            assert np.allclose(pairwise.sum(axis=2), unary[:-1], atol=1e-8)
            assert np.allclose(pairwise.sum(axis=1), unary[1:], atol=1e-8)

    @given(lattices())
    @settings(max_examples=60)
    def test_matches_enumeration(self, lat):
        em, trans = lat
        l = make_lattice(em, trans)
        alphas, log_z = forward(l)
        betas, _ = backward(l)
        unary, pairwise = marginals(l, alphas, betas, log_z)
        exp_unary, exp_pair = brute_posteriors(em, trans)
        assert np.allclose(unary, exp_unary, atol=1e-8)
        assert np.allclose(pairwise, exp_pair, atol=1e-8)


class TestViterbi:
    def test_all_zero_ties_to_label_zero(self):
        lat = make_lattice(np.zeros((5, 3)), np.zeros((3, 3)))
        path, score = decode_lattice(lat)
        assert path == [0] * 5
        assert score == 0.0

    def test_single_position_argmax(self):
        lat = make_lattice([[0.0, 5.0]], np.zeros((2, 2)))
        assert decode_lattice(lat) == ([1], 5.0)

    def test_integer_tie_breaking_matches_oracle(self):
        # Deliberate exact ties: integer scores, several optimal paths.
        rng = np.random.default_rng(0)
        for _ in range(50):
            T, L = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            em = rng.integers(-1, 2, size=(T, L)).astype(float)
            trans = rng.integers(-1, 2, size=(L, L)).astype(float)
            assert decode_lattice(make_lattice(em, trans)) == brute_viterbi(em, trans)

    @given(lattices())
    def test_matches_enumeration(self, lat):
        em, trans = lat
        path, score = decode_lattice(make_lattice(em, trans))
        exp_path, exp_score = brute_viterbi(em, trans)
        assert score == exp_score
        assert path == exp_path

    @given(lattices())
    def test_score_never_exceeds_log_z(self, lat):
        em, trans = lat
        l = make_lattice(em, trans)
        _, score = decode_lattice(l)
        _, log_z = forward(l)
        assert score <= log_z + 1e-12

    def test_viterbi_maps_labels(self):
        model = tiny_model([[0.0, 2.0], [1.0, 0.0]], np.zeros((2, 2)))
        labels, score = viterbi(model, [["f1"], ["f2"]])
        assert labels == ["b", "a"]
        assert score == pytest.approx(3.0)


@pytest.mark.filterwarnings("error")
class TestBatchedViterbi:
    """The batched kernel against enumeration, row by row, on batches mixing
    T=1 rows, repeated lengths and length classes [2^k, 2^(k+1))."""

    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_matches_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        L = int(rng.integers(2, 4))
        lengths = [int(v) for v in rng.permutation([1, 1, 2, 3, 3, 4, 6, 7])]
        # Integer scores, so that exact ties occur; the padded cells hold
        # random integers too, which must not matter.
        em = rng.integers(-1, 2, size=(len(lengths), 7, L)).astype(float)
        trans = rng.integers(-1, 2, size=(L, L)).astype(float)
        paths, scores = _viterbi(em, trans, np.array(lengths) - 1)
        assert paths.dtype == np.uint8
        for b, T in enumerate(lengths):
            path, score = brute_viterbi(em[b, :T], trans)
            assert paths[b, :T].tolist() == path
            assert scores[b] == score

    @pytest.mark.parametrize("seed", range(8))
    def test_decode_matches_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        L = int(rng.integers(2, 4))
        features = [f"f{i}" for i in range(6)]
        model = tiny_model(
            rng.integers(-1, 2, size=(6, L)),
            rng.integers(-1, 2, size=(L, L)),
            labels=[f"y{i}" for i in range(L)],
            features=features,
        )
        # 0 to 5 keys per position, some of them unknown to the index.
        sentences = [
            [list(rng.choice(features + ["nope"], size=int(rng.integers(0, 6)))) for _ in range(T)]
            for T in rng.permutation([1, 1, 2, 3, 3, 5, 4, 7, 1])
        ]
        decoded = decode(model, iter(sentences))
        assert len(decoded) == len(sentences)
        for feats, labels in zip(sentences, decoded):
            rows = [[features.index(k) for k in keys if k != "nope"] for keys in feats]
            em = np.array([sum((model.emission[k] for k in ks), np.zeros(L)) for ks in rows])
            path, _ = brute_viterbi(em, model.transition)
            assert labels == [model.labels[i] for i in path]
            assert labels == viterbi(model, feats)[0]

    @pytest.mark.parametrize("L", [2, 3, 6, 13])
    def test_emissions_equal_per_position_sums(self, L):
        # Each position's features are summed in the order given, as numpy
        # sums the rows of emission[idx], so the results are equal, not
        # close. (With L=1 numpy sums the single column pairwise instead.)
        rng = np.random.default_rng(500 + L)
        features = [f"f{i}" for i in range(300)]
        emission = rng.normal(size=(300, L)) * 10.0 ** rng.uniform(-6, 6, size=(300, 1))
        labels = [f"y{i}" for i in range(L)]
        model = tiny_model(emission, np.zeros((L, L)), labels=labels, features=features)
        sentences = [
            [list(rng.choice(features, size=int(rng.integers(0, 40)))) for _ in range(T)]
            for T in rng.integers(1, 20, size=30)
        ]
        got = _emissions(_encode_features(iter(sentences), model.feature_index), model.emission)
        want = []
        for feats in sentences:
            for keys in feats:
                idx = [model.feature_index[k] for k in keys if k in model.feature_index]
                want.append(model.emission[idx].sum(axis=0) if idx else np.zeros(L))
        assert np.array_equal(got, np.array(want))


class TestScoreLattice:
    def test_zero_weights(self):
        model = tiny_model(np.zeros((2, 2)), np.zeros((2, 2)))
        lat = score_lattice(model, [["f1", "f2"], ["f1"]])
        assert np.all(lat.log_emission == 0.0)

    def test_single_feature(self):
        model = tiny_model([[0.0, 2.5], [0.0, 0.0]], np.zeros((2, 2)))
        lat = score_lattice(model, [["f1"]])
        assert lat.log_emission[0, 1] == 2.5
        assert lat.log_emission[0, 0] == 0.0

    def test_additivity(self):
        model = tiny_model([[1.0, 0.0], [-0.5, 0.0]], np.zeros((2, 2)))
        lat = score_lattice(model, [["f1", "f2"]])
        assert lat.log_emission[0, 0] == pytest.approx(0.5)

    def test_unknown_features_contribute_zero(self):
        model = tiny_model([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)))
        lat = score_lattice(model, [["nope", "f1"]])
        assert lat.log_emission[0, 0] == pytest.approx(1.0)


class TestValidation:
    def test_lattice_shapes(self):
        with pytest.raises(ValueError):
            Lattice(log_emission=np.zeros((2, 3)), log_transition=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Lattice(log_emission=np.zeros((0, 2)), log_transition=np.zeros((2, 2)))

    def test_model_shape_checks(self):
        with pytest.raises(ValueError):
            tiny_model(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            tiny_model(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_model_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tiny_model([[np.inf, 0.0], [0.0, 0.0]], np.zeros((2, 2)))

    def test_model_weights_read_only(self):
        model = tiny_model(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            model.emission[0, 0] = 1.0

    def test_logsumexp_matches_naive(self):
        x = np.array([0.1, -3.0, 2.0])
        assert logsumexp(x) == pytest.approx(math.log(np.exp(x).sum()), abs=1e-12)
        big = np.array([1000.0, 1000.0])
        assert logsumexp(big) == pytest.approx(1000.0 + math.log(2), abs=1e-9)
