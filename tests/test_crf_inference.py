import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import decode_keys, flat, lattices
from oracles import brute_log_z, brute_posteriors, brute_viterbi, encode_keys, sum_product, viterbi_reference
from pertcrf import crf
from pertcrf.crf import (
    CrfModel,
    _emissions,
    _Layout,
    _sentence_groups,
    _viterbi,
    decode,
    nll_and_gradient,
)
from pertcrf.features import FeatureIndex, FeatureTemplate, batch, encode, index_and_encode

CRF1 = FeatureTemplate(id="CRF1")


def tiny_model(emission, transition, labels=("a", "b"), features=("f1", "f2")):
    return CrfModel(
        labels=tuple(labels),
        feature_index=FeatureIndex(features),
        emission=np.asarray(emission, dtype=float),
        transition=np.asarray(transition, dtype=float),
        template=CRF1,
    )


def one_sentence(T):
    """The layout of one sentence of T positions: step t holds position t."""
    return _Layout(np.array([0, T]))


def pack(ems):
    """One packed batch of (T_i, L) emission lattices: the packed rows, the
    layout, and the packed rows of each lattice in position order."""
    offsets = np.concatenate([[0], np.cumsum([len(em) for em in ems])]).astype(np.intc)
    layout = _Layout(offsets)
    row = layout.row
    packed = np.empty((int(offsets[-1]), ems[0].shape[1]))
    packed[row] = np.concatenate(ems)
    return packed, layout, [row[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def posteriors(ems, trans):
    """(log Z, unary (T, L), pairwise (T-1, L, L)) of each lattice, run as
    one packed batch through the scaled kernel and expanded from its alpha,
    beta and c with P = exp(em - row max) and E = exp(trans - max)."""
    packed, layout, rows = pack([np.asarray(em, dtype=float) for em in ems])
    top = trans.max()
    E = np.exp(trans - top)
    shift = packed.max(axis=1)
    P = np.exp(packed - shift[:, None])
    alpha, beta, c = sum_product(P, E, layout)
    out = []
    for r in rows:
        log_z = float(np.log(c[r]).sum() + shift[r].sum() + (len(r) - 1) * top)
        right = P[r[1:]] * beta[r[1:]] / c[r[1:], None]
        pairwise = alpha[r[:-1], :, None] * E * right[:, None, :]
        out.append((log_z, alpha[r] * beta[r], pairwise))
    return out


def lattice_posteriors(em, trans):
    return posteriors([em], np.asarray(trans, dtype=float))[0]


def best_path(em, trans):
    em = np.asarray(em, dtype=float)
    paths, scores = _viterbi(em.copy(), np.asarray(trans, dtype=float), one_sentence(len(em)))
    return paths.tolist(), float(scores[0])


class TestForwardBackward:
    def test_single_position_two_labels(self):
        alpha, beta, c = sum_product(np.ones((1, 2)), np.ones((2, 2)), one_sentence(1))
        assert math.log(c[0]) == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(alpha[0], 0.5)

    def test_two_positions_uniform(self):
        log_z, _, _ = lattice_posteriors(np.zeros((2, 2)), np.zeros((2, 2)))
        assert log_z == pytest.approx(math.log(4), abs=1e-12)

    def test_backward_length_one_betas_zero(self):
        # Scaled betas are 1 (log beta 0) on each sentence's last position.
        em = np.array([[0.3, -1.2]])
        _, beta, _ = sum_product(np.exp(em - em.max()), np.ones((2, 2)), one_sentence(1))
        assert np.all(beta == 1.0)

    @given(lattices())
    def test_forward_matches_enumeration(self, lat):
        em, trans = lat
        log_z, _, _ = lattice_posteriors(em, trans)
        expected = brute_log_z(em, trans)
        assert abs(log_z - expected) <= 1e-8 * max(1.0, abs(expected))

    @given(lattices())
    def test_partition_agreement(self, lat):
        # log Z from the backward direction: position 0's scores times its
        # betas, rescaled by every later step's normaliser and shifts.
        em, trans = lat
        T = len(em)
        top = trans.max()
        shift = em.max(axis=1)
        P = np.exp(em - shift[:, None])
        alpha, beta, c = sum_product(P, np.exp(trans - top), one_sentence(T))
        log_z = np.log(c).sum() + shift.sum() + (T - 1) * top
        log_z_b = math.log(P[0] @ beta[0]) + shift.sum() + np.log(c[1:]).sum() + (T - 1) * top
        assert abs(log_z - log_z_b) <= 1e-9 * max(1.0, abs(log_z))

    @given(lattices())
    def test_shift_invariance(self, lat):
        em, trans = lat
        log_z, u1, _ = lattice_posteriors(em, trans)
        path1, _ = best_path(em, trans)

        shifted = em.copy()
        c = 3.7
        shifted[0] += c
        log_z2, u2, _ = lattice_posteriors(shifted, trans)
        assert abs(log_z2 - (log_z + c)) <= 1e-9 * max(1.0, abs(log_z + c))
        assert np.allclose(u1, u2, atol=1e-9)
        assert best_path(shifted, trans)[0] == path1


class TestMarginals:
    def test_uniform_three_labels(self):
        _, unary, pairwise = lattice_posteriors(np.zeros((4, 3)), np.zeros((3, 3)))
        assert np.allclose(unary, 1.0 / 3.0, atol=1e-12)
        assert np.allclose(pairwise, 1.0 / 9.0, atol=1e-12)

    def test_single_position_softmax(self):
        _, unary, _ = lattice_posteriors([[math.log(3), 0.0]], np.zeros((2, 2)))
        assert unary[0] == pytest.approx([0.75, 0.25], abs=1e-12)

    @given(lattices())
    def test_normalization_and_consistency(self, lat):
        em, trans = lat
        _, unary, pairwise = lattice_posteriors(em, trans)
        assert np.allclose(unary.sum(axis=1), 1.0, atol=1e-9)
        if len(pairwise):
            assert np.allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-9)
            assert np.allclose(pairwise.sum(axis=2), unary[:-1], atol=1e-8)
            assert np.allclose(pairwise.sum(axis=1), unary[1:], atol=1e-8)

    @given(lattices())
    @settings(max_examples=60)
    def test_matches_enumeration(self, lat):
        em, trans = lat
        _, unary, pairwise = lattice_posteriors(em, trans)
        exp_unary, exp_pair = brute_posteriors(em, trans)
        assert np.allclose(unary, exp_unary, atol=1e-8)
        assert np.allclose(pairwise, exp_pair, atol=1e-8)


class TestViterbi:
    def test_all_zero_ties_to_label_zero(self):
        path, score = best_path(np.zeros((5, 3)), np.zeros((3, 3)))
        assert path == [0] * 5
        assert score == 0.0

    def test_single_position_argmax(self):
        assert best_path([[0.0, 5.0]], np.zeros((2, 2))) == ([1], 5.0)

    def test_integer_tie_breaking_matches_oracle(self):
        # Deliberate exact ties: integer scores, several optimal paths.
        rng = np.random.default_rng(0)
        for _ in range(50):
            T, L = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            em = rng.integers(-1, 2, size=(T, L)).astype(float)
            trans = rng.integers(-1, 2, size=(L, L)).astype(float)
            assert best_path(em, trans) == brute_viterbi(em, trans)

    @given(lattices())
    def test_matches_enumeration(self, lat):
        em, trans = lat
        path, score = best_path(em, trans)
        exp_path, exp_score = brute_viterbi(em, trans)
        assert score == exp_score
        assert path == exp_path

    @given(lattices())
    def test_score_never_exceeds_log_z(self, lat):
        em, trans = lat
        _, score = best_path(em, trans)
        log_z, _, _ = lattice_posteriors(em, trans)
        assert score <= log_z + 1e-12

    def test_viterbi_maps_labels(self):
        model = tiny_model([[0.0, 2.0], [1.0, 0.0]], np.zeros((2, 2)))
        assert decode_keys(model, [[["f1"], ["f2"]]]) == [["b", "a"]]


# T=1 rows, repeated lengths, and one long sentence beside many short ones.
MIXED_LENGTHS = [1, 1, 1, 1, 2, 2, 3, 3, 4, 9]


@pytest.mark.filterwarnings("error")
class TestPackedLayout:
    """The packed layout and the kernels that run over it, against
    enumeration sentence by sentence."""

    @staticmethod
    def check_layout(layout, offsets, rank):
        """The layout's order, ends, S and spans against its row, for
        sentences cut by offsets whose ranks are rank."""
        row, n = layout.row, int(offsets[-1])
        assert layout.order[row].tolist() == list(range(n))  # order inverts row
        assert row[layout.order].tolist() == list(range(n))
        for i in range(len(rank)):
            assert layout.ends[rank[i]] == row[offsets[i + 1] - 1]
        assert layout.S == len(rank)
        # Each span row's predecessor is the row of its sentence's previous
        # position, and the spans cover every row after step 0 in order.
        covered = layout.S
        for a, b, p in layout.spans:
            assert a == covered and b > a
            assert row[layout.order[a:b] - 1].tolist() == list(range(p, p + b - a))
            covered = b
        assert covered == n

    def test_steps_and_rows(self):
        lengths = [2, 1, 4, 2, 1]
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intc)
        layout = _Layout(offsets)
        # Longest first, corpus order among equal lengths: sentences 2, 0,
        # 3, 1, 4; step t holds the rows of those longer than t.
        assert layout.steps.tolist() == [0, 5, 8, 9, 10]
        assert layout.row.tolist() == [1, 6, 3, 0, 5, 8, 9, 2, 7, 4]
        assert layout.order.tolist() == [3, 0, 7, 2, 9, 4, 1, 8, 5, 6]
        assert layout.ends.tolist() == [9, 6, 7, 3, 4]
        assert layout.spans == [(5, 8, 0), (8, 9, 5), (9, 10, 8)]
        self.check_layout(layout, offsets, rank=[1, 3, 0, 2, 4])
        # The base that datagen's sampler reads alone.
        steps = crf._Steps(offsets)
        assert (steps.S, steps.steps.tolist(), steps.spans) == (5, layout.steps.tolist(), layout.spans)
        assert steps.order.dtype == layout.order.dtype and steps.order.tolist() == layout.order.tolist()

    def test_equal_lengths_keep_corpus_order(self):
        # Enough sentences that an unstable sort would reorder ties.
        lengths = np.random.default_rng(9).integers(1, 6, size=300)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.intc)
        layout = _Layout(offsets)
        by_rank = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))
        rank = np.empty(len(lengths), dtype=int)
        rank[by_rank] = np.arange(len(lengths))
        for i, T in enumerate(lengths):
            assert layout.row[offsets[i] : offsets[i] + T].tolist() == (layout.steps[:T] + rank[i]).tolist()
        self.check_layout(layout, offsets, rank)

    @pytest.mark.parametrize("seed", range(6))
    def test_sentence_groups_are_greedy_whole_sentences(self, seed):
        """The cut that sizes datagen's chunks and oracle blocks: groups in
        order that cover every sentence once, each within size positions
        or a single sentence, and none able to take its next sentence."""
        rng = np.random.default_rng(700 + seed)
        lengths = rng.integers(1, 12, size=int(rng.integers(1, 60)))
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        longest, total = int(lengths.max()), int(offsets[-1])
        for size in [1, 2, longest - 1, longest, 17, total, total + 5]:
            groups = _sentence_groups(offsets, size)
            assert [first for first, _ in groups] == [0] + [last for _, last in groups[:-1]]
            assert groups[-1][1] == len(lengths)
            for first, last in groups:
                assert last > first
                positions = int(offsets[last] - offsets[first])
                assert positions <= size or last == first + 1
                if last < len(lengths):
                    assert positions + int(lengths[last]) > size

    @pytest.mark.parametrize("seed", range(8))
    def test_posteriors_match_oracle(self, seed):
        rng = np.random.default_rng(600 + seed)
        L = int(rng.integers(2, 4))
        lengths = [int(v) for v in rng.permutation(MIXED_LENGTHS)]
        ems = [rng.normal(0, 2.0, size=(T, L)) for T in lengths]
        trans = rng.normal(0, 2.0, size=(L, L))
        expected_t = np.zeros((L, L))
        for em, (log_z, unary, pairwise) in zip(ems, posteriors(ems, trans)):
            exp_unary, exp_pair = brute_posteriors(em, trans)
            assert abs(log_z - brute_log_z(em, trans)) <= 1e-8 * max(1.0, abs(log_z))
            assert np.max(np.abs(unary - exp_unary)) <= 1e-8
            assert np.max(np.abs(pairwise - exp_pair), initial=0.0) <= 1e-8
            expected_t += exp_pair.sum(axis=0)
        # The objective's expected transitions, with one feature per
        # position whose weights are that position's emission scores and
        # gold labels all 0, so the empirical counts are (T-1) at (0, 0).
        model = tiny_model(
            np.concatenate(ems),
            trans,
            labels=[f"y{i}" for i in range(L)],
            features=[f"p{k}" for k in range(sum(lengths))],
        )
        sentences, k = [], 0
        for T in lengths:
            sentences.append([[f"p{k + t}"] for t in range(T)])
            k += T
        encoded = encode_keys(model.feature_index, sentences)
        _, (_, g_t) = nll_and_gradient(model, encoded, np.zeros(sum(lengths), dtype=int))
        g_t[0, 0] += sum(T - 1 for T in lengths)
        assert np.max(np.abs(g_t - expected_t)) <= 1e-8

    def test_decode_empty(self):
        model = tiny_model(np.zeros((2, 2)), np.zeros((2, 2)))
        assert decode_keys(model, []) == []
        ids = decode(model, encode(model.feature_index, CRF1, batch([], [0])))
        assert ids.tolist() == [] and ids.dtype == np.intp

    def test_zero_token_sentence_named(self):
        model = tiny_model(np.zeros((2, 2)), np.zeros((2, 2)))
        forms, offsets = flat([["a"], ["b", "a"], [], ["a"]])
        with pytest.raises(ValueError, match="sentence 2: no positions"):
            batch(forms, offsets)


@pytest.mark.filterwarnings("error")
class TestBatchedViterbi:
    """The Viterbi kernel and decode against enumeration and one-sentence
    decoding, and the emission kernel against per-position sums."""

    @pytest.mark.parametrize("seed", range(12))
    def test_kernel_matches_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        L = int(rng.integers(2, 4))
        lengths = [int(v) for v in rng.permutation(MIXED_LENGTHS)]
        # Integer scores, so that exact ties occur.
        ems = [rng.integers(-1, 2, size=(T, L)).astype(float) for T in lengths]
        trans = rng.integers(-1, 2, size=(L, L)).astype(float)
        packed, layout, rows = pack(ems)
        paths, scores = _viterbi(packed, trans, layout)
        assert paths.dtype == np.uint8
        for em, r in zip(ems, rows):
            path, score = brute_viterbi(em, trans)
            assert paths[r].tolist() == path
            assert scores[r[0]] == score  # a sentence's step-0 row is its rank

    @pytest.mark.parametrize("L", [1, 2, 3, 6, 30])
    @pytest.mark.parametrize("rows", [None, 1, 3, "S", "S-1"])
    def test_kernel_matches_reference_bit_for_bit(self, L, rows, monkeypatch):
        """Paths (dtype included) and scores equal the back-pointer kernel's
        bits, on integer scores, which tie often, and on real ones, whose
        sums round, with blocks of the given rows (None keeps the module's)
        so that a step spans several. At blocks of S rows, the rows of step
        0, the forward pass walks the layout's spans as they are; at S - 1
        it walks them cut into blocks."""
        cut = []
        blocks = crf._blocks
        monkeypatch.setattr(crf, "_blocks", lambda *a: cut.append(a) or blocks(*a))
        rng = np.random.default_rng(500 + L)
        batches = [
            [int(v) for v in rng.permutation(MIXED_LENGTHS)],
            [int(v) for v in rng.permutation([1] * 12 + [25])],
            [int(v) for v in rng.permutation([1] * 5 + [6] * 10)],
            [1] * 9,  # every row is its sentence's first: S == N
        ]
        draws = [lambda size: rng.integers(-2, 3, size=size).astype(float), lambda size: rng.normal(size=size)]
        for lengths, draw in itertools.product(batches, draws):
            ems = [draw((T, L)) for T in lengths]
            trans = draw((L, L))
            packed, layout, _ = pack(ems)
            if rows is not None:
                size = {"S": layout.S, "S-1": layout.S - 1}.get(rows, rows)
                monkeypatch.setattr(crf, "_VITERBI_BLOCK", size * L * L)
            cut.clear()
            paths, scores = _viterbi(packed.copy(), trans, layout)
            assert len(cut) == (rows == "S-1" or (rows in (1, 3) and layout.S > rows))
            want_paths, want_scores = viterbi_reference(packed, trans, layout.steps)
            assert paths.dtype == want_paths.dtype == np.min_scalar_type(L - 1)
            assert paths.tobytes() == want_paths.tobytes()
            assert scores.dtype == want_scores.dtype and scores.tobytes() == want_scores.tobytes()

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
        decoded = decode_keys(model, sentences)
        assert len(decoded) == len(sentences)
        for feats, labels in zip(sentences, decoded):
            rows = [[features.index(k) for k in keys if k != "nope"] for keys in feats]
            em = np.array([sum((model.emission[k] for k in ks), np.zeros(L)) for ks in rows])
            path, _ = brute_viterbi(em, model.transition)
            assert labels == [model.labels[i] for i in path]
            assert [labels] == decode_keys(model, [feats])

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
        encoded = encode_keys(model.feature_index, sentences)
        layout = _Layout(encoded.offsets)
        got = _emissions(encoded, layout, model._weights)[layout.row]
        want = []
        for feats in sentences:
            for keys in feats:
                idx = [features.index(k) for k in keys]
                want.append(model.emission[idx].sum(axis=0) if idx else np.zeros(L))
        assert np.array_equal(got, np.array(want))


def scored(model, features):
    """Emission scores of one sentence, in position order."""
    encoded = encode_keys(model.feature_index, [features])
    layout = _Layout(encoded.offsets)
    return _emissions(encoded, layout, model._weights)[layout.row]


class TestScoreLattice:
    """Emission scores from the kernel that training and decoding share."""

    def test_zero_weights(self):
        model = tiny_model(np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.all(scored(model, [["f1", "f2"], ["f1"]]) == 0.0)

    def test_single_feature(self):
        model = tiny_model([[0.0, 2.5], [0.0, 0.0]], np.zeros((2, 2)))
        em = scored(model, [["f1"]])
        assert em[0, 1] == 2.5
        assert em[0, 0] == 0.0

    def test_additivity(self):
        model = tiny_model([[1.0, 0.0], [-0.5, 0.0]], np.zeros((2, 2)))
        assert scored(model, [["f1", "f2"]])[0, 0] == pytest.approx(0.5)

    def test_unknown_features_contribute_zero(self):
        model = tiny_model([[1.0, 1.0], [1.0, 1.0]], np.zeros((2, 2)))
        assert scored(model, [["nope", "f1"]])[0, 0] == pytest.approx(1.0)


class TestValidation:
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
        # The sentinel id reads the zero row after the emission weights.
        assert model._weights.shape == (3, 2) and not model._weights[2].any()
        with pytest.raises(ValueError):
            model._weights[2, 0] = 1.0

    def test_model_owns_zero_padded_weights(self):
        # Any (F, L) emission is copied below F+1 rows; the first F rows of
        # an (F+1, L) float64 matrix with a zero last row are taken as
        # they are.
        given = np.ones((2, 2))
        model = tiny_model(given, np.zeros((2, 2)))
        assert not np.shares_memory(model.emission, given) and given.flags.writeable
        padded = np.zeros((3, 2))
        padded[:2] = 1.0
        model = tiny_model(padded[:2], np.zeros((2, 2)))
        assert model._weights is padded and np.shares_memory(model.emission, padded)
        padded = np.ones((3, 2))
        model = tiny_model(padded[:2], np.zeros((2, 2)))
        assert model._weights is not padded and not model._weights[2].any()

    def test_decode_copies_no_weights(self):
        F, L = 50_000, 30
        model = tiny_model(
            np.ones((F, L)),
            np.zeros((L, L)),
            labels=[f"y{i}" for i in range(L)],
            features=[f"w[0]=f{i}" for i in range(F)],
        )
        encoded = encode(model.feature_index, CRF1, batch(["f1", "f2", "x"], [0, 3]))
        tracemalloc.start()
        try:
            decode(model, encoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < F * L * 8 / 50
