import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import assert_same_text
from oracles import (
    reference_bayes_decode,
    reference_dirichlet1,
    reference_generate,
    reference_tuned_ezafe_spec,
)
from pertcrf import datagen
from pertcrf.corpus import Corpus, parse_corpus, write_corpus
from pertcrf.datagen import (
    GeometricLength,
    HmmSpec,
    HmmSpecError,
    bayes_decode,
    expected_ezafe_rate,
    generate,
    homograph_spec,
    parse_hmm_spec,
    random_spec,
    tuned_ezafe_spec,
    write_hmm_spec,
)
from pertcrf.rng import SplitMix64, randoms_at, substream, substream_states


def two_state_spec(ezafe_p=0.0):
    return HmmSpec(
        states=("A", "B"),
        vocab=("w1", "w2"),
        start=np.array([0.3, 0.7]),
        trans=np.array([[0.6, 0.4], [0.5, 0.5]]),
        emit=np.array([[0.9, 0.1], [0.2, 0.8]]),
        ezafe_rule=np.full((2, 2), ezafe_p),
    )


class TestSpecValidation:
    def test_non_stochastic_trans_row_named(self):
        with pytest.raises(HmmSpecError, match="TRANS row 'B'"):
            HmmSpec(
                states=("A", "B"),
                vocab=("w",),
                start=np.array([1.0, 0.0]),
                trans=np.array([[1.0, 0.0], [0.3, 0.3]]),
                emit=np.array([[1.0], [1.0]]),
                ezafe_rule=np.zeros((2, 2)),
            )

    def test_negative_entry_rejected(self):
        with pytest.raises(HmmSpecError, match="START"):
            HmmSpec(
                states=("A",),
                vocab=("w",),
                start=np.array([-1.0]),
                trans=np.array([[1.0]]),
                emit=np.array([[1.0]]),
                ezafe_rule=np.zeros((1, 1)),
            )

    def test_ezafe_above_one_rejected(self):
        with pytest.raises(HmmSpecError, match="EZAFE"):
            HmmSpec(
                states=("A",),
                vocab=("w",),
                start=np.array([1.0]),
                trans=np.array([[1.0]]),
                emit=np.array([[1.0]]),
                ezafe_rule=np.array([[1.5]]),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(HmmSpecError):
            HmmSpec(
                states=("A", "B"),
                vocab=("w",),
                start=np.array([0.5, 0.5]),
                trans=np.array([[1.0]]),
                emit=np.array([[1.0], [1.0]]),
                ezafe_rule=np.zeros((2, 2)),
            )


class TestSpecTokenRule:
    """States become tags and vocab words become forms, so a spec holds
    both to the corpus token rule when it is made."""

    @pytest.mark.parametrize(
        "states, vocab, message",
        [
            (("A", "B C"), ("w1", "w2"), "state must be non-empty and whitespace-free: 'B C'"),
            (("A", ""), ("w1", "w2"), "state must be non-empty and whitespace-free: ''"),
            (("A", "B"), ("w1", "w\u00a02"), r"word must be non-empty and whitespace-free: 'w\\xa02'"),
            (("A", "B"), ("w1\n", "w2"), r"word must be non-empty and whitespace-free: 'w1\\n'"),
        ],
    )
    def test_whitespace_rejected(self, states, vocab, message):
        spec = two_state_spec()
        with pytest.raises(HmmSpecError, match=message):
            HmmSpec(
                states=states,
                vocab=vocab,
                start=spec.start,
                trans=spec.trans,
                emit=spec.emit,
                ezafe_rule=spec.ezafe_rule,
            )

    def test_joiners_accepted(self):
        spec = two_state_spec()
        HmmSpec(
            states=("A\u200c", "B"),
            vocab=("w\u200c1", "\u2060"),
            start=spec.start,
            trans=spec.trans,
            emit=spec.emit,
            ezafe_rule=spec.ezafe_rule,
        )


class TestGenerate:
    def test_columns_match_the_tokens(self):
        c = generate(tuned_ezafe_spec(), 40, seed=3)
        assert c == Corpus.from_sentences(c.sentences)
        assert c.tag_inventory == tuple(dict.fromkeys(t.pos for s in c.sentences for t in s))

    def test_zero_rule_means_no_flags(self):
        c = generate(two_state_spec(0.0), 50, seed=1)
        assert all(t.ezafe == 0 for s in c.sentences for t in s)

    def test_deterministic(self):
        spec = two_state_spec(0.5)
        assert generate(spec, 40, seed=9) == generate(spec, 40, seed=9)

    def test_prefix_stability(self):
        # per-sentence substreams: the first sentences do not depend on how
        # many more are requested
        spec = two_state_spec(0.5)
        assert generate(spec, 5, seed=9).sentences == generate(spec, 20, seed=9).sentences[:5]

    def test_lengths_within_bounds(self):
        dist = GeometricLength(min_len=2, max_len=7, continue_prob=0.7)
        c = generate(two_state_spec(), 200, seed=3, length_dist=dist)
        lengths = [len(s) for s in c.sentences]
        assert min(lengths) >= 2 and max(lengths) <= 7

    def test_round_trips_through_corpus_module(self):
        c = generate(random_spec(3, 20, seed=2), 30, seed=4)
        assert parse_corpus(write_corpus(c)) == c

    def test_last_token_never_has_ezafe(self):
        c = generate(two_state_spec(1.0), 100, seed=5)
        assert all(s[-1].ezafe == 0 for s in c.sentences)
        assert all(t.ezafe == 1 for s in c.sentences for t in s[:-1])

    def test_empirical_transitions_converge(self):
        spec = random_spec(4, 30, seed=7)
        dist = GeometricLength(min_len=8, max_len=12, continue_prob=0.5)
        c = generate(spec, 135_000, seed=8, length_dist=dist)
        states = np.array([spec.states.index(t) for t in c.tag_inventory])[c.tags]
        chained = np.ones(c.n_tokens - 1, dtype=bool)  # tokens t and t+1 in one sentence
        chained[c.offsets[1:-1] - 1] = False
        pairs = states[:-1][chained] * 4 + states[1:][chained]
        counts = np.bincount(pairs, minlength=16).reshape(4, 4).astype(float)
        n_trans = len(pairs)
        assert n_trans >= 1_000_000
        empirical = counts / counts.sum(axis=1, keepdims=True)
        assert np.max(np.abs(empirical - spec.trans)) < 0.01


class TestBayesDecode:
    def test_deterministic_emissions_recover_gold(self):
        spec = HmmSpec(
            states=("A", "B"),
            vocab=("wa", "wb"),
            start=np.array([0.5, 0.5]),
            trans=np.array([[0.5, 0.5], [0.5, 0.5]]),
            emit=np.array([[1.0, 0.0], [0.0, 1.0]]),
            ezafe_rule=np.zeros((2, 2)),
        )
        c = generate(spec, 50, seed=6)
        assert bayes_decode(spec, c.forms, c.offsets) == c.tag_names()

    def test_single_token_hand_bayes(self):
        spec = two_state_spec()
        # posterior for w1: (0.3*0.9, 0.7*0.2) = (0.27, 0.14) -> A
        assert bayes_decode(spec, ["w1"]) == ["A"]
        # posterior for w2: (0.3*0.1, 0.7*0.8) = (0.03, 0.56) -> B
        assert bayes_decode(spec, ["w2"]) == ["B"]

    def test_oov_word(self):
        with pytest.raises(ValueError, match="vocabulary"):
            bayes_decode(two_state_spec(), ["w1", "nope"])
        with pytest.raises(ValueError, match="'nope' not in spec vocabulary"):
            bayes_decode(two_state_spec(), ["w1", "w2", "nope", "w1"], [0, 2, 4])

    def test_no_sentences(self):
        assert bayes_decode(two_state_spec(), [], [0]) == []

    @pytest.mark.parametrize(
        "words, offsets, message",
        [
            ([], None, "sentence 0: no positions"),
            (["w1", "w2"], [0, 1, 1, 2], "sentence 1: no positions"),
            (["w1", "w2"], [0, 1], "offsets must run from 0 to the 2 positions"),
        ],
    )
    def test_bad_sentences(self, words, offsets, message):
        with pytest.raises(ValueError, match=message):
            bayes_decode(two_state_spec(), words, offsets)

    def test_permutation_equivariant_over_sentences(self):
        spec = random_spec(3, 20, seed=17)
        c = generate(spec, 20, seed=18)
        sentences = [[t.form for t in s] for s in c.sentences]
        decoded = {tuple(s): bayes_decode(spec, s) for s in sentences}
        for s in reversed(sentences):
            assert bayes_decode(spec, s) == decoded[tuple(s)]

    @pytest.mark.parametrize("make_spec", [lambda: random_spec(3, 20, seed=17), homograph_spec])
    def test_corpus_call_equals_sentence_calls(self, make_spec):
        # Many sentences of equal length, in shuffled order: the packed
        # layout ranks them by length and keeps corpus order among equals.
        spec = make_spec()
        c = generate(spec, 400, seed=18, length_dist=GeometricLength(1, 4, 0.5))
        c = c.take(np.random.default_rng(3).permutation(c.n_sentences))
        assert len(set(np.diff(c.offsets).tolist())) == 4
        sentences = [c.forms[c.offsets[i] : c.offsets[i + 1]] for i in range(c.n_sentences)]
        per_sentence = [state for s in sentences for state in bayes_decode(spec, s)]
        reference = [state for s in sentences for state in reference_bayes_decode(spec, s)]
        assert bayes_decode(spec, c.forms, c.offsets) == per_sentence == reference

    @pytest.mark.parametrize("block", [1, 4, 9, 40])
    @pytest.mark.parametrize(
        "make_spec", [lambda: random_spec(3, 20, seed=17), homograph_spec], ids=["random", "homograph"]
    )
    def test_blocks_equal_one_call(self, monkeypatch, make_spec, block):
        # homograph_spec's h-words tie H1 and H2 exactly.
        spec = make_spec()
        c = generate(spec, 150, seed=19, length_dist=GeometricLength(1, 8, 0.7))
        whole = bayes_decode(spec, c.forms, c.offsets)
        sizes = []
        modes = datagen._posterior_modes
        monkeypatch.setattr(datagen, "_ORACLE_BLOCK", block)
        monkeypatch.setattr(
            datagen, "_posterior_modes", lambda sp, obs, *a: sizes.append(len(obs)) or modes(sp, obs, *a)
        )
        assert bayes_decode(spec, c.forms, c.offsets) == whole
        # Whole consecutive sentences per block: at most block positions,
        # or one longer sentence.
        assert sum(sizes) == c.n_tokens and len(sizes) > 1
        lengths = np.diff(c.offsets).tolist()
        for size in sizes:
            assert size <= block or size == lengths[0]
            taken = 0
            while taken < size:
                taken += lengths.pop(0)
            assert taken == size

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_name_the_corpus_sentence(self, monkeypatch, block):
        spec = homograph_spec()
        c = generate(spec, 6, seed=2)
        forms = list(c.forms) + ["h0", "h0"] + list(c.forms)
        offsets = np.concatenate([c.offsets, c.offsets[-1] + 2 + c.offsets])
        monkeypatch.setattr(datagen, "_ORACLE_BLOCK", block)
        with pytest.raises(ValueError, match="^sentence 6: zero probability under the spec$"):
            bayes_decode(spec, forms, offsets)

    def test_zero_probability_sentence_named(self):
        # H1 and H2 never follow each other, and only they emit h-words.
        spec = homograph_spec()
        c = generate(spec, 6, seed=2)
        forms = list(c.forms) + ["h0", "h0"] + list(c.forms)
        offsets = np.concatenate([c.offsets, c.offsets[-1] + 2 + c.offsets])
        with pytest.raises(ValueError, match="^sentence 6: zero probability under the spec$"):
            bayes_decode(spec, forms, offsets)
        with pytest.raises(ValueError, match="^sentence 0: zero probability under the spec$"):
            bayes_decode(spec, ["h0", "h0"])

    def test_beats_weaker_decoders_on_average(self):
        spec = random_spec(4, 50, seed=13)
        c = generate(spec, 6000, seed=14)
        permuted = HmmSpec(
            states=spec.states,
            vocab=spec.vocab,
            start=spec.start,
            trans=spec.trans[::-1].copy(),
            emit=spec.emit,
            ezafe_rule=spec.ezafe_rule,
        )
        word_ids = {w: i for i, w in enumerate(spec.vocab)}
        gold = np.array(c.tag_names())
        oracle = np.array(bayes_decode(spec, c.forms, c.offsets))
        confused = np.array(bayes_decode(permuted, c.forms, c.offsets))
        ml = np.array(spec.states)[spec.emit[:, [word_ids[w] for w in c.forms]].argmax(axis=0)]
        total = len(gold)
        oracle_ok = int((oracle == gold).sum())
        wrong_model_ok = int((confused == gold).sum())
        ml_ok = int((ml == gold).sum())
        assert total >= 50_000
        assert oracle_ok >= ml_ok
        assert oracle_ok >= wrong_model_ok


class TestEzafeRate:
    def test_fixed_length_hand_value(self):
        # constant length 5, rule p everywhere: 4 of 5 positions can carry
        # ezafe, so the rate is 0.3 * 4/5
        spec = two_state_spec(0.3)
        dist = GeometricLength(min_len=5, max_len=5, continue_prob=0.0)
        assert expected_ezafe_rate(spec, dist) == pytest.approx(0.3 * 4 / 5, abs=1e-12)

    def test_tuned_spec_hits_target(self):
        spec = tuned_ezafe_spec(target_rate=0.22)
        assert expected_ezafe_rate(spec) == pytest.approx(0.22, abs=1e-9)

    def test_empirical_rate_matches_analytic(self):
        spec = tuned_ezafe_spec(target_rate=0.22)
        c = generate(spec, 4000, seed=21)
        flags = [t.ezafe for s in c.sentences for t in s]
        rate = sum(flags) / len(flags)
        assert rate == pytest.approx(expected_ezafe_rate(spec), abs=0.01)


class TestSpecFiles:
    def test_round_trip(self):
        spec = random_spec(3, 8, seed=1)
        restored = parse_hmm_spec(write_hmm_spec(spec))
        assert restored.states == spec.states
        assert restored.vocab == spec.vocab
        assert np.array_equal(restored.start, spec.start)
        assert np.array_equal(restored.trans, spec.trans)
        assert np.array_equal(restored.emit, spec.emit)
        assert np.array_equal(restored.ezafe_rule, spec.ezafe_rule)

    def test_missing_section(self):
        text = write_hmm_spec(two_state_spec())
        truncated = text[: text.index("EZAFE")]
        with pytest.raises(HmmSpecError, match="missing sections: EZAFE"):
            parse_hmm_spec(truncated)

    def test_non_stochastic_row_rejected(self):
        text = "STATES\nA\nSTART\n1.0\nTRANS\n0.9\nEMIT\nw\n1.0\nEZAFE\n0.0\n"
        with pytest.raises(HmmSpecError, match="TRANS"):
            parse_hmm_spec(text)

    def test_bad_number(self):
        text = "STATES\nA\nSTART\nxyz\nTRANS\n1.0\nEMIT\nw\n1.0\nEZAFE\n0.0\n"
        with pytest.raises(HmmSpecError, match="START"):
            parse_hmm_spec(text)

    @pytest.mark.parametrize(
        "old, new, row",
        [
            ("START\n0.3 0.7", "START\nnan 1.0", "START row 'start'"),
            ("0.5 0.5\nEMIT", "0.5 nan\nEMIT", "TRANS row 'B'"),
            ("0.9 0.1", "inf 0.1", "EMIT row 'A'"),
            ("EZAFE\n0.0 0.0", "EZAFE\nnan 0.0", "EZAFE row 'A'"),
        ],
    )
    def test_non_finite_entry_rejected(self, old, new, row):
        text = "STATES\nA B\nSTART\n0.3 0.7\nTRANS\n0.6 0.4\n0.5 0.5\n"
        text += "EMIT\nw1 w2\n0.9 0.1\n0.2 0.8\nEZAFE\n0.0 0.0\n0.0 0.0\n"
        parse_hmm_spec(text)
        assert old in text
        with pytest.raises(HmmSpecError, match=rf"^{row} has NaN entries or entries outside \[0, 1\]$"):
            parse_hmm_spec(text.replace(old, new, 1))


class TestLengthDist:
    def test_pmf_sums_to_one(self):
        dist = GeometricLength(min_len=3, max_len=40, continue_prob=0.85)
        assert dist.pmf().sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_distribution(self):
        dist = GeometricLength(min_len=4, max_len=4, continue_prob=0.0)
        assert dist.pmf().tolist() == [1.0]


class TestFactories:
    def test_homograph_states_share_emissions(self):
        spec = homograph_spec()
        h1, h2 = spec.states.index("H1"), spec.states.index("H2")
        assert np.array_equal(spec.emit[h1], spec.emit[h2])
        assert np.array_equal(spec.trans[h1], spec.trans[h2])
        assert np.all(spec.ezafe_rule[h1] == 1.0)
        assert np.all(spec.ezafe_rule[h2] == 0.0)

    def test_random_spec_is_valid_and_deterministic(self):
        a = random_spec(5, 40, seed=3)
        b = random_spec(5, 40, seed=3)
        assert np.array_equal(a.emit, b.emit)
        assert len(a.states) == 5 and len(a.vocab) == 40


def same_spec(a, b):
    return (
        a.states == b.states
        and a.vocab == b.vocab
        and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("start", "trans", "emit", "ezafe_rule"))
    )


@pytest.fixture(scope="module")
def bit_specs():
    """The specs the bulk sampler is held to, by name."""
    return {
        "random": random_spec(5, 40, seed=3),
        "tuned6": tuned_ezafe_spec(0.22, n_states=6, vocab_size=20000),
        "tuned30": tuned_ezafe_spec(0.22, n_states=30, vocab_size=20000),
        "homograph": homograph_spec(),
        "two-state": two_state_spec(0.5),
    }


LAWS = [
    GeometricLength(1, 1, 0.0),
    GeometricLength(2, 9, 0.5),
    GeometricLength(5, 5, 0.9),
    GeometricLength(3, 40, 0.999),
    GeometricLength(),
]


class TestBitIdentity:
    """Specs, corpora and oracle labels equal those of one draw per Python
    call (tests/oracles.py), byte for byte."""

    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    def test_randoms_equal_random_calls(self, seed, n):
        bulk, one = SplitMix64(seed), SplitMix64(seed)
        assert bulk.randoms(n).tolist() == [one.random() for _ in range(n)]
        assert bulk.next_u64() == one.next_u64()

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(1, 20))
    def test_substream_block_equals_substreams(self, seed, first, count):
        block = randoms_at(substream_states(seed, first, count)[:, None], np.arange(7))
        for i, row in enumerate(block.tolist()):
            rng = substream(seed, first + i)
            assert row == [rng.random() for _ in range(7)]

    @pytest.mark.parametrize("n, skew", [(1, 1.0), (5, 1.0), (300, 3.0), (20000, 5.0)])
    def test_dirichlet_rows(self, n, skew):
        bulk, one = SplitMix64(n), SplitMix64(n)
        assert np.array_equal(datagen._dirichlet1(bulk, n, skew), reference_dirichlet1(one, n, skew))
        assert bulk.next_u64() == one.next_u64()

    @pytest.mark.parametrize("name", ["random", "tuned6", "tuned30", "homograph"])
    def test_specs(self, bit_specs, name, monkeypatch):
        monkeypatch.setattr(datagen, "_dirichlet1", reference_dirichlet1)
        if name.startswith("tuned"):
            reference = reference_tuned_ezafe_spec(0.22, n_states=int(name[5:]), vocab_size=20000)
        else:
            reference = {"random": lambda: random_spec(5, 40, seed=3), "homograph": homograph_spec}[name]()
        assert same_spec(bit_specs[name], reference)

    @pytest.mark.parametrize("law", LAWS, ids=str)
    @pytest.mark.parametrize("name", ["random", "tuned6", "tuned30", "homograph", "two-state"])
    def test_corpora(self, bit_specs, name, law):
        spec = bit_specs[name]
        for seed, n in [(0, 1), (7, 1), (2**64 - 1, 30)]:
            corpus = generate(spec, n, seed, law)
            assert_same_text(write_corpus(corpus), write_corpus(reference_generate(spec, n, seed, law)))

    @pytest.mark.parametrize("law", LAWS, ids=str)
    def test_corpora_in_small_chunks(self, bit_specs, law, monkeypatch):
        # A block of 64 draws puts at most 21 tokens in a chunk, so sentences
        # of up to 40 tokens make chunks of one, and lengths are drawn in
        # groups of a few sentences.
        monkeypatch.setattr(datagen, "_DRAW_BLOCK", 64)
        spec = bit_specs["tuned6"]
        assert_same_text(write_corpus(generate(spec, 50, 3, law)), write_corpus(reference_generate(spec, 50, 3, law)))

    def test_corpus_across_chunks(self, bit_specs):
        spec = bit_specs["two-state"]
        corpus = generate(spec, 11_000, 12)
        assert corpus.n_tokens > datagen._DRAW_BLOCK // 3
        assert_same_text(write_corpus(corpus), write_corpus(reference_generate(spec, 11_000, 12)))

    def test_oracle_labels(self, bit_specs):
        spec = bit_specs["tuned30"]
        c = generate(spec, 1000, 31, GeometricLength(2, 9, 0.5))
        reference = []
        for i in range(c.n_sentences):
            words = c.forms[c.offsets[i] : c.offsets[i + 1]]
            labels = reference_bayes_decode(spec, words)
            assert bayes_decode(spec, words) == labels
            reference += labels
        assert bayes_decode(spec, c.forms, c.offsets) == reference
