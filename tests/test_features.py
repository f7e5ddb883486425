import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpora, forms, persian_tokens
from oracles import corpus_features, encode_keys, expanded_ids, position_ids, reference_index, reference_keys
from pertcrf import features
from pertcrf.corpus import Corpus, Token
from pertcrf.crf import CrfModel, decode
from pertcrf.features import AFFIX_SLOTS, FeatureIndex, FeatureTemplate, batch, encode, index_and_encode

CRF1 = FeatureTemplate(id="CRF1")
CRF2 = FeatureTemplate(id="CRF2")
CRF2_EZ = FeatureTemplate(id="CRF2", ezafe_input=True)


def sentence_features(forms, template, ezafe=None):
    """The keys of every position of one sentence, in emission order, as
    the training encoder indexes and encodes them."""
    index, encoded = index_and_encode(template, batch(forms, [0, len(forms)]), ezafe)
    keys = list(index.keys())
    return [[keys[i] for i in ids] for ids in position_ids(encoded, len(keys))]


class TestTemplate:
    def test_unknown_id(self):
        with pytest.raises(ValueError):
            FeatureTemplate(id="CRF3")

    def test_token_round_trip(self):
        for t in (CRF1, CRF2, CRF2_EZ, FeatureTemplate(id="CRF1", ezafe_input=True)):
            assert FeatureTemplate.from_token(t.token) == t

    def test_bad_token(self):
        for tok in ("CRF9", "CRF2+XX", "crf1", ""):
            with pytest.raises(ValueError):
                FeatureTemplate.from_token(tok)


class TestExtract:
    def test_crf1_single_token(self):
        keys = sentence_features(["tak"], CRF1)[0]
        assert len(keys) == 11
        assert keys.count("w[0]=tak") == 1
        assert sum(1 for k in keys if "__BOS__" in k or "__EOS__" in k) == 10
        assert keys[0] == "w[-5]=__BOS__"
        assert keys[-1] == "w[5]=__EOS__"

    def test_crf1_window_values(self):
        sent = ["a", "b", "c"]
        keys = sentence_features(sent, CRF1)[1]
        assert "w[-1]=a" in keys and "w[0]=b" in keys and "w[1]=c" in keys
        assert "w[-2]=__BOS__" in keys and "w[2]=__EOS__" in keys

    def test_crf2_two_scalar_focus(self):
        keys = sentence_features(["ab"], CRF2)[0]
        affixes = [k for k in keys if k.startswith(("pre", "suf"))]
        assert sorted(affixes) == ["pre1=a", "pre2=ab", "suf1=b", "suf2=ab"]

    def test_crf2_three_scalar_focus_emits_whole_word_affix(self):
        keys = sentence_features(["abc"], CRF2)[0]
        assert "pre3=abc" in keys and "suf3=abc" in keys

    def test_crf2_boundary_booleans(self):
        sent = ["aa", "bb", "cc"]
        assert "BOS" in sentence_features(sent, CRF2)[0]
        assert "EOS" not in sentence_features(sent, CRF2)[0]
        assert "BOS" not in sentence_features(sent, CRF2)[1]
        assert "EOS" in sentence_features(sent, CRF2)[2]
        single = sentence_features(["aa"], CRF2)[0]
        assert "BOS" in single and "EOS" in single

    def test_crf2_ez_midposition_count(self):
        # 11 word + 6 affix (3-scalar focus) + 0 booleans + 11 ez
        keys = sentence_features(["aaa", "bbb", "ccc"], CRF2_EZ, ezafe=[1, 0, 1])[1]
        assert len(keys) == 28
        assert "ez[-1]=1" in keys and "ez[0]=0" in keys and "ez[1]=1" in keys
        assert "ez[-2]=_" in keys and "ez[5]=_" in keys

    def test_persian_affixes_by_scalar(self):
        word = "کتاب"  # four Persian scalars
        keys = sentence_features([word], CRF2)[0]
        assert f"pre2={word[:2]}" in keys
        assert f"suf3={word[-3:]}" in keys

    def test_crf2_ez_full_key_list(self):
        # Model files list features in first-occurrence order, so this order
        # is part of the model format.
        assert sentence_features(["ab", "c", "defg"], CRF2_EZ, ezafe=[1, 0, 0]) == [
            [
                "w[-5]=__BOS__", "w[-4]=__BOS__", "w[-3]=__BOS__", "w[-2]=__BOS__",
                "w[-1]=__BOS__", "w[0]=ab", "w[1]=c", "w[2]=defg", "w[3]=__EOS__",
                "w[4]=__EOS__", "w[5]=__EOS__", "pre1=a", "pre2=ab", "suf1=b", "suf2=ab", "BOS",
                "ez[-5]=_", "ez[-4]=_", "ez[-3]=_", "ez[-2]=_", "ez[-1]=_", "ez[0]=1",
                "ez[1]=0", "ez[2]=0", "ez[3]=_", "ez[4]=_", "ez[5]=_",
            ],
            [
                "w[-5]=__BOS__", "w[-4]=__BOS__", "w[-3]=__BOS__", "w[-2]=__BOS__", "w[-1]=ab",
                "w[0]=c", "w[1]=defg", "w[2]=__EOS__", "w[3]=__EOS__", "w[4]=__EOS__",
                "w[5]=__EOS__", "pre1=c", "suf1=c", "ez[-5]=_", "ez[-4]=_", "ez[-3]=_",
                "ez[-2]=_", "ez[-1]=1", "ez[0]=0", "ez[1]=0", "ez[2]=_", "ez[3]=_", "ez[4]=_",
                "ez[5]=_",
            ],
            [
                "w[-5]=__BOS__", "w[-4]=__BOS__", "w[-3]=__BOS__", "w[-2]=ab", "w[-1]=c",
                "w[0]=defg", "w[1]=__EOS__", "w[2]=__EOS__", "w[3]=__EOS__", "w[4]=__EOS__",
                "w[5]=__EOS__", "pre1=d", "pre2=de", "pre3=def", "suf1=g", "suf2=fg",
                "suf3=efg", "EOS", "ez[-5]=_", "ez[-4]=_", "ez[-3]=_", "ez[-2]=1", "ez[-1]=0",
                "ez[0]=0", "ez[1]=_", "ez[2]=_", "ez[3]=_", "ez[4]=_", "ez[5]=_",
            ],
        ]

    def test_ezafe_length_mismatch(self):
        with pytest.raises(ValueError, match="1 ezafe flags for 2 positions"):
            sentence_features(["a", "b"], CRF2_EZ, ezafe=[1])
        with pytest.raises(ValueError, match="3 ezafe flags for 2 positions"):
            sentence_features(["a", "b"], CRF2_EZ, ezafe=[1, 0, 0])

    def test_ezafe_flag_values(self):
        for bad in (2, -1, "1", None):
            with pytest.raises(ValueError, match="0 or 1"):
                sentence_features(["a", "b"], CRF2_EZ, ezafe=[0, bad])

    def test_ezafe_presence_must_match_template(self):
        with pytest.raises(ValueError, match="requires"):
            sentence_features(["a"], CRF2_EZ)
        with pytest.raises(ValueError, match="does not take"):
            sentence_features(["a"], CRF1, ezafe=[0])

    @given(st.lists(forms, min_size=1, max_size=9), st.data())
    def test_crf1_always_11_distinct_keys(self, sent, data):
        vectors = sentence_features(sent, CRF1)
        assert len(vectors) == len(sent)
        keys = vectors[data.draw(st.integers(0, len(sent) - 1))]
        assert len(keys) == 11
        assert len(set(keys)) == 11

    @given(st.lists(forms, min_size=1, max_size=9), st.data())
    def test_pure_function_and_focus_key(self, sent, data):
        pos = data.draw(st.integers(0, len(sent) - 1))
        a = sentence_features(sent, CRF2)[pos]
        b = sentence_features(sent, CRF2)[pos]
        assert a == b
        assert [k for k in a if k.startswith("w[0]=")] == [f"w[0]={sent[pos]}"]
        assert len(set(a)) == len(a)


def trained_index(corpus, template, min_count=1, ezafe=None):
    """The feature index that training on corpus builds."""
    return index_and_encode(template, batch(corpus.forms, corpus.offsets), ezafe, min_count)[0]


def assert_same_tables(trained, loaded):
    """The two indexes hold the same tables up to the order of their rows:
    the loaded index holds a row only for the values its keys name, in key
    order, and the trained one a row for every value the training text
    has, where the rows that no key names hold only the sentinel F."""
    F = len(trained)
    assert len(loaded) == F
    for kind, values in loaded._values.items():
        rows = [trained._values[kind][v] for v in values]
        assert np.array_equal(trained._ids[kind][rows + [-1]], loaded._ids[kind]), kind
        assert (np.delete(trained._ids[kind], rows, axis=0) == F).all(), kind
    words = loaded._values["word"]
    rows = [trained._values["word"][v] for v in words]
    assert np.array_equal(trained._affix[:, rows + [-1]], loaded._affix)
    # The affix ids of a training form that no loaded key names are those
    # that the loaded index cuts for it.
    unnamed = [v for v in trained._values["word"] if v not in words]
    cut = loaded._affix_ids(*features._cut(unnamed))[:, :-1]
    assert np.array_equal(trained._affix[:, [trained._values["word"][v] for v in unnamed]], cut)


class TestIndex:
    def one_token_corpus(self):
        return Corpus.from_sentences([(Token(form="tak", pos="N", ezafe=0),)])

    def test_crf1_single_token_corpus(self):
        index = trained_index(self.one_token_corpus(), CRF1)
        assert len(index) == 11

    def test_min_count_one_keeps_everything(self):
        index = trained_index(self.one_token_corpus(), CRF1, min_count=1)
        assert set(index.keys()) == set(corpus_features(self.one_token_corpus(), CRF1)[0][0])

    def test_min_count_threshold(self):
        sents = [
            (Token(form="aa", pos="N", ezafe=0),),
            (Token(form="zz", pos="N", ezafe=0),),
            (Token(form="aa", pos="N", ezafe=0),),
        ]
        keys = list(trained_index(Corpus.from_sentences(sents), CRF1, min_count=2).keys())
        assert "w[0]=aa" in keys
        assert "w[0]=zz" not in keys  # seen once
        # first-occurrence order among the kept keys
        assert keys[keys.index("w[0]=aa") - 1] == "w[-1]=__BOS__"

    def test_first_occurrence_order(self):
        index = trained_index(self.one_token_corpus(), CRF1)
        assert list(index.keys()) == corpus_features(self.one_token_corpus(), CRF1)[0][0]

    def test_unknown_feature_maps_to_nothing(self):
        index = trained_index(self.one_token_corpus(), CRF1)
        n = len(index)
        encoded = encode(index, CRF1, batch(["unseen", "tak"], [0, 1, 2]))
        # All but w[0]=unseen, which holds the sentinel n, then all eleven
        # keys of tak.
        assert expanded_ids(encoded, n).T.tolist() == [[0, 1, 2, 3, 4, n, 6, 7, 8, 9, 10], list(range(11))]
        assert encoded.offsets.tolist() == [0, 1, 2]
        assert len(index) == n

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            FeatureIndex(["a", "a"])

    def test_ezafe_template_needs_annotations(self):
        with pytest.raises(ValueError, match="requires an ezafe annotation"):
            trained_index(self.one_token_corpus(), CRF2_EZ)

    def test_annotation_count_must_match_sentences(self):
        # One flag per position of the batch, whatever the sentences.
        c = Corpus.from_sentences([(Token(form="a", pos="N", ezafe=0),)] * 2)
        for flags in ([0], [0] * 3):
            with pytest.raises(ValueError, match=f"{len(flags)} ezafe flags for 2 positions"):
                trained_index(c, CRF2_EZ, ezafe=flags)
            with pytest.raises(ValueError, match=f"{len(flags)} ezafe flags for 2 positions"):
                encode(FeatureIndex([]), CRF2_EZ, batch(c.forms, c.offsets), flags)

    def test_flag_value_two_rejected(self):
        with pytest.raises(ValueError, match="0 or 1, got 2"):
            trained_index(self.one_token_corpus(), CRF2_EZ, ezafe=[2])

    def test_empty_batch_takes_empty_flags(self):
        encoded = encode(FeatureIndex([]), CRF2_EZ, batch([], [0]), [])
        assert expanded_ids(encoded, 0).shape == (len(CRF2_EZ.slots), 0) and encoded.offsets.tolist() == [0]

    def test_ezafe_template_index(self):
        keys = set(trained_index(self.one_token_corpus(), CRF2_EZ, ezafe=[0]).keys())
        assert "ez[0]=0" in keys
        assert "ez[1]=_" in keys

    @given(corpora(max_sentences=5))
    def test_sentence_features_cover_index(self, c):
        index = set(trained_index(c, CRF2).keys())
        for features in corpus_features(c, CRF2):
            for keys in features:
                for k in keys:
                    assert k in index

    @given(corpora(max_sentences=8), st.sampled_from([1, 2, 3]))
    def test_keys_equal_reference_index(self, c, min_count):
        want = list(reference_index(c, CRF2, min_count).keys())
        assert list(trained_index(c, CRF2, min_count).keys()) == want


class TestEncoderEqualsReference:
    """The code encoders against the string reference in oracles: the same
    keys in the same order, and the same feature ids per position."""

    @given(
        corpora(max_sentences=8, tokens=persian_tokens),
        corpora(max_sentences=4, tokens=persian_tokens),
        st.sampled_from([CRF1, CRF2, CRF2_EZ]),
        st.sampled_from([1, 2, 3]),
    )
    def test_training_and_decoding_encoders(self, c, other, template, min_count):
        flags = c.ezafe if template.ezafe_input else None
        strings = corpus_features(c, template, flags)
        index, encoded = index_and_encode(template, batch(c.forms, c.offsets), flags, min_count)
        assert list(index.keys()) == reference_keys(strings, min_count)
        F, keys = len(index), index.keys()
        want = position_ids(encode_keys(index, strings), F)
        decoded = encode(index, template, batch(c.forms, c.offsets), flags)
        # Training encodes through the decoding path: the same arrays.
        for field in ("ids", "offsets", "types", "focus", "edges"):
            trained, again = getattr(encoded, field), getattr(decoded, field)
            assert trained.dtype == again.dtype and np.array_equal(trained, again), field
        for got in (encoded, decoded):
            assert all(a.dtype == np.int32 for a in (got.ids, got.types, got.focus, got.edges))
            expanded = expanded_ids(got, F)
            assert expanded.shape == (len(template.slots), c.n_tokens)
            assert expanded.max(initial=F) == F
            assert position_ids(got, F) == want
            assert got.offsets.tolist() == c.offsets.tolist()
            # Row k holds only keys of slot k.
            for slot, ids in zip(template.slots, expanded.tolist()):
                assert all(keys[i].partition("=")[0] == slot for i in ids if i < F)
        # Decoding text the index was not made from: unknown forms,
        # affixes and flag windows hold the sentinel.
        other_flags = other.ezafe if template.ezafe_input else None
        got = encode(index, template, batch(other.forms, other.offsets), other_flags)
        want = encode_keys(index, corpus_features(other, template, other_flags))
        assert expanded_ids(got, F).max(initial=F) == F
        assert position_ids(got, F) == position_ids(want, F)

    def test_sentinel_spelled_forms_keep_their_affixes(self):
        sent = ["__BOS__", "x", "__EOS__"]
        want = [sorted(keys) for keys in corpus_features(
            Corpus.from_sentences([tuple(Token(form=f, pos="N", ezafe=0) for f in sent)]), CRF2
        )[0]]
        assert [sorted(keys) for keys in sentence_features(sent, CRF2)] == want
        assert "pre3=__B" in sentence_features(sent, CRF2)[0]
        assert "w[-1]=__BOS__" in sentence_features(sent, CRF2)[1]

    def test_keys_outside_the_grammar_never_match(self):
        index = FeatureIndex(["f0", "w[0]", "BOS=1", "ez[0]=2", "pre2=abc", "w[9]=a", "w[0]=a"])
        encoded = encode(index, CRF2_EZ, batch(["a", "abc"], [0, 2]), [0, 1])
        assert position_ids(encoded, len(index)) == [[6], []]
        # Keys of every kind, some sharing a value, mixed in any order with
        # keys outside the grammar, read back as given.
        grammar = [
            "w[-5]=__BOS__", "w[-1]=a", "w[0]=a", "w[0]=", "w[5]=__EOS__", "pre1=a", "suf1=a", "suf3=abc",
            "BOS", "EOS", "ez[-5]=_", "ez[0]=1", "ez[5]=0",
        ]
        outside = ["f0", "w[0]", "BOS=1", "ez[0]=2", "w[9]=a"]
        rng = np.random.default_rng(0)
        for _ in range(5):
            keys = [(grammar + outside)[i] for i in rng.permutation(len(grammar) + len(outside))]
            index = FeatureIndex(keys)
            assert index.keys() == keys and len(index) == len(keys)
        empty = FeatureIndex([])
        assert empty.keys() == [] and len(empty) == 0
        encoded = encode(empty, CRF2_EZ, batch(["a", "abc"], [0, 2]), [0, 1])
        assert position_ids(encoded, 0) == [[], []]


class TestSharedBatch:
    """One features.batch, read by every index that encodes its text, gives
    what a batch made for each index alone gives, and the string reference."""

    TRAIN = [["ketab", "e", "xub", "ra"], ["man", "ketab", "ra", "xandam"], ["a", "ab"], ["__BOS__", "ab"]]
    # Forms the indexes lack, forms shorter than an affix, and a token
    # spelled like the sentinel; the first and last sentences have one
    # position, so their BOS and EOS meet.
    TEXT = [["__BOS__"], ["ketab", "zz", "e", "ab", "__EOS__", "q"], ["a"], ["xub", "ketaabha"]]

    @staticmethod
    def corpus(sentences):
        return Corpus.from_sentences(
            [tuple(Token(form=f, pos="N", ezafe=i % 2) for i, f in enumerate(s)) for s in sentences]
        )

    def indexes(self):
        train = self.corpus(self.TRAIN)
        out = []
        for template in (CRF1, CRF2, CRF2_EZ):
            flags = train.ezafe if template.ezafe_input else None
            out.append((template, index_and_encode(template, batch(train.forms, train.offsets), flags)[0]))
        keys = out[2][1].keys() + ["f0", "w[9]=a", "pre2=abc", "ez[0]=2"]
        return out + [(CRF2_EZ, FeatureIndex(keys))]

    @pytest.mark.parametrize("sentences", [TEXT, []], ids=["text", "empty"])
    def test_one_batch_equals_one_per_index(self, sentences):
        text = self.corpus(sentences)
        shared = batch(text.forms, text.offsets)
        arrays = lambda b: [b.offsets, b.padded, b.at]
        kept, kept_words = [a.copy() for a in arrays(shared)], list(shared.words.items())
        for template, index in self.indexes():
            flags = text.ezafe if template.ezafe_input else None
            got = encode(index, template, shared, flags)
            alone = encode(index, template, batch(text.forms, text.offsets), flags)
            F = len(index)
            assert np.array_equal(expanded_ids(got, F), expanded_ids(alone, F))
            assert np.array_equal(got.offsets, alone.offsets)
            assert expanded_ids(got, F).shape == (len(template.slots), text.n_tokens)
            want = encode_keys(index, corpus_features(text, template, flags))
            assert position_ids(got, len(index)) == position_ids(want, len(index))
        # Training on the shared batch reads it too, and changes it no more
        # than decoding does.
        index, encoded = index_and_encode(CRF2_EZ, shared, text.ezafe)
        alone = index_and_encode(CRF2_EZ, batch(text.forms, text.offsets), text.ezafe)
        F = len(index)
        assert index.keys() == alone[0].keys()
        assert np.array_equal(expanded_ids(encoded, F), expanded_ids(alone[1], F))
        assert all(map(np.array_equal, kept, arrays(shared)))
        assert list(shared.words.items()) == kept_words

    def test_text_keys(self):
        # What the batch encodes at the focus of the sentinel-spelled token
        # (its affixes too), of a form that no index holds and of a
        # two-scalar form.
        template, index = self.indexes()[1]
        text = self.corpus(self.TEXT)
        keys = index.keys()
        ids = position_ids(encode(index, template, batch(text.forms, text.offsets)), len(index))
        at = lambda p: {keys[i] for i in ids[p]}
        assert {"w[0]=__BOS__", "w[-1]=__BOS__", "pre3=__B", "suf3=S__", "BOS", "EOS"} <= at(0)
        assert not any(k.startswith("w[0]=") for k in at(2)) and "w[-1]=ketab" in at(2)
        assert {"pre1=a", "pre2=ab", "suf2=ab", "suf1=b"} <= at(4)
        assert not any(k.startswith(("pre3", "suf3")) for k in at(4))

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_loaded_index_encodes_as_trained(self, min_count):
        # A known form reads its affix ids from the index's table, and a form
        # that the index lacks has its affixes cut. At min_count 2, "xub" is
        # known to the trained index (every training type is), but no key of
        # the loaded one names it, so the two take different paths.
        train, text = self.corpus(self.TRAIN), self.corpus(self.TEXT)
        rng = np.random.default_rng(0)
        for template in (CRF1, CRF2, CRF2_EZ):
            train_flags, flags = (train.ezafe, text.ezafe) if template.ezafe_input else (None, None)
            trained = trained_index(train, template, min_count, train_flags)
            loaded = FeatureIndex(trained.keys())
            shared = batch(text.forms, text.offsets)
            got, want = encode(loaded, template, shared, flags), encode(trained, template, shared, flags)
            for field in ("ids", "offsets", "types", "focus", "edges"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
            # So a model decodes the same labels with either index.
            F = len(trained)
            weights = dict(emission=rng.normal(size=(F, 3)), transition=rng.normal(size=(3, 3)))
            decoded = [
                decode(CrfModel(labels=("a", "b", "c"), feature_index=index, template=template, **weights), enc)
                for index, enc in ((trained, want), (loaded, got))
            ]
            assert np.array_equal(*decoded)
            assert_same_tables(trained, loaded)
        keys = loaded.keys()
        xub = shared.words["xub"]
        assert ("w[0]=xub" in keys) == (min_count == 1)
        assert keys[got.focus[1 + AFFIX_SLOTS.index("pre1"), xub]] == "pre1=x"
        suf3 = got.focus[1 + AFFIX_SLOTS.index("suf3"), xub]
        assert (suf3 == F) == (min_count == 2)  # "suf3=xub" is seen once

    def test_crf1_cuts_no_affix(self, monkeypatch):
        def cut(*args):
            raise AssertionError("an affix string was cut")

        monkeypatch.setattr(features, "_affix_codes", cut)
        monkeypatch.setattr(features, "_cut", cut)
        trained = trained_index(self.corpus(self.TRAIN), CRF1)
        text = self.corpus(self.TEXT)
        shared = batch(text.forms, text.offsets)
        for index in (trained, FeatureIndex(trained.keys())):
            assert encode(index, CRF1, shared).focus.shape == (1, len(shared.words))

    def test_training_cuts_affixes_once(self, monkeypatch):
        """index_and_encode cuts the affixes of its batch's types once, to
        index them: every type is in its own index's word dict, also the
        types of keys below min_count, so encoding with it cuts none."""
        cuts = []
        cut = features._cut
        monkeypatch.setattr(features, "_cut", lambda forms: cuts.append(tuple(forms)) or cut(forms))
        train = self.corpus(self.TRAIN)
        for template in (CRF2, CRF2_EZ):
            for min_count in (1, 2):
                shared = batch(train.forms, train.offsets)
                cuts.clear()
                index_and_encode(template, shared, train.ezafe if template.ezafe_input else None, min_count)
                assert cuts == [tuple(shared.words)], (template, min_count)

    @pytest.mark.parametrize("block", [None, 4])
    def test_one_encoder_equals_one_per_index(self, block, monkeypatch):
        """One batch of a text, encoded by every index in turn (in either
        order), encodes as a batch of its own does for each index alone,
        also for indexes that lack different forms, and it cuts the affixes
        of each set of forms that a CRF2 index lacks once. The text is one
        window block, whose codes the batch keeps, or three (block 4)."""
        if block is not None:
            monkeypatch.setattr(features, "_WINDOW_BLOCK", block)
        cuts = []
        cut = features._cut
        monkeypatch.setattr(features, "_cut", lambda forms: cuts.append(tuple(forms)) or cut(forms))
        text = self.corpus(self.TEXT)
        other = self.corpus([["ketab", "zz", "q"], ["xub", "a"]])  # forms that TRAIN lacks
        indexes = self.indexes() + [(CRF2_EZ, trained_index(other, CRF2_EZ, ezafe=other.ezafe))]
        flags = lambda template: text.ezafe if template.ezafe_input else None
        for order in (indexes, indexes[::-1]):
            shared = batch(text.forms, text.offsets)
            cuts.clear()
            got = [encode(index, template, shared, flags(template)) for template, index in order]
            lacked = [
                tuple(form for form in shared.words if form not in index._values["word"])
                for template, index in order
                if template.id == "CRF2"
            ]
            assert len(set(lacked)) == 2 and all(lacked)
            assert cuts == list(dict.fromkeys(lacked))
            for (template, index), encoded in zip(order, got):
                alone = encode(index, template, batch(text.forms, text.offsets), flags(template))
                for field in ("ids", "offsets", "types", "focus", "edges"):
                    assert np.array_equal(getattr(encoded, field), getattr(alone, field)), field
                want = encode_keys(index, corpus_features(text, template, flags(template)))
                assert position_ids(encoded, len(index)) == position_ids(want, len(index))

    def test_batch_keeps_the_last_cut(self, monkeypatch):
        """A batch keeps the affix cut of the last set of forms that an
        index lacked, not one per set: after two indexes that lack different
        forms it holds one cut, and the first index's forms are cut again."""
        cuts = []
        cut = features._cut
        monkeypatch.setattr(features, "_cut", lambda forms: cuts.append(tuple(forms)) or cut(forms))
        text = self.corpus(self.TEXT)
        other = self.corpus([["ketab", "zz", "q"], ["xub", "a"]])  # forms that TRAIN lacks
        first, second = (trained_index(train, CRF2) for train in (self.corpus(self.TRAIN), other))
        shared = batch(text.forms, text.offsets)
        cuts.clear()
        for index in (first, second, second, first):
            encode(index, CRF2, shared)
        lacked = [tuple(f for f in shared.words if f not in index._values["word"]) for index in (first, second)]
        assert lacked[0] != lacked[1] and all(lacked)
        assert cuts == [lacked[0], lacked[1], lacked[0]]
        assert len(shared._cuts) == 1
