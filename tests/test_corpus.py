import math
import pickle
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpora, persian_tokens
from oracles import reference_parse, reference_shuffle
from pertcrf import corpus as corpus_module
from pertcrf.corpus import (
    Corpus,
    CorpusFormatError,
    SplitSpec,
    Token,
    corpus_stats,
    filter_long,
    format_stats,
    parse_corpus,
    shannon_index,
    shuffle_split,
    write_corpus,
)
from pertcrf.rng import SplitMix64

TWO_SENTENCES = "a\tN\t0\nb\tADJ\t1\nc\tV\t0\n\nd\tN\t1\ne\tDELM\t0\n"


def make_corpus(*sent_specs):
    sents = []
    for spec in sent_specs:
        sents.append(tuple(Token(form=f, pos=p, ezafe=e) for f, p, e in spec))
    return Corpus.from_sentences(sents)


class TestParse:
    def test_two_sentences(self):
        c = parse_corpus(TWO_SENTENCES)
        assert c.n_sentences == 2
        assert c.n_tokens == 5
        assert [len(s) for s in c.sentences] == [3, 2]

    def test_fig_example_tag_inventory(self):
        text = "pesar\tN\t1\nxošhāl\tADJ\t0\n'āmad\tV\t0\n.\tDELM\t0"
        c = parse_corpus(text)
        assert c.tag_inventory == ("N", "ADJ", "V", "DELM")
        assert [t.ezafe for t in c.sentences[0]] == [1, 0, 0, 0]

    def test_ezafe_out_of_range(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            parse_corpus("ketāb\tN\t2")

    def test_wrong_column_count(self):
        with pytest.raises(CorpusFormatError, match="line 2.*columns"):
            parse_corpus("a\tN\t0\nb\tN\n")

    def test_double_blank_line(self):
        with pytest.raises(CorpusFormatError, match="line 3: empty sentence"):
            parse_corpus("a\tN\t0\n\n\nb\tN\t0\n")

    def test_leading_blank_line(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            parse_corpus("\na\tN\t0\n")

    def test_form_with_space_rejected(self):
        with pytest.raises(CorpusFormatError, match="line 1"):
            parse_corpus("a b\tN\t0\n")

    def test_bom_and_carriage_returns_rejected(self):
        with pytest.raises(CorpusFormatError, match="line 1: byte-order mark"):
            parse_corpus("\ufeffa\tN\t0\n")
        with pytest.raises(CorpusFormatError, match="line 2: carriage return") as err:
            parse_corpus("a\tN\t0\nb\tN\t0\r\n")
        assert err.value.line == 2

    def test_file_object(self, tmp_path):
        p = tmp_path / "c.tsv"
        p.write_text(TWO_SENTENCES, encoding="utf-8")
        with open(p, encoding="utf-8") as f:
            assert parse_corpus(f).n_tokens == 5


# Malformed corpora and the error that names the first bad line, as line
# number and message.
MALFORMED = [
    ("a\tN\t0\n\tN\t0\nb c\tN\t0\n", 2, "token form must be non-empty and whitespace-free: ''"),
    ("a\tN\t0\nb c\tN\t0\n\tN\t0\n", 2, "token form must be non-empty and whitespace-free: 'b c'"),
    ("a\tN\t0\nb\t\t1\n", 2, "pos tag must be non-empty and whitespace-free: ''"),
    ("a\u00a0b\tN\t0\n", 1, "token form must be non-empty and whitespace-free: 'a\\xa0b'"),
    ("a\tN\u00a0\t0\n", 1, "pos tag must be non-empty and whitespace-free: 'N\\xa0'"),
    ("a\tN\t0\nb\u2028c\tN\t0\n", 2, "token form must be non-empty and whitespace-free: 'b\\u2028c'"),
    ("a\tN V\t0\n", 1, "pos tag must be non-empty and whitespace-free: 'N V'"),
    ("\na\tN\t0\n", 1, "empty sentence"),
    ("a\tN\t0\n\n\nb\tN\t0\n", 3, "empty sentence"),
    ("a\tN\t0\n\n\n", 3, "empty sentence"),
    ("\n", 1, "empty sentence"),
    ("\n\n", 1, "empty sentence"),
    ("a\tN\t0\nb\tN", 2, "expected 3 tab-separated columns, got 2"),
    ("a\tN\t0\nb\tN\t2", 2, "ezafe flag must be 0 or 1, got '2'"),
    ("a\tN\t0\nb c\tN\t0", 2, "token form must be non-empty and whitespace-free: 'b c'"),
    ("a\tN\t0\t\n", 1, "expected 3 tab-separated columns, got 4"),
    ("a\tN\t0\n \n", 2, "expected 3 tab-separated columns, got 1"),
    ("a\tN\nb\tN\t0\t0\n", 1, "expected 3 tab-separated columns, got 2"),
    ("a\tN\t0\nb\tV\t1\n\nc\tN\t0\nd\tN\t0\te\tN\t1\n", 5, "expected 3 tab-separated columns, got 6"),
    ("a\tN\t 1\n", 1, "ezafe flag must be 0 or 1, got ' 1'"),
    ("a\tN\t01\n", 1, "ezafe flag must be 0 or 1, got '01'"),
    ("\ufeffa\tN\t0\n", 1, "byte-order mark (U+FEFF); files must be UTF-8 without one"),
    ("a\tN\t0\r\n", 1, "carriage return; lines must end in a Unix newline"),
]


class TestMalformed:
    @pytest.mark.parametrize("text, line, message", MALFORMED)
    def test_first_bad_line_named(self, text, line, message):
        with pytest.raises(CorpusFormatError) as err:
            parse_corpus(text)
        assert str(err.value) == f"line {line}: {message}"
        assert err.value.line == line

    @pytest.mark.parametrize("text, line, message", MALFORMED)
    def test_same_error_in_any_chunk(self, text, line, message):
        for chunk in (1, 2, 5):
            with mock.patch.object(corpus_module, "_PARSE_CHUNK", chunk):
                with pytest.raises(CorpusFormatError) as err:
                    parse_corpus(text)
            assert str(err.value) == f"line {line}: {message}"

    def test_without_final_newline(self):
        assert parse_corpus("a\tN\t0\n\nb\tV\t1") == parse_corpus("a\tN\t0\n\nb\tV\t1\n")

    def test_one_trailing_blank_line_ends_the_sentence(self):
        assert parse_corpus("a\tN\t0\n\n") == parse_corpus("a\tN\t0\n")

    # Lines drawn from well-formed and malformed pieces, so that most texts
    # are malformed somewhere and some are not.
    line_text = st.one_of(
        st.just(""),
        st.builds(
            "\t".join,
            st.lists(st.text("ab\u00a0 \u200c|", max_size=3), min_size=1, max_size=4),
        ),
        st.builds(
            "{}\t{}\t{}".format,
            st.text("ab\u200c=", min_size=1, max_size=3),
            st.sampled_from(["N", "V", "N|1", "", "N V"]),
            st.sampled_from(["0", "1", "0", "1", "2", ""]),
        ),
    )

    @given(
        st.lists(line_text, max_size=12),
        st.booleans(),
        st.sampled_from([1, 3, 8, 1 << 20]),
    )
    def test_matches_line_by_line_reference(self, lines, final_newline, chunk):
        text = "\n".join(lines) + ("\n" if final_newline and lines else "")
        try:
            expected = reference_parse(text)
        except CorpusFormatError as exc:
            expected = str(exc)
        with mock.patch.object(corpus_module, "_PARSE_CHUNK", chunk):
            try:
                got = parse_corpus(text)
            except CorpusFormatError as exc:
                got = str(exc)
        assert got == expected


class TestColumns:
    def test_columns_of_parsed_text(self):
        c = parse_corpus(TWO_SENTENCES)
        assert c.forms == ("a", "b", "c", "d", "e")
        assert c.tag_inventory == ("N", "ADJ", "V", "DELM")
        assert c.tags.tolist() == [0, 1, 2, 0, 3] and c.tags.dtype == np.int32
        assert c.ezafe.tolist() == [0, 1, 0, 1, 0] and c.ezafe.dtype == np.int8
        assert c.offsets.tolist() == [0, 3, 5] and c.offsets.dtype == np.int32
        assert not c.tags.flags.writeable

    def test_sentences_built_on_demand(self):
        c = parse_corpus(TWO_SENTENCES)
        assert "sentences" not in c.__dict__
        assert c.sentences[1] == (Token("d", "N", 1), Token("e", "DELM", 0))
        assert c.sentences is c.sentences

    def test_one_string_per_distinct_form(self):
        c = parse_corpus("ab\tN\t0\nab\tV\t1\n\nab\tN\t0\n")
        assert c.forms[0] is c.forms[1] is c.forms[2]

    @given(corpora(min_sentences=0, tokens=persian_tokens))
    def test_pickle_round_trip(self, c):
        c.sentences, c.batch  # the caches are not pickled, and rebuilt after loading
        restored = pickle.loads(pickle.dumps(c))
        assert "sentences" not in restored.__dict__ and "batch" not in restored.__dict__
        assert restored == c and restored.sentences == c.sentences
        assert restored.batch.words == c.batch.words
        for field in ("offsets", "padded", "at"):
            assert np.array_equal(getattr(restored.batch, field), getattr(c.batch, field))

    def test_equality_reads_every_column(self):
        c = parse_corpus(TWO_SENTENCES)
        for other in (
            "a\tN\t0\nb\tADJ\t1\nc\tV\t0\n\nd\tN\t1\ne\tDELM\t1\n",
            "a\tN\t0\nb\tADJ\t1\nc\tV\t0\n\nd\tN\t1\nf\tDELM\t0\n",
            "a\tN\t0\nb\tADJ\t1\nc\tV\t0\nd\tN\t1\n\ne\tDELM\t0\n",
            "a\tN\t0\nb\tADJ\t1\nc\tV\t0\n\nd\tADJ\t1\ne\tDELM\t0\n",
        ):
            assert parse_corpus(other) != c
        assert c != "not a corpus"

    @pytest.mark.parametrize(
        "forms, tags, ezafe, lengths, message",
        [
            (["a", "b c"], ["N", "N"], [0, 0], [2], "token form must be .*'b c'"),
            (["a", ""], ["N", "N"], [0, 0], [2], "token form must be .*''"),
            (["a", "b"], ["N", "N\u00a0"], [0, 0], [2], "pos tag must be non-empty and whitespace-free"),
            (["a", "b"], ["N", "N"], [0, 2], [2], "ezafe flag must be 0 or 1, got 2"),
            (["a", "b"], ["N", "N"], [0, 0], [2, 0], "sentences must be non-empty"),
            (["a", "b"], ["N", "N"], [0, 0], [1], "disagree"),
        ],
    )
    def test_from_columns_checks(self, forms, tags, ezafe, lengths, message):
        with pytest.raises(ValueError, match=message):
            Corpus.from_columns(forms, tags, ezafe, lengths)

    def test_from_sentences_rejects_empty_sentence(self):
        with pytest.raises(ValueError, match="sentences must be non-empty"):
            Corpus.from_sentences([(Token("a", "N", 0),), ()])

    @given(corpora(min_sentences=0), st.data())
    def test_take_gathers_sentences(self, c, data):
        order = data.draw(st.lists(st.integers(0, max(c.n_sentences - 1, 0)), max_size=12))
        if not c.n_sentences:
            order = []
        assert c.take(order) == Corpus.from_sentences([c.sentences[i] for i in order])


class TestWrite:
    def test_empty_corpus(self):
        assert write_corpus(Corpus.from_sentences([])) == ""

    def test_no_trailing_blank_line(self):
        c = make_corpus([("a", "N", 0)])
        text = write_corpus(c)
        assert text == "a\tN\t0\n"
        assert not text.endswith("\n\n")

    def test_round_trip_fixed(self):
        assert write_corpus(parse_corpus(TWO_SENTENCES)) == TWO_SENTENCES

    @given(corpora(min_sentences=0))
    def test_round_trip_random(self, c):
        assert parse_corpus(write_corpus(c)) == c

    @given(corpora())
    def test_reserialization_byte_identical(self, c):
        text = write_corpus(c)
        assert write_corpus(parse_corpus(text)) == text

    @given(corpora(min_sentences=0, tokens=persian_tokens))
    def test_round_trip_persian(self, c):
        text = write_corpus(c)
        assert parse_corpus(text) == c
        assert write_corpus(parse_corpus(text)) == text


class TestToken:
    """A form or tag is rejected exactly when it is empty or holds a
    character for which str.isspace() is true."""

    WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]

    def test_every_whitespace_code_point_rejected(self):
        assert "\u00a0" in self.WHITESPACE  # no-break space
        for c in self.WHITESPACE:
            for text in (c, "a" + c, c + "b", "a" + c + "b"):
                with pytest.raises(ValueError, match="form must be"):
                    Token(form=text, pos="N", ezafe=0)
                with pytest.raises(ValueError, match="pos tag must be"):
                    Token(form="a", pos=text, ezafe=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="form must be"):
            Token(form="", pos="N", ezafe=0)
        with pytest.raises(ValueError, match="pos tag must be"):
            Token(form="a", pos="", ezafe=0)

    @pytest.mark.parametrize("c", ["\u200c", "\ufeff", "\u200b", "\u2060"])
    def test_joiners_and_zero_width_marks_accepted(self, c):
        # ZWNJ, BOM, zero-width space and word joiner are not whitespace.
        assert Token(form="a" + c + "b", pos=c + "N", ezafe=1).form == "a" + c + "b"
        assert Token(form=c, pos=c, ezafe=0).pos == c


class TestSplit:
    def test_sizes_ten_sentences(self):
        c = make_corpus(*[[(f"w{i}", "N", 0)] for i in range(10)])
        train, valid, test = shuffle_split(c, SplitSpec(seed=17))
        assert (train.n_sentences, valid.n_sentences, test.n_sentences) == (8, 1, 1)

    def test_deterministic(self):
        c = make_corpus(*[[(f"w{i}", "N", 0)] for i in range(20)])
        a = shuffle_split(c, SplitSpec(seed=17))
        b = shuffle_split(c, SplitSpec(seed=17))
        assert a == b

    def test_seed_changes_split(self):
        c = make_corpus(*[[(f"w{i}", "N", 0)] for i in range(50)])
        a = shuffle_split(c, SplitSpec(seed=17))
        b = shuffle_split(c, SplitSpec(seed=18))
        assert a != b

    def test_paper_scale_floor_arithmetic(self):
        # 335,925 sentences at 0.1/0.1 -> 33,592 test, 33,592 valid,
        # 268,741 train under floor rounding (the reference protocol
        # reports 33,593/33,592/268,740, a documented rounding deviation).
        n = 335925
        c = Corpus.from_columns(["x"] * n, ["N"] * n, [0] * n, [1] * n)
        train, valid, test = shuffle_split(c, SplitSpec(seed=17))
        assert test.n_sentences == 33592
        assert valid.n_sentences == 33592
        assert train.n_sentences == 268741

    @given(corpora(min_sentences=4, max_sentences=30), st.integers(0, 2**32))
    def test_partition(self, c, seed):
        spec = SplitSpec(seed=seed, test_fraction=0.34, valid_fraction=0.33)
        train, valid, test = shuffle_split(c, spec)
        combined = Counter(train.sentences + valid.sentences + test.sentences)
        assert combined == Counter(c.sentences)

    @given(corpora(min_sentences=4, max_sentences=30), st.integers(0, 2**64 - 1))
    def test_parts_follow_the_reference_shuffle(self, c, seed):
        sents = list(c.sentences)
        reference_shuffle(seed, sents)
        spec = SplitSpec(seed=seed, test_fraction=0.34, valid_fraction=0.33)
        n_test, n_valid = math.floor(c.n_sentences * 0.34), math.floor(c.n_sentences * 0.33)
        train, valid, test = shuffle_split(c, spec)
        assert test == Corpus.from_sentences(sents[:n_test])
        assert valid == Corpus.from_sentences(sents[n_test : n_test + n_valid])
        assert train == Corpus.from_sentences(sents[n_test + n_valid :])

    @given(st.integers(0, 2**64 - 1), st.integers(0, 300))
    def test_shuffle_draws_as_randrange(self, seed, n):
        items, expected = list(range(n)), list(range(n))
        rng = SplitMix64(seed)
        rng.shuffle(items)
        reference_shuffle(seed, expected)
        assert items == expected
        after = SplitMix64(seed)
        for i in range(n - 1, 0, -1):
            after.randrange(i + 1)
        assert rng.next_u64() == after.next_u64()

    def test_shuffle_draws_one_by_one_after_a_rejection(self):
        # A draw at or above randrange's limit (probability ~n / 2**64 each)
        # sends the whole shuffle to one randrange call per swap.
        items, expected = list(range(50)), list(range(50))
        rng = SplitMix64(7)
        rejected = np.full(49, np.iinfo(np.uint64).max, dtype=np.uint64)
        with mock.patch.object(SplitMix64, "_next_u64s", lambda self, n: rejected[:n]):
            rng.shuffle(items)
        reference_shuffle(7, expected)
        assert items == expected

    def test_empty_part_rejected(self):
        c = make_corpus(*[[(f"w{i}", "N", 0)] for i in range(5)])
        with pytest.raises(ValueError, match="empty part"):
            shuffle_split(c, SplitSpec(seed=1, test_fraction=0.1, valid_fraction=0.1))

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_sentences_rejected(self, n):
        c = make_corpus(*[[(f"w{i}", "N", 0)] for i in range(n)])
        with pytest.raises(ValueError, match="at least 3 sentences"):
            shuffle_split(c, SplitSpec(test_fraction=0.34, valid_fraction=0.33))

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=0.6, valid_fraction=0.5)
        with pytest.raises(ValueError):
            SplitSpec(test_fraction=0.0)


class TestFilterLong:
    def test_all_short_identical(self):
        c = make_corpus([("a", "N", 0)], [("b", "V", 0), ("c", "N", 1)])
        assert filter_long(c, 512) == c

    def test_threshold_edge(self):
        long_sent = [(f"w{i}", "N", 0) for i in range(513)]
        c = make_corpus([("a", "N", 0)], long_sent, [("b", "V", 0)])
        out = filter_long(c, 512)
        assert out.n_sentences == 2
        assert all(len(s) <= 512 for s in out.sentences)

    def test_exactly_512_kept(self):
        c = make_corpus([(f"w{i}", "N", 0) for i in range(512)])
        assert filter_long(c, 512).n_sentences == 1

    def test_max_len_below_one_rejected(self):
        c = make_corpus([("a", "N", 0)])
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            filter_long(c, 0)


class TestShannon:
    def test_single_word(self):
        assert shannon_index({"a": 7}) == 0.0

    def test_uniform_eight(self):
        counts = {f"w{i}": 3 for i in range(8)}
        assert shannon_index(counts) == pytest.approx(math.log(8), abs=1e-12)

    def test_hand_example(self):
        # -(0.25 ln 0.25 + 0.25 ln 0.25 + 0.5 ln 0.5) = 1.5 ln 2
        assert shannon_index({"a": 1, "b": 1, "c": 2}) == pytest.approx(1.5 * math.log(2), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shannon_index({})

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            shannon_index({"a": 0})

    @given(st.dictionaries(st.text("abcdef", min_size=1, max_size=3), st.integers(1, 50), min_size=1, max_size=12))
    def test_bounds(self, counts):
        h = shannon_index(counts)
        assert 0.0 <= h <= math.log(len(counts)) + 1e-12
        if len(set(counts.values())) == 1:
            assert h == pytest.approx(math.log(len(counts)), abs=1e-9)
        elif len(counts) > 1:
            assert h < math.log(len(counts))


class TestStats:
    def test_all_ezafe_pos(self):
        c = make_corpus([("a", "N", 1), ("b", "N", 1), ("c", "V", 0)])
        rows = {r.pos: r for r in corpus_stats(c)}
        assert rows["N"].ezafe_pct == 100.0

    def test_hand_counts(self):
        c = make_corpus([("a", "N", 1), ("b", "ADJ", 0), ("a", "N", 0), ("c", "V", 0)])
        rows = {r.pos: r for r in corpus_stats(c)}
        assert rows["N"].ezafe_pct == pytest.approx(50.0)
        assert rows["N"].freq_pct == pytest.approx(50.0)
        # N has forms {a: 2} -> H = 0
        assert rows["N"].diversity == 0.0

    def test_row_order(self):
        c = make_corpus(
            [("a", "B", 1), ("b", "A", 1), ("c", "C", 0), ("d", "C", 0)],
        )
        rows = corpus_stats(c)
        assert [r.pos for r in rows] == ["A", "B", "C"]  # 100/100 tie -> symbol

    @given(corpora())
    def test_freq_sums_to_100(self, c):
        rows = corpus_stats(c)
        assert sum(r.freq_pct for r in rows) == pytest.approx(100.0, abs=0.01)

    def test_format(self):
        c = make_corpus([("a", "N", 1), ("b", "V", 0)])
        text = format_stats(corpus_stats(c))
        lines = text.splitlines()
        assert lines[0] == "pos\tezafe_pct\tfreq_pct\tH"
        assert lines[1] == "N\t100.00\t50.00\t0.000"
        assert lines[2] == "V\t0.00\t50.00\t0.000"
