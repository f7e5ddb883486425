import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpora, persian_tokens
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
        sent = (Token(form="x", pos="N", ezafe=0),)
        c = Corpus(sentences=(sent,) * 335925, tag_inventory=("N",))
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

    def test_empty_part_rejected(self):
        c = make_corpus(*[[(f"w{i}", "N", 0)] for i in range(5)])
        with pytest.raises(ValueError, match="empty part"):
            shuffle_split(c, SplitSpec(seed=1, test_fraction=0.1, valid_fraction=0.1))

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
