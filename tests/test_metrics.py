import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpora, persian_tokens
from oracles import reference_confusion, reference_ezafe_f1_per_pos
from pertcrf.corpus import Corpus
from pertcrf.crf import CrfModel
from pertcrf.features import FeatureTemplate, batch, index_and_encode
from pertcrf.metrics import (
    ConfusionTable,
    EvalReport,
    binary_metrics,
    confusion,
    confusion_codes,
    delta_report,
    ezafe_f1_per_pos,
    macro_metrics,
    one_vs_rest,
    per_tag_metrics,
)
from pertcrf.tasks import decode, evaluate


def binary_table(gold, pred):
    return confusion([[str(v) for v in gold]], [[str(v) for v in pred]], ("0", "1"))


class TestConfusion:
    def test_diagonal_when_perfect(self):
        t = confusion([["N", "V"]], [["N", "V"]], ("N", "V"))
        assert np.array_equal(t.counts, np.diag([1, 1]))

    def test_single_error_cell(self):
        t = confusion([["N"]], [["ADJ"]], ("N", "ADJ"))
        assert t.counts[t.tag_id("N"), t.tag_id("ADJ")] == 1
        assert t.total == 1

    def test_length_mismatch_names_sentence(self):
        with pytest.raises(ValueError, match="sentence 1"):
            confusion([["N"], ["N", "V"]], [["N"], ["N"]], ("N", "V"))

    def test_sentence_count_mismatch(self):
        with pytest.raises(ValueError, match="sentences"):
            confusion([["N"]], [], ("N",))

    def test_tag_outside_tagset(self):
        with pytest.raises(ValueError, match="outside tagset"):
            confusion([["X"]], [["N"]], ("N",))


class TestBinary:
    def test_hand_example(self):
        m = binary_metrics(binary_table([1, 0, 1, 1], [1, 1, 1, 0]), positive="1")
        assert m.precision == pytest.approx(2 / 3, abs=1e-12)
        assert m.recall == pytest.approx(2 / 3, abs=1e-12)
        assert m.f1 == pytest.approx(2 / 3, abs=1e-12)
        assert m.accuracy == pytest.approx(0.5, abs=1e-12)

    def test_perfect(self):
        m = binary_metrics(binary_table([1, 0, 1], [1, 0, 1]), positive="1")
        assert (m.precision, m.recall, m.f1, m.accuracy) == (1.0, 1.0, 1.0, 1.0)

    def test_zero_denominators(self):
        m = binary_metrics(binary_table([0, 0], [0, 0]), positive="1")
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.accuracy == 1.0

    def test_requires_two_tags(self):
        t = confusion([["N"]], [["N"]], ("N",))
        with pytest.raises(ValueError):
            binary_metrics(t, positive="N")

    def test_positive_class_equals_one_vs_rest(self):
        t = binary_table([1, 0, 1, 1, 0], [1, 1, 0, 1, 0])
        assert binary_metrics(t, positive="1") == one_vs_rest(t, "1")


class TestMacro:
    def test_balanced_perfect(self):
        t = confusion([["A", "B"]], [["A", "B"]], ("A", "B"))
        assert macro_metrics(t).f1 == 1.0

    def test_three_tag_hand_example(self):
        gold = [["A", "A", "B", "B", "C", "C"]]
        pred = [["A", "A", "B", "B", "A", "B"]]
        m = macro_metrics(confusion(gold, pred, ("A", "B", "C")))
        assert m.f1 == pytest.approx((0.8 + 0.8 + 0.0) / 3, abs=1e-12)
        assert m.precision == pytest.approx((2 / 3 + 2 / 3 + 0.0) / 3, abs=1e-12)
        assert m.recall == pytest.approx(2 / 3, abs=1e-12)
        assert m.accuracy == pytest.approx(4 / 6, abs=1e-12)

    def test_unobserved_tags_excluded(self):
        gold = [["A", "B"]]
        pred = [["A", "B"]]
        with_ghost = macro_metrics(confusion(gold, pred, ("A", "B", "GHOST")))
        without = macro_metrics(confusion(gold, pred, ("A", "B")))
        assert with_ghost == without

    def test_binary_macro_is_mean_of_one_vs_rest(self):
        t = binary_table([1, 0, 1, 1, 0, 0], [1, 1, 0, 1, 0, 0])
        expected = (one_vs_rest(t, "0").f1 + one_vs_rest(t, "1").f1) / 2
        assert macro_metrics(t).f1 == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.sampled_from("AB"), st.sampled_from("AB")), min_size=1, max_size=40
        ),
        st.randoms(),
    )
    def test_permutation_invariance(self, pairs, rnd):
        sentences = [[p] for p in pairs]
        shuffled = sentences[:]
        rnd.shuffle(shuffled)
        t1 = confusion([[g for g, _ in s] for s in sentences], [[p for _, p in s] for s in sentences], ("A", "B"))
        t2 = confusion([[g for g, _ in s] for s in shuffled], [[p for _, p in s] for s in shuffled], ("A", "B"))
        assert macro_metrics(t1) == macro_metrics(t2)

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABC"), st.sampled_from("ABC")), min_size=1, max_size=40
        )
    )
    def test_measures_within_unit_interval(self, pairs):
        t = confusion([[g for g, _ in pairs]], [[p for _, p in pairs]], ("A", "B", "C"))
        for m in [macro_metrics(t)] + list(per_tag_metrics(t).values()):
            for v in (m.precision, m.recall, m.f1, m.accuracy):
                assert 0.0 <= v <= 1.0


class TestEzafePerPos:
    def test_all_correct(self):
        per_pos, mean = ezafe_f1_per_pos([1, 0, 1], [1, 0, 1], [0, 1, 0], ("N", "V"))
        assert per_pos == {"N": 1.0}
        assert mean == 1.0

    def test_missed_positives_bucket_zero(self):
        per_pos, _ = ezafe_f1_per_pos([1, 1], [0, 0], [0, 0], ("N",))
        assert per_pos == {"N": 0.0}

    def test_two_bucket_hand_example(self):
        gold = [1, 1, 0, 0, 1, 0]
        pred = [1, 0, 0, 1, 1, 0]
        pos = [0, 0, 0, 1, 1, 2]
        per_pos, mean = ezafe_f1_per_pos(gold, pred, pos, ("N", "V", "D"))
        assert per_pos == {"N": pytest.approx(2 / 3), "V": pytest.approx(2 / 3)}
        assert "D" not in per_pos  # no gold or predicted positives
        assert list(per_pos) == ["N", "V"]
        assert mean == pytest.approx(2 / 3, abs=1e-12)

    def test_alignment_error(self):
        with pytest.raises(ValueError, match="token counts differ"):
            ezafe_f1_per_pos([1, 0], [1], [0, 0], ("N",))


def random_model(corpus, labels, seed):
    """A CRF1 model over the keys of corpus with the given labels and
    random weights, so that its predictions are arbitrary labels."""
    index, _ = index_and_encode(FeatureTemplate(id="CRF1"), batch(corpus.forms, corpus.offsets))
    rng = np.random.default_rng(seed)
    F, L = len(index), len(labels)
    return CrfModel(
        labels=tuple(labels),
        feature_index=index,
        emission=rng.normal(size=(F, L)),
        transition=rng.normal(size=(L, L)),
        template=FeatureTemplate(id="CRF1"),
    )


class TestAgainstLoopReference:
    """The bincount metrics, and the evaluations that map label ids to
    table rows by name, against the per-token loops in oracles, on
    Persian-realistic corpora with random predictions."""

    @given(corpora(max_sentences=8, tokens=persian_tokens), st.integers(0, 2**32 - 1))
    def test_codes_equal_loops(self, c, seed):
        rng = np.random.default_rng(seed)
        tagset = c.tag_inventory + ("X", "Y")
        pred = rng.integers(0, len(tagset), size=c.n_tokens)
        flags = rng.integers(0, 2, size=c.n_tokens)
        table = confusion_codes(c.tags, pred, tagset)
        names = [tagset[i] for i in pred.tolist()]
        want = reference_confusion(c.by_sentence(c.tag_names()), c.by_sentence(names), tagset)
        assert np.array_equal(table.counts, want)
        string_table = confusion(c.by_sentence(c.tag_names()), c.by_sentence(names), tagset)
        assert np.array_equal(string_table.counts, want)
        per_pos, mean = ezafe_f1_per_pos(c.ezafe, flags, c.tags, c.tag_inventory)
        want_per_pos, want_mean = reference_ezafe_f1_per_pos(
            c.by_sentence(c.ezafe.tolist()), c.by_sentence(flags.tolist()), c.by_sentence(c.tag_names())
        )
        assert list(per_pos.items()) == list(want_per_pos.items())
        assert mean == want_mean

    @given(
        corpora(max_sentences=6, tokens=persian_tokens),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2),
    )
    def test_evaluations_equal_loops(self, c, seed, n_extra):
        rng = np.random.default_rng(seed)
        gold = c.by_sentence(c.tag_names())

        def predicted(model):
            return c.by_sentence([model.labels[i] for i in decode(model, batch(c.forms, c.offsets)).tolist()])

        # POS: the inventory in another order, then tags outside it. fit
        # refuses POS tags that hold the joint separator, so they are renamed.
        names = [t.replace("|", "/") for t in c.tag_inventory]
        p = Corpus.from_codes(c.forms, c.tags, names, c.ezafe, c.offsets)
        labels = [p.tag_inventory[i] for i in rng.permutation(len(p.tag_inventory))]
        labels += [f"X{k}" for k in range(n_extra)]
        model = random_model(p, labels, seed)
        (report,) = evaluate(model, p)
        tagset = p.tag_inventory + tuple(t for t in labels if t not in p.tag_inventory)
        assert report.table.tags == tagset
        want = reference_confusion(p.by_sentence(p.tag_names()), predicted(model), tagset)
        assert np.array_equal(report.table.counts, want)

        # Ezafe, from a model that lists "1" before "0".
        model = random_model(c, ("1", "0"), seed)
        (report,) = evaluate(model, c)
        pred = predicted(model)
        gold_flags = c.by_sentence([str(v) for v in c.ezafe.tolist()])
        assert np.array_equal(report.table.counts, reference_confusion(gold_flags, pred, ("0", "1")))
        want_per_pos, want_mean = reference_ezafe_f1_per_pos(
            c.by_sentence(c.ezafe.tolist()), [[int(v) for v in s] for s in pred], gold
        )
        assert list(report.ezafe_per_pos.items()) == list(want_per_pos.items())
        assert report.ezafe_per_pos_mean == want_mean

        # Joint: POS tags outside the inventory follow it in sorted order.
        labels = [f"{t}|{e}" for t in ("Z", "A") + c.tag_inventory for e in (1, 0)]
        model = random_model(c, labels, seed)
        pos_report, ez_report = evaluate(model, c)
        pred = predicted(model)
        pred_pos = [[lab.rpartition("|")[0] for lab in s] for s in pred]
        pred_ez = [[int(lab.rpartition("|")[2]) for lab in s] for s in pred]
        tagset = c.tag_inventory + tuple(sorted({t for s in pred_pos for t in s} - set(c.tag_inventory)))
        want = ConfusionTable(tagset, reference_confusion(gold, pred_pos, tagset))
        assert list(pos_report.per_tag.items()) == list(per_tag_metrics(want).items())
        assert macro_metrics(pos_report.table) == macro_metrics(want)
        want_per_pos, want_mean = reference_ezafe_f1_per_pos(c.by_sentence(c.ezafe.tolist()), pred_ez, gold)
        assert list(ez_report.ezafe_per_pos.items()) == list(want_per_pos.items())
        assert ez_report.ezafe_per_pos_mean == want_mean


class TestDelta:
    def test_identical_inputs(self):
        f1s = {"N": 0.9, "V": 0.8}
        assert delta_report(f1s, f1s) == {"N": 0.0, "V": 0.0}

    def test_biggest_gain_sorts_first(self):
        before = {"IDEN": 0.8318, "FW": 0.9046, "N": 0.9870}
        after = {"IDEN": 0.8598, "FW": 0.9125, "N": 0.9873}
        report = delta_report(before, after)
        assert list(report) == ["IDEN", "FW", "N"]
        assert report["IDEN"] == pytest.approx(0.0280, abs=1e-12)

    @given(
        st.dictionaries(st.sampled_from(["A", "B", "C", "D"]), st.floats(0, 1), min_size=1),
        st.data(),
    )
    def test_elementwise_subtraction(self, before, data):
        after = {k: data.draw(st.floats(0, 1)) for k in before}
        report = delta_report(before, after)
        assert set(report) == set(before)
        for k, v in report.items():
            assert v == after[k] - before[k]

    def test_key_mismatch(self):
        with pytest.raises(ValueError):
            delta_report({"A": 1.0}, {"B": 1.0})


class TestReport:
    def make_report(self):
        t = binary_table([1, 0, 1, 1], [1, 1, 1, 0])
        return EvalReport(
            kind="binary",
            headline=binary_metrics(t, positive="1"),
            per_tag=per_tag_metrics(t),
            table=t,
            ezafe_per_pos={"N": 2 / 3},
            ezafe_per_pos_mean=2 / 3,
            header={"task": "ezafe"},
        )

    def test_json_field_names(self):
        d = self.make_report().to_json_dict()
        for key in ("precision", "recall", "f1", "accuracy", "per_tag", "ezafe_f1_per_pos", "macro_mean"):
            assert key in d

    def test_text_and_json_agree(self):
        report = self.make_report()
        d = report.to_json_dict()
        text = report.to_text()
        assert f"f1\t{d['f1']:.4f}" in text
        assert f"precision\t{d['precision']:.4f}" in text
        assert f"macro_mean\t{d['macro_mean']:.4f}" in text

    def test_four_decimal_rendering(self):
        d = self.make_report().to_json_dict()
        assert d["f1"] == round(2 / 3, 4)
        text = self.make_report().to_text()
        assert "0.6667" in text
