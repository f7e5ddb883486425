from dataclasses import replace

import numpy as np
import pytest

from pertcrf import crf, features, optim
from pertcrf.cli import main
from pertcrf.corpus import Corpus, Token, parse_corpus, shuffle_split, write_corpus
from pertcrf.crf import TrainConfig, save_model
from pertcrf.datagen import GeometricLength, generate, homograph_spec, tuned_ezafe_spec
from pertcrf.features import FeatureIndex, FeatureTemplate
from pertcrf.rng import SplitMix64
from pertcrf.tasks import (
    ConfigError,
    ExperimentConfig,
    decode,
    evaluate,
    evaluate_pos,
    fit,
    label_kind,
    parse_experiment_config,
    pipeline_tag,
    predict_flags,
    run_ezafe,
    run_experiment,
    run_pos,
    split_joint,
)

CRF1 = FeatureTemplate(id="CRF1")
CRF1_EZ = FeatureTemplate(id="CRF1", ezafe_input=True)
CRF2 = FeatureTemplate(id="CRF2")
CRF2_EZ = FeatureTemplate(id="CRF2", ezafe_input=True)
FAST = TrainConfig(max_iterations=30)


def window_rule_corpus(n_sentences, seed):
    """Ezafe is 1 exactly when an n-word is followed by an a-word; both word
    classes determine the POS. Fully learnable inside the +-5 window."""
    rng = SplitMix64(seed)
    n_words = ["n1", "n2", "n3", "n4"]
    a_words = ["a1", "a2", "a3"]
    v_words = ["v1", "v2"]
    pools = [(n_words, "N"), (a_words, "ADJ"), (v_words, "V")]
    sentences = []
    for _ in range(n_sentences):
        length = 4 + rng.randrange(5)
        picks = [pools[rng.randrange(3)] for _ in range(length)]
        forms = [pool[rng.randrange(len(pool))] for pool, _ in picks]
        tags = [tag for _, tag in picks]
        toks = []
        for i in range(length):
            nxt_is_adj = i + 1 < length and tags[i + 1] == "ADJ"
            ez = 1 if tags[i] == "N" and nxt_is_adj else 0
            toks.append(Token(form=forms[i], pos=tags[i], ezafe=ez))
        sentences.append(tuple(toks))
    return Corpus.from_sentences(sentences)


def form_rule_corpus(n_sentences, seed):
    """Ezafe is 1 exactly when the form starts with 'e'; trivially learnable
    from the focus word alone, so a trained recognizer becomes perfect."""
    rng = SplitMix64(seed)
    vocab = [("ea", "N", 1), ("eb", "N", 1), ("na", "N", 0), ("nb", "ADJ", 0), ("v1", "V", 0)]
    sentences = []
    for _ in range(n_sentences):
        length = 3 + rng.randrange(5)
        toks = [vocab[rng.randrange(len(vocab))] for _ in range(length)]
        sentences.append(tuple(Token(form=f, pos=p, ezafe=e) for f, p, e in toks))
    return Corpus.from_sentences(sentences)


def ezafe_cfg(template=CRF1, **kw):
    return ExperimentConfig(task="ezafe", template=template, train_config=FAST, **kw)


def gold_flags_cfg(max_iterations):
    return ExperimentConfig(
        task="pos-ez-input",
        template=CRF1_EZ,
        train_config=TrainConfig(max_iterations=max_iterations),
        ezafe_source="gold",
    )


@pytest.fixture(scope="module")
def rule_corpora():
    return (
        window_rule_corpus(300, seed=1),
        window_rule_corpus(80, seed=2),
        window_rule_corpus(80, seed=3),
    )


@pytest.fixture(scope="module")
def perfect_ezafe_setup():
    corpora = (form_rule_corpus(150, 11), form_rule_corpus(50, 12), form_rule_corpus(50, 13))
    result = run_experiment(ezafe_cfg(), corpora)
    return corpora, result.model


class TestRunEzafe:
    def test_learns_window_rule(self, rule_corpora):
        result = run_experiment(ezafe_cfg(), rule_corpora)
        assert result.test_report.headline.f1 >= 0.99
        assert result.test_report.kind == "binary"
        assert result.test_report.ezafe_per_pos is not None
        assert result.test_report.ezafe_per_pos["N"] >= 0.99

    def test_empty_train_split(self):
        empty = Corpus.from_sentences([])
        some = window_rule_corpus(5, 1)
        with pytest.raises(ValueError, match="empty train"):
            run_experiment(ezafe_cfg(), (empty, some, some))

    def test_checkpoint_is_logged_best(self, rule_corpora):
        result = run_experiment(ezafe_cfg(), rule_corpora)
        scored = [e for e in result.log if e.valid_f1 is not None]
        assert scored
        best = max(scored, key=lambda e: e.valid_f1)
        assert result.best_iteration == min(
            e.iteration for e in scored if e.valid_f1 == best.valid_f1
        )
        valid_c = rule_corpora[1]
        assert evaluate(result.model, valid_c)[0].headline.f1 == pytest.approx(best.valid_f1)


class TestCheckpointReplay:
    def test_model_equals_snapshot_at_best_iteration(self, rule_corpora):
        train_c, valid_c, _ = rule_corpora
        config = TrainConfig(max_iterations=12)
        cfg = ExperimentConfig(task="ezafe", template=CRF1, train_config=config, eval_every=3)
        model, log, best_it, _, _ = fit(cfg, train_c, valid_c)
        # deterministic retrain, capturing weights at every iteration
        index, encoded = features.index_and_encode(CRF1, features.batch(train_c.forms, train_c.offsets))
        captured = {}
        crf.train(
            index,
            encoded,
            train_c.ezafe,
            ("0", "1"),
            CRF1,
            config,
            on_iteration=lambda it, obj, m: captured.update({it: m().emission.copy()}),
        )
        assert np.array_equal(model.emission, captured[best_it])

    @pytest.mark.parametrize("eval_every", [1, 3, 10])
    def test_models_built_only_for_checkpoints(self, rule_corpora, monkeypatch, eval_every):
        # One model per decoded checkpoint; the last iteration is always
        # one, and crf.train returns its model instead of building the
        # final weights again. The kept checkpoint is returned as it was
        # decoded, not rebuilt.
        built = []
        post_init = crf.CrfModel.__post_init__
        monkeypatch.setattr(crf.CrfModel, "__post_init__", lambda m: built.append(m) or post_init(m))
        config = TrainConfig(max_iterations=7)
        cfg = ExperimentConfig(task="ezafe", template=CRF1, train_config=config, eval_every=eval_every)
        model, log, _, _, _ = fit(cfg, *rule_corpora[:2])
        assert len(log) == 7
        assert len(built) == -(-len(log) // eval_every)
        assert any(m is model for m in built)

    def test_features_extracted_once_per_train_sentence(self, rule_corpora, monkeypatch):
        # Training indexes and encodes in one pass over the train split;
        # the validation split is encoded once, for every checkpoint.
        train_c, valid_c, _ = rule_corpora
        calls = []
        index_and_encode, encode = features.index_and_encode, features.encode
        monkeypatch.setattr(
            features,
            "index_and_encode",
            lambda t, b, *a: calls.append(("index", len(b.offsets) - 1)) or index_and_encode(t, b, *a),
        )
        monkeypatch.setattr(
            features,
            "encode",
            lambda i, t, b, *a: calls.append(("encode", len(b.offsets) - 1)) or encode(i, t, b, *a),
        )
        cfg = ExperimentConfig(
            task="ezafe", template=CRF1, train_config=TrainConfig(max_iterations=7), eval_every=3
        )
        _, log, _, _, _ = fit(cfg, train_c, valid_c)
        checkpoints = sum(e.valid_f1 is not None for e in log)
        assert checkpoints == 3  # iterations 3, 6 and the last one, 7
        # index_and_encode encodes the train split through encode.
        train, valid = ("encode", train_c.n_sentences), ("encode", valid_c.n_sentences)
        assert calls == [("index", train_c.n_sentences), train, valid]


    @pytest.mark.parametrize("task", ["ezafe", "pos", "pos-ez-input", "joint"])
    def test_valid_report_reuses_the_kept_checkpoint_decode(self, task, rule_corpora, monkeypatch):
        # The validation split is encoded once, by fit; its reports equal
        # those that evaluate makes from a fresh decode with the kept model.
        valid_c = rule_corpora[1]
        template = CRF1_EZ if task == "pos-ez-input" else CRF1
        cfg = ExperimentConfig(
            task=task,
            template=template,
            train_config=TrainConfig(max_iterations=7),
            eval_every=3,
            ezafe_source="gold",
        )
        encoded = []
        encode = features.encode
        monkeypatch.setattr(
            features, "encode", lambda i, t, b, *a: encoded.append(len(b.offsets) - 1) or encode(i, t, b, *a)
        )
        result = run_experiment(cfg, rule_corpora)
        # Training's encode of the train split, then valid and test once each.
        assert encoded == [split.n_sentences for split in rule_corpora]
        monkeypatch.undo()
        flags = valid_c.ezafe if task == "pos-ez-input" else None
        fresh = evaluate(result.model, valid_c, flags, result.valid_report.header)
        kept = [result.valid_report] + ([result.extra["valid_ezafe"]] if task == "joint" else [])
        assert [r.to_json() for r in kept] == [r.to_json() for r in fresh]
        assert [r.to_text() for r in kept] == [r.to_text() for r in fresh]


class TestRunPos:
    def test_gold_ezafe_beats_none_on_homographs(self):
        spec = homograph_spec()
        dist = GeometricLength(min_len=3, max_len=12, continue_prob=0.8)
        corpora = tuple(
            generate(spec, n, seed=s, length_dist=dist)
            for n, s in ((400, 31), (120, 32), (120, 33))
        )
        plain = run_experiment(ExperimentConfig(task="pos", template=CRF1, train_config=FAST), corpora)
        gold = run_experiment(
            ExperimentConfig(
                task="pos-ez-input", template=CRF1_EZ, train_config=FAST, ezafe_source="gold"
            ),
            corpora,
        )
        assert gold.test_report.headline.f1 > plain.test_report.headline.f1

    def test_predicted_flags_from_perfect_model_match_gold(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        for c in corpora:
            assert predict_flags(ezafe_model, features.batch(c.forms, c.offsets)).tolist() == c.ezafe.tolist()
        cfg = gold_flags_cfg(15)
        gold_run = run_experiment(cfg, corpora)
        pred_run = run_experiment(replace(cfg, ezafe_source="predicted"), corpora, ezafe_model)
        assert np.array_equal(gold_run.model.emission, pred_run.model.emission)
        assert np.array_equal(gold_run.model.transition, pred_run.model.transition)
        # The headers differ only in ezafe_source.
        gold_report, pred_report = (replace(r.test_report, header={}) for r in (gold_run, pred_run))
        assert gold_report.to_json() == pred_report.to_json()

    def test_experiment_reads_ezafe_model_once(self, tmp_path, perfect_ezafe_setup, monkeypatch):
        corpora, ezafe_model = perfect_ezafe_setup
        paths = []
        for name, c in zip(("train", "valid", "test"), corpora):
            paths.append(tmp_path / f"{name}.tsv")
            paths[-1].write_text(write_corpus(c), encoding="utf-8")
        model_path = tmp_path / "ez.crf"
        crf.save_model_file(ezafe_model, str(model_path))
        loads = []
        load = crf.load_model_file
        monkeypatch.setattr(crf, "load_model_file", lambda path: loads.append(path) or load(path))
        cfg = ExperimentConfig(
            task="pos-ez-input",
            template=CRF1_EZ,
            train_config=TrainConfig(max_iterations=3),
            train_path=str(paths[0]),
            valid_path=str(paths[1]),
            test_path=str(paths[2]),
            ezafe_model_path=str(model_path),
        )
        run_experiment(cfg)
        assert loads == [str(model_path)]

    def test_predicted_mode_needs_model(self, rule_corpora):
        cfg = ExperimentConfig(task="pos-ez-input", template=CRF1_EZ, train_config=FAST)
        with pytest.raises(ValueError, match="needs an ezafe model"):
            run_experiment(cfg, rule_corpora)

    def test_bad_flag_values_rejected(self, rule_corpora):
        train_c = rule_corpora[0]
        bad = np.full(train_c.n_tokens, 2)
        cfg = ExperimentConfig(task="pos-ez-input", template=CRF1_EZ, train_config=FAST)
        with pytest.raises(ValueError, match="0 or 1, got 2"):
            fit(cfg, train_c, rule_corpora[1], bad, rule_corpora[1].ezafe)

    def test_annotation_count_must_match_sentences(self, rule_corpora):
        # One flag per token of the corpus, whatever its sentences.
        c = rule_corpora[1]
        flags = c.ezafe
        model = crf.CrfModel(
            labels=("N",),
            feature_index=FeatureIndex([]),
            emission=np.zeros((0, 1)),
            transition=np.zeros((1, 1)),
            template=CRF1_EZ,
        )
        for wrong in (flags[:-1], np.concatenate([flags, flags[:1]])):
            msg = f"{len(wrong)} ezafe flags for {c.n_tokens} positions"
            with pytest.raises(ValueError, match=msg):
                features.index_and_encode(CRF1_EZ, features.batch(c.forms, c.offsets), wrong)
            with pytest.raises(ValueError, match=msg):
                decode(model, features.batch(c.forms, c.offsets), wrong)
            with pytest.raises(ValueError, match=msg):
                evaluate(model, c, ezafe=wrong)
            with pytest.raises(ValueError, match=msg):
                fit(ExperimentConfig(task="pos-ez-input", template=CRF1_EZ), c, c, wrong, flags)


class TestBenchEntryPoints:
    """run_ezafe, run_pos and evaluate_pos, which bench/workloads.py calls,
    are the runner and the evaluator under other names."""

    def test_same_reports_as_runner_and_evaluator(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        test_c = corpora[2]
        train_config = TrainConfig(max_iterations=5)
        pos_cfg = ExperimentConfig(task="pos", template=CRF1, train_config=train_config)
        pred_cfg = replace(gold_flags_cfg(5), ezafe_source="predicted")
        pairs = [
            (run_ezafe(ezafe_cfg(), corpora), run_experiment(ezafe_cfg(), corpora)),
            (run_pos(pos_cfg, "none", corpora), run_experiment(pos_cfg, corpora)),
            (run_pos(gold_flags_cfg(5), "gold", corpora), run_experiment(gold_flags_cfg(5), corpora)),
            (
                run_pos(pred_cfg, "predicted", corpora, ezafe_model=ezafe_model),
                run_experiment(pred_cfg, corpora, ezafe_model),
            ),
        ]
        for old, new in pairs:
            assert save_model(old.model) == save_model(new.model)
            for a, b in ((old.valid_report, new.valid_report), (old.test_report, new.test_report)):
                assert (a.to_text(), a.to_json()) == (b.to_text(), b.to_json())
            flags = test_c.ezafe if new.model.template.ezafe_input else None
            a = evaluate_pos(new.model, test_c, flags, {"corpus": "test"})
            (b,) = evaluate(new.model, test_c, flags, {"corpus": "test"})
            assert (a.to_text(), a.to_json()) == (b.to_text(), b.to_json())

    @pytest.mark.parametrize(
        "task, source, mode",
        [("pos", "predicted", "gold"), ("pos-ez-input", "predicted", "gold"), ("pos-ez-input", "gold", "none")],
    )
    def test_run_pos_mode_must_agree_with_config(self, rule_corpora, task, source, mode):
        template = CRF1_EZ if task == "pos-ez-input" else CRF1
        cfg = ExperimentConfig(task=task, template=template, train_config=FAST, ezafe_source=source)
        with pytest.raises(ValueError, match=f"ezafe mode '{mode}' contradicts task '{task}'"):
            run_pos(cfg, mode, rule_corpora)


class TestRunJoint:
    def test_label_space_and_projections(self, rule_corpora):
        train_c = rule_corpora[0]
        cfg = ExperimentConfig(task="joint", template=CRF1, train_config=FAST)
        result = run_experiment(cfg, rule_corpora)
        observed_pairs = {(t.pos, t.ezafe) for s in train_c.sentences for t in s}
        assert len(result.model.labels) == len(observed_pairs)
        # V and ADJ never carry ezafe under the window rule
        assert ("V", 1) not in observed_pairs
        assert ("ADJ", 1) not in observed_pairs
        test_c = rule_corpora[2]
        preds = decode(result.model, features.batch(test_c.forms, test_c.offsets))
        assert len(preds) == test_c.n_tokens
        for i in preds.tolist():
            pos, ez = split_joint(result.model.labels[i])
            assert pos in train_c.tag_inventory
            assert ez in (0, 1)
        assert set(result.extra) == {"valid_ezafe", "test_ezafe"}
        assert result.extra["test_ezafe"].kind == "binary"
        assert result.test_report.kind == "macro"

    def test_labels_in_first_occurrence_order(self, rule_corpora):
        train_c = rule_corpora[0]
        cfg = ExperimentConfig(task="joint", template=CRF1, train_config=TrainConfig(max_iterations=1))
        labels = run_experiment(cfg, rule_corpora).model.labels
        assert labels == tuple(dict.fromkeys(f"{t.pos}|{t.ezafe}" for s in train_c.sentences for t in s))

    def test_tag_with_separator_rejected(self, rule_corpora):
        train_c = Corpus.from_sentences(
            [(Token("a", "N", 0), Token("b", "N|X", 1)), (Token("c", "V|", 0),)] * 3
        )
        cfg = ExperimentConfig(task="joint", template=CRF1, train_config=FAST)
        with pytest.raises(ValueError, match=r"pos tag 'N\|X' contains reserved '\|'"):
            run_experiment(cfg, (train_c, rule_corpora[1], rule_corpora[2]))

    def test_split_joint_rejects_malformed(self):
        with pytest.raises(ValueError):
            split_joint("N")
        with pytest.raises(ValueError):
            split_joint("|1")


def count_batches(monkeypatch):
    """The features.batch made from here on, and the batch of every read of
    one, in call order: every read, training's included, ends in
    features.encode, once per read."""
    made, read = [], []
    batch, encode = features.batch, features.encode
    monkeypatch.setattr(features, "batch", lambda *a: made.append(batch(*a)) or made[-1])
    monkeypatch.setattr(features, "encode", lambda i, t, b, *a: read.append(b) or encode(i, t, b, *a))
    return made, read


def fresh(corpora):
    """Copies of corpora that have made no batch yet."""
    return tuple(c.take(range(c.n_sentences)) for c in corpora)


def count_layouts(monkeypatch):
    """The features._Layout made from here on, in call order."""
    made, layout = [], features._Layout
    monkeypatch.setattr(features, "_Layout", lambda *a: made.append(layout(*a)) or made[-1])
    return made


class TestOneBatchPerText:
    def test_pipeline_tag(self, perfect_ezafe_setup, monkeypatch):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(5), corpora).model
        test_c = corpora[2]
        made, read = count_batches(monkeypatch)
        layouts = count_layouts(monkeypatch)
        pipeline_tag(test_c.by_sentence(test_c.forms), ezafe_model, pos_model)
        assert len(made) == 1 and len(read) == 2 and all(b is made[0] for b in read)
        # Both stages decode over one packed layout of the batch.
        assert len(layouts) == 1 and layouts[0].S == test_c.n_sentences

    def test_run_experiment_with_predicted_flags(self, perfect_ezafe_setup, monkeypatch):
        corpora, ezafe_model = perfect_ezafe_setup
        corpora = fresh(corpora)  # the fixture's corpora hold the batches that it made
        made, read = count_batches(monkeypatch)
        run_experiment(replace(gold_flags_cfg(5), ezafe_source="predicted"), corpora, ezafe_model)
        # One batch per split, read by the ezafe model and then by
        # training, the checkpoints or the test decode.
        assert len(made) == 3
        assert [sum(b is m for b in read) for m in made] == [2, 2, 2]

    def test_run_experiment_makes_one_layout_per_split(self, rule_corpora, monkeypatch):
        # Training, a checkpoint at each of the 3 iterations and the test
        # decode read the layouts of the three splits' batches.
        cfg = ExperimentConfig(
            task="pos", template=CRF1, train_config=TrainConfig(max_iterations=3), eval_every=1
        )
        corpora = fresh(rule_corpora)
        layouts = count_layouts(monkeypatch)
        result = run_experiment(cfg, corpora)
        assert [e.valid_f1 is not None for e in result.log] == [True] * 3
        assert len(layouts) == 3
        assert all(c.batch.layout is layout for c, layout in zip(corpora, layouts))


@pytest.fixture(scope="module")
def crf2_pipeline():
    """A CRF2 ezafe model and two CRF2+EZ POS models, the first trained on
    the ezafe model's split and the second on another, each reloaded from
    its text as a shipped model is; and raw text drawn from a third seed."""
    spec = tuned_ezafe_spec(0.22)
    config = TrainConfig(max_iterations=3)
    ours, theirs = (shuffle_split(generate(spec, 60, seed=seed)) for seed in (31, 32))
    ezafe = run_experiment(ExperimentConfig(task="ezafe", template=CRF2, train_config=config), ours).model
    cfg = ExperimentConfig(task="pos-ez-input", template=CRF2_EZ, train_config=config, ezafe_source="gold")
    pos = [run_experiment(cfg, corpora).model for corpora in (ours, theirs)]
    reload = lambda model: crf.load_model(save_model(model))
    text = generate(spec, 30, seed=33)
    return reload(ezafe), [reload(model) for model in pos], text.by_sentence(text.forms)


def known_forms(model):
    """The forms that a model's w[0] keys name: every training form."""
    return {key[len("w[0]=") :] for key in model.feature_index.keys() if key.startswith("w[0]=")}


def count_cuts(monkeypatch):
    """The forms of every affix cut (features._cut) from here on."""
    cuts, cut = [], features._cut
    monkeypatch.setattr(features, "_cut", lambda forms: cuts.append(tuple(forms)) or cut(forms))
    return cuts


class TestOneEncoderPerText:
    """pipeline_tag encodes the text for both models from one batch."""

    def test_models_with_different_vocabularies(self, crf2_pipeline):
        ezafe_model, (_, pos_model), sentences = crf2_pipeline
        forms = [form for sentence in sentences for form in sentence]
        ez_known, pos_known = known_forms(ezafe_model), known_forms(pos_model)
        assert set(forms) - ez_known - pos_known
        assert (set(forms) & pos_known) - ez_known  # unknown to the ezafe model only
        assert (set(forms) & ez_known) - pos_known  # unknown to the POS model only
        tagged = pipeline_tag(sentences, ezafe_model, pos_model)
        # Two decodes, each from a batch of its own.
        offsets = np.cumsum([0, *map(len, sentences)])
        ez_ids = decode(ezafe_model, features.batch(forms, offsets))
        flags = np.array([int(ezafe_model.labels[i]) for i in ez_ids.tolist()], dtype=np.int8)
        pred = decode(pos_model, features.batch(forms, offsets), flags)
        assert tagged.ezafe.tolist() == flags.tolist()
        assert tagged.tag_names() == [pos_model.labels[i] for i in pred.tolist()]

    def test_affixes_cut_once_per_set_of_unknown_forms(self, crf2_pipeline, monkeypatch):
        ezafe_model, (same, other), sentences = crf2_pipeline
        forms = {form for sentence in sentences for form in sentence}
        assert known_forms(same) == known_forms(ezafe_model) != known_forms(other)
        cuts = count_cuts(monkeypatch)
        pipeline_tag(sentences, ezafe_model, same)
        # Both models lack the same forms: they are cut once, for both.
        assert len(cuts) == 1 and set(cuts[0]) == forms - known_forms(same)
        cuts.clear()
        pipeline_tag(sentences, ezafe_model, other)
        assert [set(c) for c in cuts] == [forms - known_forms(ezafe_model), forms - known_forms(other)]

    def test_crf1_cuts_no_affix(self, perfect_ezafe_setup, monkeypatch):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(3), corpora).model
        cuts = count_cuts(monkeypatch)
        pipeline_tag([["ea", "zz"], ["nb", "qq", "ea"]], ezafe_model, pos_model)
        assert cuts == []


class TestSharedBatchAcrossModels:
    """Every model that encodes one corpus shares its batch's work, beyond
    pipeline_tag: run_experiment's predicted flags and POS model read one
    batch per split, and so do eval's two models, and later runs on the same
    corpora. A CRF2 ezafe model and a CRF2+EZ POS model trained on one split
    lack the same forms of another split, so those forms are cut once."""

    @pytest.fixture(scope="class")
    def trained(self):
        corpora = shuffle_split(generate(tuned_ezafe_spec(0.22), 60, seed=31))
        config = TrainConfig(max_iterations=3)
        ezafe = run_experiment(ExperimentConfig(task="ezafe", template=CRF2, train_config=config), corpora)
        pos_cfg = ExperimentConfig(task="pos-ez-input", template=CRF2_EZ, train_config=config)
        return corpora, ezafe.model, pos_cfg

    @staticmethod
    def unknown(corpora):
        """The forms of the valid and test splits that the train split lacks."""
        unknown = [set(split.forms) - set(corpora[0].forms) for split in corpora[1:]]
        assert all(unknown)
        return unknown

    def test_run_experiment_cuts_each_split_once(self, trained, monkeypatch):
        corpora, ezafe_model, pos_cfg = trained
        cuts = count_cuts(monkeypatch)
        run_experiment(pos_cfg, fresh(corpora), ezafe_model)
        # The ezafe model's flags cut the valid and test forms that it
        # lacks; training cuts every train type, sentinels included, to
        # index it; the POS model's encodes of valid and test cut nothing.
        train_types = {features.BOS_FORM, features.EOS_FORM} | set(corpora[0].forms)
        assert [set(c) for c in cuts] == [*self.unknown(corpora), train_types]
        # The fixture's corpora kept their batches from training the ezafe
        # model, which lacks the same forms: a run on them cuts only the
        # train types, to index them.
        cuts.clear()
        run_experiment(pos_cfg, corpora, ezafe_model)
        assert [set(c) for c in cuts] == [train_types]

    def test_eval_with_ezafe_model_cuts_once(self, trained, tmp_path, monkeypatch):
        corpora, ezafe_model, pos_cfg = trained
        pos_model = run_experiment(pos_cfg, corpora, ezafe_model).model
        paths = [str(tmp_path / name) for name in ("ezafe.crf", "pos.crf", "test.tsv")]
        crf.save_model_file(ezafe_model, paths[0])
        crf.save_model_file(pos_model, paths[1])
        (tmp_path / "test.tsv").write_text(write_corpus(corpora[2]), encoding="utf-8")
        cuts = count_cuts(monkeypatch)
        assert main(["eval", paths[1], paths[2], "--ezafe-model", paths[0], "--report", str(tmp_path / "r")]) == 0
        # Loading each model cuts its word values; the test forms that both
        # lack are cut once.
        assert [set(c) for c in cuts].count(self.unknown(corpora)[1]) == 1


class TestPipeline:
    def test_empty_input(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(15), corpora).model
        out = pipeline_tag([], ezafe_model, pos_model)
        assert out.n_sentences == 0

    def test_zero_token_sentence_named(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(5), corpora).model
        assert predict_flags(ezafe_model, features.batch([], [0])).tolist() == []
        with pytest.raises(ValueError, match="sentence 1: no positions"):
            features.batch(["ea"], [0, 1, 1])
        with pytest.raises(ValueError, match="sentence 2: no positions"):
            pipeline_tag([["ea"], ["ea", "b"], []], ezafe_model, pos_model)

    def test_output_aligned_and_matches_predicted_mode(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(15), corpora).model
        test_c = corpora[2]
        forms = [[t.form for t in s] for s in test_c.sentences]
        tagged = pipeline_tag(forms, ezafe_model, pos_model)
        assert [len(s) for s in tagged.sentences] == [len(s) for s in test_c.sentences]
        batch = features.batch(test_c.forms, test_c.offsets)
        flags = predict_flags(ezafe_model, batch)
        direct = decode(pos_model, batch, flags)
        assert tagged.tag_names() == [pos_model.labels[i] for i in direct.tolist()]
        assert tagged.ezafe.tolist() == flags.tolist()

    def test_form_with_whitespace_rejected(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(3), corpora).model
        with pytest.raises(ValueError, match="token form must be non-empty and whitespace-free: 'b c'"):
            pipeline_tag([["ea"], ["ea", "b c"]], ezafe_model, pos_model)
        with pytest.raises(ValueError, match=r"token form must be non-empty and whitespace-free: 'b\\xa0'"):
            pipeline_tag([["ea", "b\xa0"], ["ea", "b c"]], ezafe_model, pos_model)

    def test_predicted_label_with_whitespace_rejected(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(5), corpora).model
        sentences = corpora[2].by_sentence(corpora[2].forms)
        pred = pipeline_tag(sentences, ezafe_model, pos_model).tag_names()
        # Two predicted labels renamed to break the rule: the message names
        # the one that the earlier token gets.
        first, second = list(dict.fromkeys(pred))[-2:]
        names = {first: "x y", second: "z\tw"}
        renamed = replace(pos_model, labels=tuple(names.get(lab, lab) for lab in pos_model.labels))
        with pytest.raises(ValueError, match="pos tag must be non-empty and whitespace-free: 'x y'"):
            pipeline_tag(sentences, ezafe_model, renamed)

    def test_template_incompatibility(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        plain_pos = run_experiment(
            ExperimentConfig(task="pos", template=CRF1, train_config=TrainConfig(max_iterations=10)),
            corpora,
        ).model
        with pytest.raises(ValueError, match="ezafe input"):
            pipeline_tag([["ea"]], ezafe_model, plain_pos)

    def test_stage_one_must_be_ezafe_model(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        pos_model = run_experiment(gold_flags_cfg(10), corpora).model
        with pytest.raises(ValueError, match="not an ezafe model"):
            pipeline_tag([["ea"]], pos_model, pos_model)


class TestConfig:
    def test_task_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="nope", template=CRF1)

    def test_template_task_compatibility(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task="ezafe", template=CRF1_EZ)
        with pytest.raises(ConfigError):
            ExperimentConfig(task="pos-ez-input", template=CRF1)

    def test_parse_full_file(self):
        text = (
            "# demo\n"
            "task = pos-ez-input\n"
            "template = crf2\n"
            "l1 = 0.2\n"
            "l2 = 0.05\n"
            "max_iter = 42\n"
            "min_count = 3\n"
            "seed = 7\n"
            "train = data/train.tsv\n"
            "valid = data/valid.tsv\n"
            "test = data/test.tsv\n"
            "ezafe_model = models/ez.crf\n"
            "out = models/pos.crf\n"
        )
        cfg = parse_experiment_config(text)
        assert cfg.task == "pos-ez-input"
        assert cfg.template == FeatureTemplate(id="CRF2", ezafe_input=True)
        assert cfg.train_config.l1 == 0.2
        assert cfg.train_config.max_iterations == 42
        assert cfg.train_config.min_count == 3
        assert cfg.seed == 7
        assert cfg.ezafe_model_path == "models/ez.crf"
        assert cfg.out_path == "models/pos.crf"

    def test_parse_defaults(self):
        cfg = parse_experiment_config(
            "task = ezafe\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\n"
        )
        assert cfg.train_config.l1 == 0.1
        assert cfg.train_config.l2 == 0.1
        assert cfg.train_config.max_iterations == 100
        assert cfg.train_config.min_count == 1
        assert cfg.seed == 17

    def test_parse_errors(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_experiment_config("task = ezafe\nbogus = 1\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_experiment_config("task = ezafe\ntemplate = crf1\n")
        with pytest.raises(ConfigError, match="bad value"):
            parse_experiment_config(
                "task = ezafe\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\nl1 = x\n"
            )
        with pytest.raises(ConfigError, match="duplicate"):
            parse_experiment_config("task = ezafe\ntask = pos\n")
        with pytest.raises(ConfigError, match="min_count must be positive"):
            parse_experiment_config(
                "task = ezafe\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\nmin_count = 0\n"
            )

    @pytest.mark.parametrize(
        "task, extra, message",
        [
            ("ezafe", "ezafe_model = /nonexistent.crf", "ezafe_model is read only by"),
            ("pos", "ezafe_model = m.crf", "ezafe_model is read only by"),
            ("joint", "ezafe_model = m.crf", "ezafe_model is read only by"),
            ("pos-ez-input", "ezafe_source = gold\nezafe_model = m.crf", "ezafe_model is read only by"),
            ("ezafe", "ezafe_model =", "ezafe_model is read only by"),
            ("ezafe", "ezafe_source = predicted", "ezafe_source is read only by"),
            ("pos", "ezafe_source = gold", "ezafe_source is read only by"),
            ("joint", "ezafe_source = gold", "ezafe_source is read only by"),
        ],
    )
    def test_keys_the_task_does_not_read_are_refused(self, task, extra, message):
        text = f"task = {task}\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\n{extra}\n"
        with pytest.raises(ConfigError, match=message):
            parse_experiment_config(text)

    @pytest.mark.parametrize(
        "task, source", [("ezafe", "predicted"), ("pos", "gold"), ("joint", "predicted"), ("pos-ez-input", "gold")]
    )
    def test_ezafe_model_path_the_task_does_not_read_is_refused(self, task, source):
        # A config built in Python is held to the parser's rule: run_experiment
        # would neither read the path nor say so, and the reports would name it.
        template = CRF1_EZ if task == "pos-ez-input" else CRF1
        with pytest.raises(ConfigError, match="ezafe_model is read only by task pos-ez-input"):
            ExperimentConfig(task, template, ezafe_source=source, ezafe_model_path="/nonexistent/never_read.crf")

    @pytest.mark.parametrize(
        "extra", ["", "ezafe_source = predicted\n", "ezafe_model =\n"], ids=["default", "predicted", "empty"]
    )
    def test_predicted_flags_without_ezafe_model_are_refused(self, extra):
        text = "task = pos-ez-input\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\n" + extra
        with pytest.raises(ConfigError, match="predicted needs ezafe_model"):
            parse_experiment_config(text)

    def test_ezafe_keys_the_task_reads_are_kept(self):
        base = "task = pos-ez-input\ntemplate = crf1\ntrain = a\nvalid = b\ntest = c\n"
        cfg = parse_experiment_config(base + "ezafe_source = predicted\nezafe_model = m.crf\n")
        assert (cfg.ezafe_source, cfg.ezafe_model_path) == ("predicted", "m.crf")
        cfg = parse_experiment_config(base + "ezafe_source = gold\n")
        assert (cfg.ezafe_source, cfg.ezafe_model_path) == ("gold", None)

    def test_run_experiment_dispatch(self, rule_corpora):
        cfg = ezafe_cfg()
        result = run_experiment(cfg, corpora=rule_corpora)
        assert result.test_report.kind == "binary"


class TestModelKind:
    def test_kinds(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        assert label_kind(ezafe_model.labels) == "ezafe"
        pos_model = run_experiment(
            ExperimentConfig(task="pos", template=CRF1, train_config=TrainConfig(max_iterations=8)),
            corpora,
        ).model
        assert label_kind(pos_model.labels) == "pos"
        joint_model = run_experiment(
            ExperimentConfig(task="joint", template=CRF1, train_config=TrainConfig(max_iterations=8)),
            corpora,
        ).model
        assert label_kind(joint_model.labels) == "joint"


class TestStopReason:
    """Why training stopped, from optim through crf.train and fit into the
    experiment result."""

    @pytest.mark.parametrize("runner", ["ezafe", "pos", "joint"])
    def test_max_iterations(self, rule_corpora, runner):
        cfg = ExperimentConfig(task=runner, template=CRF1, train_config=TrainConfig(max_iterations=2))
        result = run_experiment(cfg, corpora=rule_corpora)
        assert result.stop == "max_iterations"
        assert [e.iteration for e in result.log] == [1, 2]

    def test_tolerance(self, rule_corpora, monkeypatch):
        monkeypatch.setattr(optim, "TOLERANCE", 0.05)  # read by crf.train's optimizer run
        cfg = ExperimentConfig(task="ezafe", template=CRF1, train_config=TrainConfig(max_iterations=50))
        result = run_experiment(cfg, rule_corpora)
        assert result.stop == "tolerance"
        assert len(result.log) < 50

    def test_zero_step(self, rule_corpora):
        # An L1 weight above every gradient leaves the zero start in place.
        config = TrainConfig(l1=1e6, max_iterations=5)
        cfg = ExperimentConfig(task="ezafe", template=CRF1, train_config=config)
        model, log, best_it, stop, valid_pred = fit(cfg, *rule_corpora[:2])
        assert (stop, log, best_it) == ("zero_step", [], 0)
        assert not np.any(model.emission)
        valid_c = rule_corpora[1]
        assert np.array_equal(valid_pred, decode(model, features.batch(valid_c.forms, valid_c.offsets)))

    def test_line_search(self, rule_corpora, monkeypatch):
        # Every trial point lies outside the objective's domain.
        evaluate = crf._Objective.__call__

        def only_at_zero(self, x):
            if np.any(x):
                raise crf.TransitionSpanError("outside")
            return evaluate(self, x)

        monkeypatch.setattr(crf._Objective, "__call__", only_at_zero)
        result = run_experiment(ezafe_cfg(), rule_corpora)
        assert result.stop == "line_search"
        assert result.log == [] and result.best_iteration == 0


def test_timed_paths_build_no_token(monkeypatch):
    """Parse, split, train, evaluate, save and two-stage tagging run on the
    corpus columns alone."""
    text = write_corpus(generate(tuned_ezafe_spec(0.22), 80, seed=4))

    def refuse(self):
        raise AssertionError("a Token was built")

    monkeypatch.setattr(Token, "__post_init__", refuse)
    parts = shuffle_split(parse_corpus(text))
    train_config = TrainConfig(max_iterations=3)
    ezafe = run_experiment(
        ExperimentConfig(task="ezafe", template=CRF1, train_config=train_config, eval_every=1), parts
    )
    save_model(ezafe.model)
    cfg = ExperimentConfig(task="pos-ez-input", template=CRF1_EZ, train_config=train_config)
    pos = run_experiment(cfg, parts, ezafe.model)
    tagged = pipeline_tag(parts[2].by_sentence(parts[2].forms), ezafe.model, pos.model)
    with pytest.raises(AssertionError, match="a Token was built"):
        tagged.sentences
    monkeypatch.undo()
    assert tagged.forms == parts[2].forms
    assert [len(s) for s in tagged.sentences] == [len(s) for s in parts[2].sentences]


def test_timed_paths_cut_no_sentence(monkeypatch):
    """Parse, split, training with checkpoints, evaluation, predicted flags,
    saving and two-stage tagging carry every per-token quantity as a flat
    column: none of them cuts a column into sentences."""
    text = write_corpus(generate(tuned_ezafe_spec(0.22), 80, seed=4))
    raw = [[line.split("\t")[0] for line in block.split("\n")] for block in text[:-1].split("\n\n")]

    def refuse(self, values):
        raise AssertionError("a column was cut into sentences")

    monkeypatch.setattr(Corpus, "by_sentence", refuse)
    parts = shuffle_split(parse_corpus(text))
    train_config = TrainConfig(max_iterations=3)
    ezafe = run_experiment(
        ExperimentConfig(task="ezafe", template=CRF1, train_config=train_config, eval_every=1), parts
    )
    cfg = ExperimentConfig(task="pos-ez-input", template=CRF1_EZ, train_config=train_config)
    pos = run_experiment(cfg, parts, ezafe.model)
    joint = run_experiment(ExperimentConfig(task="joint", template=CRF1, train_config=train_config), parts)
    for result in (ezafe, pos, joint):
        save_model(result.model)
    tagged = pipeline_tag(raw, ezafe.model, pos.model)
    monkeypatch.undo()
    assert list(tagged.forms) == [form for sentence in raw for form in sentence]
    assert np.diff(tagged.offsets).tolist() == list(map(len, raw))
