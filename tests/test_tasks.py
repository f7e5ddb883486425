import numpy as np
import pytest

from pertcrf import crf
from pertcrf.corpus import Corpus, Token
from pertcrf.crf import TrainConfig
from pertcrf.datagen import GeometricLength, generate, homograph_spec
from pertcrf.features import FeatureTemplate, build_feature_index
from pertcrf.rng import SplitMix64
from pertcrf.tasks import (
    ConfigError,
    ExperimentConfig,
    corpus_instances,
    decode_corpus,
    evaluate_ezafe,
    gold_flags,
    model_task_kind,
    parse_experiment_config,
    pipeline_tag,
    predict_flags,
    run_ezafe,
    run_experiment,
    run_joint,
    run_pos,
    split_joint,
    train_checkpointed,
)

CRF1 = FeatureTemplate(id="CRF1")
CRF1_EZ = FeatureTemplate(id="CRF1", ezafe_input=True)
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
    result = run_ezafe(ezafe_cfg(), corpora=corpora)
    return corpora, result.model


class TestRunEzafe:
    def test_learns_window_rule(self, rule_corpora):
        result = run_ezafe(ezafe_cfg(), corpora=rule_corpora)
        assert result.test_report.headline.f1 >= 0.99
        assert result.test_report.kind == "binary"
        assert result.test_report.ezafe_per_pos is not None
        assert result.test_report.ezafe_per_pos["N"] >= 0.99

    def test_empty_train_split(self):
        empty = Corpus.from_sentences([])
        some = window_rule_corpus(5, 1)
        with pytest.raises(ValueError, match="empty train"):
            run_ezafe(ezafe_cfg(), corpora=(empty, some, some))

    def test_checkpoint_is_logged_best(self, rule_corpora):
        result = run_ezafe(ezafe_cfg(), corpora=rule_corpora)
        scored = [e for e in result.log if e.valid_f1 is not None]
        assert scored
        best = max(scored, key=lambda e: e.valid_f1)
        assert result.best_iteration == min(
            e.iteration for e in scored if e.valid_f1 == best.valid_f1
        )
        valid_c = rule_corpora[1]
        assert evaluate_ezafe(result.model, valid_c).headline.f1 == pytest.approx(best.valid_f1)


class TestCheckpointReplay:
    def test_model_equals_snapshot_at_best_iteration(self, rule_corpora):
        train_c, valid_c, _ = rule_corpora
        index = build_feature_index(train_c, CRF1)
        instances = list(corpus_instances(train_c, CRF1, lambda t: str(t.ezafe)))
        config = TrainConfig(max_iterations=12)
        valid_f1 = lambda m: evaluate_ezafe(m, valid_c).headline.f1
        model, log, best_it = train_checkpointed(
            instances, index, ("0", "1"), CRF1, config, valid_f1=valid_f1, eval_every=3
        )
        # deterministic retrain, capturing weights at every iteration
        captured = {}
        crf.train(
            instances,
            index,
            ("0", "1"),
            CRF1,
            config,
            on_iteration=lambda it, obj, m: captured.update({it: m.emission.copy()}),
        )
        assert np.array_equal(model.emission, captured[best_it])


class TestRunPos:
    def test_gold_ezafe_beats_none_on_homographs(self):
        spec = homograph_spec()
        dist = GeometricLength(min_len=3, max_len=12, continue_prob=0.8)
        corpora = tuple(
            generate(spec, n, seed=s, length_dist=dist)
            for n, s in ((400, 31), (120, 32), (120, 33))
        )
        plain = run_pos(
            ExperimentConfig(task="pos", template=CRF1, train_config=FAST), "none", corpora
        )
        gold = run_pos(
            ExperimentConfig(
                task="pos-ez-input", template=CRF1_EZ, train_config=FAST, ezafe_source="gold"
            ),
            "gold",
            corpora,
        )
        assert gold.test_report.headline.f1 > plain.test_report.headline.f1

    def test_predicted_flags_from_perfect_model_match_gold(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        for c in corpora:
            forms = [[t.form for t in s] for s in c.sentences]
            assert predict_flags(ezafe_model, forms) == gold_flags(c)
        cfg = ExperimentConfig(
            task="pos-ez-input", template=CRF1_EZ, train_config=TrainConfig(max_iterations=15)
        )
        gold_run = run_pos(cfg, "gold", corpora)
        pred_run = run_pos(cfg, "predicted", corpora, ezafe_model=ezafe_model)
        assert np.array_equal(gold_run.model.emission, pred_run.model.emission)
        assert np.array_equal(gold_run.model.transition, pred_run.model.transition)
        assert gold_run.test_report.to_json() == pred_run.test_report.to_json()

    def test_predicted_mode_needs_model(self, rule_corpora):
        cfg = ExperimentConfig(task="pos-ez-input", template=CRF1_EZ, train_config=FAST)
        with pytest.raises(ValueError, match="needs an ezafe model"):
            run_pos(cfg, "predicted", rule_corpora)

    def test_bad_flag_values_rejected(self, rule_corpora):
        train_c = rule_corpora[0]
        bad = [tuple(2 for _ in s) for s in train_c.sentences]
        with pytest.raises(ValueError, match="0 or 1"):
            list(corpus_instances(train_c, CRF1_EZ, lambda t: t.pos, ezafe=bad))


class TestRunJoint:
    def test_label_space_and_projections(self, rule_corpora):
        train_c = rule_corpora[0]
        cfg = ExperimentConfig(task="joint", template=CRF1, train_config=FAST)
        result = run_joint(cfg, corpora=rule_corpora)
        observed_pairs = {(t.pos, t.ezafe) for s in train_c.sentences for t in s}
        assert len(result.model.labels) == len(observed_pairs)
        # V and ADJ never carry ezafe under the window rule
        assert ("V", 1) not in observed_pairs
        assert ("ADJ", 1) not in observed_pairs
        preds = decode_corpus(result.model, rule_corpora[2])
        for sent, ps in zip(rule_corpora[2].sentences, preds):
            assert len(ps) == len(sent)
            for lab in ps:
                pos, ez = split_joint(lab)
                assert pos in train_c.tag_inventory
                assert ez in (0, 1)
        assert set(result.extra) == {"valid_ezafe", "test_ezafe"}
        assert result.extra["test_ezafe"].kind == "binary"
        assert result.test_report.kind == "macro"

    def test_split_joint_rejects_malformed(self):
        with pytest.raises(ValueError):
            split_joint("N")
        with pytest.raises(ValueError):
            split_joint("|1")


class TestPipeline:
    def test_empty_input(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        cfg = ExperimentConfig(
            task="pos-ez-input", template=CRF1_EZ, train_config=TrainConfig(max_iterations=15)
        )
        pos_model = run_pos(cfg, "gold", corpora).model
        out = pipeline_tag([], ezafe_model, pos_model)
        assert out.n_sentences == 0

    def test_zero_token_sentence_named(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        cfg = ExperimentConfig(
            task="pos-ez-input", template=CRF1_EZ, train_config=TrainConfig(max_iterations=5)
        )
        pos_model = run_pos(cfg, "gold", corpora).model
        assert predict_flags(ezafe_model, []) == []
        with pytest.raises(ValueError, match="sentence 1: no positions"):
            predict_flags(ezafe_model, [["ea"], []])
        with pytest.raises(ValueError, match="sentence 2: no positions"):
            pipeline_tag([["ea"], ["ea", "b"], []], ezafe_model, pos_model)

    def test_output_aligned_and_matches_predicted_mode(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        cfg = ExperimentConfig(
            task="pos-ez-input", template=CRF1_EZ, train_config=TrainConfig(max_iterations=15)
        )
        pos_model = run_pos(cfg, "gold", corpora).model
        test_c = corpora[2]
        forms = [[t.form for t in s] for s in test_c.sentences]
        tagged = pipeline_tag(forms, ezafe_model, pos_model)
        assert [len(s) for s in tagged.sentences] == [len(s) for s in test_c.sentences]
        flags = predict_flags(ezafe_model, forms)
        direct = decode_corpus(pos_model, test_c, ezafe=flags)
        assert [[t.pos for t in s] for s in tagged.sentences] == direct
        assert [[t.ezafe for t in s] for s in tagged.sentences] == [list(f) for f in flags]

    def test_template_incompatibility(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        plain_pos = run_pos(
            ExperimentConfig(task="pos", template=CRF1, train_config=TrainConfig(max_iterations=10)),
            "none",
            corpora,
        ).model
        with pytest.raises(ValueError, match="ezafe input"):
            pipeline_tag([["ea"]], ezafe_model, plain_pos)

    def test_stage_one_must_be_ezafe_model(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        cfg = ExperimentConfig(
            task="pos-ez-input", template=CRF1_EZ, train_config=TrainConfig(max_iterations=10)
        )
        pos_model = run_pos(cfg, "gold", corpora).model
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

    def test_run_experiment_dispatch(self, rule_corpora):
        cfg = ezafe_cfg()
        result = run_experiment(cfg, corpora=rule_corpora)
        assert result.test_report.kind == "binary"


class TestModelKind:
    def test_kinds(self, perfect_ezafe_setup):
        corpora, ezafe_model = perfect_ezafe_setup
        assert model_task_kind(ezafe_model) == "ezafe"
        pos_model = run_pos(
            ExperimentConfig(task="pos", template=CRF1, train_config=TrainConfig(max_iterations=8)),
            "none",
            corpora,
        ).model
        assert model_task_kind(pos_model) == "pos"
        joint_model = run_joint(
            ExperimentConfig(task="joint", template=CRF1, train_config=TrainConfig(max_iterations=8)),
            corpora,
        ).model
        assert model_task_kind(joint_model) == "joint"
