"""Acceptance suite. One test per criterion; each prints a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Criterion 8 needs the licensed full corpus and only runs when
PERTCRF_BIJANKHAN points at a canonical-format corpus file.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from oracles import (
    brute_log_z,
    brute_posteriors,
    brute_viterbi,
    central_differences,
    encode_keys,
    sum_product,
)
from pertcrf import features
from pertcrf.cli import main as cli_main
from pertcrf.corpus import (
    SplitSpec,
    filter_long,
    parse_corpus,
    read_corpus_file,
    shannon_index,
    shuffle_split,
    write_corpus,
)
from pertcrf.crf import (
    CrfModel,
    TrainConfig,
    _viterbi,
    nll_and_gradient,
    train,
)
from pertcrf.datagen import GeometricLength, bayes_decode, generate, homograph_spec, random_spec, tuned_ezafe_spec
from pertcrf.features import FeatureIndex, FeatureTemplate, _Layout
from pertcrf.metrics import binary_metrics, confusion, macro_metrics
from pertcrf.tasks import ExperimentConfig, decode, run_experiment

CRF2 = FeatureTemplate(id="CRF2")


def _criterion(n: int, ok: bool, description: str, detail: str = "") -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {description}{detail}")
    assert ok, f"criterion {n}: {description}{detail}"


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- criterion 3/5 share one generated corpus ------------------------------


@pytest.fixture(scope="module")
def learnability_data():
    spec = random_spec(4, 200, seed=101, emission_skew=5.0)
    train_c = generate(spec, 5000, seed=102)
    test_c = generate(spec, 1000, seed=103)
    index, encoded = features.index_and_encode(CRF2, features.batch(train_c.forms, train_c.offsets))
    return spec, train_c, test_c, (index, encoded, train_c.tags)


def test_criterion_1_exact_inference_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(1)
    for _ in range(500):
        T = int(rng.integers(1, 7))
        L = int(rng.integers(1, 5))
        em = rng.normal(0, rng.choice([0.5, 2.0, 8.0]), size=(T, L))
        trans = rng.normal(0, 2.0, size=(L, L))
        layout = _Layout(np.array([0, T]))  # one sentence: step t holds its position t

        # The scaled kernel that training runs, with its inputs
        # P = exp(em - row max) and E = exp(trans - max).
        top = trans.max()
        shift = em.max(axis=1)
        P = np.exp(em - shift[:, None])
        E = np.exp(trans - top)
        alpha, beta, c = sum_product(P, E, layout)
        expected_z = brute_log_z(em, trans)
        log_z = float(np.log(c).sum() + shift.sum() + (T - 1) * top)
        log_z_b = float(math.log(P[0] @ beta[0]) + shift.sum() + np.log(c[1:]).sum() + (T - 1) * top)
        assert _rel_close(log_z, expected_z, 1e-8)
        assert _rel_close(log_z_b, expected_z, 1e-8)

        unary = alpha * beta
        pairwise = alpha[:-1, :, None] * E * (P[1:] * beta[1:] / c[1:, None])[:, None, :]
        exp_unary, exp_pair = brute_posteriors(em, trans)
        assert np.max(np.abs(unary - exp_unary)) <= 1e-8
        if len(pairwise):
            assert np.max(np.abs(pairwise - exp_pair)) <= 1e-8

        # The objective's log Z and expected transitions, with one feature
        # per position weighted by its emission scores and gold labels all
        # 0, whose empirical transition count is T-1 at (0, 0).
        labels = [f"y{i}" for i in range(L)]
        model = CrfModel(
            labels=tuple(labels),
            feature_index=FeatureIndex([f"p{t}" for t in range(T)]),
            emission=em.copy(),
            transition=trans.copy(),
            template=CRF2,
        )
        encoded = encode_keys(model.feature_index, [[[f"p{t}"] for t in range(T)]])
        nll, (_, g_t) = nll_and_gradient(model, encoded, np.zeros(T, dtype=int))
        assert _rel_close(nll + em[:, 0].sum() + (T - 1) * trans[0, 0], expected_z, 1e-8)
        g_t[0, 0] += T - 1
        assert np.max(np.abs(g_t - pairwise.sum(axis=0))) <= 1e-8

        paths, scores = _viterbi(em.copy(), trans, layout)
        exp_path, exp_score = brute_viterbi(em, trans)
        assert paths.tolist() == exp_path and scores[0] == exp_score
    elapsed = time.monotonic() - started
    _criterion(
        1,
        elapsed < 30.0,
        "scaled forward-backward, marginals and Viterbi match enumeration on 500 lattices",
        f" (elapsed {elapsed:.1f}s < 30s)",
    )


def test_criterion_2_gradient_check():
    started = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        F = int(rng.integers(2, 8))
        L = int(rng.integers(2, 4))
        features = [f"f{i}" for i in range(F)]
        labels = [f"y{i}" for i in range(L)]
        batch = []
        for _ in range(int(rng.integers(1, 4))):
            T = int(rng.integers(1, 5))
            feats = [
                list(rng.choice(features, size=int(rng.integers(1, min(4, F) + 1)), replace=False))
                for _ in range(T)
            ]
            batch.append((feats, [int(rng.integers(0, L)) for _ in range(T)]))
        x = rng.normal(0, 0.5, size=F * L + L * L)

        def build(v):
            return CrfModel(
                labels=tuple(labels),
                feature_index=FeatureIndex(features),
                emission=v[: F * L].reshape(F, L).copy(),
                transition=v[F * L :].reshape(L, L).copy(),
                template=FeatureTemplate(id="CRF1"),
            )

        encoded = encode_keys(build(x).feature_index, [feats for feats, _ in batch])
        gold = np.concatenate([g for _, g in batch])
        _, (ge, gt) = nll_and_gradient(build(x), encoded, gold)
        analytic = np.concatenate([ge.ravel(), gt.ravel()])
        numeric = central_differences(
            lambda v: nll_and_gradient(build(v), encoded, gold)[0], x, step=1e-5
        )
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    elapsed = time.monotonic() - started
    _criterion(
        2,
        worst <= 1e-4 and elapsed < 60.0,
        "smooth-part gradient matches central differences on 100 models",
        f" (max rel err {worst:.2e} <= 1e-4, elapsed {elapsed:.1f}s < 60s)",
    )


def test_criterion_3_learnability_vs_oracle(learnability_data):
    started = time.monotonic()
    spec, train_c, test_c, (index, encoded, gold) = learnability_data
    model, _ = train(index, encoded, gold, train_c.tag_inventory, CRF2, TrainConfig())
    pred = [model.labels[i] for i in decode(model, features.batch(test_c.forms, test_c.offsets)).tolist()]
    total = test_c.n_tokens
    crf_acc = sum(p == g for p, g in zip(pred, test_c.tag_names())) / total
    decoded = bayes_decode(spec, test_c.forms, test_c.offsets)
    oracle_ok = sum(d == g for d, g in zip(decoded, test_c.tag_names()))
    oracle_acc = oracle_ok / total
    elapsed = time.monotonic() - started
    gap = abs(oracle_acc - crf_acc) * 100
    _criterion(
        3,
        gap <= 2.0 and elapsed < 300.0,
        "CRF2 tagger within 2 points of the posterior-decoding oracle",
        f" (crf {crf_acc:.4f}, oracle {oracle_acc:.4f}, gap {gap:.2f}pts, {elapsed:.0f}s < 300s)",
    )


def test_criterion_4_ezafe_helps_pos():
    started = time.monotonic()
    spec = homograph_spec()
    dist = GeometricLength(min_len=3, max_len=14, continue_prob=0.8)
    corpora = tuple(
        generate(spec, n, seed=s, length_dist=dist)
        for n, s in ((1200, 201), (300, 202), (400, 203))
    )
    config = TrainConfig(max_iterations=60)
    plain = run_experiment(
        ExperimentConfig(task="pos", template=FeatureTemplate(id="CRF2"), train_config=config),
        corpora,
    )
    with_gold = run_experiment(
        ExperimentConfig(
            task="pos-ez-input",
            template=FeatureTemplate(id="CRF2", ezafe_input=True),
            train_config=config,
            ezafe_source="gold",
        ),
        corpora,
    )
    delta = (with_gold.test_report.headline.f1 - plain.test_report.headline.f1) * 100
    elapsed = time.monotonic() - started
    _criterion(
        4,
        delta >= 1.0 and elapsed < 300.0,
        "gold ezafe input lifts POS macro F1 on the homograph construction",
        f" (none {plain.test_report.headline.f1:.4f}, gold {with_gold.test_report.headline.f1:.4f}, "
        f"delta {delta:+.2f}pts >= 1.0, {elapsed:.0f}s < 300s)",
    )


def test_criterion_5_l1_sparsity(learnability_data):
    _, train_c, _, (index, encoded, gold) = learnability_data
    config_l1 = TrainConfig(l1=0.1, l2=0.1, max_iterations=25)
    config_l0 = TrainConfig(l1=0.0, l2=0.1, max_iterations=25)
    with_l1, _ = train(index, encoded, gold, train_c.tag_inventory, CRF2, config_l1)
    without, _ = train(index, encoded, gold, train_c.tag_inventory, CRF2, config_l0)
    zeros_l1 = int(np.sum(with_l1.emission == 0.0))
    zeros_l0 = int(np.sum(without.emission == 0.0))
    _criterion(
        5,
        zeros_l1 > zeros_l0,
        "l1=0.1 training produces strictly more exactly-zero emission weights",
        f" ({zeros_l1} > {zeros_l0} of {with_l1.emission.size})",
    )


def test_criterion_6_metrics_oracle():
    binary = binary_metrics(
        confusion([["1", "0", "1", "1"]], [["1", "1", "1", "0"]], ("0", "1")), positive="1"
    )
    ok = (
        abs(binary.precision - 2 / 3) <= 1e-12
        and abs(binary.recall - 2 / 3) <= 1e-12
        and abs(binary.f1 - 2 / 3) <= 1e-12
        and abs(binary.accuracy - 0.5) <= 1e-12
    )
    macro = macro_metrics(
        confusion([["A", "A", "B", "B", "C", "C"]], [["A", "A", "B", "B", "A", "B"]], ("A", "B", "C"))
    )
    ok = ok and abs(macro.f1 - (0.8 + 0.8 + 0.0) / 3) <= 1e-12
    ok = ok and abs(macro.precision - (2 / 3 + 2 / 3 + 0.0) / 3) <= 1e-12
    ok = ok and abs(macro.accuracy - 4 / 6) <= 1e-12
    perfect = macro_metrics(confusion([["A", "B"]], [["A", "B"]], ("A", "B")))
    ok = ok and perfect.f1 == 1.0
    ok = ok and abs(shannon_index({"a": 5}) - 0.0) <= 1e-9
    ok = ok and abs(shannon_index({f"w{i}": 2 for i in range(8)}) - math.log(8)) <= 1e-9
    ok = ok and abs(shannon_index({"a": 1, "b": 1, "c": 2}) - 1.5 * math.log(2)) <= 1e-9
    _criterion(6, ok, "binary/macro measures and Shannon index match hand-computed values")


def test_criterion_7_protocol_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.tsv"
    corpus_path.write_text(
        write_corpus(generate(tuned_ezafe_spec(), 300, seed=301)), encoding="utf-8"
    )

    def protocol(workdir):
        workdir.mkdir(exist_ok=True)
        assert cli_main(["split", str(corpus_path), "--out-dir", str(workdir), "--seed", "17"]) == 0
        model = workdir / "ez.crf"
        assert (
            cli_main(
                [
                    "train",
                    str(workdir / "train.tsv"),
                    str(workdir / "valid.tsv"),
                    "--task",
                    "ezafe",
                    "--max-iter",
                    "15",
                    "--out",
                    str(model),
                    "--log",
                    str(workdir / "train.log"),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                ["eval", str(model), str(workdir / "test.tsv"), "--report", str(workdir / "report")]
            )
            == 0
        )
        names = ["train.tsv", "valid.tsv", "test.tsv", "ez.crf", "train.log", "report.txt", "report.json"]
        return {n: (workdir / n).read_bytes() for n in names}

    workdir = tmp_path / "run"
    first = protocol(workdir)
    second = protocol(workdir)
    same = {n for n in first if first[n] == second[n]}
    _criterion(
        7,
        same == set(first),
        "split -> train -> eval twice yields byte-identical models and reports",
        f" ({len(same)}/{len(first)} files identical)",
    )


BIJANKHAN = os.environ.get("PERTCRF_BIJANKHAN", "")


@pytest.mark.skipif(not BIJANKHAN, reason="set PERTCRF_BIJANKHAN to a canonical-format corpus file")
def test_criterion_8_full_corpus_reference():
    corpus = read_corpus_file(BIJANKHAN)
    train_c, valid_c, test_c = shuffle_split(corpus, SplitSpec(seed=17))
    train_c, valid_c, test_c = (filter_long(c, 512) for c in (train_c, valid_c, test_c))

    ez = run_experiment(
        ExperimentConfig(task="ezafe", template=FeatureTemplate(id="CRF1")),
        (train_c, valid_c, test_c),
    )
    ez_f1 = ez.test_report.headline.f1
    pos = run_experiment(
        ExperimentConfig(task="pos", template=FeatureTemplate(id="CRF2")),
        (train_c, valid_c, test_c),
    )
    pos_f1 = pos.test_report.headline.f1
    ok = abs(ez_f1 - 0.9546) <= 0.01 and abs(pos_f1 - 0.9595) <= 0.01
    _criterion(
        8,
        ok,
        "full-corpus CRF1 ezafe F1 and CRF2 POS macro F1 match the reference within 0.01",
        f" (ezafe {ez_f1:.4f} vs 0.9546, pos {pos_f1:.4f} vs 0.9595)",
    )
