#!/usr/bin/env python3
"""Full experimental protocol on a user-supplied corpus in canonical
3-column format: seed-17 shuffle, 10/10/80 split, >512-token filter, then
CRF1/CRF2 ezafe recognition and POS tagging with and without predicted
ezafe flags in the input. Reports land next to the models in --out-dir.

On a 10M-token corpus expect hours per model; start with --max-iter 20 to
gauge throughput.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pertcrf.corpus import SplitSpec, filter_long, read_corpus_file, shuffle_split
from pertcrf.crf import TrainConfig, save_model_file
from pertcrf.features import FeatureTemplate
from pertcrf.tasks import ExperimentConfig, run_experiment


def save_reports(result, prefix):
    for split, report in (("valid", result.valid_report), ("test", result.test_report)):
        with open(f"{prefix}.{split}.txt", "w", encoding="utf-8") as f:
            f.write(report.to_text())
        with open(f"{prefix}.{split}.json", "w", encoding="utf-8") as f:
            f.write(report.to_json())


def headline(result):
    m = result.test_report.headline
    return f"P {m.precision:.4f}  R {m.recall:.4f}  F1 {m.f1:.4f}  acc {m.accuracy:.4f}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("corpus", help="annotated corpus, canonical 3-column TSV")
    ap.add_argument("--out-dir", default="protocol_run")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--max-iter", type=int, default=100)
    ap.add_argument("--max-sentence-len", type=int, default=512)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    corpus = read_corpus_file(args.corpus)
    print(f"corpus: {corpus.n_sentences} sentences / {corpus.n_tokens} tokens")
    parts = shuffle_split(corpus, SplitSpec(seed=args.seed))
    corpora = tuple(filter_long(c, args.max_sentence_len) for c in parts)
    for name, part in zip(("train", "valid", "test"), corpora):
        print(f"{name}: {part.n_sentences} sentences / {part.n_tokens} tokens")

    tc = TrainConfig(max_iterations=args.max_iter)

    def experiment(tag, cfg, ezafe_model=None):
        started = time.monotonic()
        result = run_experiment(cfg, corpora, ezafe_model)
        prefix = os.path.join(args.out_dir, tag)
        save_model_file(result.model, prefix + ".crf")
        save_reports(result, prefix)
        print(f"{tag}: {headline(result)}  [{time.monotonic() - started:.0f}s]")
        return result

    ez_runs = {}
    for template_id in ("CRF1", "CRF2"):
        cfg = ExperimentConfig(
            task="ezafe", template=FeatureTemplate(id=template_id), train_config=tc,
            train_path=args.corpus,
        )
        ez_runs[template_id] = experiment(f"ezafe_{template_id.lower()}", cfg)

    best_id = max(ez_runs, key=lambda k: ez_runs[k].valid_report.headline.f1)
    print(f"best ezafe model by validation F1: {best_id}")

    for template_id in ("CRF1", "CRF2"):
        cfg = ExperimentConfig(
            task="pos", template=FeatureTemplate(id=template_id), train_config=tc,
            train_path=args.corpus,
        )
        experiment(f"pos_{template_id.lower()}", cfg)

    cfg = ExperimentConfig(
        task="pos-ez-input",
        template=FeatureTemplate(id="CRF2", ezafe_input=True),
        train_config=tc,
        train_path=args.corpus,
        ezafe_source="predicted",
    )
    experiment("pos_crf2_ez_input", cfg, ezafe_model=ez_runs[best_id].model)
    print(f"reports and models in {args.out_dir}/")


if __name__ == "__main__":
    main()
