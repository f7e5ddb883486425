#!/usr/bin/env python3
"""Full experimental protocol on a user-supplied corpus in canonical
3-column format: seed-17 shuffle, 10/10/80 split, >512-token filter, then
CRF1/CRF2 ezafe recognition and POS tagging with and without predicted
ezafe flags in the input. Reports land next to the models in --out-dir,
and stdout carries every result table: per-POS statistics, recognition
scores, per-POS ezafe F1, tagging scores, per-tag F1 and the per-tag
change when flags are added.

On a 10M-token corpus expect hours per model; start with --max-iter 20 to
gauge throughput.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pertcrf.corpus import MAX_SENTENCE_LEN, SplitSpec, corpus_stats, filter_long, format_stats
from pertcrf.corpus import atomic_write, read_corpus_file, shuffle_split
from pertcrf.crf import TrainConfig, save_model_file
from pertcrf.features import FeatureTemplate
from pertcrf.metrics import delta_report
from pertcrf.tasks import ExperimentConfig, run_experiment


def save_reports(result, prefix):
    for split, report in (("valid", result.valid_report), ("test", result.test_report)):
        atomic_write(f"{prefix}.{split}.txt", report.to_text())
        atomic_write(f"{prefix}.{split}.json", report.to_json())


def headline(result):
    m = result.test_report.headline
    return f"P {m.precision:.4f}  R {m.recall:.4f}  F1 {m.f1:.4f}  acc {m.accuracy:.4f}"


def print_results_table(title, results):
    print(f"\n== {title}")
    print(f"{'model':<10} {'split':<6} prec.  recall f1     acc.")
    for name, result in results.items():
        for split, report in (("valid", result.valid_report), ("test", result.test_report)):
            m = report.headline
            print(f"{name:<10} {split:<6} {m.precision:.4f} {m.recall:.4f} {m.f1:.4f} {m.accuracy:.4f}")


def run_protocol(corpora, train_config, out_dir, split_paths, seed):
    """Train the five models of the protocol on corpora (train, valid,
    test), write each with its valid and test reports into out_dir, and
    print the result tables. split_paths (the train, valid and test
    sources) and seed, the seed of the split, name the splits in the
    reports' headers; the CRF2+EZ reports also name the saved recognizer
    that made their flags."""
    for name, part in zip(("train", "valid", "test"), corpora):
        print(f"{name}: {part.n_sentences} sentences / {part.n_tokens} tokens")
    print("\n== per-POS statistics (train split)")
    print(format_stats(corpus_stats(corpora[0])), end="")

    def experiment(tag, task, template, ezafe_tag=None, ezafe_model=None):
        started = time.monotonic()
        cfg = ExperimentConfig(
            task=task,
            template=template,
            train_config=train_config,
            train_path=split_paths[0],
            valid_path=split_paths[1],
            test_path=split_paths[2],
            ezafe_model_path=os.path.join(out_dir, f"{ezafe_tag}.crf") if ezafe_tag else None,
            seed=seed,
        )
        result = run_experiment(cfg, corpora, ezafe_model)
        prefix = os.path.join(out_dir, tag)
        save_model_file(result.model, prefix + ".crf")
        save_reports(result, prefix)
        print(f"{tag}: {headline(result)}  [{time.monotonic() - started:.0f}s]")
        return result

    print()
    ezafe = {t: experiment(f"ezafe_{t.lower()}", "ezafe", FeatureTemplate(id=t)) for t in ("CRF1", "CRF2")}
    print_results_table("ezafe recognition (positive class)", ezafe)
    best_id = max(ezafe, key=lambda k: ezafe[k].valid_report.headline.f1)
    print(f"\nbest ezafe model by validation F1: {best_id}")
    print("\n== ezafe F1 per POS (best model, test split)")
    report = ezafe[best_id].test_report
    for pos, f1 in report.ezafe_per_pos.items():
        print(f"{pos:<6} {f1:.4f}")
    print(f"mean   {report.ezafe_per_pos_mean:.4f}")

    print()
    pos = {t: experiment(f"pos_{t.lower()}", "pos", FeatureTemplate(id=t)) for t in ("CRF1", "CRF2")}
    ez_input = FeatureTemplate(id="CRF2", ezafe_input=True)
    best_tag, best_model = f"ezafe_{best_id.lower()}", ezafe[best_id].model
    pos["CRF2+ez"] = experiment("pos_crf2_ez_input", "pos-ez-input", ez_input, best_tag, best_model)
    print_results_table("POS tagging (macro average)", pos)

    single_f1 = {t: m.f1 for t, m in pos["CRF2"].test_report.per_tag.items()}
    input_f1 = {t: m.f1 for t, m in pos["CRF2+ez"].test_report.per_tag.items()}
    shared = sorted(set(single_f1) & set(input_f1))
    print("\n== POS F1 per tag, CRF2 (test split)")
    print(f"{'tag':<6} single  +ezafe")
    for tag in shared:
        print(f"{tag:<6} {single_f1[tag]:.4f}  {input_f1[tag]:.4f}")
    print("\n== change in per-tag F1 when ezafe flags are added (CRF2)")
    for tag, d in delta_report({t: single_f1[t] for t in shared}, {t: input_f1[t] for t in shared}).items():
        print(f"{tag:<6} {d:+.4f}")
    print(f"\nreports and models in {out_dir}/")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("corpus", help="annotated corpus, canonical 3-column TSV")
    ap.add_argument("--out-dir", default="protocol_run")
    ap.add_argument("--seed", type=int, default=SplitSpec.seed)
    ap.add_argument("--max-iter", type=int, default=TrainConfig.max_iterations)
    ap.add_argument("--max-sentence-len", type=int, default=MAX_SENTENCE_LEN)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    corpus = read_corpus_file(args.corpus)
    print(f"corpus: {corpus.n_sentences} sentences / {corpus.n_tokens} tokens")
    parts = shuffle_split(corpus, SplitSpec(seed=args.seed))
    corpora = tuple(filter_long(c, args.max_sentence_len) for c in parts)
    # Every split is the corpus cut at the seed, so the corpus names all three.
    paths = (args.corpus,) * 3
    run_protocol(corpora, TrainConfig(max_iterations=args.max_iter), args.out_dir, paths, args.seed)


if __name__ == "__main__":
    main()
