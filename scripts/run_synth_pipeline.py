#!/usr/bin/env python3
"""End-to-end desk-scale study on synthetic data.

Generates a corpus from the tuned process (~22% ezafe rate), splits it with
seed 17, prints per-POS statistics, trains CRF1/CRF2 ezafe recognizers and
POS taggers (single-task and with predicted ezafe flags in the input), and
prints every result table: recognition scores, per-POS ezafe F1, tagging
scores, per-tag F1, and the per-tag change when flags are added.
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from pertcrf.corpus import SplitSpec, corpus_stats, format_stats, shuffle_split, write_corpus_file
from pertcrf.crf import TrainConfig, save_model_file
from pertcrf.datagen import generate, tuned_ezafe_spec, write_hmm_spec_file
from pertcrf.features import FeatureTemplate
from pertcrf.metrics import delta_report
from pertcrf.tasks import ExperimentConfig, run_experiment


def results_row(name, split, m):
    return f"{name:<10} {split:<6} {m.precision:.4f} {m.recall:.4f} {m.f1:.4f} {m.accuracy:.4f}"


def print_results_table(title, rows):
    print(f"\n== {title}")
    print(f"{'model':<10} {'split':<6} prec.  recall f1     acc.")
    for row in rows:
        print(row)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sentences", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--max-iter", type=int, default=60)
    ap.add_argument("--out-dir", default="synth_run")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    started = time.monotonic()

    spec = tuned_ezafe_spec(target_rate=0.22)
    write_hmm_spec_file(spec, os.path.join(args.out_dir, "process.spec"))
    corpus = generate(spec, args.sentences, seed=args.seed)
    print(f"generated {corpus.n_sentences} sentences / {corpus.n_tokens} tokens")
    rate = int(corpus.ezafe.sum()) / corpus.n_tokens
    print(f"ezafe rate: {rate:.4f}")

    train_c, valid_c, test_c = shuffle_split(corpus, SplitSpec(seed=args.seed))
    corpora = (train_c, valid_c, test_c)
    for name, part in zip(("train", "valid", "test"), corpora):
        write_corpus_file(part, os.path.join(args.out_dir, f"{name}.tsv"))
        print(f"{name}: {part.n_sentences} sentences / {part.n_tokens} tokens")

    print("\n== per-POS statistics (train split)")
    print(format_stats(corpus_stats(train_c)), end="")

    tc = TrainConfig(max_iterations=args.max_iter)

    # --- ezafe recognition -------------------------------------------------
    ez_rows, ez_results = [], {}
    for template_id in ("CRF1", "CRF2"):
        cfg = ExperimentConfig(task="ezafe", template=FeatureTemplate(id=template_id), train_config=tc)
        result = run_experiment(cfg, corpora)
        ez_results[template_id] = result
        ez_rows.append(results_row(template_id, "valid", result.valid_report.headline))
        ez_rows.append(results_row(template_id, "test", result.test_report.headline))
        save_model_file(result.model, os.path.join(args.out_dir, f"ezafe_{template_id.lower()}.crf"))
    print_results_table("ezafe recognition (positive class)", ez_rows)

    best_id = max(ez_results, key=lambda k: ez_results[k].valid_report.headline.f1)
    best_ezafe = ez_results[best_id]
    print(f"\nbest ezafe model by validation F1: {best_id}")
    print("\n== ezafe F1 per POS (best model, test split)")
    report = best_ezafe.test_report
    for pos, f1 in report.ezafe_per_pos.items():
        print(f"{pos:<6} {f1:.4f}")
    print(f"mean   {report.ezafe_per_pos_mean:.4f}")

    # --- POS tagging --------------------------------------------------------
    pos_rows, single_runs = [], {}
    for template_id in ("CRF1", "CRF2"):
        cfg = ExperimentConfig(task="pos", template=FeatureTemplate(id=template_id), train_config=tc)
        result = run_experiment(cfg, corpora)
        single_runs[template_id] = result
        pos_rows.append(results_row(f"{template_id}", "valid", result.valid_report.headline))
        pos_rows.append(results_row(f"{template_id}", "test", result.test_report.headline))

    cfg_input = ExperimentConfig(
        task="pos-ez-input",
        template=FeatureTemplate(id="CRF2", ezafe_input=True),
        train_config=tc,
        ezafe_source="predicted",
    )
    with_input = run_experiment(cfg_input, corpora, best_ezafe.model)
    pos_rows.append(results_row("CRF2+ez", "valid", with_input.valid_report.headline))
    pos_rows.append(results_row("CRF2+ez", "test", with_input.test_report.headline))
    print_results_table("POS tagging (macro average)", pos_rows)
    save_model_file(with_input.model, os.path.join(args.out_dir, "pos_crf2_ez.crf"))

    single_f1 = {t: m.f1 for t, m in single_runs["CRF2"].test_report.per_tag.items()}
    input_f1 = {t: m.f1 for t, m in with_input.test_report.per_tag.items()}
    shared = sorted(set(single_f1) & set(input_f1))
    print("\n== POS F1 per tag, CRF2 (test split)")
    print(f"{'tag':<6} single  +ezafe")
    for tag in shared:
        print(f"{tag:<6} {single_f1[tag]:.4f}  {input_f1[tag]:.4f}")

    print("\n== change in per-tag F1 when ezafe flags are added (CRF2)")
    deltas = delta_report({t: single_f1[t] for t in shared}, {t: input_f1[t] for t in shared})
    for tag, d in deltas.items():
        print(f"{tag:<6} {d:+.4f}")

    print(f"\ntotal wall time: {time.monotonic() - started:.0f}s")
    print(f"artifacts in {args.out_dir}/")


if __name__ == "__main__":
    main()
