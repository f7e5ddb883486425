#!/usr/bin/env python3
"""End-to-end desk-scale study on synthetic data.

Generates a corpus from the tuned process (~22% ezafe rate), writes the
process spec and the seed-17 split (train.tsv, valid.tsv, test.tsv) to
--out-dir, then runs run_full_protocol.py's protocol on the split: CRF1/CRF2
ezafe recognizers and POS taggers (single-task and with predicted ezafe
flags in the input), their models and reports, and every result table.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from run_full_protocol import run_protocol  # this script's directory is sys.path[0]

from pertcrf.corpus import SplitSpec, shuffle_split, write_corpus_file
from pertcrf.crf import TrainConfig
from pertcrf.datagen import generate, tuned_ezafe_spec, write_hmm_spec_file


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sentences", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=SplitSpec.seed)
    ap.add_argument("--max-iter", type=int, default=60)
    ap.add_argument("--out-dir", default="synth_run")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    spec = tuned_ezafe_spec(target_rate=0.22)
    write_hmm_spec_file(spec, os.path.join(args.out_dir, "process.spec"))
    corpus = generate(spec, args.sentences, seed=args.seed)
    print(f"generated {corpus.n_sentences} sentences / {corpus.n_tokens} tokens")
    print(f"ezafe rate: {int(corpus.ezafe.sum()) / corpus.n_tokens:.4f}")

    corpora = shuffle_split(corpus, SplitSpec(seed=args.seed))
    paths = [os.path.join(args.out_dir, f"{name}.tsv") for name in ("train", "valid", "test")]
    for part, path in zip(corpora, paths):
        write_corpus_file(part, path)
    run_protocol(corpora, TrainConfig(max_iterations=args.max_iter), args.out_dir, paths, args.seed)


if __name__ == "__main__":
    main()
