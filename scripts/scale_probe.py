#!/usr/bin/env python3
"""Cost of one training configuration at a given corpus size and tagset.

Generates a synthetic CRF2 POS corpus of at least --tokens tokens from
`tuned_ezafe_spec(0.22, n_states=--labels, vocab_size=20000)` at seed 5,
then times the layers that training runs before and inside the optimizer:
parsing the corpus text, building the feature index, encoding the corpus,
and one evaluation of the training objective at x = 0 (the minimum of 3).
Prints one JSON object with those times, F, the parameter count and the
process's peak RSS.

Run one configuration per process, so that each peak RSS is its own:

    python scripts/scale_probe.py --tokens 50000 --labels 30

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set. The package is
imported from PYTHONPATH when it is found there, else from this checkout's
src, so the same script can measure another checkout.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from pertcrf import crf, datagen, tasks  # noqa: E402
from pertcrf.corpus import Corpus, parse_corpus, write_corpus  # noqa: E402
from pertcrf.features import FeatureTemplate, build_feature_index  # noqa: E402

SEED = 5  # generator seed
REPEATS = 3  # objective evaluations timed; the minimum is reported


def generate_tokens(spec: datagen.HmmSpec, n_tokens: int, seed: int) -> Corpus:
    """The shortest prefix of the seed's sentence stream holding at least
    n_tokens tokens."""
    n = max(1, n_tokens // 7)
    while True:
        sents = datagen.generate(spec, n, seed=seed).sentences
        total = 0
        for k, sent in enumerate(sents):
            total += len(sent)
            if total >= n_tokens:
                return Corpus.from_sentences(sents[: k + 1])
        n *= 2


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tokens", type=int, required=True, help="minimum corpus size in tokens")
    ap.add_argument("--labels", type=int, required=True, help="POS tagset size (states of the process)")
    args = ap.parse_args()

    spec = datagen.tuned_ezafe_spec(0.22, n_states=args.labels, vocab_size=20000)
    text = write_corpus(generate_tokens(spec, args.tokens, SEED))
    template = FeatureTemplate(id="CRF2")

    corpus, parse_s = timed(lambda: parse_corpus(text))
    del text
    index, index_s = timed(lambda: build_feature_index(corpus, template))
    labels = corpus.tag_inventory
    ids = {lab: i for i, lab in enumerate(labels)}
    instances = tasks.corpus_instances(corpus, template, lambda t: t.pos)
    (encoded, gold), encode_s = timed(lambda: crf._encode(instances, index, ids))
    F, L = len(index), len(labels)
    objective = crf._Objective(encoded, gold, F, L, 0.1)
    x = np.zeros(F * L + L * L)
    evals = [timed(lambda: objective(x))[1] for _ in range(REPEATS)]

    print(json.dumps({
        "tokens": corpus.n_tokens,
        "sentences": corpus.n_sentences,
        "labels": L,
        "features": F,
        "parameters": F * L + L * L,
        "parse_s": round(parse_s, 4),
        "index_s": round(index_s, 4),
        "encode_s": round(encode_s, 4),
        "eval_s": round(min(evals), 4),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }))


if __name__ == "__main__":
    main()
