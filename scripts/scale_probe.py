#!/usr/bin/env python3
"""Cost of one training configuration at a given corpus size and tagset.

Generates a synthetic CRF2 POS corpus of at least --tokens tokens from
`tuned_ezafe_spec(0.22, n_states=--labels, vocab_size=--vocab)` at seed 5
(timing the spec and the generation: spec_s, generate_s), then times the
layers that training runs before and inside the optimizer:
parsing the corpus text (and, in a separate traced parse, the bytes that
the parsed corpus holds, from tracemalloc), indexing and encoding the
corpus (the one pass of `tasks.fit`: `features.batch`, then
`features.index_and_encode`, then the packed layout that `crf.train`
builds; the gold label ids are the corpus's tag codes), and one
evaluation of the training objective at x = 0 (the minimum of 3), over
the parameters that `crf.train` fits: the (feature, label) pairs seen in
the corpus, then the transitions. It then times one OWL-QN iteration from x = 0 with the
default penalties (l1 = l2 = 0.1), which gives the kind of model the
ingest-ezafe benchmark saves, and times `crf.save_model` and
`crf.load_model` on it. Last, it times the Bayes oracle over the whole
corpus, one `datagen.bayes_decode(spec, forms, offsets)` call (oracle_s).
Prints one JSON object with those times, F, the dense parameter count
(F * L + L * L) beside the observed pairs, the bytes of the vectors that
OWL-QN holds over the trained parameters (optimizer_state_mb), the parsed
corpus's size (parsed_mb), the bytes per token of the encoded corpus and
its packed layout's index arrays (encoded_bytes_per_token), the model
text's size, and the process's peak RSS twice: before model I/O
(peak_rss_mb) and after it, before the oracle (io_peak_rss_mb).

Run one configuration per process, so that each peak RSS is its own:

    python scripts/scale_probe.py --tokens 50000 --labels 30

BLAS runs on one thread unless OPENBLAS_NUM_THREADS is set. The package is
imported from PYTHONPATH when it is found there, else from this checkout's
src, so the same script can measure another checkout.
"""

import argparse
import inspect
import json
import os
import platform
import resource
import sys
import time
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from pertcrf import crf, datagen, features, optim  # noqa: E402
from pertcrf.corpus import Corpus, parse_corpus, write_corpus  # noqa: E402
from pertcrf.features import FeatureTemplate  # noqa: E402

SEED = 5  # generator seed
REPEATS = 3  # objective evaluations timed; the minimum is reported
MEMORY = inspect.signature(optim.minimize_owlqn).parameters["memory"].default
# Parameter-length vectors that minimize_owlqn holds at once: MEMORY (s, y)
# curvature pairs, then x, g, the pseudo-gradient, the direction, the
# orthant, the two-loop scratch, and the trial x, gradient and step.
OWLQN_VECTORS = 2 * MEMORY + 9


def generate_tokens(spec: datagen.HmmSpec, n_tokens: int, seed: int) -> Corpus:
    """The shortest prefix of the seed's sentence stream holding at least
    n_tokens tokens."""
    n = max(1, n_tokens // 7)
    while True:
        corpus = datagen.generate(spec, n, seed=seed)
        if corpus.n_tokens >= n_tokens:
            # The first sentence whose end reaches n_tokens is the last kept.
            k = int(np.searchsorted(corpus.offsets[1:], n_tokens))
            return corpus.take(range(k + 1))
        n *= 2


def peak_rss() -> float:
    """The process's peak resident set so far, in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tokens", type=int, required=True, help="minimum corpus size in tokens")
    ap.add_argument("--labels", type=int, required=True, help="POS tagset size (states of the process)")
    ap.add_argument("--vocab", type=int, default=20000, help="vocabulary size of the process")
    args = ap.parse_args()

    spec, spec_s = timed(lambda: datagen.tuned_ezafe_spec(0.22, n_states=args.labels, vocab_size=args.vocab))
    generated, generate_s = timed(lambda: generate_tokens(spec, args.tokens, SEED))
    text = write_corpus(generated)
    del generated
    template = FeatureTemplate(id="CRF2")

    tracemalloc.start()
    held = tracemalloc.get_traced_memory()[0]
    corpus = parse_corpus(text)
    parsed_mb = (tracemalloc.get_traced_memory()[0] - held) / 2**20
    tracemalloc.stop()
    del corpus
    corpus, parse_s = timed(lambda: parse_corpus(text))
    del text
    labels, gold = corpus.tag_inventory, corpus.tags

    def encode():
        index, encoded = features.index_and_encode(template, features.batch(corpus.forms, corpus.offsets))
        return index, crf._pack(encoded)

    (index, packed), encode_s = timed(encode)
    F, L = len(index), len(labels)
    encoded_bytes = sum(
        a.nbytes for a in (packed.ids, packed.offsets, packed.steps, packed.row, packed.order)
    )
    config = crf.TrainConfig()
    objective = crf._Objective(packed, gold, F, L, config.l2)
    P = len(objective.cells)
    x = np.zeros(objective.size)
    evals = [timed(lambda: objective(x))[1] for _ in range(REPEATS)]
    peak_rss_mb = peak_rss()

    result, step_s = timed(
        lambda: optim.minimize_owlqn(objective, x, l1=config.l1, max_iterations=1, tolerance=config.tolerance)
    )
    model = crf.CrfModel(
        labels=labels,
        feature_index=index,
        emission=objective.weights(result.x)[:F],
        transition=objective.transitions(result.x).copy(),
        template=template,
    )
    del objective, packed, result  # model I/O runs without the training arrays
    model_text, save_s = timed(lambda: crf.save_model(model))
    _, load_s = timed(lambda: crf.load_model(model_text))
    io_peak_rss_mb = peak_rss()
    _, oracle_s = timed(lambda: datagen.bayes_decode(spec, corpus.forms, corpus.offsets))

    print(json.dumps({
        "tokens": corpus.n_tokens,
        "sentences": corpus.n_sentences,
        "labels": L,
        "vocab": len(spec.vocab),
        "features": F,
        "parameters": F * L + L * L,
        "pairs": P,
        "optimizer_state_mb": round(OWLQN_VECTORS * (P + L * L) * 8 / 2**20, 2),
        "spec_s": round(spec_s, 4),
        "generate_s": round(generate_s, 4),
        "parse_s": round(parse_s, 4),
        "parsed_mb": round(parsed_mb, 2),
        "encode_s": round(encode_s, 4),
        "encoded_bytes_per_token": round(encoded_bytes / corpus.n_tokens, 1),
        "eval_s": round(min(evals), 4),
        "peak_rss_mb": peak_rss_mb,
        "step_s": round(step_s, 4),
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "model_mb": round(len(model_text.encode("utf-8")) / 2**20, 2),
        "io_peak_rss_mb": io_peak_rss_mb,
        "oracle_s": round(oracle_s, 4),
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }))


if __name__ == "__main__":
    main()
