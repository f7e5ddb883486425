#!/usr/bin/env python3
"""Cost of one training configuration at a given corpus size and tagset.

Generates a synthetic CRF2 POS corpus of at least --tokens tokens from
`tuned_ezafe_spec(0.22, n_states=--labels, vocab_size=--vocab)` at seed 5
(timing the spec and the generation: spec_s, generate_s), then times the
layers that training runs before and inside the optimizer:
parsing the corpus text (and, in a separate traced parse, the bytes that
the parsed corpus holds, from tracemalloc), indexing and encoding the
corpus (the one pass of `tasks.fit`: `features.batch`, then
`features.index_and_encode`, whose encoding carries the batch's packed
layout; the gold label ids are the corpus's tag codes), then
`features.batch` and `features.index_and_encode` once more under
tracemalloc for the bytes they allocate at their peak beyond those held
before them (encode_peak_mb), and one evaluation of the training
objective at x = 0 (the minimum of 3), over the parameters that
`crf.train` fits: the (feature, label) pairs seen in the corpus, then the
transitions. eval_split parts the evaluation at x = 0 and one at the
last iterate of the run below (each the fastest of 3) into emission
scoring (`crf._emissions`), forward-backward (`crf._sum_product`), the
expected-count scatter (the objective's `_counts` calls) and the rest,
beside the stride of the steps that forward-backward normalizes there
(every): at x = 0 the transition span is 0 and the stride at its
largest. One more evaluation runs under tracemalloc for the bytes it
allocates at its peak beyond those held before it (eval_peak_mb); the
objective's held state after its first evaluations, the bytes of the
distinct buffers that it keeps beyond the encoded corpus's own arrays
(objective_state_mb, the layout's among them), is counted from its
arrays, so unlike peak_rss_mb it does not move with the heap's layout.
It then runs --iterations OWL-QN iterations from x = 0 with the
default penalties (l1 = l2 = 0.1), which gives the kind of model the ingest-ezafe benchmark saves: step_s is the whole run,
the evaluation at x = 0 included; iteration_s is the mean accepted
iteration after it, split into the L-BFGS direction (direction_s, the
two-loop recursion) and the line search (linesearch_s: the trial points,
their evaluations and the curvature update); evals_per_iteration counts
the evaluations of an iteration. It times `crf.save_model` and
`crf.load_model` on the model (load_s includes the per-word affix id
table that the loaded `features.FeatureIndex` builds), and, on its own,
`features.FeatureIndex(keys)` on the model's keys (load_index_s: the part
of load_s that makes the index's id tables and affix table from the key
strings; the rest of load_s splits the lines and parses the weights),
then the Bayes oracle over the whole corpus, one
`datagen.bayes_decode(spec, forms, offsets)` call (oracle_s). Last, it
encodes the whole corpus anew with the trained index (`features.batch`,
then `features.encode`: decode_encode_s) and decodes it with one `crf.decode` of the trained model: timed once
without tracemalloc (decode_s), then run once under it for the bytes that
the call allocates at its peak beyond those held before it
(decode_peak_mb).
Prints one JSON object with those times, F, the dense parameter count
(F * L + L * L) beside the observed pairs, the bytes of the vectors that
OWL-QN holds over the trained parameters (optimizer_state_mb), the parsed
corpus's size (parsed_mb), the bytes per token of the encoded corpus and
its packed layout's arrays (encoded_bytes_per_token), the model text's
size, the process's peak RSS twice: before model I/O (peak_rss_mb) and
after it, before the oracle (io_peak_rss_mb), and a linear extrapolation
of the evaluation, the iteration, a 100-iteration run and the peak RSS
above the interpreter's own to 8M training tokens (extrapolated_8M; the
direction and the optimizer state grow with the pairs, which grow slower
than the tokens, so this over-estimates them).

Run one configuration per process, so that each peak RSS is its own:

    python scripts/scale_probe.py --tokens 50000 --labels 30 --iterations 3

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
import tracemalloc

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import numpy as np  # noqa: E402

from pertcrf import crf, datagen, features, optim  # noqa: E402
from pertcrf.corpus import Corpus, parse_corpus, write_corpus  # noqa: E402
from pertcrf.features import FeatureTemplate  # noqa: E402

SEED = 5  # generator seed
REPEATS = 3  # objective evaluations timed; the minimum is reported
EXTRAPOLATE_TOKENS = 8_000_000  # training tokens of the paper's protocol
# Parameter-length vectors that minimize_owlqn holds at once: optim.MEMORY (s, y)
# curvature pairs, then x, g, the pseudo-gradient, the direction, the
# orthant, the two-loop scratch, and the trial x, gradient and step.
OWLQN_VECTORS = 2 * optim.MEMORY + 9


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


def held_mb(obj, read) -> float:
    """The MB of the distinct numpy buffers that obj holds, through its
    attributes and the lists, tuples and objects among them, beyond those
    of read (an object whose arrays obj reads): each base array counted
    once, so views add nothing."""

    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    seen = {id(base(a)) for a in vars(read).values() if isinstance(a, np.ndarray)}
    total, stack = 0, [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            x = base(x)
            if id(x) not in seen:
                seen.add(id(x))
                total += x.nbytes
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif hasattr(x, "__dict__") and x is not read:
            stack.extend(vars(x).values())
    return total / 2**20


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def split_eval(objective, x: np.ndarray) -> dict:
    """The fastest of REPEATS evaluations of objective at x, in seconds,
    whole (eval_s) and in parts: emission scoring, forward-backward, the
    expected-count scatter, and the rest; with the stride of the steps that
    forward-backward normalizes at x."""
    parts = {"emissions_s": 0.0, "forward_backward_s": 0.0, "scatter_s": 0.0}
    wrapped = [(crf, "_emissions", "emissions_s"), (crf, "_sum_product", "forward_backward_s"),
               (crf._Objective, "_counts", "scatter_s")]

    def timer(fn, key):
        def run(*a, **kw):
            result, seconds = timed(lambda: fn(*a, **kw))
            parts[key] += seconds
            return result
        return run

    originals = [getattr(owner, name) for owner, name, _ in wrapped]
    for (owner, name, key), fn in zip(wrapped, originals):
        setattr(owner, name, timer(fn, key))
    best = None
    try:
        for _ in range(REPEATS):
            parts.update(dict.fromkeys(parts, 0.0))
            _, eval_s = timed(lambda: objective(x))
            if best is None or eval_s < best["eval_s"]:
                best = {"eval_s": eval_s, **parts}
    finally:
        for (owner, name, _), fn in zip(wrapped, originals):
            setattr(owner, name, fn)
    best["other_s"] = best["eval_s"] - sum(best[key] for key in parts)
    out = {key: round(value, 6) for key, value in best.items()}
    # A checkout without crf._normalize_every normalizes every step.
    stride = getattr(crf, "_normalize_every", lambda span, n_labels: 1)
    out["every"] = stride(float(np.ptp(objective.transitions(x))), objective.L)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--tokens", type=int, required=True, help="minimum corpus size in tokens")
    ap.add_argument("--labels", type=int, required=True, help="POS tagset size (states of the process)")
    ap.add_argument("--vocab", type=int, default=20000, help="vocabulary size of the process")
    ap.add_argument("--iterations", type=int, default=1, help="OWL-QN iterations to run (default 1)")
    args = ap.parse_args()
    if args.iterations < 1:
        ap.error("--iterations must be positive")
    base_rss_mb = peak_rss()  # the interpreter and numpy, before any data

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

    (index, encoded), encode_s = timed(
        lambda: features.index_and_encode(template, features.batch(corpus.forms, corpus.offsets))
    )
    tracemalloc.start()
    held = tracemalloc.get_traced_memory()[0]
    features.index_and_encode(template, features.batch(corpus.forms, corpus.offsets))
    encode_peak_mb = (tracemalloc.get_traced_memory()[1] - held) / 2**20
    tracemalloc.stop()
    F, L = len(index), len(labels)
    arrays = [*vars(encoded).values(), *vars(encoded.layout).values()]
    encoded_bytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    config = crf.TrainConfig()
    objective = crf._Objective(encoded, gold, F, L, config.l2)
    P = len(objective.cells)
    x = np.zeros(objective.size)
    evals = [timed(lambda: objective(x))[1] for _ in range(REPEATS)]
    objective_state_mb = held_mb(objective, encoded)
    split_zero = split_eval(objective, x)
    tracemalloc.start()
    held = tracemalloc.get_traced_memory()[0]
    objective(x)
    eval_peak_mb = (tracemalloc.get_traced_memory()[1] - held) / 2**20
    tracemalloc.stop()
    peak_rss_mb = peak_rss()

    counted = {"evals": 0, "eval_s": 0.0, "direction_s": 0.0}

    def counted_objective(v):
        counted["evals"] += 1
        result, seconds = timed(lambda: objective(v))
        counted["eval_s"] += seconds
        return result

    direction = optim._lbfgs_direction

    def timed_direction(*a):
        d, seconds = timed(lambda: direction(*a))
        counted["direction_s"] += seconds
        return d

    optim._lbfgs_direction = timed_direction
    try:
        result, step_s = timed(
            lambda: optim.minimize_owlqn(counted_objective, x, l1=config.l1, max_iterations=args.iterations)
        )
    finally:
        optim._lbfgs_direction = direction
    first_eval_s = min(evals)  # the evaluation at x = 0 that the run starts with
    iterations, stop = result.iterations, result.stop
    its = max(iterations, 1)
    iteration_s = (step_s - first_eval_s) / its
    direction_s = counted["direction_s"] / its
    split_last = split_eval(objective, result.x)
    model = crf.CrfModel(
        labels=labels,
        feature_index=index,
        emission=objective.weights(result.x)[:F],
        transition=objective.transitions(result.x).copy(),
        template=template,
    )
    del objective, encoded, result  # model I/O runs without the training arrays
    model_text, save_s = timed(lambda: crf.save_model(model))
    _, load_s = timed(lambda: crf.load_model(model_text))
    io_peak_rss_mb = peak_rss()
    keys = index.keys()
    _, load_index_s = timed(lambda: features.FeatureIndex(keys))
    del keys
    _, oracle_s = timed(lambda: datagen.bayes_decode(spec, corpus.forms, corpus.offsets))
    encoded, decode_encode_s = timed(
        lambda: features.encode(index, template, features.batch(corpus.forms, corpus.offsets))
    )
    _, decode_s = timed(lambda: crf.decode(model, encoded))
    tracemalloc.start()
    held = tracemalloc.get_traced_memory()[0]
    crf.decode(model, encoded)
    decode_peak_mb = (tracemalloc.get_traced_memory()[1] - held) / 2**20
    tracemalloc.stop()

    scale = EXTRAPOLATE_TOKENS / corpus.n_tokens
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
        "encode_peak_mb": round(encode_peak_mb, 2),
        "encoded_bytes_per_token": round(encoded_bytes / corpus.n_tokens, 1),
        "eval_s": round(min(evals), 4),
        "eval_last_s": split_last["eval_s"],
        "eval_split": {"zero": split_zero, "last": split_last},
        "eval_peak_mb": round(eval_peak_mb, 2),
        "objective_state_mb": round(objective_state_mb, 2),
        "peak_rss_mb": peak_rss_mb,
        "step_s": round(step_s, 4),
        "iterations": iterations,
        "stop": stop,
        "evals_per_iteration": round((counted["evals"] - 1) / its, 2),
        "iteration_s": round(iteration_s, 4),
        "direction_s": round(direction_s, 6),
        "linesearch_s": round(iteration_s - direction_s, 4),
        "save_s": round(save_s, 4),
        "load_s": round(load_s, 4),
        "load_index_s": round(load_index_s, 4),
        "model_mb": round(len(model_text.encode("utf-8")) / 2**20, 2),
        "io_peak_rss_mb": io_peak_rss_mb,
        "oracle_s": round(oracle_s, 4),
        "decode_encode_s": round(decode_encode_s, 4),
        "decode_s": round(decode_s, 4),
        "decode_peak_mb": round(decode_peak_mb, 2),
        "extrapolated_8M": {
            "tokens": EXTRAPOLATE_TOKENS,
            "eval_s": round(min(evals) * scale, 1),
            "iteration_s": round(iteration_s * scale, 1),
            "train_100_h": round(100 * iteration_s * scale / 3600, 2),
            "peak_rss_gb": round((base_rss_mb + (peak_rss_mb - base_rss_mb) * scale) / 1024, 1),
        },
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    }))


if __name__ == "__main__":
    main()
