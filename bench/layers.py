"""Which toolkit functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are the modules of `src/pertcrf`: corpus, datagen (with rng),
features, crf, optim, tasks and metrics. Functions are wrapped where their
callers look them up, so a name that `tasks` imported from `features`
or `metrics` is wrapped in `tasks`, and `minimize_owlqn` is wrapped in
`crf`, which is where training calls it.
"""

from __future__ import annotations

import statistics

from pertcrf import corpus, crf, datagen, features, tasks

OBJECTIVE = "crf.objective"
OPTIMIZER = "optim.minimize_owlqn"
CALLBACK = "tasks.on_iteration"
METRIC_FUNCTIONS = ("confusion", "binary_metrics", "macro_metrics", "per_tag_metrics", "ezafe_f1_per_pos")


def targets(tracer) -> list[tuple]:
    """(owner, attribute, make_wrapper) for every function the traced run
    wraps."""

    def span(name: str, on_result=None):
        return lambda fn: tracer.wrap(fn, name, on_result)

    def count_features(index) -> None:
        tracer.add("features.n_features", len(index))

    def count_model_bytes(text: str) -> None:
        tracer.add("crf.model_bytes", len(text.encode("utf-8")))

    out = [
        (corpus, "parse_corpus", span("corpus.parse")),
        (corpus, "shuffle_split", span("corpus.split")),
        (datagen, "tuned_ezafe_spec", span("datagen.spec")),
        (datagen, "generate", span("datagen.generate")),
        (datagen, "bayes_decode", span("datagen.oracle")),
        (features, "extract_features", span("features.extract")),
        (features.FeatureIndex, "encode", span("features.encode")),
        (tasks, "build_feature_index", span("features.index", count_features)),
        (tasks, "sentence_features", span("tasks.sentence_features")),
        (tasks, "corpus_instances", span("tasks.instances")),
        (tasks, "predict_flags", span("tasks.predict_flags")),
        (tasks, "run_pos", span("tasks.run_pos")),
        (tasks, "run_ezafe", span("tasks.run_ezafe")),
        (tasks, "pipeline_tag", span("tasks.pipeline_tag")),
        (crf, "train", span("crf.train")),
        (crf, "minimize_owlqn", lambda fn: tracer.wrap_minimizer(fn, OPTIMIZER, OBJECTIVE, CALLBACK)),
        (crf, "forward", span("crf.forward")),
        (crf, "backward", span("crf.backward")),
        (crf, "marginals", span("crf.marginals")),
        (crf, "gold_path_score", span("crf.gold_path")),
        (crf, "score_lattice", span("crf.score_lattice")),
        (crf, "decode_lattice", span("crf.decode_lattice")),
        (crf, "viterbi", span("crf.viterbi")),
        (crf, "save_model", span("crf.save_model", count_model_bytes)),
        (crf, "load_model", span("crf.load_model")),
    ]
    out += [(tasks, fn, span(f"metrics.{fn}")) for fn in METRIC_FUNCTIONS]
    return out


PER_LAYER_UNITS = {
    "corpus.parse_s": "s",
    "corpus.split_s": "s",
    "datagen.spec_s": "s",
    "datagen.generate_s": "s",
    "datagen.oracle_s": "s",
    "features.index_s": "s",
    "features.n_features": "count",
    "features.extract_s": "s",
    "features.extract_calls": "count",
    "features.encode_s": "s",
    "features.encode_calls": "count",
    "tasks.instances_s": "s",
    "crf.train_setup_s": "s",
    "crf.objective_evals": "count",
    "crf.objective_s": "s",
    "crf.objective_ms_per_eval": "ms",
    "crf.forward_s": "s",
    "crf.backward_s": "s",
    "crf.marginals_s": "s",
    "crf.gold_path_s": "s",
    "crf.objective_self_s": "s",
    "crf.score_lattice_s": "s",
    "crf.decode_lattice_s": "s",
    "crf.viterbi_calls": "count",
    "crf.save_model_s": "s",
    "crf.load_model_s": "s",
    "crf.model_bytes": "bytes",
    "optim.iterations": "count",
    "optim.linesearch_evals": "count",
    "optim.accept_ratio": "ratio",
    "optim.self_s": "s",
    "tasks.checkpoint_s": "s",
    "tasks.checkpoint_calls": "count",
    "tasks.predict_flags_s": "s",
    "metrics.s": "s",
    "bench.unspanned_s": "s",
    "mem.bytes_per_train_token": "B/token",
    "extrap.train_h_10M": "h",
    "extrap.rss_gb_10M": "GB",
    "bench.trace_overhead_pct": "%",
}

# Taken from the set-up span: the layer does its work only there.
SETUP_METRICS = ("datagen.spec_s", "datagen.generate_s", "datagen.oracle_s")
# Taken from the operations when they save or load models (training
# workloads), else from set-up (tag-pipeline reloads its models there).
IO_METRICS = ("crf.save_model_s", "crf.load_model_s", "crf.model_bytes")


def root_metrics(s) -> dict[str, float]:
    """Per-layer metrics of one root span (an operation or set-up)."""
    evals = s.calls(OBJECTIVE)
    iterations = s.counters.get(f"{OPTIMIZER}.iterations", 0.0)
    linesearch = evals - s.counters.get(f"{OPTIMIZER}.calls", 0.0)
    train_start, first_eval = s.first_start("crf.train"), s.first_start(OBJECTIVE)
    objective_s = s.total(OBJECTIVE)
    return {
        "corpus.parse_s": s.total("corpus.parse"),
        "corpus.split_s": s.total("corpus.split"),
        "datagen.spec_s": s.total("datagen.spec"),
        "datagen.generate_s": s.total("datagen.generate"),
        "datagen.oracle_s": s.total("datagen.oracle"),
        "features.index_s": s.total("features.index"),
        "features.n_features": s.counters.get("features.n_features", 0.0),
        "features.extract_s": s.total("features.extract"),
        "features.extract_calls": s.calls("features.extract"),
        "features.encode_s": s.total("features.encode"),
        "features.encode_calls": s.calls("features.encode"),
        "tasks.instances_s": s.total("tasks.instances"),
        "crf.train_setup_s": (
            first_eval - train_start if train_start is not None and first_eval is not None else 0.0
        ),
        "crf.objective_evals": evals,
        "crf.objective_s": objective_s,
        "crf.objective_ms_per_eval": 1000.0 * objective_s / evals if evals else 0.0,
        "crf.forward_s": s.total("crf.forward"),
        "crf.backward_s": s.total("crf.backward"),
        "crf.marginals_s": s.total("crf.marginals"),
        "crf.gold_path_s": s.total("crf.gold_path"),
        "crf.objective_self_s": s.self_total(OBJECTIVE),
        "crf.score_lattice_s": s.total("crf.score_lattice"),
        "crf.decode_lattice_s": s.total("crf.decode_lattice"),
        "crf.viterbi_calls": s.calls("crf.viterbi"),
        "crf.save_model_s": s.total("crf.save_model"),
        "crf.load_model_s": s.total("crf.load_model"),
        "crf.model_bytes": s.counters.get("crf.model_bytes", 0.0),
        "optim.iterations": iterations,
        "optim.linesearch_evals": linesearch,
        "optim.accept_ratio": iterations / linesearch if linesearch else 0.0,
        "optim.self_s": s.self_total(OPTIMIZER),
        "tasks.checkpoint_s": s.total(CALLBACK),
        "tasks.checkpoint_calls": s.calls_with_children(CALLBACK),
        "tasks.predict_flags_s": s.total("tasks.predict_flags"),
        "metrics.s": s.total(*(f"metrics.{fn}" for fn in METRIC_FUNCTIONS)),
        "bench.unspanned_s": s.unspanned,
    }


def layer_metrics(setup, ops: list) -> dict[str, float]:
    """Median over the traced operations of each per-operation metric,
    except those that SETUP_METRICS and IO_METRICS send to set-up."""
    setup_m = root_metrics(setup)
    per_op = [root_metrics(s) for s in ops]
    out = {}
    for key in setup_m:
        op_median = statistics.median(m[key] for m in per_op) if per_op else 0.0
        if key in SETUP_METRICS or (key in IO_METRICS and op_median == 0.0):
            out[key] = setup_m[key]
        else:
            out[key] = op_median
    return out


def derived_metrics(m: dict[str, float], train_tokens: float, traced_peak_bytes: float) -> dict[str, float]:
    """Memory per train token and the extrapolation to the paper's protocol
    (100 OWL-QN iterations on 10M train tokens). Computed, not measured."""
    per_token = traced_peak_bytes / train_tokens if train_tokens else 0.0
    s_per_iteration = m["crf.objective_s"] / m["optim.iterations"] if m["optim.iterations"] else 0.0
    return {
        "mem.bytes_per_train_token": per_token,
        "extrap.train_h_10M": (
            s_per_iteration * 100 * 10_000_000 / train_tokens / 3600 if train_tokens else 0.0
        ),
        "extrap.rss_gb_10M": per_token * 10_000_000 / 1e9,
    }
