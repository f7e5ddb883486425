"""The benchmark's workloads, driven only through the toolkit's public
functions.

Every input comes from `datagen.generate` under one HMM process,
`tuned_ezafe_spec(0.22, vocab_size=20000)`. A vocabulary of 20000 word
types gives feature counts closer to real Persian text than the default of
300 (F in the tens of thousands instead of a few thousand). Generation, TSV
serialisation, the oracle and model pre-training happen in set-up; an
operation is what a user waits for:

  train-pos-crf2  parse TSV, split, train a CRF2 POS tagger for 20 OWL-QN
                  iterations with validation checkpoints every 10, save the
                  model; four corpora of 2000 tokens in turn.
                  Objective-bound: shows `crf` gradients and `optim`.
  ingest-ezafe    the same pipeline on two corpora twice as large with a
                  CRF2 ezafe recognizer (2 labels) and one OWL-QN iteration,
                  so parse, indexing, feature strings and encoding are a
                  large share. Shows `corpus` and `features`.
  tag-pipeline    two-stage tagging (ezafe flags, then POS with the flags as
                  input) of one batch of at least 256 tokens of raw text,
                  with models trained and reloaded in set-up. Decode only:
                  `crf` is used for reading (Viterbi), never for gradients.

A training workload cycles through several corpora drawn from the seed,
so that its F1 (the mean over the corpora) and its work do not follow the
luck of one corpus: with one corpus, the F1 spread over seeds by up to 8.5%.

Each operation's output is checked: it must equal the first repeat's byte
for byte (model text and reports, or tagged text), the logged objective
must never increase, the POS test F1 must not beat the Bayes oracle, and
the pipeline must return one tag per input token.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from pertcrf import corpus, crf, datagen, metrics, tasks
from pertcrf.features import FeatureTemplate

SPEC_RATE = 0.22
SPEC_VOCAB = 20000
# tag-pipeline tags text drawn from the workload seed with models trained
# on one fixed corpus, as a user tags with a shipped model. Training them on
# the workload seed instead makes the pipeline's F1 swing by about 9% from
# seed to seed.
MODEL_SEED = 0
MAX_SENTENCE_LEN = datagen.GeometricLength().max_len
HELDOUT_TOKENS = 8000
# Each workload seed owns the generator seeds seed * STREAMS to
# seed * STREAMS + STREAMS - 1, so different workload seeds share no input.
STREAMS = 16
HELDOUT_STREAM = STREAMS - 1

# Corpus sizes are in tokens, not sentences, so that every seed gets the
# same amount of work.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "train-pos-crf2": {
        "full": {"corpora": 4, "tokens": 2000, "iterations": 20, "eval_every": 10},
        "tiny": {"corpora": 2, "tokens": 400, "iterations": 2, "eval_every": 1},
    },
    "ingest-ezafe": {
        "full": {"corpora": 2, "tokens": 4000, "iterations": 1, "eval_every": 10},
        "tiny": {"corpora": 1, "tokens": 300, "iterations": 1, "eval_every": 1},
    },
    "tag-pipeline": {
        "full": {"tokens": 1600, "iterations": 10, "eval_every": 10, "batches": 48, "batch_tokens": 256},
        "tiny": {"tokens": 300, "iterations": 2, "eval_every": 1, "batches": 3, "batch_tokens": 30},
    },
}


@dataclass
class Outcome:
    """What one operation produced, for the checks that run after it."""

    key: int  # operations with the same key must produce identical output
    tokens: int  # train tokens, or tagged tokens
    output: bytes  # everything the operation writes: model text, reports, tags
    errors: list[str] = field(default_factory=list)


def make_spec():
    return datagen.tuned_ezafe_spec(SPEC_RATE, vocab_size=SPEC_VOCAB)


def generate_tokens(spec, n_tokens: int, seed: int) -> corpus.Corpus:
    """The shortest prefix of the seed's sentence stream that holds at least
    n_tokens tokens. `datagen.generate` draws each sentence from its own
    substream, so prefixes do not depend on how many sentences are drawn."""
    n = max(1, n_tokens // 7)
    while True:
        sents = datagen.generate(spec, n, seed=seed).sentences
        total = 0
        for k, sent in enumerate(sents):
            total += len(sent)
            if total >= n_tokens:
                return corpus.Corpus.from_sentences(sents[: k + 1])
        n *= 2


def macro_f1(gold: list[list[str]], pred: list[list[str]], tagset) -> float:
    return metrics.macro_metrics(metrics.confusion(gold, pred, tuple(tagset))).f1


def _non_increasing(log) -> bool:
    return all(b.objective <= a.objective for a, b in zip(log, log[1:]))


class TrainWorkload:
    """Parse TSV -> split -> train with checkpoints -> save_model, on each
    of the seed's corpora in turn."""

    unit = "train"

    def __init__(self, task: str, size: dict[str, int], split: corpus.SplitSpec, setup_repeats: int):
        self.task = task
        self.size = size
        self.split = split
        self.min_ops = size["corpora"]  # one full pass, for the F1
        self.setup_repeats = setup_repeats

    def config(self) -> tasks.ExperimentConfig:
        return tasks.ExperimentConfig(
            task=self.task,
            template=FeatureTemplate(id="CRF2"),
            train_config=crf.TrainConfig(max_iterations=self.size["iterations"]),
            eval_every=self.size["eval_every"],
        )

    def setup(self, seed: int) -> dict[str, Any]:
        spec = make_spec()
        golds = [
            generate_tokens(spec, self.size["tokens"], seed * STREAMS + k)
            for k in range(self.size["corpora"])
        ]
        state: dict[str, Any] = {
            "texts": [corpus.write_corpus(g) for g in golds],
            "cfg": self.config(),
            "test_f1": [None] * len(golds),
        }
        if self.task == "pos":
            # Bayes-optimal posterior decoding under the true process on the
            # same test split the operation will produce: no trained tagger
            # may beat it.
            state["oracle_f1"] = []
            for gold in golds:
                _, _, test = corpus.shuffle_split(gold, self.split)
                oracle = [datagen.bayes_decode(spec, [t.form for t in s]) for s in test.sentences]
                gold_tags = [[t.pos for t in s] for s in test.sentences]
                state["oracle_f1"].append(macro_f1(gold_tags, oracle, spec.states))
            # The reported F1 is measured on more held-out text than the
            # test split holds: with one corpus, on the split alone it
            # swings by 16% from seed to seed, on this by 8%.
            state["heldout"] = generate_tokens(spec, HELDOUT_TOKENS, seed * STREAMS + HELDOUT_STREAM)
        return state

    def op(self, state: dict[str, Any], i: int):
        parsed = corpus.parse_corpus(state["texts"][i % len(state["texts"])])
        parts = corpus.shuffle_split(parsed, self.split)
        if self.task == "pos":
            result = tasks.run_pos(state["cfg"], "none", parts)
        else:
            result = tasks.run_ezafe(state["cfg"], parts)
        return parts[0].n_tokens, result, crf.save_model(result.model)

    def check(self, state: dict[str, Any], i: int, produced) -> Outcome:
        k = i % len(state["texts"])
        train_tokens, result, model_text = produced
        reports = result.valid_report.to_json() + result.test_report.to_json()
        out = Outcome(key=k, tokens=train_tokens, output=(model_text + reports).encode("utf-8"))
        if not _non_increasing(result.log):
            out.errors.append("objective increased between logged iterations")
        f1 = metrics.macro_metrics(result.test_report.table).f1
        if "oracle_f1" in state and f1 > state["oracle_f1"][k]:
            out.errors.append(f"corpus {k}: test F1 {f1:.6f} beats the Bayes oracle {state['oracle_f1'][k]:.6f}")
        if state["test_f1"][k] is None:
            if "heldout" in state:
                f1 = tasks.evaluate_pos(result.model, state["heldout"]).headline.f1
            state["test_f1"][k] = f1
        return out

    def quality(self, state: dict[str, Any]) -> float:
        """Mean over the corpora of the kept checkpoint's macro F1 over the
        task's labels: POS tags on the held-out text, or the two ezafe
        classes on the test split."""
        if any(f1 is None for f1 in state["test_f1"]):
            return 0.0
        return sum(state["test_f1"]) / len(state["test_f1"])


class TagWorkload:
    """tasks.pipeline_tag over consecutive batches of raw text."""

    unit = "batch"

    def __init__(self, size: dict[str, int]):
        self.size = size
        self.min_ops = size["batches"]  # one full pass, for the F1
        self.setup_repeats = 5  # each trains two models, about 2 s

    def setup(self, seed: int) -> dict[str, Any]:
        spec = make_spec()
        gold = generate_tokens(spec, self.size["tokens"], MODEL_SEED)
        parts = corpus.shuffle_split(gold)
        train_config = crf.TrainConfig(max_iterations=self.size["iterations"])
        ez_cfg = tasks.ExperimentConfig(
            task="ezafe",
            template=FeatureTemplate(id="CRF2"),
            train_config=train_config,
            eval_every=self.size["eval_every"],
        )
        ezafe = tasks.run_ezafe(ez_cfg, parts)
        pos_cfg = tasks.ExperimentConfig(
            task="pos-ez-input",
            template=FeatureTemplate(id="CRF2", ezafe_input=True),
            train_config=train_config,
            eval_every=self.size["eval_every"],
        )
        pos = tasks.run_pos(pos_cfg, "predicted", parts, ezafe_model=ezafe.model)
        ez_model = crf.load_model(crf.save_model(ezafe.model))
        pos_model = crf.load_model(crf.save_model(pos.model))

        n, b = self.size["batches"], self.size["batch_tokens"]
        # seed + 1 is never MODEL_SEED, as --seed is not negative.
        pool = iter(generate_tokens(spec, n * (b + MAX_SENTENCE_LEN), seed + 1).sentences)
        batches = []
        for _ in range(n):  # consecutive sentences, at least b tokens each
            batch = [next(pool)]
            while sum(len(s) for s in batch) < b:
                batch.append(next(pool))
            batches.append(batch)
        return {
            "ez_model": ez_model,
            "pos_model": pos_model,
            "batches": [[[t.form for t in s] for s in batch] for batch in batches],
            "gold": [[[t.pos for t in s] for s in batch] for batch in batches],
            "pred": [None] * n,
            "tagset": spec.states,
        }

    def op(self, state: dict[str, Any], i: int):
        batch = state["batches"][i % len(state["batches"])]
        return tasks.pipeline_tag(batch, state["ez_model"], state["pos_model"])

    def check(self, state: dict[str, Any], i: int, tagged) -> Outcome:
        k = i % len(state["batches"])
        batch = state["batches"][k]
        pred = [[t.pos for t in s] for s in tagged.sentences]
        out = Outcome(
            key=k,
            tokens=sum(len(s) for s in batch),
            output="\n".join(
                " ".join(f"{t.form}/{t.pos}/{t.ezafe}" for t in s) for s in tagged.sentences
            ).encode("utf-8"),
        )
        forms = [[t.form for t in s] for s in tagged.sentences]
        if forms != batch:
            out.errors.append(f"batch {k}: output is not one tag per input token")
        elif state["pred"][k] is None:
            state["pred"][k] = pred
        return out

    def quality(self, state: dict[str, Any]) -> float:
        """POS macro F1 of the pipeline output against the generator's gold
        tags, over the whole pool of batches."""
        if any(p is None for p in state["pred"]):
            return 0.0
        gold = [s for g in state["gold"] for s in g]
        pred = [s for p in state["pred"] for s in p]
        return macro_f1(gold, pred, state["tagset"])


def make(name: str, size: str):
    dims = SIZES[name][size]
    if name == "train-pos-crf2":
        # Train and test splits of about equal size (1000 and 900 tokens):
        # training stays short enough for a run to hold dozens of
        # operations, and the test decode and the oracle check run on
        # about as much text as training sees.
        return TrainWorkload(
            "pos", dims, corpus.SplitSpec(test_fraction=0.45, valid_fraction=0.1), setup_repeats=5
        )
    if name == "ingest-ezafe":
        # Set-up here takes about 0.3 s against 1 s for train-pos-crf2
        # (four oracles), so a run affords more of them.
        return TrainWorkload("ezafe", dims, corpus.SplitSpec(), setup_repeats=11)
    return TagWorkload(dims)
