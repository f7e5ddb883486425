"""Column-format corpus handling: parse, write, shuffle/split, length
filter, and per-tag statistics.

Canonical file format: UTF-8 without a byte-order mark, Unix newlines, one
token per line as ``form<TAB>pos<TAB>ezafe`` with ezafe in {0,1}; sentences
separated by exactly one blank line; no trailing blank line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable, Mapping

from .rng import SplitMix64

DEFAULT_SEED = 17
DEFAULT_TEST_FRACTION = 0.1
DEFAULT_VALID_FRACTION = 0.1
MAX_SENTENCE_LEN = 512


class CorpusFormatError(ValueError):
    """Raised for malformed corpus text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Token:
    form: str
    pos: str
    ezafe: int

    def __post_init__(self):
        # s.split() == [s] exactly when s is non-empty and has no character
        # for which isspace() is true.
        if self.form.split() != [self.form]:
            raise ValueError(f"token form must be non-empty and whitespace-free: {self.form!r}")
        if self.pos.split() != [self.pos]:
            raise ValueError(f"pos tag must be non-empty and whitespace-free: {self.pos!r}")
        if self.ezafe not in (0, 1):
            raise ValueError(f"ezafe flag must be 0 or 1, got {self.ezafe!r}")


Sentence = tuple[Token, ...]


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    tag_inventory: tuple[str, ...]

    @staticmethod
    def from_sentences(sentences: Iterable[Sentence]) -> "Corpus":
        """Build a corpus, discovering the tag inventory in first-occurrence
        order."""
        sents = tuple(tuple(s) for s in sentences)
        seen: dict[str, None] = {}
        for sent in sents:
            if not sent:
                raise ValueError("sentences must be non-empty")
            for tok in sent:
                seen.setdefault(tok.pos, None)
        return Corpus(sentences=sents, tag_inventory=tuple(seen))

    @property
    def n_sentences(self) -> int:
        return len(self.sentences)

    @property
    def n_tokens(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class SplitSpec:
    seed: int = DEFAULT_SEED
    test_fraction: float = DEFAULT_TEST_FRACTION
    valid_fraction: float = DEFAULT_VALID_FRACTION

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0.0 < self.test_fraction < 1.0 or not 0.0 < self.valid_fraction < 1.0:
            raise ValueError("fractions must lie in (0, 1)")
        if self.test_fraction + self.valid_fraction >= 1.0:
            raise ValueError("test_fraction + valid_fraction must be < 1")


@dataclass(frozen=True)
class PosStatsRow:
    pos: str
    ezafe_pct: float
    freq_pct: float
    diversity: float


def non_unix_line(text: str) -> tuple[int, str] | None:
    """(line number, problem) for the first thing in text that the corpus,
    model and spec formats forbid: a byte-order mark, or a carriage return
    anywhere (CRLF line endings included). None when there is neither."""
    if text.startswith("\ufeff"):
        return 1, "byte-order mark (U+FEFF); files must be UTF-8 without one"
    cr = text.find("\r")
    if cr >= 0:
        return text.count("\n", 0, cr) + 1, "carriage return; lines must end in a Unix newline"
    return None


def parse_corpus(source: str | IO[str]) -> Corpus:
    """Parse canonical 3-column TSV text into a Corpus.

    Raises CorpusFormatError on a byte-order mark or carriage return, a
    malformed line, an out-of-range ezafe column, or an empty sentence
    (blank line with no tokens before it).
    """
    text = source if isinstance(source, str) else source.read()
    bad = non_unix_line(text)
    if bad is not None:
        raise CorpusFormatError(bad[1], bad[0])
    lines = text.split("\n")
    # A trailing newline produces one final empty element; drop it so it is
    # not confused with a sentence separator.
    if lines and lines[-1] == "":
        lines.pop()

    sentences: list[Sentence] = []
    current: list[Token] = []
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            if not current:
                raise CorpusFormatError("empty sentence", lineno)
            sentences.append(tuple(current))
            current = []
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise CorpusFormatError(f"expected 3 tab-separated columns, got {len(cols)}", lineno)
        form, pos, ez = cols
        if ez not in ("0", "1"):
            raise CorpusFormatError(f"ezafe flag must be 0 or 1, got {ez!r}", lineno)
        try:
            token = Token(form=form, pos=pos, ezafe=int(ez))
        except ValueError as exc:
            raise CorpusFormatError(str(exc), lineno) from None
        current.append(token)
    if current:
        sentences.append(tuple(current))
    return Corpus.from_sentences(sentences)


def write_corpus(corpus: Corpus) -> str:
    """Serialize to canonical text. parse_corpus(write_corpus(c)) == c."""
    blocks = []
    for sent in corpus.sentences:
        blocks.append("\n".join(f"{t.form}\t{t.pos}\t{t.ezafe}" for t in sent))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def read_corpus_file(path: str) -> Corpus:
    with open(path, encoding="utf-8", newline="") as f:
        return parse_corpus(f)


def write_corpus_file(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(write_corpus(corpus))


def shuffle_split(corpus: Corpus, spec: SplitSpec = SplitSpec()) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded Fisher-Yates shuffle at sentence granularity, then a
    floor-arithmetic partition: first floor(n*test) sentences are test, the
    next floor(n*valid) are validation, the remainder train.

    Returns (train, valid, test).
    """
    n = corpus.n_sentences
    if n < 3:
        raise ValueError("corpus must have at least 3 sentences to split")
    n_test = math.floor(n * spec.test_fraction)
    n_valid = math.floor(n * spec.valid_fraction)
    n_train = n - n_test - n_valid
    if min(n_test, n_valid, n_train) < 1:
        raise ValueError(
            f"fractions {spec.test_fraction}/{spec.valid_fraction} yield an empty part "
            f"for {n} sentences"
        )
    shuffled = list(corpus.sentences)
    SplitMix64(spec.seed).shuffle(shuffled)
    test = shuffled[:n_test]
    valid = shuffled[n_test : n_test + n_valid]
    train = shuffled[n_test + n_valid :]
    return (
        Corpus.from_sentences(train),
        Corpus.from_sentences(valid),
        Corpus.from_sentences(test),
    )


def filter_long(corpus: Corpus, max_len: int = MAX_SENTENCE_LEN) -> Corpus:
    """Drop sentences strictly longer than max_len tokens, preserving order."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    kept = [s for s in corpus.sentences if len(s) <= max_len]
    return Corpus.from_sentences(kept)


def shannon_index(counts: Mapping[str, int]) -> float:
    """Diversity H = -sum(p_i * ln p_i) in nats over a count distribution."""
    if not counts:
        raise ValueError("shannon_index requires at least one entry")
    total = 0
    for word, c in counts.items():
        if c <= 0:
            raise ValueError(f"count for {word!r} must be positive, got {c}")
        total += c
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log(p)
    return max(h, 0.0)


def corpus_stats(corpus: Corpus) -> list[PosStatsRow]:
    """Per-POS ezafe percentage, frequency percentage, and word-form
    diversity, sorted by descending ezafe_pct then tag symbol."""
    if corpus.n_tokens == 0:
        raise ValueError("corpus_stats requires a non-empty corpus")
    tag_tokens: dict[str, int] = {t: 0 for t in corpus.tag_inventory}
    tag_ezafe: dict[str, int] = {t: 0 for t in corpus.tag_inventory}
    tag_forms: dict[str, dict[str, int]] = {t: {} for t in corpus.tag_inventory}
    for sent in corpus.sentences:
        for tok in sent:
            tag_tokens[tok.pos] += 1
            tag_ezafe[tok.pos] += tok.ezafe
            forms = tag_forms[tok.pos]
            forms[tok.form] = forms.get(tok.form, 0) + 1
    total = corpus.n_tokens
    rows = [
        PosStatsRow(
            pos=tag,
            ezafe_pct=100.0 * tag_ezafe[tag] / tag_tokens[tag],
            freq_pct=100.0 * tag_tokens[tag] / total,
            diversity=shannon_index(tag_forms[tag]),
        )
        for tag in corpus.tag_inventory
    ]
    rows.sort(key=lambda r: (-r.ezafe_pct, r.pos))
    return rows


def format_stats(rows: list[PosStatsRow]) -> str:
    """Render statistics as TSV with the documented column precision."""
    out = ["pos\tezafe_pct\tfreq_pct\tH"]
    for r in rows:
        out.append(f"{r.pos}\t{r.ezafe_pct:.2f}\t{r.freq_pct:.2f}\t{r.diversity:.3f}")
    return "\n".join(out) + "\n"
