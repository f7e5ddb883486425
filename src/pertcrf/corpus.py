"""Column-format corpus handling: parse, write, shuffle/split, length
filter, and per-tag statistics.

Canonical file format: UTF-8 without a byte-order mark, Unix newlines, one
token per line as ``form<TAB>pos<TAB>ezafe`` with ezafe in {0,1}; sentences
separated by exactly one blank line; no trailing blank line.

In memory a corpus is columnar (see Corpus): one sequence of forms, int32
tag codes, int8 ezafe flags and int32 sentence offsets. Parsing, splitting,
filtering and generation fill the columns directly; Token objects are made
only when something reads Corpus.sentences. Corpus.batch is the corpus's
features.batch, made on first use, so every model that encodes the corpus
shares its text work (see features.Batch): its affix cut of the last set
of forms that a model lacks stays with it.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import not_
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from . import features
from .rng import SplitMix64, check_seed

MAX_SENTENCE_LEN = 512
# parse_corpus splits the text into lines this many characters at a time,
# so that the lists of lines and cells it makes stay small at any size.
_PARSE_CHUNK = 1 << 20


class CorpusFormatError(ValueError):
    """Raised for malformed corpus text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _token_problem(form: str, pos: str) -> str | None:
    """What the token rule rejects in a form and its tag, or None."""
    # s.split() == [s] exactly when s is non-empty and has no character
    # for which isspace() is true.
    if form.split() != [form]:
        return f"token form must be non-empty and whitespace-free: {form!r}"
    if pos.split() != [pos]:
        return f"pos tag must be non-empty and whitespace-free: {pos!r}"
    return None


def whitespace_free(strings: Iterable[str]) -> bool:
    """True when every string is non-empty and holds no character for which
    isspace() is true (the token rule), checked once per distinct character."""
    distinct = set(strings)
    return "" not in distinct and not any(map(str.isspace, set("".join(distinct))))


def check_token_rule(forms: Sequence[str], tags: Sequence[str]) -> None:
    """Raise ValueError for the first token whose form or tag breaks the
    token rule."""
    if not (whitespace_free(forms) and whitespace_free(tags)):
        raise ValueError(next(filter(None, map(_token_problem, forms, tags))))


@dataclass(frozen=True)
class Token:
    form: str
    pos: str
    ezafe: int

    def __post_init__(self):
        problem = _token_problem(self.form, self.pos)
        if problem is not None:
            raise ValueError(problem)
        if self.ezafe not in (0, 1):
            raise ValueError(f"ezafe flag must be 0 or 1, got {self.ezafe!r}")


Sentence = tuple[Token, ...]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Sentences of tokens, held as columns over all tokens in corpus order.

    forms: the form of every token; tags: int32 codes into tag_inventory,
    which lists the tags in order of first occurrence; ezafe: int8 0/1
    flags; offsets: int32 (S+1,) sentence starts, then the token count.
    Every sentence has at least one token. The arrays are read-only.
    """

    forms: tuple[str, ...]
    tags: np.ndarray
    ezafe: np.ndarray
    offsets: np.ndarray
    tag_inventory: tuple[str, ...]

    def __post_init__(self):
        n = len(self.forms)
        if not len(self.tags) == len(self.ezafe) == n or self.offsets[0] != 0 or self.offsets[-1] != n:
            raise ValueError("corpus columns disagree in length")
        if np.any(self.offsets[1:] <= self.offsets[:-1]):
            raise ValueError("sentences must be non-empty")
        for column in (self.tags, self.ezafe, self.offsets):
            column.flags.writeable = False

    @staticmethod
    def from_columns(
        forms: Sequence[str], tags: Sequence[str], ezafe: Sequence[int], lengths: Sequence[int]
    ) -> "Corpus":
        """A corpus from the form, tag and ezafe flag of every token and the
        length of every sentence, checked by the token rule; the tag
        inventory is discovered in first-occurrence order."""
        lengths = list(lengths)
        if not len(forms) == len(tags) == len(ezafe) == sum(lengths):
            raise ValueError("columns and sentence lengths disagree")
        check_token_rule(forms, tags)
        if not set(ezafe) <= {0, 1}:
            bad = next(e for e in ezafe if e not in (0, 1))
            raise ValueError(f"ezafe flag must be 0 or 1, got {bad!r}")
        inventory = tuple(dict.fromkeys(tags))
        ids = {tag: i for i, tag in enumerate(inventory)}
        offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        return Corpus(
            forms=tuple(forms),
            tags=np.fromiter(map(ids.__getitem__, tags), np.int32, len(tags)),
            ezafe=np.array(ezafe, dtype=np.int8),
            offsets=offsets,
            tag_inventory=inventory,
        )

    @staticmethod
    def from_codes(
        forms: Sequence[str],
        codes: np.ndarray,
        names: Sequence[str],
        ezafe: np.ndarray,
        offsets: np.ndarray,
    ) -> "Corpus":
        """A corpus from columns whose tag codes index names, in any order.
        The codes are renumbered so that the inventory lists the tags in
        order of first occurrence. Nothing is checked by the token rule:
        the caller vouches for forms, names and flags. Arrays of the
        column dtypes are taken over, not copied, and made read-only."""
        n = len(codes)
        first = np.full(len(names), n)
        np.minimum.at(first, codes, np.arange(n))
        present = np.flatnonzero(first < n)
        ranked = present[np.argsort(first[present])]
        recode = np.zeros(len(names), dtype=np.int32)
        recode[ranked] = np.arange(len(ranked), dtype=np.int32)
        return Corpus(
            forms=tuple(forms),
            tags=recode[codes],
            ezafe=np.asarray(ezafe, dtype=np.int8),
            offsets=np.asarray(offsets, dtype=np.int32),
            tag_inventory=tuple(names[i] for i in ranked.tolist()),
        )

    @staticmethod
    def from_sentences(sentences: Iterable[Sentence]) -> "Corpus":
        """Build a corpus, discovering the tag inventory in first-occurrence
        order."""
        sents = [tuple(s) for s in sentences]
        tokens = list(chain.from_iterable(sents))
        return Corpus.from_columns(
            [t.form for t in tokens],
            [t.pos for t in tokens],
            [t.ezafe for t in tokens],
            list(map(len, sents)),
        )

    @cached_property
    def sentences(self) -> tuple[Sentence, ...]:
        """The sentences as Token tuples, built on first use."""
        tokens = list(map(Token, self.forms, self.tag_names(), self.ezafe.tolist()))
        return tuple(self.by_sentence(tuple(tokens)))

    @cached_property
    def batch(self) -> features.Batch:
        """The features.batch of the forms, made on first use and read by
        every model that encodes the corpus."""
        return features.batch(self.forms, self.offsets)

    @property
    def n_sentences(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_tokens(self) -> int:
        return len(self.forms)

    def tag_names(self) -> list[str]:
        """The tag of every token."""
        return list(map(self.tag_inventory.__getitem__, self.tags.tolist()))

    def by_sentence(self, values: Sequence) -> list:
        """values, one per token in corpus order, cut into one slice per
        sentence."""
        bounds = self.offsets.tolist()
        return [values[a:b] for a, b in zip(bounds, bounds[1:])]

    def take(self, indices: Sequence[int]) -> "Corpus":
        """The sentences at the given indices, in that order."""
        order = np.asarray(indices, dtype=np.intp)
        lengths = np.diff(self.offsets)[order]
        offsets = np.zeros(len(order) + 1, dtype=np.int32)
        np.cumsum(lengths, out=offsets[1:])
        rows = np.repeat(self.offsets[:-1][order] - offsets[:-1], lengths) + np.arange(offsets[-1])
        forms = np.fromiter(self.forms, dtype=object, count=self.n_tokens)[rows]
        return Corpus.from_codes(
            tuple(forms.tolist()),
            self.tags[rows],
            self.tag_inventory,
            self.ezafe[rows],
            offsets,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.tag_inventory == other.tag_inventory
            and self.forms == other.forms
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.tags, other.tags)
            and np.array_equal(self.ezafe, other.ezafe)
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for cache in ("sentences", "batch"):  # rebuilt on demand
            state.pop(cache, None)
        return state


@dataclass(frozen=True)
class SplitSpec:
    seed: int = 17
    test_fraction: float = 0.1
    valid_fraction: float = 0.1

    def __post_init__(self):
        check_seed(self.seed)
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


def atomic_write(path: str, text: str) -> None:
    """Write text to path as UTF-8 with Unix newlines, through a temp file
    in its directory (made if missing) that replaces path once written: a
    failed write leaves path as it was and no temp file behind."""
    target = os.path.abspath(path)
    parent = os.path.dirname(target)
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=os.path.basename(target) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def parse_corpus(source: str | IO[str]) -> Corpus:
    """Parse canonical 3-column TSV text into a Corpus.

    Raises CorpusFormatError on a byte-order mark or carriage return, a
    malformed line, an out-of-range ezafe column, or an empty sentence
    (blank line with no tokens before it).

    The text is checked in bulk, a chunk of lines at a time: the column
    count of every line, the ezafe column's values, and the token rule
    over the distinct characters of the new forms and tags. When a check
    fails, _raise_first_error scans the lines one by one to name the first
    bad one.
    """
    text = source if isinstance(source, str) else source.read()
    bad = non_unix_line(text)
    if bad is not None:
        raise CorpusFormatError(bad[1], bad[0])
    if not text:
        return Corpus.from_columns([], [], [], [])
    # A trailing newline ends the last line; it does not start a new one.
    stop = len(text) - text.endswith("\n")
    forms: list[str] = []
    canonical: dict[str, str] = {}  # one string object per distinct form
    tag_ids: dict[str, int] = {}
    tags: list[np.ndarray] = []
    flags: list[str] = []
    blank_lines: list[int] = []
    n_lines = start = 0
    while True:
        end = text.find("\n", min(start + _PARSE_CHUNK, stop), stop)
        end = stop if end < 0 else end
        lines = text[start:end].split("\n")
        blank_lines += compress(count(n_lines), map(not_, lines))
        n_lines += len(lines)
        rows = list(filter(None, lines))
        if set(map(str.count, rows, repeat("\t"))) - {2}:
            _raise_first_error(text)
        cells = "\t".join(rows).split("\t") if rows else []
        form, pos, ez = cells[0::3], cells[1::3], cells[2::3]
        new_forms = dict(zip(form, form)).keys() - canonical.keys()
        new_tags = [t for t in dict.fromkeys(pos) if t not in tag_ids]
        if not (set(ez) <= {"0", "1"} and whitespace_free(new_forms) and whitespace_free(new_tags)):
            _raise_first_error(text)
        canonical.update(zip(new_forms, new_forms))
        forms += map(canonical.__getitem__, form)
        tag_ids.update(zip(new_tags, range(len(tag_ids), len(tag_ids) + len(new_tags))))
        tags.append(np.fromiter(map(tag_ids.__getitem__, pos), np.int32, len(pos)))
        flags.append("".join(ez))
        if end == stop:
            break
        start = end + 1
    # Blank line k ends a sentence after blank_lines[k] - k tokens; a last
    # line that is not blank ends the last sentence.
    ends = np.array(blank_lines, dtype=np.int64) - np.arange(len(blank_lines))
    if not blank_lines or blank_lines[-1] != n_lines - 1:
        ends = np.append(ends, len(forms))
    offsets = np.concatenate([[0], ends]).astype(np.int32)
    if np.any(offsets[1:] <= offsets[:-1]):
        _raise_first_error(text)
    ezafe = np.frombuffer("".join(flags).encode("ascii"), dtype=np.int8) - np.int8(ord("0"))
    return Corpus(
        forms=tuple(forms),
        tags=np.concatenate(tags),
        ezafe=ezafe,
        offsets=offsets,
        tag_inventory=tuple(tag_ids),
    )


def _raise_first_error(text: str) -> None:
    """Raise the CorpusFormatError of the first malformed line of text,
    scanning line by line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    in_sentence = False
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            if not in_sentence:
                raise CorpusFormatError("empty sentence", lineno)
            in_sentence = False
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            raise CorpusFormatError(f"expected 3 tab-separated columns, got {len(cols)}", lineno)
        form, pos, ez = cols
        if ez not in ("0", "1"):
            raise CorpusFormatError(f"ezafe flag must be 0 or 1, got {ez!r}", lineno)
        problem = _token_problem(form, pos)
        if problem is not None:
            raise CorpusFormatError(problem, lineno)
        in_sentence = True
    raise AssertionError("the bulk checks of parse_corpus failed on text without a malformed line")


def write_corpus(corpus: Corpus) -> str:
    """Serialize to canonical text. parse_corpus(write_corpus(c)) == c."""
    lines = list(map("{}\t{}\t{}".format, corpus.forms, corpus.tag_names(), corpus.ezafe.tolist()))
    if not lines:
        return ""
    return "\n\n".join(map("\n".join, corpus.by_sentence(lines))) + "\n"


def read_corpus_file(path: str) -> Corpus:
    with open(path, encoding="utf-8", newline="") as f:
        return parse_corpus(f)


def write_corpus_file(corpus: Corpus, path: str) -> None:
    atomic_write(path, write_corpus(corpus))


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
    order = list(range(n))
    SplitMix64(spec.seed).shuffle(order)
    return (
        corpus.take(order[n_test + n_valid :]),
        corpus.take(order[n_test : n_test + n_valid]),
        corpus.take(order[:n_test]),
    )


def filter_long(corpus: Corpus, max_len: int = MAX_SENTENCE_LEN) -> Corpus:
    """Drop sentences strictly longer than max_len tokens, preserving order."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    return corpus.take(np.flatnonzero(np.diff(corpus.offsets) <= max_len))


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
    L = len(corpus.tag_inventory)
    tag_tokens = np.bincount(corpus.tags, minlength=L).tolist()
    tag_ezafe = np.bincount(corpus.tags[corpus.ezafe == 1], minlength=L).tolist()
    # Each tag's form counts, in order of first occurrence.
    tag_forms: list[dict[str, int]] = [{} for _ in range(L)]
    for (tag, form), c in Counter(zip(corpus.tags.tolist(), corpus.forms)).items():
        tag_forms[tag][form] = c
    total = corpus.n_tokens
    rows = [
        PosStatsRow(
            pos=name,
            ezafe_pct=100.0 * tag_ezafe[tag] / tag_tokens[tag],
            freq_pct=100.0 * tag_tokens[tag] / total,
            diversity=shannon_index(tag_forms[tag]),
        )
        for tag, name in enumerate(corpus.tag_inventory)
    ]
    rows.sort(key=lambda r: (-r.ezafe_pct, r.pos))
    return rows


def format_stats(rows: list[PosStatsRow]) -> str:
    """Render statistics as TSV with the documented column precision."""
    out = ["pos\tezafe_pct\tfreq_pct\tH"]
    for r in rows:
        out.append(f"{r.pos}\t{r.ezafe_pct:.2f}\t{r.freq_pct:.2f}\t{r.diversity:.3f}")
    return "\n".join(out) + "\n"
