"""Indicator features for the two window templates, encoded from
(slot, value) codes.

Key grammar (bit-stable across versions; it is the model format):
  w[-5]=... w[5]=...    word identity in a +-5 window, with sentinel forms
                        __BOS__ / __EOS__ outside the sentence
  pre1=..pre3= suf1=..suf3=
                        focus-word affixes by Unicode scalar count, omitted
                        when the form is strictly shorter than the affix
  BOS / EOS             boundary booleans, emitted only when true
  ez[-5]=0|1 ez[5]=...  predicted-ezafe window, sentinel value _

A position's keys come in slot order: the word window, pre1-3, suf1-3,
BOS, EOS, then the flag window. Training numbers the keys in order of
first occurrence over (sentence, position, slot), and model files list
them in that order, so that order is part of the model format too.

Codes. No key string is built per token. Every key is a (slot, value)
pair, and encoding is two steps:
  - batch(forms, offsets) does once per text the work that no model
    changes. It checks the offsets, interns the form types, with the
    sentinels first, and holds every sentence's type codes padded with
    WINDOW sentinel codes on either side (a real token spelled __BOS__
    shares its w[k] key with the sentinel, and still has affixes). It
    interns the distinct affix strings of the types, with a (6, types)
    table into them (-1 where a type is shorter than the affix). So it
    holds two int32 per position, and the rest grows with the types and
    sentences.
  - encode and index_and_encode read a Batch with one index's tables.
    Per slot kind, a table from value codes to feature ids (one column
    per slot) gives each position's ids, slot-major, in one
    (slots, positions) int32 matrix (Encoded): w[k] by the type at
    offset k, pre1-3 and suf1-3 by the position's type, BOS and EOS at
    the first or last position of a sentence, ez[k] by the flag (0, 1
    or the pad _) at offset k. A slot that is absent or whose key is not
    indexed holds the sentinel id F = len(index), which crf reads as a
    zero weight row.
Every grammar key belongs to one slot, so a feature's entries lie in one
row, in corpus order; emission sums add a position's weights in slot
order, as ever.
  - index_and_encode (training) makes the tables from the batch's codes:
    the count and first position of every code per slot, the candidates
    ordered by (position, slot), then the min_count cut. The index keeps
    the batch's type and affix dicts as its values.
  - encode (decoding) looks each of the batch's types and distinct
    affixes up once in the value dicts of a FeatureIndex, which builds
    its tables once, when it is made.
Key strings exist only for the F indexed keys, and only when
FeatureIndex.keys() builds them (save_model). A key outside the grammar
is kept as given but never matches.

Input. A batch is made from columns: the form of every position in corpus
order and the sentence offsets (S+1,), as corpus.Corpus holds them.
Ezafe flags go only with ezafe-input templates: one 0/1 flag per position,
in the same order. batch and both encoders reject anything else with
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

TEMPLATE_IDS = ("CRF1", "CRF2")
WINDOW = 5
BOS_FORM = "__BOS__"
EOS_FORM = "__EOS__"
EZ_PAD = "_"

W_SLOTS = tuple(f"w[{k}]" for k in range(-WINDOW, WINDOW + 1))
AFFIX_LENGTHS = (1, 2, 3)
AFFIX_SLOTS = tuple(f"pre{n}" for n in AFFIX_LENGTHS) + tuple(f"suf{n}" for n in AFFIX_LENGTHS)
EDGE_SLOTS = ("BOS", "EOS")
EZ_SLOTS = tuple(f"ez[{k}]" for k in range(-WINDOW, WINDOW + 1))
EZ_VALUES = ("0", "1", EZ_PAD)  # the codes of the flag slots: 0, 1 and 2
_SLOTS = W_SLOTS + AFFIX_SLOTS + EDGE_SLOTS + EZ_SLOTS
# The kind of every slot and its column within that kind's id table.
_SLOT_COLUMNS = {
    **{slot: ("word", i) for i, slot in enumerate(W_SLOTS)},
    **{slot: ("affix", i) for i, slot in enumerate(AFFIX_SLOTS)},
    **{slot: ("edge", i) for i, slot in enumerate(EDGE_SLOTS)},
    **{slot: ("ez", i) for i, slot in enumerate(EZ_SLOTS)},
}
_SLOT_NUMBERS = {slot: i for i, slot in enumerate(_SLOTS)}
# A key is its slot's prefix followed by its value (the edge slots have the
# empty value).
_PREFIXES = [slot if slot in EDGE_SLOTS else slot + "=" for slot in _SLOTS]
_WIDTHS = {
    "word": len(W_SLOTS),
    "affix": len(AFFIX_SLOTS),
    "edge": len(EDGE_SLOTS),
    "ez": len(EZ_SLOTS),
}
# The prefix and the kind (a position in _KINDS) of each slot number; -1,
# a key outside the grammar, reads the last entry: the empty prefix
# (before the key as given) and no kind.
_KINDS = tuple(_WIDTHS)
_KEY_PREFIXES = np.array(_PREFIXES + [""], dtype=object)
_SLOT_KINDS = np.array([_KINDS.index(_SLOT_COLUMNS[slot][0]) for slot in _SLOTS] + [-1], np.int8)
# The values of the kinds that have a fixed set; the edge slots have one.
_FIXED_VALUES = {"edge": ("",), "ez": EZ_VALUES}
# Positions whose window codes _windows gathers at once: it holds 11 int32
# per position of a block.
_WINDOW_BLOCK = 1 << 14


@dataclass(frozen=True)
class FeatureTemplate:
    id: str
    ezafe_input: bool = False

    def __post_init__(self):
        if self.id not in TEMPLATE_IDS:
            raise ValueError(f"unknown template id {self.id!r}; expected one of {TEMPLATE_IDS}")

    @property
    def token(self) -> str:
        """Template identifier used in model files, e.g. 'CRF2+EZ'."""
        return self.id + "+EZ" if self.ezafe_input else self.id

    @property
    def slots(self) -> tuple[str, ...]:
        """The key slots of one position, in emission order."""
        slots = W_SLOTS
        if self.id == "CRF2":
            slots += AFFIX_SLOTS + EDGE_SLOTS
        if self.ezafe_input:
            slots += EZ_SLOTS
        return slots

    @staticmethod
    def from_token(token: str) -> "FeatureTemplate":
        base, plus, suffix = token.partition("+")
        if base not in TEMPLATE_IDS or (plus and suffix != "EZ"):
            raise ValueError(f"unknown template token {token!r}")
        return FeatureTemplate(id=base, ezafe_input=bool(plus))


@dataclass(frozen=True)
class Encoded:
    """Sentences as one id matrix, the input of crf: row k holds the
    feature id of slot k at every position, in corpus order, and the
    sentinel F (the index's length) where the slot has no indexed key."""

    ids: np.ndarray  # (K, N) int32, slot-major
    offsets: np.ndarray  # (S+1,) sentence starts in corpus order, then the position count


class FeatureIndex:
    """Immutable bijection between retained feature strings and 0..F-1, in
    the order given (training gives first-occurrence order), held as
    tables rather than strings. Per slot kind, a dict maps each value to a
    row of a table of ids, one column per slot of the kind and F (the
    encoders' sentinel) where that key is not indexed; the table's last
    row is all F, for values the dict lacks. Each id records its slot and
    row, so keys() builds the strings when asked (save_model); keys
    outside the grammar are kept as given and never match. Made from keys
    (load_model), it splits each key at its first "=" into a slot and a
    value; index_and_encode makes the tables from its codes instead."""

    def __init__(self, keys: Iterable[str]):
        keys = list(keys)
        if len(set(keys)) != len(keys):
            seen: set[str] = set()
            for key in keys:
                if key in seen:
                    raise ValueError(f"duplicate feature string {key!r}")
                seen.add(key)
        values = _fixed_values()
        F = len(keys)
        rows = {kind: [[F] * _WIDTHS[kind] for _ in values[kind]] for kind in _WIDTHS}
        slot_of, row_of, other = [], [], {}
        for i, key in enumerate(keys):
            slot, eq, value = key.partition("=")
            kind, column = _SLOT_COLUMNS.get(slot, (None, 0))
            row = None
            if kind is not None and (kind == "edge") != bool(eq):
                row = values[kind].get(value)
                if row is None and kind not in _FIXED_VALUES:
                    row = values[kind][value] = len(rows[kind])
                    rows[kind].append([F] * _WIDTHS[kind])
            if row is None:  # outside the grammar
                other[i] = key
                slot_of.append(-1)
                row_of.append(-1)
                continue
            rows[kind][row][column] = i
            slot_of.append(_SLOT_NUMBERS[slot])
            row_of.append(row)
        self._values = values
        self._ids = {
            kind: np.array(r + [[F] * _WIDTHS[kind]], dtype=np.int32) for kind, r in rows.items()
        }
        self._slot = np.array(slot_of, dtype=np.int8)
        self._row = np.array(row_of, dtype=np.int32)
        self._other = other

    @classmethod
    def _of_tables(
        cls,
        values: dict[str, dict[str, int]],
        ids: dict[str, np.ndarray],
        slot: np.ndarray,
        row: np.ndarray,
    ) -> "FeatureIndex":
        index = cls.__new__(cls)
        index._values, index._ids, index._slot, index._row = values, ids, slot, row
        index._other = {}
        return index

    def __len__(self) -> int:
        return len(self._slot)

    def keys(self) -> list[str]:
        """The feature strings, in id order."""
        prefixes, values = self.key_parts()
        return (prefixes + values).tolist()

    def key_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """Every feature string as two object arrays in id order, the slot
        prefixes and the values, gathered per slot kind from its value
        list; a key outside the grammar is the empty prefix and itself."""
        values = np.empty(len(self), dtype=object)
        kinds = _SLOT_KINDS[self._slot]
        for k, kind in enumerate(_KINDS):
            at = np.flatnonzero(kinds == k)
            table = self._values[kind]
            values[at] = np.fromiter(table, dtype=object, count=len(table))[self._row[at]]
        for i, key in self._other.items():
            values[i] = key
        return _KEY_PREFIXES[self._slot], values


@dataclass(frozen=True)
class Batch:
    """A batch of sentences as the codes that no model changes (see
    batch): the type code of every position, in each sentence padded for
    the word window, and the affixes of every type."""

    offsets: np.ndarray  # int32 (S+1,) sentence starts, then the position count
    words: dict[str, int]  # the code of each form type; the sentinels are 0 and 1
    padded: np.ndarray  # int32 type codes, each sentence with WINDOW sentinels on either side
    at: np.ndarray  # int32 (N,) where each position lies in padded
    affixes: dict[str, int]  # the code of each affix string of the types
    affix_of: np.ndarray  # int32 (6, types) per affix slot; -1 where the type is shorter


def _fixed_values() -> dict[str, dict[str, int]]:
    """A new value dict per slot kind: empty for words and affixes."""
    return {kind: {v: i for i, v in enumerate(_FIXED_VALUES.get(kind, ()))} for kind in _WIDTHS}


def _flags(template: FeatureTemplate, ezafe: Sequence[int] | None, n: int) -> np.ndarray | None:
    """The flags of the n positions as one int32 array, for ezafe-input
    templates; None for the others."""
    if not template.ezafe_input:
        if ezafe is not None:
            raise ValueError("template does not take an ezafe annotation")
        return None
    if ezafe is None:
        raise ValueError("template requires an ezafe annotation")
    if len(ezafe) != n:
        raise ValueError(f"{len(ezafe)} ezafe flags for {n} positions")
    flags = np.asarray(ezafe)
    numeric = flags.dtype.kind in "biu" or flags.size == 0
    if not numeric or flags.ndim != 1 or np.any((flags != 0) & (flags != 1)):
        values = ezafe.tolist() if isinstance(ezafe, np.ndarray) else ezafe
        bad = next((v for v in values if not (isinstance(v, int) and v in (0, 1))), ezafe)
        raise ValueError(f"ezafe flags must be 0 or 1, got {bad!r}")
    return flags.astype(np.int32)


def checked_offsets(offsets: Sequence[int], n: int) -> np.ndarray:
    """offsets as int32, checked to cut n positions into non-empty sentences."""
    offsets = np.asarray(offsets, dtype=np.int32)
    if offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != n:
        raise ValueError(f"sentence offsets must run from 0 to the {n} positions")
    empty = offsets[1:] <= offsets[:-1]
    if empty.any():
        raise ValueError(f"sentence {np.flatnonzero(empty)[0]}: no positions")
    return offsets


def batch(forms: Sequence[str], offsets: Sequence[int]) -> Batch:
    """The codes of the sentences that offsets cut forms into that do not
    depend on a model: made once per text, and read by every model that
    encodes the text (encode, index_and_encode)."""
    n = len(forms)
    offsets = checked_offsets(offsets, n)
    lengths = np.diff(offsets)
    S = len(lengths)
    # Each sentence padded with WINDOW sentinel codes on either side: the
    # type codes 0 (__BOS__) and 1 (__EOS__).
    gaps = np.arange(S, dtype=np.int32) * (2 * WINDOW)
    at = np.repeat(gaps + WINDOW, lengths) + np.arange(n, dtype=np.int32)
    padded = np.ones(n + 2 * WINDOW * S, dtype=np.int32)
    padded[(offsets[:-1] + gaps)[:, None] + np.arange(WINDOW)] = 0
    words = {BOS_FORM: 0, EOS_FORM: 1}
    padded[at] = _intern(words, forms, n)
    # Each affix slot's value for every type: the whole form where it is
    # shorter than the affix, a code dropped below.
    T = len(words)
    cuts = [slice(None, m) for m in AFFIX_LENGTHS] + [slice(-m, None) for m in AFFIX_LENGTHS]
    affixes: dict[str, int] = {}
    values = chain.from_iterable(map(itemgetter(cut), words) for cut in cuts)
    affix_of = _intern(affixes, values, len(cuts) * T).reshape(len(cuts), T)
    affix_of[np.fromiter(map(len, words), np.intp, T) < np.array(AFFIX_LENGTHS * 2)[:, None]] = -1
    return Batch(offsets, words, padded, at, affixes, affix_of)


def _intern(codes: dict[str, int], strings: Iterable[str], n: int) -> np.ndarray:
    """The code of each of the n strings, giving a string that codes lacks
    the next code (map reads len(codes) before each setdefault)."""
    return np.fromiter(map(codes.setdefault, strings, map(len, repeat(codes))), np.int32, n)


def _windows(padded: np.ndarray, at: np.ndarray, table: np.ndarray, out: np.ndarray) -> None:
    """Write table[k, padded[at + k - WINDOW]] into out[k] for every window
    offset k, over blocks of at most _WINDOW_BLOCK positions."""
    shifts = np.arange(-WINDOW, WINDOW + 1, dtype=np.int32)[:, None]
    flat = np.ascontiguousarray(table, dtype=np.int32).ravel()
    starts = (np.arange(len(shifts), dtype=np.int32) * table.shape[1])[:, None]
    for a in range(0, len(at), _WINDOW_BLOCK):
        codes = padded[at[a : a + _WINDOW_BLOCK] + shifts]
        codes += starts
        np.take(flat, codes, out=out[:, a : a + _WINDOW_BLOCK])


def _fill(
    template: FeatureTemplate,
    batch: Batch,
    flags: np.ndarray | None,
    word: np.ndarray,
    affix: np.ndarray | None,
    edge: np.ndarray,
    ez: np.ndarray,
) -> np.ndarray:
    """The (slots, positions) matrix whose row for each slot of template
    holds, at every position, that slot's entry in the table of its kind:
    word (11, types) by the type at the slot's window offset, affix
    (6, types) by the position's type, edge (2, 2) row 0 at a sentence's
    first (BOS) or last (EOS) position and row 1 elsewhere, ez (11, 3) by
    the flag code at the slot's window offset."""
    n = len(batch.at)
    out = np.empty((len(template.slots), n), dtype=np.int32)
    _windows(batch.padded, batch.at, word, out[: len(W_SLOTS)])
    row = len(W_SLOTS)
    if template.id == "CRF2":
        np.take(affix, batch.padded[batch.at], axis=1, out=out[row : row + len(AFFIX_SLOTS)])
        row += len(AFFIX_SLOTS)
        out[row : row + len(EDGE_SLOTS)] = edge[1][:, None]
        out[row, batch.offsets[:-1]] = edge[0, 0]
        out[row + 1, batch.offsets[1:] - 1] = edge[0, 1]
        row += len(EDGE_SLOTS)
    if flags is not None:
        padded = np.full(len(batch.padded), EZ_VALUES.index(EZ_PAD), dtype=np.int32)
        padded[batch.at] = flags
        _windows(padded, batch.at, ez, out[row:])
    return out


def _lookup(values: dict[str, int], strings: dict[str, int]) -> np.ndarray:
    """The code in values of each of the strings, in order; -1 for a string
    that values lacks."""
    return np.fromiter(map(values.get, strings, repeat(-1)), np.intp, len(strings))


def encode(
    index: FeatureIndex,
    template: FeatureTemplate,
    batch: Batch,
    ezafe: Sequence[int] | None = None,
) -> Encoded:
    """Encode the sentences of batch (see batch) with the keys of index;
    keys that the index lacks are dropped. Ezafe-input templates need
    ezafe, one flag per position; the other templates refuse it."""
    flags = _flags(template, ezafe, len(batch.at))
    ids = index._ids
    affix = None
    if template.id == "CRF2":
        # Each affix slot's id per type: a short type (-1) and an affix
        # that the index lacks read the last row, the sentinel's.
        rows = np.append(_lookup(index._values["affix"], batch.affixes), -1)
        affix = ids["affix"][rows[batch.affix_of], np.arange(len(AFFIX_SLOTS))[:, None]]
    word = ids["word"][_lookup(index._values["word"], batch.words)].T
    edge = ids["edge"][[0, -1]]
    ez = ids["ez"][: len(EZ_VALUES)].T
    return Encoded(ids=_fill(template, batch, flags, word, affix, edge, ez), offsets=batch.offsets)


def index_and_encode(
    template: FeatureTemplate,
    batch: Batch,
    ezafe: Sequence[int] | None = None,
    min_count: int = 1,
) -> tuple[FeatureIndex, Encoded]:
    """Index the keys of training sentences (batch, as in encode) and
    encode them in one pass. The index holds every key seen at least
    min_count times, in order of first occurrence over (sentence,
    position, slot)."""
    if min_count < 1:
        raise ValueError("min_count must be positive")
    flags = _flags(template, ezafe, len(batch.at))
    T = len(batch.words)
    word = np.broadcast_to(np.arange(T, dtype=np.int32), (len(W_SLOTS), T))
    ez = np.broadcast_to(np.arange(len(EZ_VALUES)), (len(EZ_SLOTS), len(EZ_VALUES)))
    codes = _fill(template, batch, flags, word, batch.affix_of, np.array([[0, 0], [-1, -1]]), ez)
    values = {**_fixed_values(), "word": batch.words, "affix": batch.affixes}
    slots = [_SLOT_COLUMNS[slot] for slot in template.slots]
    # Per slot, the count and the first position of every code (the row
    # of -1, absent slots, comes first and is dropped).
    n = codes.shape[1]
    positions = np.arange(n)
    firsts, kept_codes = [], []
    for row, (kind, _) in enumerate(slots):
        shifted = codes[row] + 1
        count = np.bincount(shifted, minlength=len(values[kind]) + 1)[1:]
        first = np.full(len(values[kind]) + 1, n)
        np.minimum.at(first, shifted, positions)
        code = np.flatnonzero(count >= min_count)
        kept_codes.append(code)
        firsts.append(first[code + 1] * len(slots) + row)
    order = np.argsort(np.concatenate(firsts))
    F = len(order)
    key_ids = np.empty(F, dtype=np.int32)
    key_ids[order] = np.arange(F, dtype=np.int32)

    ids = {kind: np.full((len(values[kind]) + 1, width), F, np.int32) for kind, width in _WIDTHS.items()}
    start = 0
    for (kind, column), code in zip(slots, kept_codes):
        ids[kind][code, column] = key_ids[start : start + len(code)]
        start += len(code)
    numbers = np.array([_SLOT_NUMBERS[slot] for slot in template.slots], dtype=np.int8)
    slot_of = np.repeat(numbers, [len(code) for code in kept_codes])[order]
    row_of = np.concatenate(kept_codes).astype(np.int32)[order]
    index = FeatureIndex._of_tables(values, ids, slot_of, row_of)
    # Each row of codes becomes, in place, its column of the id table of
    # its kind (a code of -1 reads the last row, which holds the sentinel).
    for row, (kind, column) in enumerate(slots):
        np.take(ids[kind][:, column], codes[row], out=codes[row])
    return index, Encoded(ids=codes, offsets=batch.offsets)
