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
    shares its w[k] key with the sentinel, and still has affixes). So it
    holds two int32 per position, and the rest grows with the types and
    sentences. It cuts no affix: which affix keys a form has depends on
    the model.
  - encode and index_and_encode read a Batch with one index's tables.
    Per slot kind, a table from value codes to feature ids (one column
    per slot) gives the ids of an Encoded. The slots whose key moves
    along the window get a row of ids per position, slot-major, in one
    (10 or 21, positions) int32 matrix: w[k] (k != 0) by the type at
    offset k, ez[k] by the flag (0, 1 or the pad _) at offset k. The
    focus slots, w[0], pre1-3 and suf1-3, read only the position's own
    form, so each gets a row of ids per type (a (1 or 7, types) table),
    and the Encoded keeps the type code of every position. BOS and EOS
    are one id each, read at each sentence's first and last position. A
    slot that is absent or whose key is not indexed holds the sentinel
    id F = len(index), which crf reads as a zero weight row. For CRF2
    that is 11 int32 per position, against 19 for a row per slot.
Every grammar key belongs to one slot, so a moving slot's feature lies in
one row of the matrix, in corpus order, and a focus slot's in one row of
the table, in type order.
  - index_and_encode (training) makes the tables from the batch's codes:
    the count and first position of every code per slot (for w[k] and
    ez[k], from the padded type codes or flags at window offset k; for the
    affixes, from w[0]'s, the count and first position of every type; for
    BOS and EOS, from the offsets), the candidates ordered by (position,
    slot), then the min_count cut. For CRF2 it first interns the affixes
    of the types, with a (6, types) table of codes into them. It gives the
    kept codes of every slot and their ids to the index's filler, with the
    batch's type dict and those affixes as the values and, for CRF2, the
    affix codes. Then, its tallies freed, it encodes the batch with the
    new index through encode: every type of the batch is in the index's
    word dict, so no affix is cut twice.
  - encode is the one encode path, for trained and loaded indexes alike,
    and every model that encodes one Batch shares its work: the run's
    splits, both stages of tasks.pipeline_tag, and eval with an ezafe
    model. What no model changes, the batch makes once, on first use: the
    type code of every position; the packed layout of its sentences
    (_Layout, see Layout in crf's module docstring), which every Encoded
    of the batch carries; for a text of at most _WINDOW_BLOCK positions,
    the (10, positions) codes of the moving word slots, which each model
    maps through its own word table with one take; and the
    affix strings and form lengths of the types that an index lacks, kept
    for the last set of such types only (models trained on one split lack
    the same ones, and each run, pipeline and eval reuses the previous
    model's set; a corpus.Corpus keeps its batch as long as it lives). Per
    model, encode looks each of the batch's types up once in the word
    dict of a FeatureIndex. For CRF2 a known form's affix ids are
    its column of the index's affix table; only the forms that the index
    lacks have their affix strings looked up in its affix dict. A
    FeatureIndex made from keys gives each key's slot, row and id to the
    same filler, which cuts the affixes of its word values once.
Key strings exist only for the F indexed keys, and only when
FeatureIndex.keys() reads them back from the id tables (save_model):
each id lies in one cell, whose row names the value and whose column the
slot. A key outside the grammar is kept as given, by id, and never
matches.

Input. A batch is made from columns: the form of every position in corpus
order and the sentence offsets (S+1,), as corpus.Corpus holds them.
Ezafe flags go only with ezafe-input templates: one 0/1 flag per position,
in the same order. batch, encode and index_and_encode reject anything
else with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

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
# The slots of each kind, in the column order of the kind's id table.
_KIND_SLOTS = {"word": W_SLOTS, "affix": AFFIX_SLOTS, "edge": EDGE_SLOTS, "ez": EZ_SLOTS}
# The kind of every slot and its column within that kind's id table.
_SLOT_COLUMNS = {slot: (kind, i) for kind, slots in _KIND_SLOTS.items() for i, slot in enumerate(slots)}
# A key is its slot's prefix followed by its value (the edge slots have the
# empty value): per kind, the prefix of each column.
_PREFIXES = {
    kind: [slot if kind == "edge" else slot + "=" for slot in slots]
    for kind, slots in _KIND_SLOTS.items()
}
# The row of each value of the kinds that have a fixed set of values (the
# edge slots have one, the empty value). Every index shares these dicts:
# only the word and affix dicts grow.
_FIXED_ROWS = {"edge": {"": 0}, "ez": {value: row for row, value in enumerate(EZ_VALUES)}}
# The window offset k of each moving slot, word then ez: w[0] reads the
# position's own form, so it is a focus slot (see Encoded). Both kinds' id
# tables hold the slot w[k] or ez[k] in column k + WINDOW.
_W_SHIFTS = np.array([k for k in range(-WINDOW, WINDOW + 1) if k], dtype=np.int32)[:, None]
_EZ_SHIFTS = np.arange(-WINDOW, WINDOW + 1, dtype=np.int32)[:, None]
# The cut of each affix slot, the least form length that has it, and the
# column of each slot in the affix id table.
_CUTS = [slice(None, m) for m in AFFIX_LENGTHS] + [slice(-m, None) for m in AFFIX_LENGTHS]
_AFFIX_MIN = np.array(AFFIX_LENGTHS * 2)[:, None]
_AFFIX_COLUMNS = np.arange(len(AFFIX_SLOTS))[:, None]
# Positions whose window codes are gathered at once: a block holds 11 int32
# of them per position. A batch keeps the word window codes of a text of
# at most one block.
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
        """The key slots of one position, in key order."""
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
    """Sentences as feature ids, the input of crf. Each slot whose key
    moves along the window (w[-5..-1], w[1..5], then ez[-5..5] for
    ezafe-input templates) has a row of ids, one per position in corpus
    order. The focus slots (w[0], then pre1-3 and suf1-3 for CRF2) read
    only the position's own form, so each has a row of ids per form type,
    read by the type code of every position. BOS and EOS (CRF2) are one id
    each, read at every sentence's first and last position. The sentinel F
    (the index's length) stands where a slot has no indexed key."""

    ids: np.ndarray  # (K, N) int32 ids of the moving slots, slot-major
    offsets: np.ndarray  # (S+1,) sentence starts in corpus order, then the position count
    types: np.ndarray  # (N,) int32 form type code of each position
    focus: np.ndarray  # (J, T) int32 ids of the focus slots per type: J = 7 (CRF2), 1 (CRF1) or 0
    edges: np.ndarray  # (E,) int32 ids of BOS and EOS: E = 2 (CRF2) or 0
    layout: _Layout  # the packed layout of offsets, the batch's (Batch.layout)


class _Layout:
    """The packed layout of the sentences that offsets cut a corpus into,
    and the one place its facts are worked out (see Layout in crf's module
    docstring). Sentences rank by length, longest first, in corpus order
    among equal lengths; step t holds position t of each sentence longer
    than t, in rank order."""

    def __init__(self, offsets: np.ndarray):
        lengths = offsets[1:] - offsets[:-1]
        self.S = S = len(lengths)  # the rows of step 0, each sentence's first
        by_rank = (-lengths).argsort(kind="stable")
        alive = S - np.bincount(lengths).cumsum()[:-1]  # sentences longer than t
        # The first row of each step, then the row count.
        self.steps = np.concatenate([[0], alive.cumsum()])
        # The corpus position of each row: row steps[t] + k holds position t
        # of the sentence of rank k.
        t = np.arange(len(alive)).repeat(alive)
        k = np.arange(len(t)) - self.steps[:-1].repeat(alive)
        self.order = (offsets[:-1][by_rank][k] + t).astype(np.intc)
        # One (a, b, p) per step t >= 1: its rows a..b-1 continue the
        # sentences at rows p..p+b-a-1, the first b-a rows of step t-1.
        bounds = self.steps.tolist()
        self.spans = [(bounds[t], bounds[t + 1], bounds[t - 1]) for t in range(1, len(bounds) - 1)]
        self.row = np.empty(len(self.order), dtype=np.intp)  # of each position, in corpus order
        self.row[self.order] = np.arange(len(self.order))
        # The last row of each sentence, in rank order, and its step.
        self.ends = self.row[offsets[1:][by_rank] - 1]
        self.end_steps = (lengths[by_rank] - 1).astype(np.intp)

    @cached_property
    def prev(self) -> np.ndarray:
        """(N - S,) intp each later row's sentence's row one step earlier."""
        alive = np.diff(self.steps)  # the rows of each step
        return np.arange(self.S, len(self.row)) - alive[:-1].repeat(alive[1:])


class FeatureIndex:
    """Immutable bijection between retained feature strings and 0..F-1, in
    the order given (training gives first-occurrence order), held as
    tables rather than strings. Per slot kind, a dict maps each value to a
    row of a table of ids, one column per slot of the kind and F (the
    encoding's sentinel) where that key is not indexed; the table's last
    row is all F, for values the dict lacks. The affix table holds the
    affix ids of every value of the word dict, one column each and a last
    column of F, so that encode cuts affixes only for forms that the word
    dict lacks. Each id lies in one cell of one table, so keys() reads the
    strings back from the tables when asked (save_model); keys outside the
    grammar are kept as given, by id, and never match. One filler (_fill)
    makes the tables from each slot's rows and ids. Made from keys
    (load_model), the index splits each key at its first "=" into a slot
    and a value, and the filler cuts the affixes of its word values once;
    index_and_encode gives the filler its kept codes and the affix codes
    that it already has. Either index then encodes through encode."""

    def __init__(self, keys: Iterable[str]):
        keys = list(keys)
        if len(set(keys)) != len(keys):
            seen: set[str] = set()
            for key in keys:
                if key in seen:
                    raise ValueError(f"duplicate feature string {key!r}")
                seen.add(key)
        values = {"word": {}, "affix": {}, **_FIXED_ROWS}
        cells: dict[str, tuple[list[int], list[int]]] = {}
        other = {}
        for i, key in enumerate(keys):
            slot, eq, value = key.partition("=")
            kind, _ = _SLOT_COLUMNS.get(slot, (None, None))
            row = None
            if kind is not None and (kind == "edge") != bool(eq):
                row = values[kind].get(value)
                if row is None and kind not in _FIXED_ROWS:
                    row = values[kind][value] = len(values[kind])
            if row is None:  # outside the grammar
                other[i] = key
                continue
            rows, ids = cells.setdefault(slot, ([], []))
            rows.append(row)
            ids.append(i)
        self._fill(values, len(keys), cells, other)

    def _fill(
        self, values: dict, F: int, cells: dict, other: dict, affix_of: np.ndarray | None = None
    ) -> None:
        """Make the index's tables: per kind, the value -> row dict of values
        and an id table with a row per value and a last row of F, where each
        slot's (rows, ids) in cells puts its ids in the slot's column; then
        the affix table, gathered by affix_of, the (6, words + 1) affix code
        of every word value (see _affix_codes), or, without it, cut from the
        word values. other holds the keys outside the grammar, id -> key.
        This is the only code that writes an index's tables."""
        self._values, self._F, self._other = values, F, other
        self._ids = {
            kind: np.full((len(values[kind]) + 1, len(slots)), F, np.int32)
            for kind, slots in _KIND_SLOTS.items()
        }
        for slot, (rows, ids) in cells.items():
            kind, column = _SLOT_COLUMNS[slot]
            self._ids[kind][rows, column] = ids
        if affix_of is not None:
            self._affix = self._ids["affix"][affix_of, _AFFIX_COLUMNS]
        elif values["affix"]:
            self._affix = self._affix_ids(*_cut(values["word"]))
        else:  # no affix key, so no string is cut
            self._affix = np.broadcast_to(np.int32(F), (len(AFFIX_SLOTS), len(values["word"]) + 1))

    def _affix_ids(self, strings: Iterable[str], lengths: np.ndarray) -> np.ndarray:
        """The (6, forms + 1) id of each affix slot's key for each form of a
        cut (see _cut), the sentinel F where the form is shorter than the
        affix or the index lacks the key, and in the last column, which
        stands for no form."""
        codes = _affix_codes(strings, lengths, partial(_lookup, self._values["affix"]))
        return self._ids["affix"][codes, _AFFIX_COLUMNS]

    def __len__(self) -> int:
        return self._F

    def keys(self) -> list[str]:
        """The feature strings, in id order."""
        prefixes, prefix_at, values = self.key_parts()
        return (prefixes[prefix_at] + values).tolist()

    def key_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every feature string in two parts, the slot prefix and the value:
        the object array of the P slot prefixes, each id's index into it
        (intp), and the object array of each id's value, in id order. Each
        id lies in one cell of the id table of its kind: its row names the
        value, its column the prefix. A key outside the grammar is the
        empty prefix and itself. Each id gets its index into all the
        values, kind after kind, times P plus its index into the prefixes,
        and the values are gathered once."""
        F = len(self)
        P = sum(map(len, _PREFIXES.values())) + 1  # the last is the empty prefix
        at = np.empty(F, dtype=np.intp)
        values, prefixes = [], []
        for kind, table in self._ids.items():
            flat, width = table.ravel(), table.shape[1]
            cells = np.flatnonzero(flat < F)
            # (row + len(values)) * P + column + len(prefixes), where a cell is
            # row * width + column (np.divmod takes several times as long).
            code = cells // width * (P - width)
            code += cells
            code += len(values) * P + len(prefixes)
            at[flat.take(cells)] = code
            values += self._values[kind]
            prefixes += _PREFIXES[kind]
        other = list(self._other)
        at[other] = np.arange(len(values), len(values) + len(other)) * P + len(prefixes)
        values += self._other.values()
        prefixes.append("")
        value_at = at // P
        prefix_at = at - value_at * P
        prefixes, values = (np.fromiter(x, dtype=object, count=len(x)) for x in (prefixes, values))
        return prefixes, prefix_at, values[value_at]


@dataclass(frozen=True)
class Batch:
    """A text as the codes that no model changes (see batch): the form
    types and the type code of every position, in each sentence padded for
    the word window. What every model that encodes the text reads, the
    batch makes from them once, on first use, so those models share it."""

    offsets: np.ndarray  # int32 (S+1,) sentence starts, then the position count
    words: dict[str, int]  # the code of each form type; the sentinels are 0 and 1
    padded: np.ndarray  # int32 type codes, each sentence with WINDOW sentinels on either side
    at: np.ndarray  # int32 (N,) where each position lies in padded

    @cached_property
    def layout(self) -> _Layout:
        """The packed layout of the text's sentences, read by every model."""
        return _Layout(self.offsets)

    @cached_property
    def _types(self) -> np.ndarray:
        """(N,) int32 the type code of every position."""
        return self.padded[self.at]

    @cached_property
    def _words(self) -> np.ndarray:
        """The codes of the moving word slots at every position."""
        return _window_codes(self.padded, self.at, _W_SHIFTS)

    @cached_property
    def _cuts(self) -> dict[bytes, tuple[list[str], np.ndarray]]:
        """The cut of _unknown for the last set of types, by the bytes of its
        mask."""
        return {}

    def _word_codes(self, a: int) -> np.ndarray:
        """The codes of the moving word slots at the block of positions from
        a (see _window_codes), kept for a text of one block."""
        if len(self.at) <= _WINDOW_BLOCK:
            return self._words
        return _window_codes(self.padded, self.at[a : a + _WINDOW_BLOCK], _W_SHIFTS)

    def _unknown(self, new: np.ndarray) -> tuple[list[str], np.ndarray]:
        """The affix cut (see _cut) of the form types where new is true, made
        once for consecutive calls with one set of types: only the last set's
        cut is kept."""
        key, cuts = new.tobytes(), self._cuts
        if key not in cuts:
            strings, lengths = _cut(list(compress(self.words, new.tolist())))
            cuts.clear()
            cuts[key] = list(strings), lengths
        return cuts[key]


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
    return Batch(offsets, words, padded, at)


def _intern(codes: dict[str, int], strings: Iterable[str], n: int) -> np.ndarray:
    """The code of each of the n strings, giving a string that codes lacks
    the next code (map reads len(codes) before each setdefault)."""
    return np.fromiter(map(codes.setdefault, strings, map(len, repeat(codes))), np.int32, n)


def _lookup(values: dict[str, int], strings: Iterable[str], n: int) -> np.ndarray:
    """The code in values of each of the n strings, in order; -1 for a
    string that values lacks."""
    return np.fromiter(map(values.get, strings, repeat(-1)), np.intp, n)


def _cut(forms: Collection[str]) -> tuple[Iterator[str], np.ndarray]:
    """The affix strings of forms, lazily, slot by slot in AFFIX_SLOTS order
    (each slot's cut of every form), and the length of every form."""
    strings = chain.from_iterable(map(itemgetter(cut), forms) for cut in _CUTS)
    return strings, np.fromiter(map(len, forms), np.intp, len(forms))


def _affix_codes(
    strings: Iterable[str], lengths: np.ndarray, code: Callable[[Iterable[str], int], np.ndarray]
) -> np.ndarray:
    """The (6, forms + 1) code of each affix slot's value for each form of a
    cut (see _cut), where code(strings, n) codes n strings (_intern or
    _lookup into a value dict); -1 where the form is shorter than the
    affix, and in the last column, which stands for no form."""
    n = len(lengths)
    codes = np.full((len(_CUTS), n + 1), -1, dtype=np.intp)
    codes[:, :n] = code(strings, len(_CUTS) * n).reshape(len(_CUTS), n)
    codes[:, :n][lengths < _AFFIX_MIN] = -1
    return codes


def _window_codes(padded: np.ndarray, at: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """(slots, positions) where each moving slot of window offset k (one of
    shifts) reads, at each of the positions at, a (values, 11) id table
    flattened: the value code at offset k in padded times 11, plus the
    slot's column k + WINDOW."""
    codes = padded[at + shifts]
    codes *= len(W_SLOTS)
    codes += shifts + WINDOW
    return codes


def _padded_flags(batch: Batch, flags: np.ndarray) -> np.ndarray:
    """The flag code of every position of batch.padded: the flags, and the
    pad _ around each sentence."""
    padded = np.full(len(batch.padded), EZ_VALUES.index(EZ_PAD), dtype=np.int32)
    padded[batch.at] = flags
    return padded


def _windows(table: np.ndarray, codes_of: Callable[[int], np.ndarray], out: np.ndarray) -> None:
    """Write the entries of the (values, 11) table that codes_of(a) gives
    (see _window_codes) for each block of positions from a into out, over
    blocks of at most _WINDOW_BLOCK positions."""
    flat = np.ascontiguousarray(table, dtype=np.int32).ravel()
    for a in range(0, out.shape[1], _WINDOW_BLOCK):
        # mode="clip" writes out unbuffered; every code is in range.
        np.take(flat, codes_of(a), out=out[:, a : a + _WINDOW_BLOCK], mode="clip")


def encode(
    index: FeatureIndex,
    template: FeatureTemplate,
    batch: Batch,
    ezafe: Sequence[int] | None = None,
) -> Encoded:
    """Encode the sentences of batch (see batch) with the keys of index;
    keys that the index lacks are dropped. Ezafe-input templates need
    ezafe, one flag per position; the other templates refuse it. What no
    model changes, the batch makes once for every model (see Batch)."""
    flags = _flags(template, ezafe, len(batch.at))
    ids = index._ids
    # Each type's row in the index's word tables; -1, the last row (the
    # sentinel's), for a form that the index lacks.
    rows = _lookup(index._values["word"], batch.words, len(batch.words))
    word = ids["word"][rows]
    focus = word[None, :, WINDOW]  # CRF1 reads w[0] alone
    edges = np.empty(0, dtype=np.int32)
    if template.id == "CRF2":
        # A known form's affix ids are its column of the index's table; only
        # the forms that the index lacks have their affixes cut.
        affix = index._affix[:, rows]
        new = rows < 0
        if index._values["affix"] and new.any():
            affix[:, new] = index._affix_ids(*batch._unknown(new))[:, :-1]
        focus = np.concatenate([focus, affix])
        edges = ids["edge"][0]
    # Each moving slot's row: its entry in the table of its kind, one column
    # per slot, by the type (word) or flag code (ez) at its window offset.
    n, K = len(batch.at), len(_W_SHIFTS)
    moving = np.empty((K + (len(EZ_SLOTS) if flags is not None else 0), n), dtype=np.int32)
    _windows(word, batch._word_codes, moving[:K])
    if flags is not None:
        padded = _padded_flags(batch, flags)
        codes_of = lambda a: _window_codes(padded, batch.at[a : a + _WINDOW_BLOCK], _EZ_SHIFTS)
        _windows(ids["ez"], codes_of, moving[K:])
    return Encoded(
        ids=moving,
        offsets=batch.offsets,
        types=batch._types,
        focus=np.ascontiguousarray(focus, dtype=np.int32),
        edges=edges,
        layout=batch.layout,
    )


def _tally(
    codes: np.ndarray, size: int, at: np.ndarray, n: int, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The count (the sum of weights, when given) and the first position
    (the least of at, n where absent) of each of size codes, from the code
    of every entry; entries of code -1 are dropped."""
    shifted = codes + 1
    count = np.bincount(shifted, weights=weights, minlength=size + 1)[1:]
    first = np.full(size + 1, n)
    np.minimum.at(first, shifted, at)
    return count, first[1:]


def _index(
    template: FeatureTemplate, batch: Batch, flags: np.ndarray | None, min_count: int
) -> FeatureIndex:
    """The index of the keys of batch (see index_and_encode) that are seen
    at least min_count times."""
    T = len(batch.words)
    values = {"word": batch.words, "affix": {}, **_FIXED_ROWS}
    affix_of = None
    if template.id == "CRF2":  # the code of each affix slot's value per type
        affix_of = _affix_codes(*_cut(batch.words), partial(_intern, values["affix"]))
    # Per slot, in key order, the count and the first position of every
    # code: w[k] and ez[k] from the padded type codes or flags at window
    # offset k; the affixes from the count and first position of every
    # type, which w[0]'s are; BOS and EOS from the sentence offsets.
    n, S = len(batch.at), len(batch.offsets) - 1
    positions = np.arange(n)
    # Where each position's window starts in the padded codes, as intp,
    # which numpy gathers by without a conversion.
    start = batch.at.astype(np.intp) - WINDOW
    padded = {"word": batch.padded}
    if flags is not None:
        padded["ez"] = _padded_flags(batch, flags)
    tallies = []
    for slot in template.slots:
        kind, column = _SLOT_COLUMNS[slot]
        if kind in padded:  # w[k] or ez[k]: column is k + WINDOW, so start + column is offset k
            codes = padded[kind][column:][start]
            tallies.append(_tally(codes, len(values[kind]), positions, n))
        elif kind == "affix":
            count, first = tallies[WINDOW]  # w[0]'s: the word slots come first
            tallies.append(_tally(affix_of[column, :T], len(values["affix"]), first, n, count))
        else:  # BOS and EOS, once per sentence: first at 0 and at the first sentence's end
            first = (0, int(batch.offsets[min(S, 1)]) - 1)[column]
            tallies.append((np.array([S]), np.array([first])))
    firsts, kept_codes = [], []
    for row, (count, first) in enumerate(tallies):
        code = np.flatnonzero(count >= min_count)
        kept_codes.append(code)
        firsts.append(first[code] * len(tallies) + row)
    order = np.argsort(np.concatenate(firsts))
    F = len(order)
    key_ids = np.empty(F, dtype=np.int32)
    key_ids[order] = np.arange(F, dtype=np.int32)
    bounds = np.cumsum([len(code) for code in kept_codes])[:-1]
    cells = dict(zip(template.slots, zip(kept_codes, np.split(key_ids, bounds))))
    index = FeatureIndex.__new__(FeatureIndex)
    index._fill(values, F, cells, {}, affix_of)
    return index


def index_and_encode(
    template: FeatureTemplate,
    batch: Batch,
    ezafe: Sequence[int] | None = None,
    min_count: int = 1,
) -> tuple[FeatureIndex, Encoded]:
    """Index the keys of training sentences (batch, as in encode), then
    encode them with that index as encode does. The index holds every key
    seen at least min_count times, in order of first occurrence over
    (sentence, position, slot)."""
    if min_count < 1:
        raise ValueError("min_count must be positive")
    index = _index(template, batch, _flags(template, ezafe, len(batch.at)), min_count)
    return index, encode(index, template, batch, ezafe)
