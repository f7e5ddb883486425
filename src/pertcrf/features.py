"""String-keyed indicator features for the two window templates.

Key grammar (bit-stable across versions):
  w[-5]=... w[5]=...    word identity in a +-5 window, with sentinel forms
                        __BOS__ / __EOS__ outside the sentence
  pre1=..pre3= suf1=..suf3=
                        focus-word affixes by Unicode scalar count, omitted
                        when the form is strictly shorter than the affix
  BOS / EOS             boundary booleans, emitted only when true
  ez[-5]=0|1 ez[5]=...  predicted-ezafe window, sentinel value _

Ezafe annotations go only with ezafe-input templates: one 0/1 flag per
token, and one annotation per sentence of a corpus. sentence_features and
corpus_features reject anything else with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus

TEMPLATE_IDS = ("CRF1", "CRF2")
WINDOW = 5
BOS_FORM = "__BOS__"
EOS_FORM = "__EOS__"
EZ_PAD = "_"


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

    @staticmethod
    def from_token(token: str) -> "FeatureTemplate":
        base, plus, suffix = token.partition("+")
        if base not in TEMPLATE_IDS or (plus and suffix != "EZ"):
            raise ValueError(f"unknown template token {token!r}")
        return FeatureTemplate(id=base, ezafe_input=bool(plus))


# A feature vector is a list of distinct key strings in deterministic
# emission order; an ezafe annotation is one 0/1 flag per token.
FeatureVector = list[str]
EzafeAnnotation = Sequence[int]

SPAN = 2 * WINDOW + 1
# Key prefixes of the word and flag windows, offsets -WINDOW..WINDOW.
W_KEYS = [f"w[{k}]=" for k in range(-WINDOW, WINDOW + 1)]
EZ_KEYS = [f"ez[{k}]=" for k in range(-WINDOW, WINDOW + 1)]


def sentence_features(
    forms: Sequence[str],
    template: FeatureTemplate,
    ezafe: EzafeAnnotation | None = None,
) -> list[FeatureVector]:
    """Feature vectors of every token of a sentence (given as its surface
    forms), in token order. Ezafe-input templates need ezafe, one 0/1 flag
    per token; the other templates refuse it."""
    n = len(forms)
    if not template.ezafe_input:
        if ezafe is not None:
            raise ValueError("template does not take an ezafe annotation")
    elif ezafe is None:
        raise ValueError("template requires an ezafe annotation")
    elif len(ezafe) != n:
        raise ValueError(f"ezafe annotation length {len(ezafe)} != sentence length {n}")
    else:
        for v in ezafe:
            if v not in (0, 1):
                raise ValueError(f"ezafe flags must be 0 or 1, got {v!r}")
        ez = [EZ_PAD] * WINDOW + ["1" if v else "0" for v in ezafe] + [EZ_PAD] * WINDOW
    words = [BOS_FORM] * WINDOW + list(forms) + [EOS_FORM] * WINDOW
    out: list[FeatureVector] = []
    for i, focus in enumerate(forms):
        keys = [p + w for p, w in zip(W_KEYS, words[i : i + SPAN])]
        if template.id == "CRF2":
            for ln in (1, 2, 3):
                if len(focus) >= ln:
                    keys.append(f"pre{ln}={focus[:ln]}")
            for ln in (1, 2, 3):
                if len(focus) >= ln:
                    keys.append(f"suf{ln}={focus[-ln:]}")
            if i == 0:
                keys.append("BOS")
            if i == n - 1:
                keys.append("EOS")
        if template.ezafe_input:
            keys += [p + v for p, v in zip(EZ_KEYS, ez[i : i + SPAN])]
        out.append(keys)
    return out


def corpus_features(
    corpus: Corpus,
    template: FeatureTemplate,
    ezafe: Sequence[EzafeAnnotation] | None = None,
) -> Iterator[list[FeatureVector]]:
    """Feature vectors of every sentence, generated lazily so that a
    consumer can take each one and drop its feature strings."""
    if ezafe is not None and len(ezafe) != corpus.n_sentences:
        raise ValueError(f"{len(ezafe)} ezafe annotations for {corpus.n_sentences} sentences")
    flags = ezafe if ezafe is not None else [None] * corpus.n_sentences
    return (
        sentence_features([t.form for t in sent], template, fl)
        for sent, fl in zip(corpus.sentences, flags)
    )


class FeatureIndex:
    """Immutable bijection between retained feature strings and 0..F-1,
    assigned in first-occurrence order. Unknown strings map to nothing."""

    def __init__(self, keys: Iterable[str]):
        index: dict[str, int] = {}
        for key in keys:
            if key in index:
                raise ValueError(f"duplicate feature string {key!r}")
            index[key] = len(index)
        self._index = index

    @classmethod
    def adopt(cls, index: dict[str, int]) -> "FeatureIndex":
        """Wrap a dict that already maps its keys, in insertion order, to
        0..F-1, without copying it; the caller must not change it
        afterwards."""
        self = cls.__new__(cls)
        self._index = index
        return self

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __getitem__(self, key: str) -> int:
        return self._index[key]

    def keys(self) -> Iterator[str]:
        return iter(self._index)

    def encode(self, features: Sequence[FeatureVector]) -> list[int]:
        """Index of every key of one sentence's feature vectors, position by
        position in emission order; -1 for a key not in the index."""
        get = self._index.get
        return [get(k, -1) for keys in features for k in keys]
