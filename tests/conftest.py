import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from oracles import encode_keys
from pertcrf.corpus import Corpus, Token
from pertcrf.crf import decode

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

# Forms must be non-empty and whitespace-free; mix Latin and Persian script.
_FORM_ALPHABET = "abcdefghابپتمنی."
_TAGS = ("N", "ADJ", "V", "P", "DELM")

forms = st.text(alphabet=_FORM_ALPHABET, min_size=1, max_size=6)
tokens = st.builds(
    Token,
    form=forms,
    pos=st.sampled_from(_TAGS),
    ezafe=st.integers(min_value=0, max_value=1),
)
# Persian-realistic text: ZWNJ (U+200C), Arabic-Indic and Persian digits,
# and the = and | that the feature keys and joint labels use as separators.
# A small alphabet repeats forms, affixes and tags often. Forms of one to
# three scalars have partial affixes; forms spelled like the window
# sentinels share their w[k] keys with them.
_PERSIAN_ALPHABET = "کتابی\u200c۱۲٣=|"
persian_forms = st.one_of(
    st.text(alphabet=_PERSIAN_ALPHABET, min_size=1, max_size=3),
    st.text(alphabet=_PERSIAN_ALPHABET, min_size=4, max_size=7),
    st.sampled_from(["__BOS__", "__EOS__"]),
)
persian_tokens = st.builds(
    Token,
    form=persian_forms,
    pos=st.text(alphabet="NV\u200c۱=|", min_size=1, max_size=3),
    ezafe=st.integers(min_value=0, max_value=1),
)


def flat(sentences):
    """The values of sentences (sequences) in one list, with the sentence
    offsets: the column form that features, crf and tasks take."""
    return [v for s in sentences for v in s], np.cumsum([0] + [len(s) for s in sentences])


def decode_keys(model, sentences):
    """crf.decode of sentences given as key lists (keys such as f1 lie
    outside the feature grammar, so the string oracle encodes them), as one
    label list per sentence; the ids come back as intp."""
    encoded = encode_keys(model.feature_index, sentences)
    ids = decode(model, encoded)
    assert ids.dtype == np.intp
    labels = [model.labels[i] for i in ids.tolist()]
    bounds = encoded.offsets.tolist()
    return [labels[a:b] for a, b in zip(bounds, bounds[1:])]


def assert_same_text(text, reference):
    """text == reference, failing on the first line that differs: pytest's
    diff of two long model texts would take minutes."""
    got, want = text.split("\n"), reference.split("\n")
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"line {i + 1}"
    assert len(got) == len(want)


@st.composite
def corpora(draw, min_sentences=1, max_sentences=10, tokens=tokens):
    sents = draw(
        st.lists(
            st.lists(tokens, min_size=1, max_size=8).map(tuple),
            min_size=min_sentences,
            max_size=max_sentences,
        )
    )
    return Corpus.from_sentences(sents)


@st.composite
def lattices(draw, max_len=6, max_labels=4):
    """Random small (emissions, transitions) pair via a seeded generator;
    scores span a few orders of magnitude to exercise the log-space path."""
    T = draw(st.integers(min_value=1, max_value=max_len))
    L = draw(st.integers(min_value=1, max_value=max_labels))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([0.5, 2.0, 10.0]))
    em = rng.normal(0.0, scale, size=(T, L))
    trans = rng.normal(0.0, scale, size=(L, L))
    return em, trans
