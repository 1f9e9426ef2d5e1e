import base64
import errno
import itertools
import types

import numpy as np
import pytest

from wordsim import neural
from wordsim.lexicon import Corpus, build_lexicon

# 20 standard words with three deterministic synthetic variants each:
# drop the middle character, swap the first two, duplicate the last.
TOY_STANDARD = [
    "thing", "water", "house", "night", "right", "friend", "people",
    "school", "birthday", "tomorrow", "morning", "coffee", "window",
    "garden", "music", "family", "street", "summer", "winter", "dinner",
]


def toy_variants(word):
    mid = len(word) // 2
    return [word[:mid] + word[mid + 1 :], word[1] + word[0] + word[2:], word + word[-1]]


def make_toy_lexicon():
    return build_lexicon([(v, w) for w in TOY_STANDARD for v in toy_variants(w)])


@pytest.fixture(scope="session")
def toy_lexicon():
    return make_toy_lexicon()


# context-run fixture: every standard word has one doubled-letter variant,
# and "dogg"/"dog" occur in identical sentence templates.
CONTEXT_STANDARD = [
    "dog", "cat", "boy", "kid", "run", "eat", "sleep", "play", "house",
    "park", "water", "food", "happy", "small", "big", "fast", "the", "a",
    "is", "very",
]

CONTEXT_TEMPLATES = [
    ["the", "{X}", "is", "very", "happy"],
    ["a", "{X}", "is", "big"],
    ["the", "{X}", "eat", "food"],
    ["a", "small", "{X}", "play", "park"],
    ["the", "big", "{X}", "sleep", "house"],
]


def make_context_lexicon():
    return build_lexicon([(w + w[-1], w) for w in CONTEXT_STANDARD])


@pytest.fixture(scope="session")
def context_lexicon():
    return make_context_lexicon()


@pytest.fixture(scope="session")
def context_corpus(context_lexicon):
    return make_context_corpus(context_lexicon, n_sentences=500, seed=123)


def make_context_corpus(lex, n_sentences=500, seed=123):
    rng = np.random.default_rng(seed)
    sents = []
    for _ in range(n_sentences):
        template = CONTEXT_TEMPLATES[rng.integers(len(CONTEXT_TEMPLATES))]
        x = "dog" if rng.random() < 0.5 else "dogg"
        sents.append(tuple(lex.id_of(x if t == "{X}" else t) for t in template))
    return Corpus(sentences=tuple(sents))


@pytest.fixture(scope="session")
def small_lexicon():
    # 10 standard words, one variant each; cheap enough to train per-test
    words = ["apple", "banana", "cherry", "grape", "lemon",
             "mango", "melon", "olive", "peach", "plum"]
    return build_lexicon([(w[1:], w) for w in words])


def wide_lexicon():
    """|A| = 300, above 256, so every saved array is long enough for line-wrapped base64 to show."""
    return build_lexicon([(f"x{i:03d}", f"s{i:03d}") for i in range(150)])


def identity_codes(model, lex):
    """The codes of every word as the product of eye(|A|) through the encoder: no memo, no ids."""
    a = np.eye(len(lex))
    for layer in model.net.layers[: model.bottleneck_index + 1]:
        a = neural._apply(layer.activation, a @ layer.W.T + layer.b)
    return a


def _truncate(array):
    array["f8le"] = array["f8le"][:-4]  # still valid base64, three bytes short


def _first_value(value):
    """A breaker that stores value as the array's first float64."""

    def breaks(array):
        raw = bytearray(base64.b64decode(array["f8le"]))
        raw[:8] = np.array([value], dtype="<f8").tobytes()
        array["f8le"] = base64.b64encode(bytes(raw)).decode("ascii")

    return breaks


_SHAPE_LIST = "shape must be a list of non-negative integers"

# ways to break one saved array object, and what the ConfigError must say
MALFORMED_ARRAYS = {
    "f8le-not-base64": (
        lambda a: a.update(f8le=a["f8le"][:-4] + "!!!!"), "f8le is not valid base64"
    ),
    "f8le-missing": (lambda a: a.pop("f8le"), "lacks the field 'f8le'"),
    "byte-count": (_truncate, "bytes; shape"),
    "shape-missing": (lambda a: a.pop("shape"), _SHAPE_LIST),
    "shape-not-a-list": (lambda a: a.update(shape=3), _SHAPE_LIST),
    "shape-negative": (lambda a: a.update(shape=[-1] * len(a["shape"])), _SHAPE_LIST),
    "shape-not-integers": (lambda a: a.update(shape=[float(n) for n in a["shape"]]), _SHAPE_LIST),
    "one-dimension-too-many": (lambda a: a.update(shape=a["shape"] + [1]), "dimensions, got shape"),
    "nan": (_first_value(np.nan), "holds a non-finite value"),
    "infinite": (_first_value(-np.inf), "holds a non-finite value"),
}


class _FullDisk:
    """A file whose write number fail_at stores half the data, then fails as on a full disk."""

    def __init__(self, fh, fail_at):
        self.fh = fh
        self.writes_left = fail_at

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes_left -= 1
        if self.writes_left:
            return self.fh.write(data)
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.fixture()
def full_disk(monkeypatch):
    """Every file wordsim.neural opens for writing fails halfway through write number full_disk.fail_at.

    fail_at counts from 1 and is 1 unless a test sets it.
    """
    disk = types.SimpleNamespace(fail_at=1)

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return _FullDisk(fh, disk.fail_at) if "w" in mode else fh

    monkeypatch.setattr(neural, "open", open_on_full_disk, raising=False)
    return disk


def second_piece_write(save):
    """The number of the write, counted from 1, that holds the first array's second piece.

    save() is run once with neural._write_text only collecting its pieces,
    each of which the writer writes with one call.
    """
    pieces = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neural, "_write_text", lambda path, stream: pieces.extend(stream))
        save()
    opening = next(i for i, piece in enumerate(pieces) if piece.endswith('"f8le": "'))
    assert len(pieces[opening + 1]) == 4 * neural.PIECE_BYTES // 3, "the array fills no first piece"
    assert not pieces[opening + 2].startswith('"'), "the array has no second piece"
    return opening + 3
