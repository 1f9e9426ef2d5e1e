"""Vocabulary, normalization pairs, and the sentence corpus.

The lexicon is built from a TSV of `nonstandard<TAB>standard` pairs; the
corpus is one whitespace-tokenized sentence per line. Both are immutable
after load.
"""

import codecs
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import AmbiguityError, BindingError, ParseError, UnknownWordError, WordsimError

__all__ = ["Lexicon", "Corpus", "load_lexicon", "load_corpus", "one_hot", "word_id", "word_ids"]


@dataclass(frozen=True)
class Lexicon:
    """Ordered vocabulary with standard-word flags and variant mapping.

    ``standard_of`` maps each non-standard word id to the id of its unique
    standard form; standard words never appear as keys. _prepared is the
    one bounded memo of what scoring prepares per candidate set; what the
    lexicon derives from its own fields is a cached property.
    """

    words: tuple
    standard_flags: tuple
    standard_of: dict
    # (metric kind, candidate id bytes) -> entry, least recently used first (evalharness._prepared)
    _prepared: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.words)

    def id_of(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise UnknownWordError(f"word not in lexicon: {word!r}") from None

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def word_of(self, word_id: int) -> str:
        return self.words[word_id]

    # cached_property stores in the instance dict, past the frozen __setattr__
    @cached_property
    def _index(self) -> dict:
        """word -> id."""
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def standard_ids(self) -> tuple:
        """Ids of all standard words (the set C), in lexicon order."""
        return tuple(i for i, f in enumerate(self.standard_flags) if f)

    @cached_property
    def nonstandard_ids(self) -> tuple:
        return tuple(i for i, f in enumerate(self.standard_flags) if not f)

    @cached_property
    def standard_array(self) -> np.ndarray:
        """standard_ids as a read-only index array."""
        return _read_only(np.array(self.standard_ids, dtype=np.intp))

    @cached_property
    def _standard_key(self) -> bytes:
        """standard_array's bytes, the candidate part of its memo key, computed once."""
        return self.standard_array.tobytes()

    @cached_property
    def _digest(self) -> str:
        """sha256 of a line per word: the word, its flag and its standard id (-1 if none), tab-separated."""
        tails = ["\t1\t-1\n" if flag else "\t0\t-1\n" for flag in self.standard_flags]
        for i, std in self.standard_of.items():
            tails[i] = f"\t{int(self.standard_flags[i])}\t{std}\n"
        text = "".join(chain.from_iterable(zip(self.words, tails)))
        return hashlib.sha256(text.encode()).hexdigest()

    def fingerprint(self) -> str:
        """Content hash binding trained models to this exact lexicon."""
        return self._digest

    def check_binding(self, model):
        """Raise BindingError unless model's lexicon_fingerprint is this lexicon's."""
        if model.lexicon_fingerprint != self.fingerprint():
            raise BindingError("model was not trained against this lexicon")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Corpus:
    """Token-id sentences over a lexicon."""

    sentences: tuple
    oov_count: int = 0

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)

    def __len__(self):
        return len(self.sentences)


def _normalize(word: str) -> str:
    return word.strip().casefold()


def build_lexicon(pairs: Iterable) -> Lexicon:
    """Construct a lexicon from (nonstandard, standard) word pairs."""
    return _build([(_normalize(non), _normalize(std)) for non, std in pairs])


def _build(pairs) -> Lexicon:
    """The lexicon of (nonstandard, standard) pairs of normalised words."""
    mapping = {}
    index = {}  # word -> id, in order of first appearance
    for non, std in pairs:
        known = mapping.setdefault(non, std)
        if known != std:
            raise AmbiguityError(f"{non!r} mapped to both {known!r} and {std!r}")
        index.setdefault(non, len(index))
        index.setdefault(std, len(index))
    standard = set(mapping.values())
    if not standard:
        raise WordsimError("lexicon has no standard words")
    # A standard word listed as someone's variant would make the mapping
    # non-functional; treat membership in C as authoritative.
    standard_of = {index[n]: index[s] for n, s in mapping.items() if n not in standard}
    words = tuple(index)
    flags = tuple(map(standard.__contains__, words))
    return Lexicon(words=words, standard_flags=flags, standard_of=standard_of)


def _lines(path):
    """The lines of a UTF-8 file, split where text-mode reading splits, a leading BOM dropped.

    Decodes the whole file at once. If it is not UTF-8, the lines are
    decoded one by one as they are read, and the first that is not raises
    ParseError with its line number, so a fault on an earlier line is
    still the one reported.
    """
    with open(path, "rb") as fh:
        lines = fh.read().removeprefix(codecs.BOM_UTF8).splitlines()
    try:
        # no line holds a line break, so the text splits back into exactly these lines
        return b"\n".join(lines).decode("utf-8").split("\n") if lines else []
    except UnicodeDecodeError:
        return _decoded(lines)


def _decoded(lines):
    for line_no, raw in enumerate(lines, start=1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"not UTF-8: byte {raw[exc.start]:#04x} at offset {exc.start}", line_no
            ) from None


def load_lexicon(pairs_path) -> Lexicon:
    """Load a lexicon from a UTF-8 TSV of `nonstandard<TAB>standard` lines.

    Lines starting with `#` are skipped, and so is a leading byte-order
    mark. Raises ParseError, with the line number, on a line that is not
    UTF-8 or not two tab-separated fields, and AmbiguityError when a word
    maps to two standard forms.
    """
    pairs = []
    for line_no, line in enumerate(_lines(pairs_path), start=1):
        head = line.lstrip()
        if not head or head.startswith("#"):
            continue
        fields = line.count("\t") + 1
        if fields == 1:
            raise ParseError("missing tab separator", line_no)
        if fields > 2:
            raise ParseError(f"expected 2 tab-separated fields, got {fields}", line_no)
        # _normalize of each field: casefold works character by character, maps
        # no character to a tab or to whitespace and every whitespace character
        # to itself, and leaves a non-empty string non-empty
        non, _, std = line.casefold().partition("\t")
        non, std = non.strip(), std.strip()
        if not non or not std:
            raise ParseError("empty field", line_no)
        pairs.append((non, std))
    if not pairs:
        raise ParseError(f"no pairs found in {pairs_path}")
    return _build(pairs)


def load_corpus(corpus_path, lex: Lexicon) -> Corpus:
    """Load a corpus of whitespace-tokenized sentences, one per line.

    Out-of-vocabulary tokens are dropped and counted in oov_count;
    sentences left empty are filtered out. A leading byte-order mark is
    skipped. A line that is not UTF-8 raises ParseError with its line
    number.
    """
    index = lex._index
    sentences = []
    tokens = 0
    # casefold maps each character on its own, whitespace to itself and no other
    # character to whitespace, so each line splits into its casefolded tokens
    for line in "\n".join(_lines(corpus_path)).casefold().split("\n"):
        words = line.split()
        tokens += len(words)
        ids = [index[w] for w in words if w in index]
        if ids:
            sentences.append(tuple(ids))
    if not sentences:
        raise WordsimError(f"no usable sentences in {corpus_path}")
    return Corpus(sentences=tuple(sentences), oov_count=tokens - sum(map(len, sentences)))


def word_id(i, size: int) -> int:
    """i as a word id: TypeError unless it is an integer, IndexError outside [0, size).

    A float, str, bool or sequence is not an integer, so 2.5 never
    stands for word 2.
    """
    if not isinstance(i, (int, np.integer)) or isinstance(i, bool):
        raise TypeError(f"word id must be an integer, got {i!r}")
    if not 0 <= i < size:
        raise IndexError(f"word id {i} out of range for |A|={size}")
    return int(i)


def word_ids(ids, size: int) -> np.ndarray:
    """An id or a sequence of ids as an index array of 0 or 1 dimensions.

    Each id is checked as word_id checks it: a sequence where one id
    belongs raises TypeError too. An empty sequence gives an empty array.
    IndexError names the first id outside [0, size).
    """
    if isinstance(ids, np.ndarray):
        if ids.ndim > 1 or (ids.size and ids.dtype.kind not in "iu"):
            raise TypeError(f"word ids must be integers, got a {ids.ndim}-d {ids.dtype} array")
        a = ids.astype(np.intp, copy=False)
        bad = a[(a < 0) | (a >= size)]
        if len(bad):
            raise IndexError(f"word id {bad[0]} out of range for |A|={size}")
        return a
    if isinstance(ids, (str, bytes)) or not isinstance(ids, Iterable):
        return np.array(word_id(ids, size), dtype=np.intp)
    return np.array([word_id(i, size) for i in ids], dtype=np.intp)


def one_hot(lex: Lexicon, word_id: int) -> np.ndarray:
    """One-hot vector of dimension |A| with a single 1 at word_id."""
    v = np.zeros(len(lex))
    v[word_ids([word_id], len(lex))] = 1.0
    return v
