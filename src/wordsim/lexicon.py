"""Vocabulary, normalization pairs, and the sentence corpus.

The lexicon is built from a TSV of `nonstandard<TAB>standard` pairs; the
corpus is one whitespace-tokenized sentence per line. Both are immutable
after load.
"""

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import AmbiguityError, BindingError, ParseError, UnknownWordError, WordsimError

__all__ = ["Lexicon", "Corpus", "load_lexicon", "load_corpus", "one_hot", "word_ids"]


@dataclass(frozen=True)
class Lexicon:
    """Ordered vocabulary with standard-word flags and variant mapping.

    ``standard_of`` maps each non-standard word id to the id of its unique
    standard form; standard words never appear as keys.
    """

    words: tuple
    standard_flags: tuple
    standard_of: dict
    _index: dict = field(default=None, repr=False, compare=False)
    _standard_ids: tuple = field(default=None, init=False, repr=False, compare=False)
    _nonstandard_ids: tuple = field(default=None, init=False, repr=False, compare=False)
    _fingerprint: str = field(default=None, init=False, repr=False, compare=False)
    # scoring tables derived from the words, keyed by candidate ids (see evalharness)
    _tables: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {w: i for i, w in enumerate(self.words)}
        )
        object.__setattr__(self, "_tables", {})

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

    @property
    def standard_ids(self) -> tuple:
        """Ids of all standard words (the set C), in lexicon order."""
        if self._standard_ids is None:
            ids = tuple(i for i, f in enumerate(self.standard_flags) if f)
            object.__setattr__(self, "_standard_ids", ids)
        return self._standard_ids

    @property
    def nonstandard_ids(self) -> tuple:
        if self._nonstandard_ids is None:
            ids = tuple(i for i, f in enumerate(self.standard_flags) if not f)
            object.__setattr__(self, "_nonstandard_ids", ids)
        return self._nonstandard_ids

    def fingerprint(self) -> str:
        """Content hash binding trained models to this exact lexicon."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            for i, w in enumerate(self.words):
                std = self.standard_of.get(i, -1)
                h.update(f"{w}\t{int(self.standard_flags[i])}\t{std}\n".encode())
            object.__setattr__(self, "_fingerprint", h.hexdigest())
        return self._fingerprint

    def check_binding(self, model):
        """Raise BindingError unless model's lexicon_fingerprint is this lexicon's."""
        if model.lexicon_fingerprint != self.fingerprint():
            raise BindingError("model was not trained against this lexicon")


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
    mapping = {}
    standard = []
    seen_standard = set()
    order = []
    seen = set()
    for non, std in pairs:
        non, std = _normalize(non), _normalize(std)
        if non in mapping and mapping[non] != std:
            raise AmbiguityError(
                f"{non!r} mapped to both {mapping[non]!r} and {std!r}"
            )
        mapping[non] = std
        for w in (non, std):
            if w not in seen:
                seen.add(w)
                order.append(w)
        seen_standard.add(std)
    if not seen_standard:
        raise WordsimError("lexicon has no standard words")
    # A standard word listed as someone's variant would make the mapping
    # non-functional; treat membership in C as authoritative.
    for non in list(mapping):
        if non in seen_standard:
            del mapping[non]
    words = tuple(order)
    index = {w: i for i, w in enumerate(words)}
    flags = tuple(w in seen_standard for w in words)
    standard_of = {index[n]: index[s] for n, s in mapping.items()}
    return Lexicon(words=words, standard_flags=flags, standard_of=standard_of)


def load_lexicon(pairs_path) -> Lexicon:
    """Load a lexicon from a UTF-8 TSV of `nonstandard<TAB>standard` lines.

    Lines starting with `#` are skipped. Raises ParseError on malformed
    lines and AmbiguityError when a word maps to two standard forms.
    """
    pairs = []
    with open(pairs_path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "\t" not in line:
                raise ParseError("missing tab separator", line_no)
            non, _, std = line.partition("\t")
            if not non.strip() or not std.strip():
                raise ParseError("empty field", line_no)
            pairs.append((non, std))
    if not pairs:
        raise ParseError(f"no pairs found in {pairs_path}")
    return build_lexicon(pairs)


def load_corpus(corpus_path, lex: Lexicon, oov_policy: str = "skip-token") -> Corpus:
    """Load a corpus of whitespace-tokenized sentences, one per line.

    Out-of-vocabulary tokens are dropped (`skip-token`, default) or cause
    the whole sentence to be dropped (`skip-sentence`). Empty sentences
    are filtered out either way.
    """
    if oov_policy not in ("skip-token", "skip-sentence"):
        raise ValueError(f"unknown OOV policy: {oov_policy!r}")
    sentences = []
    oov = 0
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            tokens = [_normalize(t) for t in line.split()]
            if not tokens:
                continue
            ids = []
            skip = False
            for t in tokens:
                if t in lex:
                    ids.append(lex.id_of(t))
                else:
                    oov += 1
                    if oov_policy == "skip-sentence":
                        skip = True
                        break
            if ids and not skip:
                sentences.append(tuple(ids))
    if not sentences:
        raise WordsimError(f"no usable sentences in {corpus_path}")
    return Corpus(sentences=tuple(sentences), oov_count=oov)


def word_ids(ids, size: int) -> np.ndarray:
    """ids as an index array; IndexError names the first one outside [0, size)."""
    ids = np.asarray(ids, dtype=np.intp)
    bad = ids[(ids < 0) | (ids >= size)]
    if len(bad):
        raise IndexError(f"word id {bad[0]} out of range for |A|={size}")
    return ids


def one_hot(lex: Lexicon, word_id: int) -> np.ndarray:
    """One-hot vector of dimension |A| with a single 1 at word_id."""
    v = np.zeros(len(lex))
    v[word_ids(word_id, len(lex))] = 1.0
    return v
