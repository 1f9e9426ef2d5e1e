"""Seeded synthetic inputs for the wordsim benchmark.

Every file is a pure function of (seed, sizes): the same arguments give
byte-identical output. Word lengths, noise operations, long words and
non-ASCII words follow fixed schedules that are shuffled by the seed, so
every seed asks for the same amount of work and only the letters differ.

Lexicon files are ``nonstandard<TAB>standard`` TSVs. Dictionary-only
words are written as ``w<TAB>w`` pairs, which the program turns into
standard words that carry no variant.
"""

import random
from dataclasses import dataclass, field

LETTERS = "abcdefghijklmnopqrstuvwxyz"
# Lower-case letters whose casefold() is themselves, so the program's
# normalisation leaves the words unchanged.
NON_ASCII = "éèüöäåøçñ"
QWERTY_ROWS = ("qwertyuiop", "asdfghjkl", "zxcvbnm")
NOISE_OPS = ("drop", "double", "transpose", "substitute")

SHORT_LENGTHS = range(3, 13)
LONG_LENGTHS = range(66, 74)  # beyond one 64-bit lane, even after a dropped letter
LONG_SHARE = 0.01
NON_ASCII_SHARE = 0.03
SENTENCE_LEN = 6


def _qwerty_neighbours():
    pos = {c: (r, i) for r, row in enumerate(QWERTY_ROWS) for i, c in enumerate(row)}
    return {
        c: "".join(
            d for d, (r2, i2) in pos.items()
            if d != c and abs(r2 - r) <= 1 and abs(i2 - i) <= 1
        )
        for c, (r, i) in pos.items()
    }


NEIGHBOURS = _qwerty_neighbours()


@dataclass
class Vocabulary:
    """Generated standard words and the noisy variants of some of them."""

    standard: list
    variants: dict = field(default_factory=dict)  # standard -> [variant, ...]

    def pairs(self, rng):
        """Shuffled (nonstandard, standard) pairs; (w, w) for dictionary words."""
        out = [(v, s) for s, vs in self.variants.items() for v in vs]
        out += [(w, w) for w in self.standard if w not in self.variants]
        rng.shuffle(out)
        return out


def _schedule(rng, items, n):
    """n items cycled from ``items`` and shuffled: a seed-independent histogram."""
    out = [items[i % len(items)] for i in range(n)]
    rng.shuffle(out)
    return out


def make_words(rng, n):
    """n distinct words: lengths 3-12 plus 1% of length 66-73, 3% non-ASCII."""
    n_long = max(1, round(n * LONG_SHARE))
    lengths = _schedule(rng, list(SHORT_LENGTHS), n - n_long)
    lengths += _schedule(rng, list(LONG_LENGTHS), n_long)
    n_accented = round(n * NON_ASCII_SHARE)
    accented = set(rng.sample(range(n - n_long), n_accented))
    words, seen = [], set()
    for i, length in enumerate(lengths):
        while True:
            chars = [rng.choice(LETTERS) for _ in range(length)]
            if i in accented:
                chars[rng.randrange(length)] = rng.choice(NON_ASCII)
            word = "".join(chars)
            if word not in seen:
                break
        seen.add(word)
        words.append(word)
    return words


def _apply_noise(rng, word, op):
    """One noise edit of ``word``, or None when ``op`` cannot change it."""
    if op == "drop":
        i = rng.randrange(len(word))
        return word[:i] + word[i + 1 :]
    if op == "double":
        i = rng.randrange(len(word))
        return word[: i + 1] + word[i:]
    if op == "transpose":
        spots = [i for i in range(len(word) - 1) if word[i] != word[i + 1]]
        if not spots:
            return None
        i = rng.choice(spots)
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    spots = [i for i, c in enumerate(word) if c in NEIGHBOURS]
    if not spots:
        return None
    i = rng.choice(spots)
    return word[:i] + rng.choice(NEIGHBOURS[word[i]]) + word[i + 1 :]


def _fresh_variant(rng, word, op, taken):
    """A noisy variant not in ``taken``; tries the next operation when one is stuck."""
    first = NOISE_OPS.index(op)
    for attempt in range(40):
        variant = _apply_noise(rng, word, NOISE_OPS[(first + attempt // 10) % len(NOISE_OPS)])
        if variant and len(variant) >= 2 and variant not in taken:
            return variant
    raise RuntimeError(f"no fresh variant for {word!r}")


def add_variants(rng, vocab, bases, per_word):
    """Give each word in ``bases`` ``per_word`` distinct noisy variants."""
    taken = set(vocab.standard)
    ops = _schedule(rng, list(NOISE_OPS), len(bases) * per_word)
    for base in bases:
        vocab.variants[base] = []
        for _ in range(per_word):
            variant = _fresh_variant(rng, base, ops.pop(), taken)
            taken.add(variant)
            vocab.variants[base].append(variant)


def make_vocabulary(rng, n_standard, n_with_variants, per_word, long_varied=0):
    """Standard words of which ``n_with_variants`` get noisy variants.

    The varied words cycle through the lengths 3-12, so their length
    histogram is the same for every seed. ``long_varied`` of them are the
    shortest long words (more than 64 characters), so a long word is sure
    to be a query and its length does not depend on the seed.
    """
    words = make_words(rng, n_standard)
    if n_with_variants >= n_standard:
        chosen = list(range(n_standard))
    else:
        by_length = {}
        for i in rng.sample(range(n_standard), n_standard):
            by_length.setdefault(len(words[i]), []).append(i)
        long_lengths = sorted(n for n in by_length if n > 64)
        chosen = [by_length[n].pop() for n in long_lengths[:long_varied]]
        for j in range(n_with_variants - len(chosen)):
            chosen.append(by_length[SHORT_LENGTHS[j % len(SHORT_LENGTHS)]].pop())
    vocab = Vocabulary(standard=words)
    add_variants(rng, vocab, [words[i] for i in chosen], per_word)
    return vocab


def make_sentences(rng, vocab):
    """One template per standard word, repeated with each of its variants.

    A variant therefore occurs in exactly the contexts of its standard word.
    """
    sentences = []
    for word in vocab.standard:
        template = [rng.choice(vocab.standard) for _ in range(SENTENCE_LEN)]
        slot = rng.randrange(SENTENCE_LEN)
        for form in [word] + vocab.variants.get(word, []):
            sentence = list(template)
            sentence[slot] = form
            sentences.append(" ".join(sentence))
    rng.shuffle(sentences)
    return sentences


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_pairs(path, pairs):
    write_lines(path, [f"{n}\t{s}" for n, s in pairs])


def lexicon_order(pairs):
    """Word ids as the program assigns them: first appearance, variant first."""
    order = {}
    for non, std in pairs:
        for w in (non, std):
            order.setdefault(w, len(order))
    return order


def rng_for(seed, part):
    """Independent stream per input part, so sizes of one part never shift another."""
    return random.Random(f"wordsim-bench:{part}:{seed}")
