"""Candidate strings laid out for batched scoring.

A CandidateTable holds one candidate set in the shapes the batched
kernels of ``editfam`` and ``gramfam`` read: the candidates sorted by
length (longest first, so the candidates longer than any bound form a
prefix) with all their characters in one flat array of alphabet indices
and, built on first use from that array, the candidates as bit-parallel
patterns, as the cells of one flat DP row, and an inverted index of
integer gram counts per gram length. A Query(table, text) is one query
string prepared against one table: what the kernels derive from the
query alone is built once, on first use, and shared by every kernel
given that Query. A kernel returns its row in the table's length-sorted
order; ``evalharness`` restores the caller's order (``unsort``). Every
derived part is a cached property, or, where it takes a key, a part of
``memo``.
"""

from functools import cached_property

import numpy as np

__all__ = [
    "CandidateTable", "CellLayout", "GramIndex", "PatternIndex", "Query",
    "LANE_BITS", "MISSING", "HEAD", "memo",
]

#: Symbol of a query character that no candidate contains.
MISSING = -2
#: Symbol of the head padding before a string's first character; it
#: equals only itself, as the reserved boundary character does.
HEAD = -3

#: Width of one word of the bit-parallel patterns: a candidate of n
#: characters takes ceil(n / LANE_BITS) uint64 words.
LANE_BITS = 64


def memo(owner, key, build):
    """owner's part named key, made by build() on first use and kept in owner._parts.

    A kept array, alone or in a tuple, is made read-only.
    """
    part = owner._parts.get(key)
    if part is None:
        part = owner._parts[key] = build()
        for a in part if isinstance(part, tuple) else (part,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
    return part


def _code_points(text: str) -> np.ndarray:
    """The code point of each character of text, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


class PatternIndex:
    """A table's candidates as the patterns of the bit-parallel kernels.

    Bit i of word w of a candidate stands for its character
    ``LANE_BITS * w + i``; a candidate of n characters owns ceil(n /
    LANE_BITS) words. The words lie in one flat vector of ``size``
    uint64, a block per word position: block w runs from ``starts[w]``
    over the ``reach[w]`` (length-sorted) candidates longer than
    ``LANE_BITS * w``, in sorted order, so each block's candidates are a
    prefix of the block before. ``length_bits`` has the bits of each
    candidate's own characters set. For alphabet symbol s,
    ``slots[indptr[s]:indptr[s + 1]]`` are the flat words holding s and
    ``bits[...]`` the positions of s in them, so the index takes memory
    in proportion to the table's total characters.
    """

    def __init__(self, table):
        self.candidates = len(table)
        bounds = np.arange(0, table.lengths[0] if len(table) else 0, LANE_BITS)
        self.reach = np.count_nonzero(table.lengths > bounds[:, None], axis=1).tolist() or [0]
        self.starts = [sum(self.reach[:w]) for w in range(len(self.reach))]
        # (word w - 1, word w) of every candidate that reaches word w >= 1
        self.carries = [
            (slice(below, below + n), slice(start, start + n))
            for below, start, n in zip(self.starts, self.starts[1:], self.reach[1:])
        ]
        self.size = sum(self.reach)
        word, offset = np.divmod(table.positions, LANE_BITS)
        flat = np.array(self.starts, dtype=np.int64)[word] + table.lanes
        # one entry per (symbol, flat word), its bits OR-ed together
        key = table.chars.astype(np.int64) * self.size + flat
        order = np.argsort(key)
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        bit = np.left_shift(np.uint64(1), offset[order].astype(np.uint64))
        self.bits = np.bitwise_or.reduceat(bit, first)
        symbol, self.slots = np.divmod(key[first], max(self.size, 1))
        self.indptr = np.searchsorted(symbol, np.arange(len(table.alphabet) + 1)).tolist()
        # per flat word, how many of its candidate's characters it holds (1..LANE_BITS)
        held = np.concatenate([table.lengths[:n] - LANE_BITS * w for w, n in enumerate(self.reach)])
        spare = (LANE_BITS - np.minimum(held, LANE_BITS)).astype(np.uint64)
        self.length_bits = ~np.uint64(0) >> spare

    def masks(self, symbols):
        """(masks, rows): the match masks of a query's distinct symbols.

        ``symbols`` are the query's alphabet indices (see
        CandidateTable.symbols). ``masks[rows[i]]`` is the flat vector
        with the bits set where each candidate holds query character i;
        all zero for a character no candidate holds.
        """
        distinct = {}
        rows = tuple(distinct.setdefault(s, len(distinct)) for s in symbols.tolist())
        masks = np.zeros((len(distinct), self.size), dtype=np.uint64)
        for s, row in distinct.items():
            if s >= 0:
                lo, hi = self.indptr[s], self.indptr[s + 1]
                masks[row, self.slots[lo:hi]] = self.bits[lo:hi]
        return masks, rows

    def count(self, v):
        """Per sorted candidate, the set bits of the flat vector v among its characters."""
        ones = np.bitwise_count(v & self.length_bits)
        out = np.zeros(self.candidates, dtype=np.int64)
        for start, n in zip(self.starts, self.reach):
            out[:n] += ones[start : start + n]
        return out


class CellLayout:
    """A table's candidates as the cells of one flat DP row.

    The (length-sorted) candidates lie one after another: candidate c
    owns the ``lengths[c] + 1`` cells ``starts[c]`` to ``ends[c]``, cell j
    standing for its prefix of j characters, so the row holds the
    table's total characters plus one cell per candidate. ``gram_symbols(n)``
    gives, per cell j >= 1, the n symbols of the head-padded gram
    ending at character j, built on first use for each n.
    """

    def __init__(self, table):
        self.lengths = table.lengths
        self.ends = np.cumsum(self.lengths + 1) - 1
        self.starts = self.ends - self.lengths
        self.size = len(table.chars) + len(table)
        # cell j >= 1 holds the symbol of character j - 1; cell 0 the head padding
        self.symbols = np.full(self.size, HEAD, dtype=np.int32)
        self.symbols[np.arange(1, len(table.chars) + 1) + table.lanes] = table.chars
        self._parts = {}

    def gram_symbols(self, n) -> np.ndarray:
        """(n, size) int32: row t is symbol t of each cell's head-padded n-gram."""
        return memo(self, n, lambda: self._gram_symbols(n))

    def _gram_symbols(self, n):
        grams = np.full((n, self.size), HEAD, dtype=np.int32)
        # position j of every cell within its candidate
        offset = np.arange(self.size) - np.repeat(self.starts, self.lengths + 1)
        for t in range(n):
            back = n - 1 - t  # characters before the cell's own
            cells = np.nonzero(offset > back)[0]
            grams[t, cells] = self.symbols[cells - back]
        return grams


class GramIndex:
    """Inverted index of the n-gram multisets of a table's candidates.

    A gram is named by an integer key built one character at a time:
    ``key(g[:t + 1]) = rank(key(g[:t])) * |alphabet| + symbol(g[t])``,
    where the rank is taken among the candidates' distinct keys of that
    prefix length (``prefixes[t]``), so keys stay small for any n. For the
    gram of sorted key position g, ``lane[indptr[g]:indptr[g + 1]]`` are
    the (length-sorted) candidates holding it and ``count[...]`` how
    often. ``total``, ``distinct`` and ``sumsq`` are, per sorted
    candidate, its gram count with multiplicity, its number of distinct
    grams and the sum of its squared gram counts.
    """

    def __init__(self, table, n):
        self.n = n
        self.alphabet_size = len(table.alphabet)
        size = len(table)
        # the flat position of every character that starts a gram of its candidate
        starts = np.flatnonzero(table.positions + n <= table.lengths[table.lanes])
        lanes = table.lanes[starts]
        key = table.chars[starts].astype(np.int64)
        self.prefixes = []
        for t in range(1, n):
            distinct, rank = np.unique(key, return_inverse=True)
            self.prefixes.append(distinct)
            key = rank * self.alphabet_size + table.chars[starts + t]
        pairs, self.count = np.unique(key * size + lanes, return_counts=True)
        gram, self.lane = np.divmod(pairs, size)
        self.keys, first = np.unique(gram, return_index=True)
        self.indptr = np.append(first, len(gram))
        self.total = np.maximum(table.lengths - n + 1, 0)
        self.distinct = np.bincount(self.lane, minlength=size)
        self.sumsq = np.bincount(
            self.lane, weights=self.count * self.count, minlength=size
        ).astype(np.int64)

    @staticmethod
    def _find(sorted_keys, key):
        """Position of each key in sorted_keys; -1 where absent or negative."""
        if not len(sorted_keys):
            return np.full(len(key), -1)
        pos = np.minimum(np.searchsorted(sorted_keys, key), len(sorted_keys) - 1)
        return np.where((key >= 0) & (sorted_keys[pos] == key), pos, -1)

    def overlap(self, symbols) -> tuple:
        """Per sorted candidate, three int64 sums over the grams it shares with a query.

        ``symbols`` are the query's alphabet indices (see
        CandidateTable.symbols). With c a candidate's count of a gram and
        cq the query's, the rows are the sums of min(c, cq), of 1 (the
        shared grams) and of c * cq, made in one pass over the query's grams.
        """
        size = len(self.total)
        if len(symbols) < self.n:
            return tuple(np.zeros((3, size), dtype=np.int64))
        grams = np.lib.stride_tricks.sliding_window_view(symbols.astype(np.int64), self.n)
        key = grams[:, 0]
        for t, distinct in enumerate(self.prefixes, start=1):
            rank = self._find(distinct, key)
            key = np.where(
                (rank >= 0) & (grams[:, t] >= 0), rank * self.alphabet_size + grams[:, t], -1
            )
        found = self._find(self.keys, key)
        positions, cq = np.unique(found[found >= 0], return_counts=True)
        # the (candidate, count) entries of every gram found, one gram after another
        lo, held = self.indptr[positions], np.diff(self.indptr)[positions]
        at = np.arange(held.sum()) + np.repeat(lo - np.cumsum(held) + held, held)
        lanes, c, cq = self.lane[at], self.count[at], np.repeat(cq, held)
        return tuple(
            np.bincount(lanes, weights=w, minlength=size).astype(np.int64)
            for w in (np.minimum(c, cq), None, c * cq)
        )


class Query:
    """One query string prepared for scoring against one CandidateTable.

    Each part the kernels derive from the query alone is built on first
    use and kept for the life of the Query (see ``memo``): its alphabet
    symbols, the match masks of its characters, its gram overlap with the
    candidates per gram length, and any pass whose result more than one
    kernel reads. Kept arrays are read-only.
    """

    def __init__(self, table, text: str):
        self.table = table
        self.text = text
        self._parts = {}

    @property
    def symbols(self) -> np.ndarray:
        """The alphabet index of each query character (see CandidateTable.symbols)."""
        return memo(self, "symbols", lambda: self.table.symbols(self.text))

    def masks(self):
        """(masks, rows): the match masks of the query's characters (see PatternIndex.masks)."""
        return memo(self, "masks", lambda: self.table.patterns.masks(self.symbols))

    def overlap(self, n) -> tuple:
        """The query's gram overlap with each candidate at gram length n (see GramIndex.overlap)."""
        return memo(self, ("overlap", n), lambda: self.table.grams(n).overlap(self.symbols))


class CandidateTable:
    """One candidate set, prepared once and scored against many queries.

    ``words`` keeps the caller's order. ``order`` sorts the candidates by
    length, longest first (ties keep caller order); ``lengths`` is in that
    sorted order. ``alphabet`` holds the sorted code points of all
    candidates. ``chars`` holds every character of the sorted candidates,
    one candidate after another, as an index into ``alphabet``; ``lanes``
    and ``positions`` give, per character, its sorted candidate and its
    position within that candidate. Built on first use from these flat
    arrays, ``patterns`` holds the candidates as the bit-parallel
    patterns of the edit and LCS kernels and ``cells`` as the flat DP
    row of the Kondrak kernel; both kernels step once per query character
    over all candidates. ``grams(n)`` holds the gram counts. Every layout
    takes memory in proportion to the table's total characters; the cells
    take 4 bytes a cell, plus 4n bytes a cell for each gram length n asked
    for.
    """

    def __init__(self, words):
        self.words = tuple(words)
        lengths = np.fromiter(map(len, self.words), dtype=np.int64, count=len(self.words))
        self.order = np.argsort(-lengths, kind="stable")
        self.lengths = lengths[self.order]
        codes = _code_points("".join([self.words[i] for i in self.order.tolist()]))
        alphabet, chars = np.unique(codes, return_inverse=True)
        self.alphabet = alphabet.astype(np.int64)
        self.chars = chars.astype(np.int32)
        self.lanes = np.repeat(np.arange(len(self.words)), self.lengths)
        self.positions = np.arange(len(codes)) - np.repeat(
            np.cumsum(self.lengths) - self.lengths, self.lengths
        )
        self._parts = {}

    def __len__(self):
        return len(self.words)

    def symbols(self, query: str) -> np.ndarray:
        """The alphabet index of each query character, MISSING where no candidate has it."""
        codes = _code_points(query)
        pos = np.searchsorted(self.alphabet, codes)
        found = pos < len(self.alphabet)
        found[found] = self.alphabet[pos[found]] == codes[found]
        return np.where(found, pos, MISSING).astype(np.int32)

    @cached_property
    def patterns(self) -> PatternIndex:
        """The candidates as bit-parallel patterns, built on first use."""
        return PatternIndex(self)

    @cached_property
    def cells(self) -> CellLayout:
        """The candidates as the cells of one flat DP row, built on first use."""
        return CellLayout(self)

    def grams(self, n) -> GramIndex:
        """The n-gram index over the candidates, built on first use."""
        return memo(self, n, lambda: GramIndex(self, n))

    def unsort(self, values) -> np.ndarray:
        """Values given in length-sorted order, put back in caller order."""
        out = np.empty_like(values)
        out[self.order] = values
        return out
