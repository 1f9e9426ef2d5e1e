"""Candidate strings laid out for batched scoring.

A CandidateTable holds one candidate set in the shapes the batched
kernels of ``editfam`` and ``gramfam`` read: the characters as a matrix
of alphabet indices sorted by length (longest first, so the candidates
still active at any column form a prefix) and, built on first use, an
inverted index of integer gram counts per gram length. Kernels return
one value per candidate in the caller's order.
"""

import numpy as np

__all__ = ["CandidateTable", "GramIndex", "PAD", "MISSING"]

#: Symbol beyond a candidate's length.
PAD = -1
#: Symbol of a query character that no candidate contains.
MISSING = -2


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
        width, size = table.symbols_t.shape
        # every gram start p of every candidate long enough: a prefix of the lanes
        reach = [int(table.active[p + n - 1]) for p in range(width - n + 1)]
        starts = np.repeat(np.arange(len(reach)), reach)
        lanes = np.concatenate([np.arange(a) for a in reach]) if reach else starts
        key = table.symbols_t[starts, lanes].astype(np.int64)
        self.prefixes = []
        for t in range(1, n):
            distinct, rank = np.unique(key, return_inverse=True)
            self.prefixes.append(distinct)
            key = rank * self.alphabet_size + table.symbols_t[starts + t, lanes]
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

    def postings(self, symbols):
        """(lanes, candidate counts, query count) for each distinct query gram a candidate holds.

        ``symbols`` are the query's alphabet indices (see CandidateTable.symbols).
        """
        if len(symbols) < self.n:
            return
        grams = np.lib.stride_tricks.sliding_window_view(symbols.astype(np.int64), self.n)
        key = grams[:, 0]
        for t, distinct in enumerate(self.prefixes, start=1):
            rank = self._find(distinct, key)
            key = np.where(
                (rank >= 0) & (grams[:, t] >= 0), rank * self.alphabet_size + grams[:, t], -1
            )
        found = self._find(self.keys, key)
        positions, counts = np.unique(found[found >= 0], return_counts=True)
        for g, cq in zip(positions.tolist(), counts.tolist()):
            lo, hi = self.indptr[g], self.indptr[g + 1]
            yield self.lane[lo:hi], self.count[lo:hi], cq


class CandidateTable:
    """One candidate set, prepared once and scored against many queries.

    ``words`` keeps the caller's order. ``order`` sorts the candidates by
    length, longest first (ties keep caller order); ``lengths`` and
    ``symbols_t`` are in that sorted order. ``symbols_t[j, c]`` is
    character j of sorted candidate c as an index into ``alphabet``, the
    sorted code points of all candidates, or PAD beyond its length.
    ``active[j]`` is the number of sorted candidates longer than j.
    """

    def __init__(self, words):
        self.words = tuple(words)
        order = sorted(range(len(self.words)), key=lambda i: -len(self.words[i]))
        ranked = [self.words[i] for i in order]
        self.order = np.array(order, dtype=np.int64)
        self.lengths = np.array([len(w) for w in ranked], dtype=np.int64)
        chars = sorted(set().union(*ranked))
        self.alphabet = np.array([ord(c) for c in chars], dtype=np.int64)
        index = {c: k for k, c in enumerate(chars)}
        width = len(ranked[0]) if ranked else 0
        self.active = np.count_nonzero(self.lengths[None, :] > np.arange(width)[:, None], axis=1)
        self.symbols_t = np.full((width, len(ranked)), PAD, dtype=np.int32)
        for j, a in enumerate(self.active):
            self.symbols_t[j, :a] = [index[w[j]] for w in ranked[:a]]
        self._grams = {}

    def __len__(self):
        return len(self.words)

    def symbols(self, query: str) -> np.ndarray:
        """The alphabet index of each query character, MISSING where no candidate has it."""
        codes = np.array([ord(c) for c in query], dtype=np.int64)
        pos = np.searchsorted(self.alphabet, codes)
        found = pos < len(self.alphabet)
        found[found] = self.alphabet[pos[found]] == codes[found]
        return np.where(found, pos, MISSING).astype(np.int32)

    def grams(self, n) -> GramIndex:
        """The n-gram index over the candidates, built on first use."""
        index = self._grams.get(n)
        if index is None:
            index = self._grams[n] = GramIndex(self, n)
        return index

    def unsort(self, values) -> np.ndarray:
        """Values given in length-sorted order, put back in caller order."""
        out = np.empty_like(values)
        out[self.order] = values
        return out
