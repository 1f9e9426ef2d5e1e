"""Edit-distance family of string metrics.

All functions treat strings as sequences of Unicode scalar values and are
pure; empty strings are legal inputs unless stated otherwise.

The scalar functions are the reference. Each ``*_many`` kernel scores one
query against every candidate of a CandidateTable and returns exactly
what the scalar function returns for each pair, as float64 in the
table's caller order. The edit and LCS kernels are bit-parallel with the
query as the pattern: each candidate holds ceil(|x| / LANE_BITS) uint64
words, and additions and shifts carry from one word into the next, so a
query of any length takes the same path.
"""

import math

import numpy as np

__all__ = [
    "INFINITE",
    "levenshtein",
    "normalized_levenshtein",
    "damerau_levenshtein",
    "hamming",
    "lcs_length",
    "lcs_distance",
    "metric_lcs",
    "episode_distance",
    "LANE_BITS",
    "levenshtein_many",
    "normalized_levenshtein_many",
    "damerau_levenshtein_many",
    "lcs_distance_many",
    "metric_lcs_many",
]

#: Marker for an unreachable episode-distance target.
INFINITE = math.inf

#: Width of one word of the bit-parallel kernels: a query of m characters
#: takes ceil(m / LANE_BITS) uint64 words per candidate.
LANE_BITS = 64
_TOP_BIT = np.uint64(LANE_BITS - 1)


def levenshtein(x: str, y: str) -> float:
    """Fewest unit-cost inserts, deletes and substitutions turning x into y."""
    prev = [float(j) for j in range(len(y) + 1)]
    for i in range(1, len(x) + 1):
        cur = [prev[0] + 1.0] + [0.0] * len(y)
        for j in range(1, len(y) + 1):
            cur[j] = min(
                prev[j] + 1.0,
                cur[j - 1] + 1.0,
                prev[j - 1] + (0.0 if x[i - 1] == y[j - 1] else 1.0),
            )
        prev = cur
    return prev[len(y)]


def _match_masks(x: str, table) -> np.ndarray:
    """The positions of each character in x, as words of LANE_BITS bits.

    Bit i of masks[c, w] is set where x[LANE_BITS * w + i] is alphabet
    character c of the table. Shape (alphabet + 1, ceil(|x| / LANE_BITS));
    the last row, which PAD indexes, stays 0.
    """
    masks = np.zeros((len(table.alphabet) + 1, -(-len(x) // LANE_BITS)), dtype=np.uint64)
    for i, symbol in enumerate(table.symbols(x)):
        if symbol >= 0:
            masks[symbol, i // LANE_BITS] |= np.uint64(1 << (i % LANE_BITS))
    return masks


def _pattern_bits(m: int) -> np.ndarray:
    """Per word, the bits that hold pattern positions 0..m-1."""
    words = -(-m // LANE_BITS)
    bits = np.full(words, ~np.uint64(0))
    bits[-1] >>= np.uint64(words * LANE_BITS - m)
    return bits


def _add_carries(total, low, high):
    """Carry the word-wise sum total = low + high from each word into the next, in place.

    Axis 1 holds the words, lowest first; low's bits are a subset of high's.
    """
    for w in range(1, total.shape[1]):
        total[:, w] += (low[:, w - 1] | (high[:, w - 1] & ~total[:, w - 1])) >> _TOP_BIT


def _shift_up(v, first):
    """v << 1 across the words on axis 1, with the bit first shifted into word 0."""
    out = v << 1
    if first:
        out[:, 0] |= first
    if v.shape[1] > 1:
        out[:, 1:] |= v[:, :-1] >> _TOP_BIT
    return out


def _edit_distances(x: str, table, transpositions: bool) -> np.ndarray:
    """Unit-cost (or OSA) distance from x to each sorted candidate.

    Hyyroe's formulation of Myers' algorithm (J. ACM 1999) for the global
    distance, with Hyyroe's (2003) transposition term for OSA, over
    ceil(|x| / LANE_BITS) words per candidate (Hyyroe 2003's blocks).
    """
    if not x:
        return table.lengths.astype(np.float64)
    size = len(table)
    masks = _match_masks(x, table)
    words = masks.shape[1]
    vp = np.full((size, words), ~np.uint64(0))
    vn = np.zeros((size, words), dtype=np.uint64)
    d0 = np.zeros((size, words), dtype=np.uint64)
    pm_prev = np.zeros((size, words), dtype=np.uint64)
    for j, a in enumerate(table.active):
        pm, v_p, v_n = masks.take(table.symbols_t[j, :a], axis=0), vp[:a], vn[:a]
        low = pm & v_p
        total = low + v_p
        if words > 1:
            _add_carries(total, low, v_p)
        diag = (total ^ v_p) | pm | v_n
        if transpositions:
            diag |= _shift_up(~d0[:a] & pm, 0) & pm_prev[:a]
            d0[:a] = diag
            pm_prev[:a] = pm
        hp = _shift_up(v_n | ~(diag | v_p), 1)
        hn = _shift_up(diag & v_p, 0)
        vp[:a] = hn | ~(diag | hp)
        vn[:a] = hp & diag
    # each candidate's state stopped at its own last column |y|: its distance
    # is D[0][|y|] = |y| plus the vertical steps +1 (vp) and -1 (vn) down it
    pattern = _pattern_bits(len(x))
    ups = np.bitwise_count(vp & pattern).sum(axis=1, dtype=np.int64)
    downs = np.bitwise_count(vn & pattern).sum(axis=1, dtype=np.int64)
    return (table.lengths + ups - downs).astype(np.float64)


def levenshtein_many(x: str, table) -> np.ndarray:
    """Unit-cost levenshtein(x, y) for every candidate y."""
    return table.unsort(_edit_distances(x, table, transpositions=False))


def normalized_levenshtein(x: str, y: str) -> float:
    """Unit-cost edit distance divided by max length; 0 when both empty."""
    if not x and not y:
        return 0.0
    return levenshtein(x, y) / max(len(x), len(y))


def normalized_levenshtein_many(x: str, table) -> np.ndarray:
    """normalized_levenshtein(x, y) for every candidate y."""
    dist = _edit_distances(x, table, transpositions=False)
    # both empty: the distance is 0, and 0 / 1 gives the scalar 0.0
    return table.unsort(dist / np.maximum(table.lengths, max(len(x), 1)))


def damerau_levenshtein(x: str, y: str) -> int:
    """Restricted (optimal string alignment) Damerau-Levenshtein distance.

    Unit-cost insert/delete/substitute plus adjacent transposition; no
    substring is edited more than once.
    """
    m, n = len(x), len(y)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if x[i - 1] == y[j - 1] else 1
            best = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
            if (
                i > 1
                and j > 1
                and x[i - 1] == y[j - 2]
                and x[i - 2] == y[j - 1]
            ):
                best = min(best, d[i - 2][j - 2] + 1)
            d[i][j] = best
    return d[m][n]


def damerau_levenshtein_many(x: str, table) -> np.ndarray:
    """damerau_levenshtein(x, y) for every candidate y, as float64."""
    return table.unsort(_edit_distances(x, table, transpositions=True))


def hamming(x: str, y: str) -> int:
    """Number of positions at which equal-length strings differ."""
    if len(x) != len(y):
        raise ValueError(
            f"hamming distance requires equal lengths, got {len(x)} and {len(y)}"
        )
    return sum(a != b for a, b in zip(x, y))


def lcs_length(x: str, y: str) -> int:
    """Length of the longest common subsequence."""
    prev = [0] * (len(y) + 1)
    for i in range(1, len(x) + 1):
        cur = [0] * (len(y) + 1)
        for j in range(1, len(y) + 1):
            if x[i - 1] == y[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[len(y)]


def lcs_distance(x: str, y: str) -> int:
    """Insert/delete-only edit distance: |x| + |y| - 2*LCS."""
    return len(x) + len(y) - 2 * lcs_length(x, y)


def _lcs_lengths(x: str, table) -> np.ndarray:
    """LCS length of x with each sorted candidate.

    Bit-parallel LCS (Allison and Dix 1986; Hyyroe 2004) over
    ceil(|x| / LANE_BITS) words per candidate: the zero bits of the state
    vector count the matched pattern positions. Only the addition carries
    from word to word; s - u borrows nowhere, as u's bits are a subset of s's.
    """
    if not x:
        return np.zeros(len(table), dtype=np.int64)
    masks = _match_masks(x, table)
    words = masks.shape[1]
    state = np.full((len(table), words), ~np.uint64(0))
    for j, a in enumerate(table.active):
        s = state[:a]
        u = s & masks.take(table.symbols_t[j, :a], axis=0)
        total = s + u
        if words > 1:
            _add_carries(total, u, s)
        state[:a] = total | (s - u)
    return np.bitwise_count(~state & _pattern_bits(len(x))).sum(axis=1, dtype=np.int64)


def lcs_distance_many(x: str, table) -> np.ndarray:
    """lcs_distance(x, y) for every candidate y, as float64."""
    dist = len(x) + table.lengths - 2 * _lcs_lengths(x, table)
    return table.unsort(dist.astype(np.float64))


def metric_lcs(x: str, y: str) -> float:
    """1 - LCS/max-length; a normalized metric in [0, 1]."""
    if not x and not y:
        return 0.0
    return 1.0 - lcs_length(x, y) / max(len(x), len(y))


def metric_lcs_many(x: str, table) -> np.ndarray:
    """metric_lcs(x, y) for every candidate y."""
    longest = np.maximum(table.lengths, len(x))
    share = _lcs_lengths(x, table) / np.maximum(longest, 1)
    return table.unsort(np.where(longest == 0, 0.0, 1.0 - share))


def episode_distance(x: str, y: str) -> float:
    """Insertion-only distance: |y| - |x| if x is a subsequence of y, else INFINITE.

    Not symmetric by construction.
    """
    it = iter(y)
    if all(c in it for c in x):
        return float(len(y) - len(x))
    return INFINITE
