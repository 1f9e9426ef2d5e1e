"""Edit-distance family of string metrics.

All functions treat strings as sequences of Unicode scalar values and are
pure; empty strings are legal inputs unless stated otherwise.

The scalar functions are the reference. Each ``*_many`` kernel scores
the text of a ``candidates.Query`` against every candidate of its table
and returns exactly what the scalar function returns for each pair, as
a new float64 row in the table's length-sorted order (``evalharness``
restores caller order). The edit and LCS kernels are bit-parallel with
every candidate as its own pattern (``CandidateTable.patterns``): a
candidate y holds ceil(|y| / LANE_BITS) uint64 words, additions and
shifts carry from one word into the next, and the kernel takes one step
per query character over all candidates at once, so a query of m
characters costs m steps whatever the longest candidate.

Given one Query, the kernels share its match masks and one pass each of
Myers (Levenshtein and its normalised form), OSA and LCS (LCS distance
and metric-LCS), kept read-only on the Query.
"""

import math

import numpy as np

from .candidates import LANE_BITS, memo

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

_ONE = np.uint64(1)
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


def _add_carries(total, low, high, patterns):
    """Carry the word-wise sum total = low + high from each word into the next, in place.

    The flat vectors are laid out as ``patterns`` (a PatternIndex) says;
    low's bits are a subset of high's.
    """
    for below, word in patterns.carries:
        total[word] += (low[below] | (high[below] & ~total[below])) >> _TOP_BIT


def _shift_up(v, first, patterns):
    """v << 1 across each candidate's words, with the bit first shifted into its word 0."""
    out = v << _ONE
    if first:
        out[: patterns.reach[0]] |= first
    for below, word in patterns.carries:
        out[word] |= v[below] >> _TOP_BIT
    return out


def _edit_distances(query, transpositions: bool) -> np.ndarray:
    """Unit-cost (or OSA) distance from a Query to each sorted candidate, one pass per Query."""
    return memo(query, ("edit", transpositions), lambda: _myers(query, transpositions))


def _myers(query, transpositions):
    """Unit-cost (or OSA) distance from the query x to each sorted candidate.

    Hyyroe's formulation of Myers' algorithm (J. ACM 1999) for the global
    distance, with Hyyroe's (2003) transposition term for OSA, with each
    candidate as the pattern over its own words (Hyyroe 2003's blocks) and
    one step per character of x. Both distances are symmetric, so this is
    the distance from x as well as to it.
    """
    x, table = query.text, query.table
    if not x:
        return table.lengths.astype(np.float64)
    patterns = table.patterns
    masks, rows = query.masks()
    vp = np.full(patterns.size, ~np.uint64(0))
    vn = np.zeros(patterns.size, dtype=np.uint64)
    d0 = pm_prev = np.zeros(patterns.size, dtype=np.uint64)  # rebound, never written in place
    for row in rows:
        pm = masks[row]
        low = pm & vp
        total = low + vp
        _add_carries(total, low, vp, patterns)
        diag = (total ^ vp) | pm | vn
        if transpositions:
            diag |= _shift_up(~d0 & pm, 0, patterns) & pm_prev
            d0, pm_prev = diag, pm
        hp = _shift_up(vn | ~(diag | vp), _ONE, patterns)
        hn = _shift_up(diag & vp, 0, patterns)
        vp = hn | ~(diag | hp)
        vn = hp & diag
    # the column after x's last character: the distance to candidate y is
    # D[|y|][|x|] = |x| plus the vertical steps +1 (vp) and -1 (vn) down y
    return (len(x) + patterns.count(vp) - patterns.count(vn)).astype(np.float64)


def levenshtein_many(query) -> np.ndarray:
    """Unit-cost levenshtein(x, y) for every candidate y."""
    return _edit_distances(query, transpositions=False).copy()


def normalized_levenshtein(x: str, y: str) -> float:
    """Unit-cost edit distance divided by max length; 0 when both empty."""
    if not x and not y:
        return 0.0
    return levenshtein(x, y) / max(len(x), len(y))


def normalized_levenshtein_many(query) -> np.ndarray:
    """normalized_levenshtein(x, y) for every candidate y."""
    dist = _edit_distances(query, transpositions=False)
    # both empty: the distance is 0, and 0 / 1 gives the scalar 0.0
    return dist / np.maximum(query.table.lengths, max(len(query.text), 1))


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


def damerau_levenshtein_many(query) -> np.ndarray:
    """damerau_levenshtein(x, y) for every candidate y, as float64."""
    return _edit_distances(query, transpositions=True).copy()


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


def _lcs_lengths(query) -> np.ndarray:
    """LCS length of a Query with each sorted candidate, one pass per Query."""
    return memo(query, "lcs", lambda: _bit_parallel_lcs(query))


def _bit_parallel_lcs(query):
    """LCS length of the query x with each sorted candidate.

    Bit-parallel LCS (Allison and Dix 1986; Hyyroe 2004) with each
    candidate as the pattern over its own words and one step per character
    of x: the zero bits of the state vector count the matched candidate
    positions. Only the addition carries from word to word; s - u borrows
    nowhere, as u's bits are a subset of s's.
    """
    x, table = query.text, query.table
    if not x:
        return np.zeros(len(table), dtype=np.int64)
    patterns = table.patterns
    masks, rows = query.masks()
    state = np.full(patterns.size, ~np.uint64(0))
    for row in rows:
        u = state & masks[row]
        total = state + u
        _add_carries(total, u, state, patterns)
        state = total | (state - u)
    return patterns.count(~state)


def lcs_distance_many(query) -> np.ndarray:
    """lcs_distance(x, y) for every candidate y, as float64."""
    dist = len(query.text) + query.table.lengths - 2 * _lcs_lengths(query)
    return dist.astype(np.float64)


def metric_lcs(x: str, y: str) -> float:
    """1 - LCS/max-length; a normalized metric in [0, 1]."""
    if not x and not y:
        return 0.0
    return 1.0 - lcs_length(x, y) / max(len(x), len(y))


def metric_lcs_many(query) -> np.ndarray:
    """metric_lcs(x, y) for every candidate y."""
    longest = np.maximum(query.table.lengths, len(query.text))
    share = _lcs_lengths(query) / np.maximum(longest, 1)
    return np.where(longest == 0, 0.0, 1.0 - share)


def episode_distance(x: str, y: str) -> float:
    """Insertion-only distance: |y| - |x| if x is a subsequence of y, else INFINITE.

    Not symmetric by construction.
    """
    it = iter(y)
    if all(c in it for c in x):
        return float(len(y) - len(x))
    return INFINITE
