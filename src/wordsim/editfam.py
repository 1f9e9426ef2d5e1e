"""Edit-distance family of string metrics.

All functions treat strings as sequences of Unicode scalar values and are
pure; empty strings are legal inputs unless stated otherwise.

The scalar functions are the reference. Each ``*_many`` kernel scores one
query against every candidate of a CandidateTable and returns exactly
what the scalar function returns for each pair, as float64 in the
table's caller order. The kernels are bit-parallel over uint64 lanes, one
lane per candidate with the query as the pattern; a query longer than
LANE_BITS characters takes the scalar path.
"""

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

__all__ = [
    "CostTable",
    "UNIT_COSTS",
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

SubstituteCost = Union[float, Callable[[str, str], float]]


@dataclass(frozen=True)
class CostTable:
    """Operation costs for the general edit distance.

    ``substitute`` may be a flat cost or a callable ``(a, b) -> cost``;
    substituting a character for itself always costs 0.
    """

    insert: float = 1.0
    delete: float = 1.0
    substitute: SubstituteCost = 1.0

    def __post_init__(self):
        if self.insert < 0 or self.delete < 0:
            raise ValueError("operation costs must be non-negative")
        if not callable(self.substitute) and self.substitute < 0:
            raise ValueError("operation costs must be non-negative")

    def sub_cost(self, a: str, b: str) -> float:
        if a == b:
            return 0.0
        if callable(self.substitute):
            return self.substitute(a, b)
        return self.substitute


UNIT_COSTS = CostTable()

#: Marker for an unreachable episode-distance target.
INFINITE = math.inf

#: Pattern width of the bit-parallel kernels; longer queries are scored by
#: the scalar functions.
LANE_BITS = 64


def levenshtein(x: str, y: str, costs: CostTable = UNIT_COSTS) -> float:
    """Minimal total cost of an insert/delete/substitute script from x to y."""
    prev = [0.0] * (len(y) + 1)
    for j in range(1, len(y) + 1):
        prev[j] = prev[j - 1] + costs.insert
    for i in range(1, len(x) + 1):
        cur = [prev[0] + costs.delete] + [0.0] * len(y)
        for j in range(1, len(y) + 1):
            cur[j] = min(
                prev[j] + costs.delete,
                cur[j - 1] + costs.insert,
                prev[j - 1] + costs.sub_cost(x[i - 1], y[j - 1]),
            )
        prev = cur
    return prev[len(y)]


def _match_masks(x: str, table) -> np.ndarray:
    """Per alphabet index of the table, bit i set where x[i] is that character.

    The last entry, which PAD indexes, stays 0.
    """
    masks = np.zeros(len(table.alphabet) + 1, dtype=np.uint64)
    for i, symbol in enumerate(table.symbols(x)):
        if symbol >= 0:
            masks[symbol] |= np.uint64(1 << i)
    return masks


def _edit_distances(x: str, table, transpositions: bool) -> np.ndarray:
    """Unit-cost (or OSA) distance from x to each sorted candidate, |x| <= LANE_BITS.

    Hyyroe's formulation of Myers' algorithm (J. ACM 1999) for the global
    distance, with Hyyroe's (2003) transposition term for OSA.
    """
    if not x:
        return table.lengths.astype(np.float64)
    size = len(table)
    masks = _match_masks(x, table)
    vp = np.full(size, ~np.uint64(0))
    vn = np.zeros(size, dtype=np.uint64)
    d0 = np.zeros(size, dtype=np.uint64)
    pm_prev = np.zeros(size, dtype=np.uint64)
    dist = np.full(size, len(x), dtype=np.uint64)
    top = np.uint64(len(x) - 1)
    for j, a in enumerate(table.active):
        pm, v_p, v_n = masks[table.symbols_t[j, :a]], vp[:a], vn[:a]
        diag = (((pm & v_p) + v_p) ^ v_p) | pm | v_n
        if transpositions:
            diag |= ((~d0[:a] & pm) << 1) & pm_prev[:a]
            d0[:a] = diag
            pm_prev[:a] = pm
        hp = v_n | ~(diag | v_p)
        hn = diag & v_p
        dist[:a] += (hp >> top) & 1
        dist[:a] -= (hn >> top) & 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp[:a] = hn | ~(diag | hp)
        vn[:a] = hp & diag
    return dist.astype(np.float64)


def _scalar_row(fn, x, table) -> np.ndarray:
    """fn(x, y) for every candidate y: the path of queries wider than one lane."""
    return np.array([fn(x, y) for y in table.words], dtype=np.float64)


def levenshtein_many(x: str, table) -> np.ndarray:
    """Unit-cost levenshtein(x, y) for every candidate y."""
    if len(x) > LANE_BITS:
        return _scalar_row(levenshtein, x, table)
    return table.unsort(_edit_distances(x, table, transpositions=False))


def normalized_levenshtein(x: str, y: str) -> float:
    """Unit-cost edit distance divided by max length; 0 when both empty."""
    if not x and not y:
        return 0.0
    return levenshtein(x, y) / max(len(x), len(y))


def normalized_levenshtein_many(x: str, table) -> np.ndarray:
    """normalized_levenshtein(x, y) for every candidate y."""
    if len(x) > LANE_BITS:
        return _scalar_row(normalized_levenshtein, x, table)
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
    if len(x) > LANE_BITS:
        return _scalar_row(damerau_levenshtein, x, table)
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
    """LCS length of x with each sorted candidate, |x| <= LANE_BITS.

    Bit-parallel LCS (Allison and Dix 1986; Hyyroe 2004): the zero bits of
    the state vector count the matched pattern positions.
    """
    if not x:
        return np.zeros(len(table), dtype=np.int64)
    masks = _match_masks(x, table)
    state = np.full(len(table), ~np.uint64(0))
    for j, a in enumerate(table.active):
        s = state[:a]
        u = s & masks[table.symbols_t[j, :a]]
        state[:a] = (s + u) | (s - u)
    pattern = np.uint64((1 << len(x)) - 1)
    return np.bitwise_count(~state & pattern).astype(np.int64)


def lcs_distance_many(x: str, table) -> np.ndarray:
    """lcs_distance(x, y) for every candidate y, as float64."""
    if len(x) > LANE_BITS:
        return _scalar_row(lcs_distance, x, table)
    dist = len(x) + table.lengths - 2 * _lcs_lengths(x, table)
    return table.unsort(dist.astype(np.float64))


def metric_lcs(x: str, y: str) -> float:
    """1 - LCS/max-length; a normalized metric in [0, 1]."""
    if not x and not y:
        return 0.0
    return 1.0 - lcs_length(x, y) / max(len(x), len(y))


def metric_lcs_many(x: str, table) -> np.ndarray:
    """metric_lcs(x, y) for every candidate y."""
    if len(x) > LANE_BITS:
        return _scalar_row(metric_lcs, x, table)
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
