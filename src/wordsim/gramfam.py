"""N-gram and statistical string metrics.

Profiles are multisets of contiguous length-n substrings. Dice, Jaccard
and the q-gram distance use raw (unpadded) grams; the Kondrak N-gram
distance head-pads with a reserved boundary character.

The scalar functions are the reference. Each ``*_many`` kernel scores one
query against every candidate of a CandidateTable and returns exactly
what the scalar distance returns for each pair, as float64 in the table's
caller order, with +inf wherever the scalar function raises ValueError.
Gram metrics read the table's integer gram counts; the Kondrak distance
runs its DP across all candidates at once.
"""

import math
from collections import Counter

import numpy as np

from .candidates import MISSING

__all__ = [
    "ngram_profile",
    "qgram_distance",
    "kondrak_ngram_distance",
    "dice_coefficient",
    "jaccard_distance",
    "char_cosine_distance",
    "BOUNDARY",
    "qgram_distance_many",
    "kondrak_ngram_distance_many",
    "dice_distance_many",
    "jaccard_distance_many",
    "char_cosine_distance_many",
]

#: Reserved boundary character for head-padding; must not occur in inputs.
BOUNDARY = "\x00"


def ngram_profile(s: str, n: int) -> Counter:
    """Multiset of all contiguous length-n substrings of s."""
    if n < 1:
        raise ValueError("gram length must be >= 1")
    return Counter(s[i : i + n] for i in range(len(s) - n + 1))


def qgram_distance(x: str, y: str, q: int = 2) -> int:
    """Ukkonen's q-gram distance: L1 distance between q-gram profiles.

    Not a metric: distinct strings with equal profiles get distance 0.
    """
    px = ngram_profile(x, q)
    py = ngram_profile(y, q)
    return sum(abs(px[g] - py[g]) for g in px.keys() | py.keys())


def _undefined(table) -> np.ndarray:
    return np.full(len(table), np.inf)


def _shared(x, table, n, combine) -> np.ndarray:
    """Per sorted candidate, the sum over shared grams of combine(its count, x's count)."""
    acc = np.zeros(len(table), dtype=np.int64)
    for lanes, counts, cq in table.grams(n).postings(table.symbols(x)):
        acc[lanes] += combine(counts, cq)
    return acc


def qgram_distance_many(x: str, table, q: int = 2) -> np.ndarray:
    """qgram_distance(x, y, q) for every candidate y, as float64."""
    if q < 1:
        return _undefined(table)
    # sum |px - py| over grams = |px| + |py| - 2 * sum min(px, py)
    common = _shared(x, table, q, np.minimum)
    total = max(0, len(x) - q + 1) + table.grams(q).total
    return table.unsort((total - 2 * common).astype(np.float64))


def kondrak_ngram_distance(x: str, y: str, n: int = 2) -> float:
    """N-gram edit distance with per-position gram dissimilarity costs.

    Aligns the strings with an edit DP where substituting position i of x
    for position j of y costs the fraction of differing characters between
    the head-padded n-grams ending at those positions. Result normalized
    to [0, 1] by max length. n=1 reduces to the normalized Levenshtein.
    """
    if n < 1:
        raise ValueError("gram length must be >= 1")
    if not x or not y:
        raise ValueError("kondrak n-gram distance is undefined for empty strings")
    if BOUNDARY in x or BOUNDARY in y:
        raise ValueError("inputs must not contain the reserved boundary character")
    pad = BOUNDARY * (n - 1)
    px, py = pad + x, pad + y
    m, k = len(x), len(y)
    d = [[0.0] * (k + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        d[i][0] = float(i)
    for j in range(1, k + 1):
        d[0][j] = float(j)
    for i in range(1, m + 1):
        gx = px[i - 1 : i - 1 + n]
        for j in range(1, k + 1):
            gy = py[j - 1 : j - 1 + n]
            cost = sum(a != b for a, b in zip(gx, gy)) / n
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][k] / max(m, k)


def kondrak_ngram_distance_many(x: str, table, n: int = 2) -> np.ndarray:
    """kondrak_ngram_distance(x, y, n) for every candidate y.

    The DP of the scalar function, one column (position of y) at a time
    across all candidates, with the same operations per cell.
    """
    if n < 1 or not x or BOUNDARY in x:
        return _undefined(table)
    m = len(x)
    width, size = table.symbols_t.shape
    # head padding compares equal only to head padding, as BOUNDARY does
    head = MISSING - 1
    padded = np.full((n - 1 + width, size), head, dtype=np.int32)
    padded[n - 1 :] = table.symbols_t
    query = np.concatenate([np.full(n - 1, head, dtype=np.int32), table.symbols(x)])
    grams = np.lib.stride_tricks.sliding_window_view(query, n)[:, :, None]  # row i-1: gram i of x
    d = np.repeat(np.arange(m + 1, dtype=np.float64)[:, None], size, axis=1)  # d[i][0] = i
    last = np.empty(size)  # d[m][len(y)]
    step = np.empty(size)
    for j in range(1, width + 1):
        a = table.active[j - 1]
        cost = (grams != padded[j - 1 : j - 1 + n, :a]).sum(axis=1) / n  # gram j of y
        # min(d[i][j-1] + 1, d[i-1][j-1] + cost) for every i; d[i-1][j] + 1 follows
        best = np.minimum(d[1:, :a] + 1, d[:-1, :a] + cost)
        d[0, :a] = float(j)
        for i in range(1, m + 1):
            np.add(d[i - 1, :a], 1, out=step[:a])
            np.minimum(best[i - 1], step[:a], out=d[i, :a])
        done = table.active[j] if j < width else 0
        last[done:a] = d[m, done:a]
    lengths = table.lengths
    out = last / np.maximum(m, lengths)
    out[lengths == 0] = np.inf
    if len(table.alphabet) and table.alphabet[0] == ord(BOUNDARY):
        out[(table.symbols_t == 0).any(axis=0)] = np.inf
    return table.unsort(out)


def dice_coefficient(x: str, y: str, n: int = 2) -> float:
    """Sorensen-Dice similarity 2*n_t / (n_x + n_y) over n-gram multisets.

    n_t counts shared grams with multiplicity (sum of per-gram minima).
    Returns a similarity in [0, 1]; callers wanting a distance use
    1 - dice_coefficient.
    """
    px = ngram_profile(x, n)
    py = ngram_profile(y, n)
    nx, ny = sum(px.values()), sum(py.values())
    if nx + ny == 0:
        raise ValueError("both strings are shorter than the gram length")
    nt = sum(min(px[g], py[g]) for g in px.keys() & py.keys())
    return 2.0 * nt / (nx + ny)


def dice_distance_many(x: str, table, n: int = 2) -> np.ndarray:
    """1 - dice_coefficient(x, y, n) for every candidate y."""
    if n < 1:
        return _undefined(table)
    nt = _shared(x, table, n, np.minimum)
    grams = max(0, len(x) - n + 1) + table.grams(n).total
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - 2.0 * nt / grams
    out[grams == 0] = np.inf
    return table.unsort(out)


def jaccard_distance(x: str, y: str, n: int = 2) -> float:
    """1 - |grams(x) & grams(y)| / |grams(x) | grams(y)| over gram sets."""
    sx = set(ngram_profile(x, n))
    sy = set(ngram_profile(y, n))
    union = sx | sy
    if not union:
        raise ValueError("both strings are shorter than the gram length")
    return 1.0 - len(sx & sy) / len(union)


def jaccard_distance_many(x: str, table, n: int = 2) -> np.ndarray:
    """jaccard_distance(x, y, n) for every candidate y."""
    if n < 1:
        return _undefined(table)
    inter = _shared(x, table, n, lambda counts, cq: 1)
    distinct = len({x[i : i + n] for i in range(len(x) - n + 1)})
    union = distinct + table.grams(n).distinct - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - inter / union
    out[union == 0] = np.inf
    return table.unsort(out)


def char_cosine_distance(x: str, y: str) -> float:
    """1 - cosine similarity between character-count vectors.

    Counts every Unicode character observed in the pair, not just a-z.
    """
    cx, cy = Counter(x), Counter(y)
    if not cx or not cy:
        raise ValueError("cosine distance is undefined for empty strings")
    dot = sum(cx[c] * cy[c] for c in cx.keys() & cy.keys())
    nx = math.sqrt(sum(v * v for v in cx.values()))
    ny = math.sqrt(sum(v * v for v in cy.values()))
    return 1.0 - dot / (nx * ny)


def char_cosine_distance_many(x: str, table) -> np.ndarray:
    """char_cosine_distance(x, y) for every candidate y."""
    if not x:
        return _undefined(table)
    index = table.grams(1)
    dot = _shared(x, table, 1, np.multiply)
    nx = math.sqrt(sum(v * v for v in Counter(x).values()))
    ny = np.sqrt(index.sumsq)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - dot / (nx * ny)
    out[index.total == 0] = np.inf
    return table.unsort(out)
