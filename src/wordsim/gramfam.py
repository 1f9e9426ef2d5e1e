"""N-gram and statistical string metrics.

Profiles are multisets of contiguous length-n substrings. Dice, Jaccard
and the q-gram distance use raw (unpadded) grams; the Kondrak N-gram
distance head-pads with a reserved boundary character.

The scalar functions are the reference. Each ``*_many`` kernel scores
the text of a ``candidates.Query`` against every candidate of its table
and returns exactly what the scalar distance returns for each pair, with
+inf wherever the scalar function raises ValueError, as a new float64
row in the table's length-sorted order (``evalharness`` restores caller
order). Gram metrics read the table's integer gram counts. The Kondrak
distance runs its DP in integers, costs scaled by n, so both its forms
give the exact distance rounded once to float64; the kernel takes one
step per query character over the cells of all candidates. Given one
Query, the kernels share its symbols and its gram overlap per n (see
``candidates.GramIndex.overlap``): the q-gram and Dice distances read its
sum of minimum counts, Jaccard its shared grams, cosine its dot product.
"""

import math
from collections import Counter

import numpy as np

from .candidates import HEAD

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


def qgram_distance(x: str, y: str, n: int = 2) -> int:
    """Ukkonen's q-gram distance: L1 distance between the profiles of grams of length n.

    Not a metric: distinct strings with equal profiles get distance 0.
    """
    px = ngram_profile(x, n)
    py = ngram_profile(y, n)
    return sum(abs(px[g] - py[g]) for g in px.keys() | py.keys())


def _undefined(table) -> np.ndarray:
    return np.full(len(table), np.inf)


def qgram_distance_many(query, n: int = 2) -> np.ndarray:
    """qgram_distance(x, y, n) for every candidate y, as float64."""
    if n < 1:
        return _undefined(query.table)
    # sum |px - py| over grams = |px| + |py| - 2 * sum min(px, py)
    common = query.overlap(n)[0]
    total = max(0, len(query.text) - n + 1) + query.table.grams(n).total
    return (total - 2 * common).astype(np.float64)


def kondrak_ngram_distance(x: str, y: str, n: int = 2) -> float:
    """N-gram edit distance with per-position gram dissimilarity costs.

    Aligns the strings with an edit DP where substituting position i of x
    for position j of y costs the fraction of differing characters between
    the head-padded n-grams ending at those positions. Result normalized
    to [0, 1] by max length. n=1 reduces to the normalized Levenshtein.

    The DP runs in integers, every cost scaled by n, so the result is the
    exact distance rounded once to float64.
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
    # d[i][j] is n times the distance between x[:i] and y[:j]
    d = [[0] * (k + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        d[i][0] = n * i
    for j in range(1, k + 1):
        d[0][j] = n * j
    for i in range(1, m + 1):
        gx = px[i - 1 : i - 1 + n]
        for j in range(1, k + 1):
            gy = py[j - 1 : j - 1 + n]
            cost = sum(a != b for a, b in zip(gx, gy))
            d[i][j] = min(d[i - 1][j] + n, d[i][j - 1] + n, d[i - 1][j - 1] + cost)
    return d[m][k] / (n * max(m, k))


def kondrak_ngram_distance_many(query, n: int = 2) -> np.ndarray:
    """kondrak_ngram_distance(x, y, n) for every candidate y.

    The integer DP of the scalar function, one row (position i of x) at a
    time over the cells of every candidate (see CellLayout). Cell p,
    column j of sorted candidate c, holds D[i][j] - n * (p + m * c). The
    shift turns the chain D[i][j - 1] + n into one running minimum over
    the row. As no D is negative and i <= m, every cell of the candidates
    before c holds at least what column 0 of c does, D[i - 1][0] + n =
    n * i shifted, and so does the diagonal from the last of them: column
    0 needs no case of its own and no minimum runs across candidates.
    """
    x, table = query.text, query.table
    if n < 1 or not x or BOUNDARY in x:
        return _undefined(table)
    m = len(x)
    cells = table.cells
    # the grams of cells 1.., each beside the diagonal from the cell before it
    grams = cells.gram_symbols(n)[:, 1:]
    padded = np.concatenate([np.full(n - 1, HEAD, dtype=np.int32), query.symbols])
    lengths = table.lengths
    # row 0, D[0][j] = n * j, is one shifted value per candidate
    base = -n * (cells.starts + m * np.arange(len(table)))
    row = np.repeat(base, lengths + 1)
    best = np.empty_like(row)
    diag = np.empty_like(row[1:])
    equal = np.empty(len(diag), dtype=bool)
    for i in range(1, m + 1):
        np.add(row, n, out=best)  # D[i - 1][j] + n
        # D[i - 1][j - 1] + n - (matching characters of the two grams)
        np.equal(grams[0], padded[i - 1], out=equal)
        np.subtract(row[:-1], equal, out=diag)
        for t in range(1, n):
            np.equal(grams[t], padded[i - 1 + t], out=equal)
            np.subtract(diag, equal, out=diag)
        np.minimum(best[1:], diag, out=best[1:])
        np.minimum.accumulate(best, out=row)
    out = (row[cells.ends] - base + n * lengths) / (n * np.maximum(m, lengths))
    out[lengths == 0] = np.inf
    if len(table.alphabet) and table.alphabet[0] == ord(BOUNDARY):
        out[table.lanes[table.chars == 0]] = np.inf
    return out


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


def dice_distance_many(query, n: int = 2) -> np.ndarray:
    """1 - dice_coefficient(x, y, n) for every candidate y."""
    if n < 1:
        return _undefined(query.table)
    nt = query.overlap(n)[0]
    grams = max(0, len(query.text) - n + 1) + query.table.grams(n).total
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - 2.0 * nt / grams
    out[grams == 0] = np.inf
    return out


def jaccard_distance(x: str, y: str, n: int = 2) -> float:
    """1 - |grams(x) & grams(y)| / |grams(x) | grams(y)| over gram sets."""
    sx = set(ngram_profile(x, n))
    sy = set(ngram_profile(y, n))
    union = sx | sy
    if not union:
        raise ValueError("both strings are shorter than the gram length")
    return 1.0 - len(sx & sy) / len(union)


def jaccard_distance_many(query, n: int = 2) -> np.ndarray:
    """jaccard_distance(x, y, n) for every candidate y."""
    if n < 1:
        return _undefined(query.table)
    x = query.text
    inter = query.overlap(n)[1]
    distinct = len({x[i : i + n] for i in range(len(x) - n + 1)})
    union = distinct + query.table.grams(n).distinct - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - inter / union
    out[union == 0] = np.inf
    return out


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


def char_cosine_distance_many(query) -> np.ndarray:
    """char_cosine_distance(x, y) for every candidate y."""
    x = query.text
    if not x:
        return _undefined(query.table)
    index = query.table.grams(1)
    dot = query.overlap(1)[2]
    nx = math.sqrt(sum(v * v for v in Counter(x).values()))
    ny = np.sqrt(index.sumsq)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 - dot / (nx * ny)
    out[index.total == 0] = np.inf
    return out
