"""Reference results the benchmark checks the program's outputs against.

Classical distances come from the scalar editfam/gramfam functions, which
stay the readable reference. Learned distances come from plain numpy on
the loaded weights: a matrix-product cosine can differ from the program's
per-pair cosine in the last ulp, so rankings are compared with a tolerance
and every reordering of near-equal distances is counted and reported.
"""

import numpy as np

from wordsim import editfam, gramfam

TIE_TOL = 1e-9

# The program's eval passes n=2 to ngram/dice/jaccard and q=2 to qgram.
SCALAR = {
    "levenshtein": lambda x, y: float(editfam.levenshtein(x, y)),
    "normalized-levenshtein": editfam.normalized_levenshtein,
    "damerau-levenshtein": lambda x, y: float(editfam.damerau_levenshtein(x, y)),
    "lcs": lambda x, y: float(editfam.lcs_distance(x, y)),
    "metric-lcs": editfam.metric_lcs,
    "qgram": lambda x, y: float(gramfam.qgram_distance(x, y, 2)),
    "ngram": lambda x, y: gramfam.kondrak_ngram_distance(x, y, 2),
    "dice": lambda x, y: 1.0 - gramfam.dice_coefficient(x, y, 2),
    "jaccard": lambda x, y: gramfam.jaccard_distance(x, y, 2),
    "cosine": gramfam.char_cosine_distance,
}


def scalar_distance(metric, x, y):
    try:
        return SCALAR[metric](x, y)
    except ValueError:  # undefined comparisons rank last, as in the program
        return float("inf")


def classical_accuracy(queries, standard, order, ks):
    """{metric: {k: percent}} for (query, truth) pairs against ``standard`` words."""
    out = {}
    for metric in SCALAR:
        hits = dict.fromkeys(ks, 0)
        for query, truth in queries:
            d = {c: scalar_distance(metric, query, c) for c in standard}
            key = (d[truth], order[truth])
            rank = 1 + sum((d[c], order[c]) < key for c in standard)
            for k in ks:
                hits[k] += rank <= k
        out[metric] = {k: 100.0 * hits[k] / len(queries) for k in ks}
    return out


def classical_neighbors(query, words, order, k):
    """Top-k [(word, distance)] by Levenshtein over ``words`` minus the query."""
    ranked = sorted(
        (float(editfam.levenshtein(query, w)), order[w], w) for w in words if w != query
    )
    return [(w, d) for d, _, w in ranked[:k]]


def _activate(name, z):
    if name == "identity":
        return z
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"encoder activation {name!r} has no reference")


def reference_codes(model):
    """Bottleneck codes of every word: row i is the encoder applied to one_hot(i)."""
    layers = model.net.layers[: model.bottleneck_index + 1]
    a = _activate(layers[0].activation, layers[0].W.T + layers[0].b)
    for layer in layers[1:]:
        a = _activate(layer.activation, a @ layer.W.T + layer.b)
    return a


def cosine_rows(vectors, rows, cols):
    """1 - cosine similarity between ``vectors[rows]`` and ``vectors[cols]``."""
    unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
    return 1.0 - unit[rows] @ unit[cols].T


def compare_top_k(got, candidates, ref_d, k, tol=TIE_TOL):
    """Check a [(id, distance)] top-k list against reference distances.

    ``ref_d[j]`` is the reference distance of ``candidates[j]``. Returns
    (ok, reordered): ok when every distance matches its reference within
    ``tol`` and the list is a top-k up to ties within ``tol``; reordered
    when it still differs from the exact reference order (distance, id).
    """
    pos = {c: j for j, c in enumerate(candidates)}
    exact = [candidates[j] for j in np.lexsort((candidates, ref_d))[:k]]
    ids = [c for c, _ in got]
    if len(ids) != min(k, len(candidates)) or len(set(ids)) != len(ids):
        return False, False
    if any(c not in pos or abs(d - ref_d[pos[c]]) > tol for c, d in got):
        return False, False
    dists = [ref_d[pos[c]] for c in ids]
    if any(b < a - tol for a, b in zip(dists, dists[1:])):
        return False, False
    kept = np.isin(candidates, ids)
    if np.any(ref_d[~kept] < max(dists) - tol):
        return False, False
    return True, ids != exact


def learned_hits(D, truth_col, cand_ids, truth_ids, ks, tol=TIE_TOL):
    """Per k: (fewest, exact, most) hits the reference allows up to ties within ``tol``."""
    d_t = D[np.arange(len(truth_col)), truth_col][:, None]
    surely_ahead = (D < d_t - tol).sum(axis=1)
    maybe_ahead = (D <= d_t + tol).sum(axis=1) - 1
    exact_ahead = ((D < d_t) | ((D == d_t) & (cand_ids[None, :] < truth_ids[:, None]))).sum(axis=1)
    return {
        k: (int((maybe_ahead < k).sum()), int((exact_ahead < k).sum()), int((surely_ahead < k).sum()))
        for k in ks
    }
