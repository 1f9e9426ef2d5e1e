"""Accuracy@k evaluation harness over classical and learned metrics.

For every non-standard word, all standard words are ranked ascending by
distance (ties broken by word id); accuracy@k is the percentage of
non-standard words whose true standard form appears in the top k.
"""

import csv
import json
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import editfam, gramfam
from .candidates import CandidateTable
from .denoise import AutoencoderModel, encode_all
from .contextenc import EmbeddingMatrix
from .errors import BindingError, ConfigError
from .lexicon import Lexicon, word_ids
from .vecdist import vector_metric

__all__ = [
    "MetricSpec",
    "EvalReport",
    "CLASSICAL_METRICS",
    "BATCHED_METRICS",
    "classical_distance",
    "scores",
    "evaluate_accuracy",
    "neighbor_curve",
    "qualitative_neighbors",
    "export_report",
    "load_report",
]

REPORT_VERSION = 1

# name -> distance(x, y, **params); Dice similarity is flipped to a distance
CLASSICAL_METRICS = {
    "levenshtein": lambda x, y: float(editfam.levenshtein(x, y)),
    "normalized-levenshtein": editfam.normalized_levenshtein,
    "damerau-levenshtein": lambda x, y: float(editfam.damerau_levenshtein(x, y)),
    "lcs": lambda x, y: float(editfam.lcs_distance(x, y)),
    "metric-lcs": editfam.metric_lcs,
    "qgram": lambda x, y, q=2: float(gramfam.qgram_distance(x, y, q)),
    "ngram": lambda x, y, n=2: gramfam.kondrak_ngram_distance(x, y, n),
    "dice": lambda x, y, n=2: 1.0 - gramfam.dice_coefficient(x, y, n),
    "jaccard": lambda x, y, n=2: gramfam.jaccard_distance(x, y, n),
    "cosine": gramfam.char_cosine_distance,
}


@dataclass
class MetricSpec:
    """A named metric configuration for one evaluation run.

    kind is one of: classical, learned-Da, learned-Dc. For learned kinds,
    params must carry the in-memory model under "model" plus an optional
    "vec_metric" (default cosine); for classical, params are forwarded to
    the metric function (n, q, ...).
    """

    name: str
    kind: str = "classical"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("classical", "learned-Da", "learned-Dc"):
            raise ConfigError(f"unknown metric kind: {self.kind!r}")
        if self.kind == "classical" and self.name not in CLASSICAL_METRICS:
            raise ConfigError(f"unknown classical metric: {self.name!r}")


@dataclass
class EvalReport:
    accuracies: dict  # metric name -> {k: percent}
    curves: dict = field(default_factory=dict)  # metric name -> [(k, percent)]
    qualitative: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def classical_distance(name: str, x: str, y: str, **params) -> float:
    """What eval ranks y by for query x (+inf if undefined); params may hold n and q."""
    return float(BATCHED_METRICS[name](x, CandidateTable([y]), **_metric_params(name, params))[0])


_METRIC_PARAMS = {"qgram": ("q",), "ngram": ("n",), "dice": ("n",), "jaccard": ("n",)}


def _metric_params(name, params):
    allowed = _METRIC_PARAMS.get(name, ())
    return {k: v for k, v in params.items() if k in allowed}


# name -> the batched kernel of the same distance: one query against a
# CandidateTable, +inf wherever the scalar function raises ValueError
BATCHED_METRICS = {
    "levenshtein": editfam.levenshtein_many,
    "normalized-levenshtein": editfam.normalized_levenshtein_many,
    "damerau-levenshtein": editfam.damerau_levenshtein_many,
    "lcs": editfam.lcs_distance_many,
    "metric-lcs": editfam.metric_lcs_many,
    "qgram": gramfam.qgram_distance_many,
    "ngram": gramfam.kondrak_ngram_distance_many,
    "dice": gramfam.dice_distance_many,
    "jaccard": gramfam.jaccard_distance_many,
    "cosine": gramfam.char_cosine_distance_many,
}


def _candidate_table(lex: Lexicon, candidate_ids) -> CandidateTable:
    """The table of one candidate set, built on first use and kept with the lexicon."""
    key = tuple(candidate_ids)
    table = lex._tables.get(key)
    if table is None:
        table = lex._tables[key] = CandidateTable(lex.word_of(c) for c in key)
    return table


def _learned_vectors(spec: MetricSpec, lex: Lexicon) -> np.ndarray:
    """One vector per lexicon word id, after checking the model's lexicon binding."""
    model = spec.params.get("model")
    if model is None:
        raise ConfigError(f"metric {spec.name!r} needs a model in params")
    if spec.kind == "learned-Da":
        if not isinstance(model, AutoencoderModel):
            raise ConfigError("learned-Da expects an AutoencoderModel")
        return encode_all(model, lex)  # checks the lexicon binding
    if isinstance(model, EmbeddingMatrix):
        lex.check_binding(model)
        return model.U
    rows = np.asarray(model, dtype=float)
    if rows.shape[0] != len(lex):
        raise BindingError("embedding row count does not match the lexicon")
    return rows


def scores(spec: MetricSpec, lex: Lexicon, query_ids, candidate_ids) -> np.ndarray:
    """Distances from each query to each candidate, one row per query.

    Each query is scored against all candidates in one call: classical
    metrics with their batched kernel (undefined comparisons, e.g. dice on
    strings shorter than n, score +inf and so rank last), learned kinds
    with the vector metric on the candidates' rows.
    """
    query_ids, candidate_ids = word_ids(query_ids, len(lex)), word_ids(candidate_ids, len(lex))
    if spec.kind == "classical":
        d = partial(BATCHED_METRICS[spec.name], **_metric_params(spec.name, spec.params))
        queries = [lex.word_of(q) for q in query_ids]
        rows = _candidate_table(lex, candidate_ids.tolist())
    else:
        vectors = _learned_vectors(spec, lex)
        d = vector_metric(spec.params.get("vec_metric", "cosine"))
        queries, rows = vectors[query_ids], vectors[candidate_ids]
    out = np.empty((len(query_ids), len(candidate_ids)))
    for row, query in zip(out, queries):
        row[:] = d(query, rows)
    return out


def _top_k(distances, ids, k):
    """Positions of the k smallest (distance, id) pairs, in that order."""
    return np.lexsort((ids, distances))[:k]


def evaluate_accuracy(spec: MetricSpec, lex: Lexicon, ks=(1, 5)) -> dict:
    """accuracy@k (percent) of recovering the true standard form."""
    queries = list(lex.nonstandard_ids)
    if not queries:
        raise ConfigError("lexicon has no non-standard words to evaluate")
    dist = scores(spec, lex, queries, lex.standard_ids)
    standard = np.array(lex.standard_ids)
    truth = np.array([lex.standard_of[m] for m in queries])
    d_truth = dist[np.arange(len(queries)), np.searchsorted(standard, truth)][:, None]
    # rank = 1 + the number of candidates ordered before the truth by (distance, id)
    ahead = (dist < d_truth) | ((dist == d_truth) & (standard < truth[:, None]))
    rank = 1 + np.count_nonzero(ahead, axis=1)
    hits = {k: int(np.count_nonzero(rank <= k)) for k in ks}
    return {k: 100.0 * hits[k] / len(queries) for k in ks}


def neighbor_curve(spec: MetricSpec, lex: Lexicon, K: int):
    """[(k, accuracy@k)] for k = 1..K; non-decreasing in k."""
    if K < 1:
        raise ValueError("K must be >= 1")
    acc = evaluate_accuracy(spec, lex, ks=tuple(range(1, K + 1)))
    return [(k, acc[k]) for k in range(1, K + 1)]


def qualitative_neighbors(spec: MetricSpec, lex: Lexicon, queries, k=5):
    """Per-query top-k neighbor listings.

    D_a restricts candidates to standard words; D_c and classical metrics
    rank the whole vocabulary but the query itself. Unknown query words
    yield an error entry without aborting the run.
    """
    known = [q for q in queries if q in lex]
    qids = [lex.id_of(q) for q in known]
    if spec.kind == "learned-Da":
        candidates = np.array(lex.standard_ids)
    else:
        candidates = np.arange(len(lex))
    dist = scores(spec, lex, qids, candidates)
    listings = {}
    for query, qid, row in zip(known, qids, dist):
        ids = candidates
        if spec.kind != "learned-Da":
            keep = candidates != qid
            ids, row = candidates[keep], row[keep]
        listings[query] = {
            "neighbors": [
                {"word": lex.word_of(int(ids[i])), "distance": float(row[i])}
                for i in _top_k(row, ids, k)
            ]
        }
    return {q: listings.get(q, {"error": "word not in lexicon"}) for q in queries}


def export_report(report: EvalReport, path, format: str = "json"):
    """Write the report as versioned JSON or flat CSV (metric,k,accuracy)."""
    if format == "json":
        payload = {
            "report_version": REPORT_VERSION,
            "accuracies": {
                name: {str(k): v for k, v in accs.items()}
                for name, accs in report.accuracies.items()
            },
            "curves": report.curves,
            "qualitative": report.qualitative,
            "metadata": report.metadata,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "k", "accuracy_percent"])
            for name, accs in report.accuracies.items():
                for k in sorted(accs):
                    writer.writerow([name, k, accs[k]])
    else:
        raise ValueError(f"unknown report format: {format!r}")


def load_report(path) -> EvalReport:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("report_version") != REPORT_VERSION:
        raise ConfigError("unsupported report version")
    return EvalReport(
        accuracies={
            name: {int(k): v for k, v in accs.items()}
            for name, accs in data["accuracies"].items()
        },
        curves={
            name: [tuple(point) for point in curve]
            for name, curve in data.get("curves", {}).items()
        },
        qualitative=data.get("qualitative", {}),
        metadata=data.get("metadata", {}),
    )
