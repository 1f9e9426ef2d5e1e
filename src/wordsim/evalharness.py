"""Accuracy@k evaluation harness over classical and learned metrics.

For every non-standard word, all standard words are ranked ascending by
distance (ties broken by word id); accuracy@k is the percentage of
non-standard words whose true standard form appears in the top k.
"""

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

# contextenc's names are read at call time: contextenc imports denoise, which imports this
# module once its own names are defined, so contextenc may be partly run when this module runs
from . import contextenc, editfam, gramfam, neural
from .candidates import CandidateTable, Query
from .denoise import AutoencoderModel, encode_all
from .errors import ConfigError
from .lexicon import Lexicon, _normalize, word_ids
from .vecdist import VECTOR_METRICS, check_finite, check_vec_metric, nonzero_norms, norm

__all__ = [
    "MetricSpec",
    "EvalReport",
    "CLASSICAL_METRICS",
    "classical_distance",
    "scores",
    "evaluate_accuracy",
    "evaluate_accuracies",
    "qualitative_neighbors",
    "export_report",
    "load_report",
]

REPORT_VERSION = 1

# name -> the batched kernel of that distance: a candidates.Query against
# its table, in length-sorted order, +inf wherever the scalar editfam/gramfam
# function raises ValueError; Dice similarity is flipped to a distance
CLASSICAL_METRICS = {
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

# kind -> the params a MetricSpec of that kind reads; of the classical metrics, the gram ones read n
_PARAMS = {"classical": frozenset({"n"}),
           "learned-Da": frozenset({"model", "vec_metric"}),
           "learned-Dc": frozenset({"model", "vec_metric"})}
_GRAM_METRICS = ("qgram", "ngram", "dice", "jaccard")


@dataclass
class MetricSpec:
    """A named metric configuration for one evaluation run.

    kind is one of: classical, learned-Da, learned-Dc. For learned kinds,
    params must carry the in-memory model under "model" plus an optional
    "vec_metric", a name in vecdist.VECTOR_METRICS (default cosine); for
    classical, params may hold the gram length "n" (an int, default 2) of
    qgram, ngram, dice and jaccard. ConfigError names any other key, and
    the choices for any other vec_metric.
    """

    name: str
    kind: str = "classical"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise ConfigError(f"unknown metric kind: {self.kind!r}")
        if self.kind == "classical" and self.name not in CLASSICAL_METRICS:
            raise ConfigError(f"unknown classical metric: {self.name!r}")
        reads = _PARAMS[self.kind]
        if not self.params.keys() <= reads:
            raise ConfigError(
                f"metric {self.name!r} of kind {self.kind} does not read "
                f"{sorted(self.params.keys() - reads)}; it reads {sorted(reads)}"
            )
        if "n" in self.params:
            neural.check_int("gram length n", self.params["n"])
        if "vec_metric" in self.params:
            check_vec_metric(self.name, self.params["vec_metric"])


@dataclass
class EvalReport:
    accuracies: dict  # metric name -> {k: percent}
    metadata: dict = field(default_factory=dict)


def classical_distance(name: str, x: str, y: str, n: int = 2) -> float:
    """What eval ranks y by for query x (+inf if undefined); n is a gram metric's gram length.

    ConfigError if name is not a classical metric.
    """
    score = _classical(MetricSpec(name, params={"n": n}))
    return float(score(Query(CandidateTable([y]), x))[0])


def _classical(spec: MetricSpec):
    """score(query) -> a classical spec's row for a Query, in its table's caller order.

    Binds a gram metric's gram length once; the one place a kernel's row is unsorted.
    """
    kernel = CLASSICAL_METRICS[spec.name]
    if spec.name in _GRAM_METRICS:
        kernel = partial(kernel, **spec.params)
    return lambda query: query.table.unsort(kernel(query))


class _CandidateRows:
    """One learned source's vectors resolved against one candidate set: the scorer of its queries.

    The candidates' rows are gathered once, read-only and checked finite.
    The first cosine use adds their norms, checked nonzero, and the norm
    of every word's vector, from one vecdist.norm pass over the source
    that is left unchecked, so a word never asked may hold any finite row.
    A word's norm is checked when the word is asked (see score).
    """

    def __init__(self, vectors: np.ndarray, candidate_ids: np.ndarray):
        rows = vectors.take(candidate_ids, axis=0)
        check_finite(rows, "a candidate's vector")
        rows.flags.writeable = False
        self.vectors, self.rows = vectors, rows

    @cached_property
    def norms(self) -> np.ndarray:
        norms = nonzero_norms(self.rows)
        norms.flags.writeable = False
        return norms

    @cached_property
    def word_norms(self) -> np.ndarray:
        """Every word's norm as vecdist.cosine computes it, unchecked: 0, NaN or inf as the row gives."""
        with np.errstate(over="ignore", invalid="ignore"):  # a row whose square overflows is inf here
            word_norms = norm(np.asarray(self.vectors, dtype=float))
        word_norms.flags.writeable = False
        return word_norms

    def score(self, qid: int, metric: str) -> np.ndarray:
        """The distance of word qid to every candidate under vecdist.VECTOR_METRICS[metric].

        A non-finite query vector raises NumericError. Under cosine, a
        query whose kept norm is finite needs no check (a sum of squares
        is finite only when every term is); one whose kept norm is not
        computes it again under the caller's errstate and is checked, so
        it warns and raises as a fresh computation does. A zero-norm
        query or candidate raises in cosine.
        """
        d, vector = VECTOR_METRICS[metric], self.vectors[qid]
        if metric != "cosine":
            check_finite(vector, "the query's vector")
            return d(vector, self.rows)
        norms, a_norm = self.norms, self.word_norms[qid]
        if not math.isfinite(a_norm):
            a_norm = norm(np.asarray(vector, dtype=float))
            check_finite(vector, "the query's vector")
        return d(vector, self.rows, norms, a_norm=a_norm)


# entries in a lexicon's memo: each kind on both candidate sets the program's entry points
# use (the standard words and every word), so no CLI command or bench pass evicts one
MEMO_ENTRIES = 6


def _prepared(lex: Lexicon, kind: str, candidate_ids: np.ndarray, vectors=None):
    """The candidates of candidate_ids prepared for kind, from the lexicon's memo or built.

    A "classical" entry is the CandidateTable of their words, a learned one
    the _CandidateRows of vectors. The memo keys an entry by (kind,
    candidate id bytes), those of lex.standard_array taken once per
    lexicon, and drops the least recently used past MEMO_ENTRIES. Learned rows are kept only when vectors is read-only and
    owns its data (encode_all's codes, a loaded or trained
    EmbeddingMatrix's U, a raw matrix made so), and count only while built
    from that very array; a writeable array or a view is prepared on each
    call. A kept array is taken as fixed: editing it after making it
    writeable again leaves the old rows and norms in place.
    """
    if vectors is not None and (vectors.flags.writeable or vectors.base is not None):
        return _CandidateRows(vectors, candidate_ids)
    key = (kind, lex._standard_key if candidate_ids is lex.standard_array else candidate_ids.tobytes())
    entry = lex._prepared.pop(key, None)  # put back last: the memo runs from least to most recent
    if entry is None or (vectors is not None and entry.vectors is not vectors):
        entry = (CandidateTable(lex.word_of(c) for c in candidate_ids.tolist()) if vectors is None
                 else _CandidateRows(vectors, candidate_ids))
    lex._prepared[key] = entry
    if len(lex._prepared) > MEMO_ENTRIES:
        del lex._prepared[next(iter(lex._prepared))]
    return entry


def _learned_rows(name: str, kind: str, model, lex: Lexicon, candidate_ids: np.ndarray) -> _CandidateRows:
    """The prepared _CandidateRows of a learned metric's model for candidate_ids.

    The model's lexicon binding is checked first; name is the metric's
    name in a ConfigError for a missing model.
    """
    if model is None:
        raise ConfigError(f"metric {name!r} needs a model in params")
    if kind == "learned-Da":
        if not isinstance(model, AutoencoderModel):
            raise ConfigError("learned-Da expects an AutoencoderModel")
        vectors = encode_all(model, lex)  # checks the lexicon binding
    else:
        vectors = contextenc.bound_rows(model, lex)
    return _prepared(lex, kind, candidate_ids, vectors)


def _scorer(spec: MetricSpec, lex: Lexicon, candidate_ids: np.ndarray):
    """score(query id, its Query of the candidates) -> its distance to every candidate under spec.

    A learned spec is resolved here, before any query is scored: its
    prepared entry is found or built (_learned_rows) and, for cosine, the
    candidates' norms are checked nonzero. Each query is then scored by
    that entry (_CandidateRows.score).
    """
    if spec.kind == "classical":
        score = _classical(spec)
        return lambda qid, query: score(query)
    candidates = _learned_rows(spec.name, spec.kind, spec.params.get("model"), lex, candidate_ids)
    metric = spec.params.get("vec_metric", "cosine")
    if metric == "cosine":
        candidates.norms  # a zero candidate raises before the first query is scored
    return lambda qid, query: candidates.score(qid, metric)


def _rows(specs, lex: Lexicon, query_ids, candidate_ids):
    """Per query, in order, its distance row to the candidates under each spec.

    The one scoring core: queries outside, specs inside, one row in
    memory per spec. Every spec is resolved before the first row. The
    classical specs share one prepared Query per query word, so the work
    their kernels have in common (the query's symbols, match masks and
    gram overlap, and the Myers, OSA and LCS passes) is done once per
    query. Undefined classical comparisons, e.g. dice on strings shorter
    than n, score +inf and so rank last. query_ids and candidate_ids
    must be valid ids (see lexicon.word_ids).
    """
    classical = any(spec.kind == "classical" for spec in specs)
    table = _prepared(lex, "classical", candidate_ids) if classical else None
    scorers = [_scorer(spec, lex, candidate_ids) for spec in specs]

    def rows():
        for qid in query_ids:
            query = Query(table, lex.word_of(qid)) if classical else None
            yield [score(qid, query) for score in scorers]

    return rows()


def scores(spec: MetricSpec, lex: Lexicon, query_ids, candidate_ids) -> np.ndarray:
    """Distances from each query to each candidate, one row per query.

    Each query is scored against all candidates in one call: classical
    metrics with their batched kernel (undefined comparisons score +inf),
    learned kinds with the vector metric on the candidates' rows.
    """
    query_ids, candidate_ids = word_ids(query_ids, len(lex)), word_ids(candidate_ids, len(lex))
    out = np.empty((len(query_ids), len(candidate_ids)))
    for out_row, (row,) in zip(out, _rows([spec], lex, query_ids.tolist(), candidate_ids)):
        out_row[:] = row
    return out


def _check_k(k):
    """TypeError unless k is an integer, not a bool, as lexicon.word_id asks; ValueError below 1."""
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 1:
        raise ValueError("k must be >= 1")


def _top_k(distances, ids, k):
    """Positions of the k >= 1 smallest (distance, id) pairs, in that order.

    np.partition finds the k-th smallest distance, and only the entries at
    or below it are sorted. The order is that of np.lexsort((ids,
    distances))[:k], ties and NaN included: the full sort is used when k
    covers every entry or the k-th smallest distance is NaN.
    """
    if k < len(distances):
        part = distances.copy()
        part.partition(k - 1)
        kth = part[k - 1]
        if not math.isnan(kth):
            near = (distances <= kth).nonzero()[0]
            return near[np.lexsort((ids[near], distances[near]))[:k]]
    return np.lexsort((ids, distances))[:k]


def evaluate_accuracies(specs, lex: Lexicon, ks=(1, 5)) -> list:
    """accuracy@k (percent) of recovering the true standard form, one dict per spec in order.

    Every spec scores a query before the next query is scored, and each
    row is reduced at once to the truth's rank: 1 + the number of
    candidates ordered before the truth by (distance, id). Memory is one
    row per spec, not one per (query, candidate) pair.
    """
    for k in ks:
        _check_k(k)
    queries, standard = lex.nonstandard_ids, lex.standard_array
    if not len(queries):
        raise ConfigError("lexicon has no non-standard words to evaluate")
    # standard ids ascend, so the candidates of lower id than the truth are those before its column
    truth = np.searchsorted(standard, [lex.standard_of[m] for m in lex.nonstandard_ids]).tolist()
    rank = np.empty((len(specs), len(queries)), dtype=np.int64)
    for i, (col, rows) in enumerate(zip(truth, _rows(specs, lex, lex.nonstandard_ids, standard))):
        for s, row in enumerate(rows):
            d = row[col]
            rank[s, i] = 1 + np.count_nonzero(row < d) + np.count_nonzero(row[:col] == d)
    return [{k: 100.0 * int(np.count_nonzero(r <= k)) / len(queries) for k in ks} for r in rank]


def evaluate_accuracy(spec: MetricSpec, lex: Lexicon, ks=(1, 5)) -> dict:
    """accuracy@k (percent) of recovering the true standard form."""
    return evaluate_accuracies([spec], lex, ks)[0]


def qualitative_neighbors(spec: MetricSpec, lex: Lexicon, queries, k=5):
    """Per-query top-k neighbor listings.

    D_a restricts candidates to standard words; D_c and classical metrics
    rank the whole vocabulary but the query itself. Query words are looked
    up normalised as the lexicon file's words are, and the listings keyed
    by the words as given. Unknown query words yield an error entry
    without aborting the run.
    """
    _check_k(k)
    known = [q for q in queries if _normalize(q) in lex]
    qids = [lex.id_of(_normalize(q)) for q in known]
    if spec.kind == "learned-Da":
        candidates = lex.standard_array
    else:
        candidates = np.arange(len(lex))
    listings = {}
    for query, qid, (row,) in zip(known, qids, _rows([spec], lex, qids, candidates)):
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
    """Write the report as versioned JSON or flat CSV (metric,k,accuracy), rendered in full first."""
    if format == "json":
        payload = {
            "report_version": REPORT_VERSION,
            "accuracies": {
                name: {str(k): v for k, v in accs.items()}
                for name, accs in report.accuracies.items()
            },
            # keys of report version 1 that no run fills
            "curves": {},
            "qualitative": {},
            "metadata": report.metadata,
        }
        text = json.dumps(payload, indent=2, sort_keys=True)
    elif format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["metric", "k", "accuracy_percent"])
        for name, accs in report.accuracies.items():
            for k in sorted(accs):
                writer.writerow([name, k, accs[k]])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format: {format!r}")
    neural._write_text(path, [text])


def load_report(path) -> EvalReport:
    """Read a JSON report written by export_report; ConfigError if it is not one."""
    data = neural._read_json(path)
    if data.get("report_version") != REPORT_VERSION:
        raise ConfigError("unsupported report version")
    try:
        accuracies = data["accuracies"]
    except KeyError as exc:
        raise ConfigError(f"report lacks the field {exc}: {path}") from None
    if not isinstance(accuracies, dict):
        raise ConfigError(f"report field 'accuracies' is not an object: {path}")
    parsed = {}
    for name, accs in accuracies.items():
        if not isinstance(accs, dict):
            raise ConfigError(f"report field 'accuracies.{name}' is not an object: {path}")
        parsed[name] = {}
        for key, value in accs.items():
            try:
                k = int(key)
            except ValueError:  # also a key past int's digit limit
                k = 0
            # only the str(k) that export_report writes: no sign, space, underscore or leading zero
            if k < 1 or str(k) != key:
                raise ConfigError(
                    f"report field 'accuracies.{name}' has a key that is not an integer k >= 1 "
                    f"written as str(k): {key!r}: {path}"
                )
            # the range test also turns away NaN and the infinities
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 100:
                raise ConfigError(
                    f"report field 'accuracies.{name}' has a value that is not a number "
                    f"in [0, 100]: {value!r}: {path}"
                )
            parsed[name][k] = value
    return EvalReport(accuracies=parsed, metadata=data.get("metadata", {}))
