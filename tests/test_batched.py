"""Batched kernels against their scalar reference functions.

Every ``*_many`` kernel must return, bit for bit, what the scalar
distance returns for each candidate, with +inf where the scalar function
raises ValueError; evaluation and listings built on them must match a
ranking computed pair by pair with the scalar functions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsim import editfam, gramfam
from wordsim.candidates import CandidateTable
from wordsim.evalharness import (
    BATCHED_METRICS,
    CLASSICAL_METRICS,
    MetricSpec,
    evaluate_accuracy,
    qualitative_neighbors,
)
from wordsim.gramfam import BOUNDARY

# a few ASCII letters and non-ASCII letters, one of them outside the BMP
ALPHABET = "abcéß中\U0001f600"
short = st.text(alphabet=ALPHABET, max_size=8)
long = st.text(alphabet="abé", min_size=62, max_size=66)
strings = st.one_of(short, short, short, long)
PARAMS = {"qgram": "q", "ngram": "n", "dice": "n", "jaccard": "n"}


def scalar_row(name, x, words, **params):
    out = []
    for y in words:
        try:
            out.append(CLASSICAL_METRICS[name](x, y, **params))
        except ValueError:
            out.append(float("inf"))
    return np.array(out, dtype=np.float64)


def assert_kernel_matches(name, x, words, **params):
    got = BATCHED_METRICS[name](x, CandidateTable(words), **params)
    want = scalar_row(name, x, words, **params)
    assert got.dtype == np.float64
    # equal as float64 bits, so that -0.0/0.0 and every last ulp count
    assert got.tobytes() == want.tobytes(), (name, x, params)


@pytest.mark.parametrize("name", sorted(BATCHED_METRICS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(x=strings, words=st.lists(strings, max_size=6), n=st.integers(1, 3))
def test_kernel_equals_scalar(name, x, words, n):
    params = {PARAMS[name]: n} if name in PARAMS else {}
    assert_kernel_matches(name, x, words, **params)


@pytest.mark.parametrize("name", sorted(BATCHED_METRICS))
def test_edge_cases(name):
    lane = "ab" * 32  # exactly one 64-bit lane
    words = ["", "a", "ab", lane, lane + "a", "a" + BOUNDARY + "b", "é" * 3]
    for x in ["", "a", "ba", lane, lane + "b", BOUNDARY, "éa"]:
        params = [{PARAMS[name]: n} for n in (0, 3)] if name in PARAMS else [{}]
        for p in params:
            assert_kernel_matches(name, x, words, **p)


def test_undefined_pairs_score_inf():
    table = CandidateTable(["", "a", "ab", "a" + BOUNDARY])
    assert list(gramfam.dice_distance_many("a", table, 2)[:2]) == [np.inf, np.inf]
    assert np.isinf(gramfam.jaccard_distance_many("", table, 2)[0])
    assert np.isinf(gramfam.char_cosine_distance_many("ab", table)[0])
    ngram = gramfam.kondrak_ngram_distance_many("ab", table, 2)
    assert np.isinf(ngram[[0, 3]]).all() and np.isfinite(ngram[[1, 2]]).all()
    assert np.isinf(gramfam.kondrak_ngram_distance_many(BOUNDARY + "a", table, 2)).all()
    assert np.isinf(gramfam.qgram_distance_many("ab", table, 0)).all()


def test_long_query_takes_scalar_path(monkeypatch):
    calls = []
    scalar = editfam.levenshtein
    monkeypatch.setattr(editfam, "levenshtein", lambda x, y: calls.append(y) or scalar(x, y))
    table = CandidateTable(["abc", "b" * 70])
    editfam.levenshtein_many("a" * 64, table)
    assert calls == []
    assert list(editfam.levenshtein_many("a" * 65, table)) == [64.0, 70.0]
    assert calls == ["abc", "b" * 70]


def scalar_accuracy(name, lex, ks):
    standard = lex.standard_ids
    hits = dict.fromkeys(ks, 0)
    for m in lex.nonstandard_ids:
        row = scalar_row(name, lex.word_of(m), [lex.word_of(c) for c in standard])
        ranked = sorted(zip(row, standard))
        rank = [c for _, c in ranked].index(lex.standard_of[m]) + 1
        for k in ks:
            hits[k] += rank <= k
    return {k: 100.0 * hits[k] / len(lex.nonstandard_ids) for k in ks}


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
def test_evaluate_accuracy_matches_scalar_ranking(name, toy_lexicon):
    ks = (1, 2, 5)
    assert evaluate_accuracy(MetricSpec(name=name), toy_lexicon, ks) == scalar_accuracy(
        name, toy_lexicon, ks
    )


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
def test_listings_match_scalar_ranking(name, toy_lexicon):
    queries = ["thng", "school", "winow"]
    got = qualitative_neighbors(MetricSpec(name=name), toy_lexicon, queries, k=4)
    for q in queries:
        qid = toy_lexicon.id_of(q)
        others = [i for i in range(len(toy_lexicon)) if i != qid]
        row = scalar_row(name, q, [toy_lexicon.word_of(i) for i in others])
        want = [
            {"word": toy_lexicon.word_of(c), "distance": float(d)}
            for d, c in sorted(zip(row, others))[:4]
        ]
        assert got[q]["neighbors"] == want
