"""Batched kernels against their scalar reference functions.

Every ``*_many`` kernel, given a Query, must return, bit for bit, what
the scalar distance returns for each candidate in the table's
length-sorted order, with +inf where the scalar function raises
ValueError; evaluation and listings built on them must match a ranking
computed pair by pair with the scalar functions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsim import editfam, gramfam
from wordsim.candidates import CandidateTable, Query
from wordsim.evalharness import (
    CLASSICAL_METRICS,
    MetricSpec,
    classical_distance,
    evaluate_accuracy,
    qualitative_neighbors,
    scores,
)
from wordsim.gramfam import BOUNDARY

# name -> the scalar reference distance(x, y, **params) of each kernel in
# CLASSICAL_METRICS; Dice similarity is flipped to a distance
SCALAR_METRICS = {
    "levenshtein": lambda x, y: float(editfam.levenshtein(x, y)),
    "normalized-levenshtein": editfam.normalized_levenshtein,
    "damerau-levenshtein": lambda x, y: float(editfam.damerau_levenshtein(x, y)),
    "lcs": lambda x, y: float(editfam.lcs_distance(x, y)),
    "metric-lcs": editfam.metric_lcs,
    "qgram": lambda x, y, n=2: float(gramfam.qgram_distance(x, y, n)),
    "ngram": lambda x, y, n=2: gramfam.kondrak_ngram_distance(x, y, n),
    "dice": lambda x, y, n=2: 1.0 - gramfam.dice_coefficient(x, y, n),
    "jaccard": lambda x, y, n=2: gramfam.jaccard_distance(x, y, n),
    "cosine": gramfam.char_cosine_distance,
}

# a few ASCII letters and non-ASCII letters, one of them outside the BMP
ALPHABET = "abcéß中\U0001f600"
short = st.text(alphabet=ALPHABET, max_size=8)
# across the first and the second 64-bit word boundary of the bit-parallel kernels
long = st.one_of(
    st.text(alphabet="abé", min_size=62, max_size=66),
    st.text(alphabet="abé", min_size=126, max_size=130),
)
strings = st.one_of(short, short, short, long)
GRAM_METRICS = ("qgram", "ngram", "dice", "jaccard")


def scalar_row(name, x, words, **params):
    out = []
    for y in words:
        try:
            out.append(SCALAR_METRICS[name](x, y, **params))
        except ValueError:
            out.append(float("inf"))
    return np.array(out, dtype=np.float64)


def caller_row(kernel, x, table, **params):
    """kernel's row for the query x, put back in the table's caller order."""
    return table.unsort(kernel(Query(table, x), **params))


def assert_kernel_matches(name, x, words, **params):
    table = CandidateTable(words)
    got = CLASSICAL_METRICS[name](Query(table, x), **params)
    want = scalar_row(name, x, [table.words[i] for i in table.order.tolist()], **params)
    assert got.dtype == np.float64
    # equal as float64 bits, so that -0.0/0.0 and every last ulp count
    assert got.tobytes() == want.tobytes(), (name, x, params)


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(x=strings, words=st.lists(strings, max_size=6), n=st.integers(1, 3))
def test_kernel_equals_scalar(name, x, words, n):
    params = {"n": n} if name in GRAM_METRICS else {}
    assert_kernel_matches(name, x, words, **params)


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(x=strings, y=strings, n=st.integers(1, 3))
def test_classical_distance_equals_scalar(name, x, y, n):
    # as the CLI's dist passes it: the gram length to every metric, read by the gram metrics
    got = classical_distance(name, x, y, n=n)
    want = scalar_row(name, x, [y], **({"n": n} if name in GRAM_METRICS else {}))
    assert np.float64(got).tobytes() == want.tobytes(), (name, x, y, n)


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_classical_distance_equals_the_scores_entry(name, toy_lexicon, data, n):
    lex = toy_lexicon
    q = data.draw(st.sampled_from(lex.nonstandard_ids))
    j = data.draw(st.integers(0, len(lex.standard_ids) - 1))
    params = {"n": n} if name in GRAM_METRICS else {}
    # the row eval ranks the standard words by for this query
    row = scores(MetricSpec(name, params=params), lex, [q], lex.standard_ids)[0]
    got = classical_distance(name, lex.word_of(q), lex.word_of(lex.standard_ids[j]), **params)
    assert np.float64(got).tobytes() == row[j].tobytes(), (name, q, j, n)


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
def test_edge_cases(name):
    lane = "ab" * 32  # exactly one 64-bit lane
    words = ["", "a", "ab", lane, lane + "a", "a" + BOUNDARY + "b", "é" * 3]
    for x in ["", "a", "ba", lane, lane + "b", BOUNDARY, "éa"]:
        params = [{"n": n} for n in (0, 3)] if name in GRAM_METRICS else [{}]
        for p in params:
            assert_kernel_matches(name, x, words, **p)


@pytest.mark.parametrize("name", sorted(CLASSICAL_METRICS))
def test_astral_and_surrogate_characters(name):
    # the table reads code points from UTF-32: an astral character is one
    # symbol, and a lone surrogate is a symbol of its own, even next to its pair
    smile, lone, low = "\U0001f600", "\ud83d", "\ude00"
    words = [
        smile + "ab", "a" + smile + "b", lone + "a", "a" + lone + low, low + lone,
        "\U00010000" * 3, smile * 70, "ab", "",
    ]
    queries = [
        "", smile, "a" + smile + "b", lone, lone + low, low + "a", smile * 66, "ab" * 40 + smile,
    ]
    params = [{"n": n} for n in (1, 2, 3)] if name in GRAM_METRICS else [{}]
    for x in queries:
        for p in params:
            assert_kernel_matches(name, x, words, **p)


def test_undefined_pairs_score_inf():
    table = CandidateTable(["", "a", "ab", "a" + BOUNDARY])
    assert list(caller_row(gramfam.dice_distance_many, "a", table, n=2)[:2]) == [np.inf, np.inf]
    assert np.isinf(caller_row(gramfam.jaccard_distance_many, "", table, n=2)[0])
    assert np.isinf(caller_row(gramfam.char_cosine_distance_many, "ab", table)[0])
    ngram = caller_row(gramfam.kondrak_ngram_distance_many, "ab", table, n=2)
    assert np.isinf(ngram[[0, 3]]).all() and np.isfinite(ngram[[1, 2]]).all()
    assert np.isinf(caller_row(gramfam.kondrak_ngram_distance_many, BOUNDARY + "a", table, n=2)).all()
    assert np.isinf(caller_row(gramfam.qgram_distance_many, "ab", table, n=0)).all()


EDIT_METRICS = [
    "levenshtein", "normalized-levenshtein", "damerau-levenshtein", "lcs", "metric-lcs"
]


@pytest.mark.parametrize("name", EDIT_METRICS)
def test_word_boundaries(name):
    # an adjacent transposition, and a match run, across bits 63/64 and 127/128
    for bit in (63, 127):
        x = "c" * bit + "ab" + "c" * 5
        words = [x, "c" * bit + "ba" + "c" * 5, "c" * bit + "b" + "c" * 5, "ab"]
        assert_kernel_matches(name, x, words)
        x = "b" * (bit - 4) + "a" * 10 + "b" * 60
        assert_kernel_matches(name, x, ["a" * 10, "c" * 30 + "a" * 10, "a" * 8 + "b" * 70, x])
    # a multi-word query with characters no candidate has (MISSING)
    x = "a" * 70 + "zq" + "a" * 60
    assert_kernel_matches(name, x, ["a" * 130, "a" * 70 + "qz" + "a" * 60, "b", ""])
    # 129 characters: one bit in the third word
    x = "ab" * 64 + "a"
    assert_kernel_matches(name, x, ["", "a", x, x[::-1], x[:-1], x + "b"])


@pytest.mark.parametrize("name", EDIT_METRICS)
def test_candidate_word_boundaries(name):
    # every candidate is its own pattern, so the long strings are candidates here
    for bit in (63, 127):
        words = ["c" * bit + "ab" + "c" * 5, "a" * bit, "a" * (bit + 1), "b" * bit + "a", "ab", ""]
        for x in ["a", "b", "ab", "ba", "cab", "acb"]:
            assert_kernel_matches(name, x, words)
        # an adjacent transposition of the candidate's bits bit and bit + 1
        y = "c" * bit + "ab" + "c" * 5
        for x in ["c" * bit + "ba" + "c" * 5, "c" * (bit - 1) + "ba" + "c" * 6, "ba"]:
            assert_kernel_matches(name, x, [y, y[: bit + 1], y[::-1], "ab"])
    # empty candidates beside 130-character ones
    words = ["", "ab" * 65, "", "b" * 130, "a"]
    for x in ["", "a", "ba", "ab" * 65, "b" * 129]:
        assert_kernel_matches(name, x, words)
    # a table whose only candidates are empty
    for words in ([""], ["", ""]):
        for x in ["", "a", "ab" * 40]:
            assert_kernel_matches(name, x, words)
    # query characters that no candidate holds
    for x in ["z", "azb", "ab" + "z" * 70, "zq" * 3]:
        assert_kernel_matches(name, x, ["a" * 130, "ab" * 33, "b", ""])


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_kondrak_boundaries(n):
    y130 = "ab" * 65
    cases = [
        # an empty table
        ([], ["", "a", "ab" * 40]),
        # tables of empty candidates only
        ([""], ["", "a", "ab"]),
        (["", "", ""], ["a", "ab" * 40]),
        # empty candidates beside 130-character ones
        (["", y130, "", "b" * 130, "a"], ["", "a", "ba", y130, "b" * 129]),
        # n above every candidate's length
        (["a", "ab", "ba", "b"], ["a", "ab", "abab", "ba" * 3]),
        # candidates holding the boundary character beside normal ones
        (["ab", "a" + BOUNDARY + "b", BOUNDARY, "ba", BOUNDARY + "a"], ["a", "ab", "bab"]),
        # a query longer than every candidate
        (["ab", "ba", "a", "bb"], ["ab" * 40, "ba" * 7 + "a"]),
        # query characters that no candidate holds
        (["a" * 130, "ab" * 33, "b", ""], ["z", "azb", "ab" + "z" * 70, "zq" * 3]),
        # a single candidate
        (["abc"], ["abc", "cba", "a", "é中", "abc" * 30]),
        ([y130], ["a", y130, y130[::-1], y130 + "b"]),
    ]
    for words, queries in cases:
        for x in queries:
            assert_kernel_matches("ngram", x, words, n=n)


def test_long_queries_take_the_batched_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("scalar function called")

    for fn in ("levenshtein", "damerau_levenshtein", "lcs_length"):
        monkeypatch.setattr(editfam, fn, forbidden)
    table = CandidateTable(["abc", "b" * 70, "ab" * 100])
    for n in (65, 128, 129, 200):
        x = "ab" * (n // 2) + "a" * (n % 2)
        for name in EDIT_METRICS:
            CLASSICAL_METRICS[name](Query(table, x))
    table = CandidateTable(["abc", "b" * 70])
    assert list(caller_row(editfam.levenshtein_many, "a" * 65, table)) == [64.0, 70.0]


# call orders of the ten kernels on one shared Query: the normalised and
# metric forms before the passes they divide, and the gram metrics at
# different gram lengths side by side
SHARED_ORDERS = [
    ["normalized-levenshtein", "levenshtein", "metric-lcs", "lcs", "qgram", "dice",
     "jaccard", "cosine", "ngram", "damerau-levenshtein"],
    ["damerau-levenshtein", "levenshtein", "normalized-levenshtein", "lcs", "metric-lcs",
     "ngram", "cosine", "jaccard", "dice", "qgram"],
    sorted(CLASSICAL_METRICS),
]
SHARED_PARAMS = [
    {"qgram": {"n": 3}, "dice": {"n": 2}, "jaccard": {"n": 2}, "ngram": {"n": 2}},
    {"qgram": {"n": 2}, "dice": {"n": 3}, "jaccard": {"n": 1}, "ngram": {"n": 3}},
]


@pytest.mark.parametrize("order", SHARED_ORDERS)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(x=strings, words=st.lists(strings, max_size=6), p=st.sampled_from(SHARED_PARAMS))
def test_shared_query_equals_fresh_strings(order, x, words, p):
    table = CandidateTable(words)
    query = Query(table, x)
    for name in order:
        got = CLASSICAL_METRICS[name](query, **p.get(name, {}))
        want = CLASSICAL_METRICS[name](Query(CandidateTable(words), x), **p.get(name, {}))
        assert got.tobytes() == want.tobytes(), (name, x, p)


def test_shared_passes_are_read_only():
    table = CandidateTable(["abc", "b" * 70, ""])
    query = Query(table, "abd")
    editfam.normalized_levenshtein_many(query)
    editfam.metric_lcs_many(query)
    editfam.damerau_levenshtein_many(query)
    for raw in (editfam._edit_distances(query, False), editfam._edit_distances(query, True),
                editfam._lcs_lengths(query), query.masks()[0], query.symbols, *query.overlap(2)):
        assert not raw.flags.writeable
    # a kernel's result is the caller's own to write
    row = editfam.levenshtein_many(query)
    row[:] = -1
    assert list(table.unsort(editfam.levenshtein_many(query))) == [1.0, 69.0, 3.0]


# characters no candidate holds, one of them astral and one the boundary character
STRANGERS = "z\U0001d538" + BOUNDARY


@settings(max_examples=200, derandomize=True, deadline=None)
@given(x=st.text(alphabet=ALPHABET + STRANGERS, max_size=10), words=st.lists(strings, max_size=6),
       n=st.integers(1, 4))
def test_gram_overlap_equals_profile_sums(x, words, n):
    """The three rows of GramIndex.overlap, summed over the shared grams of two ngram_profiles."""
    table = CandidateTable(words)
    rows = table.grams(n).overlap(Query(table, x).symbols)
    assert all(row.dtype == np.int64 for row in rows)
    px = gramfam.ngram_profile(x, n)
    want = []
    for i in table.order.tolist():
        py = gramfam.ngram_profile(words[i], n)
        shared = px.keys() & py.keys()
        want.append([sum(min(px[g], py[g]) for g in shared), len(shared),
                     sum(px[g] * py[g] for g in shared)])
    assert np.array(rows).T.tolist() == want


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
