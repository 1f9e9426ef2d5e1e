import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsim.editfam import (
    INFINITE,
    damerau_levenshtein,
    episode_distance,
    hamming,
    lcs_distance,
    lcs_length,
    levenshtein,
    metric_lcs,
    normalized_levenshtein,
)

from oracles import all_strings, bfs_script_distances, osa_script_search

short_text = st.text(alphabet="abc", max_size=6)


class TestLevenshtein:
    def test_vector_doctor(self):
        assert levenshtein("vector", "doctor") == 2

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3

    @given(short_text)
    def test_self_distance_zero(self, x):
        assert levenshtein(x, x) == 0

    def test_empty_strings(self):
        assert levenshtein("", "") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3


class TestNormalizedLevenshtein:
    def test_vector_doctor(self):
        assert normalized_levenshtein("vector", "doctor") == pytest.approx(2 / 6)

    @given(short_text)
    def test_identity(self, x):
        assert normalized_levenshtein(x, x) == 0

    def test_all_insertions(self):
        assert normalized_levenshtein("", "abc") == 1.0

    def test_both_empty(self):
        assert normalized_levenshtein("", "") == 0.0

    @given(short_text, short_text)
    def test_range(self, x, y):
        assert 0.0 <= normalized_levenshtein(x, y) <= 1.0


class TestDamerau:
    def test_adjacent_transposition(self):
        assert damerau_levenshtein("ab", "ba") == 1

    def test_restricted_variant(self):
        # the unrestricted distance would be 2 here
        assert damerau_levenshtein("ca", "abc") == 3

    @given(short_text)
    def test_identity(self, x):
        assert damerau_levenshtein(x, x) == 0

    @given(short_text, short_text)
    def test_never_exceeds_levenshtein(self, x, y):
        assert damerau_levenshtein(x, y) <= levenshtein(x, y)


class TestHamming:
    def test_vector_doctor(self):
        assert hamming("vector", "doctor") == 2

    @given(short_text)
    def test_identity(self, x):
        assert hamming(x, x) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming("ab", "abc")


class TestLcs:
    def test_identical(self):
        assert lcs_distance("abc", "abc") == 0

    def test_interleaved(self):
        assert lcs_length("abc", "axbyc") == 3
        assert lcs_distance("abc", "axbyc") == 2

    def test_disjoint(self):
        assert lcs_distance("abc", "def") == 6

    def test_metric_lcs_values(self):
        assert metric_lcs("abc", "abc") == 0
        assert metric_lcs("abc", "axbyc") == pytest.approx(0.4)
        assert metric_lcs("abc", "def") == 1.0
        assert metric_lcs("", "") == 0.0


class TestEpisode:
    def test_subsequence(self):
        assert episode_distance("abc", "axbyc") == 2

    @given(short_text)
    def test_identity(self, x):
        assert episode_distance(x, x) == 0

    def test_not_subsequence(self):
        assert episode_distance("ba", "ab") == INFINITE
        assert math.isinf(episode_distance("ba", "ab"))

    def test_asymmetry_witness(self):
        x, y = "a", "ab"
        assert episode_distance(x, y) != episode_distance(y, x)


@pytest.mark.parametrize("metric", [levenshtein, damerau_levenshtein, lcs_distance])
@settings(max_examples=200)
@given(x=short_text, y=short_text)
def test_axioms_nonneg_identity_symmetry(metric, x, y):
    dxy = metric(x, y)
    assert dxy >= 0
    assert (dxy == 0) == (x == y)
    assert dxy == metric(y, x)


@pytest.mark.parametrize("metric", [levenshtein, lcs_distance])
@settings(max_examples=200)
@given(x=short_text, y=short_text, z=short_text)
def test_triangle_inequality(metric, x, y, z):
    assert metric(x, z) <= metric(x, y) + metric(y, z)


def test_osa_triangle_violation_witness():
    # the restricted (OSA) variant is not a true metric; this documents
    # the canonical counterexample, which random ASCII triples never hit
    assert damerau_levenshtein("ca", "abc") == 3
    assert (
        damerau_levenshtein("ca", "ac") + damerau_levenshtein("ac", "abc") == 2
    )


def test_oracle_equivalence_small():
    # lengths <= 3 here; the full length-5 sweep runs in the acceptance suite
    strings = all_strings("ab", 3)
    for x in strings:
        lev = bfs_script_distances(x, "ab", 3, {"insert", "delete", "substitute"})
        ind = bfs_script_distances(x, "ab", 3, {"insert", "delete"})
        for y in strings:
            assert levenshtein(x, y) == lev[y]
            assert lcs_distance(x, y) == ind[y]
            assert damerau_levenshtein(x, y) == osa_script_search(x, y)
