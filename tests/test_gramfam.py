import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kondrak_alignment_search

from wordsim.editfam import normalized_levenshtein
from wordsim.gramfam import (
    BOUNDARY,
    char_cosine_distance,
    dice_coefficient,
    jaccard_distance,
    kondrak_ngram_distance,
    ngram_profile,
    qgram_distance,
)

words = st.text(alphabet="abcde", min_size=0, max_size=8)
nonempty = st.text(alphabet="abcde", min_size=1, max_size=8)
# small enough for the alignment oracle to enumerate
tiny = st.text(alphabet="abc", min_size=1, max_size=4)


class TestNgramProfile:
    def test_night_bigrams(self):
        p = ngram_profile("night", 2)
        assert p == {"ni": 1, "ig": 1, "gh": 1, "ht": 1}
        assert sum(p.values()) == 4

    def test_shorter_than_n(self):
        assert ngram_profile("a", 2) == {}

    def test_repeats_counted(self):
        assert ngram_profile("aaa", 2) == {"aa": 2}

    def test_zero_n_rejected(self):
        with pytest.raises(ValueError):
            ngram_profile("abc", 0)


class TestQgram:
    def test_identical(self):
        assert qgram_distance("night", "night", 2) == 0

    def test_night_nacht(self):
        assert qgram_distance("night", "nacht", 2) == 6

    def test_ab_ba(self):
        assert qgram_distance("ab", "ba", 2) == 2

    def test_identity_failure_witness(self):
        # distinct strings with identical profiles: q-gram is no metric
        assert qgram_distance("abab", "baba", 1) == 0

    @settings(max_examples=200)
    @given(x=words, y=words, z=words)
    def test_nonneg_symmetry_triangle(self, x, y, z):
        assert qgram_distance(x, y) >= 0
        assert qgram_distance(x, y) == qgram_distance(y, x)
        assert qgram_distance(x, z) <= qgram_distance(x, y) + qgram_distance(y, z)


class TestKondrakNgram:
    @given(nonempty)
    def test_identity(self, x):
        assert kondrak_ngram_distance(x, x, 2) == 0

    def test_unigram_is_normalized_levenshtein(self):
        assert kondrak_ngram_distance("vector", "doctor", 1) == pytest.approx(2 / 6)

    @settings(max_examples=300)
    @given(x=nonempty, y=nonempty)
    def test_unigram_reduction_random(self, x, y):
        assert kondrak_ngram_distance(x, y, 1) == pytest.approx(
            normalized_levenshtein(x, y), abs=1e-12
        )

    def test_night_nacht_in_unit_interval(self):
        d = kondrak_ngram_distance("night", "nacht", 2)
        assert 0 < d < 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            kondrak_ngram_distance("", "abc", 2)

    @pytest.mark.parametrize("x, y", [(BOUNDARY + "ab", "abc"), ("abc", "a" + BOUNDARY)])
    def test_reserved_boundary_rejected(self, x, y):
        with pytest.raises(ValueError):
            kondrak_ngram_distance(x, y, 2)

    @settings(max_examples=200)
    @given(x=nonempty, y=nonempty)
    def test_symmetric_and_bounded(self, x, y):
        d = kondrak_ngram_distance(x, y, 2)
        assert d == pytest.approx(kondrak_ngram_distance(y, x, 2))
        assert 0 <= d <= 1

    @settings(max_examples=400)
    @given(x=tiny, y=tiny, n=st.integers(1, 4))
    def test_equals_alignment_oracle(self, x, y, n):
        # the exact distance, rounded once
        assert kondrak_ngram_distance(x, y, n) == float(kondrak_alignment_search(x, y, n))

    @settings(max_examples=200)
    @given(x=nonempty, y=nonempty, n=st.integers(1, 4))
    def test_exactly_symmetric(self, x, y, n):
        assert kondrak_ngram_distance(x, y, n) == kondrak_ngram_distance(y, x, n)

    def test_exact_tie_is_equal(self):
        # both are exactly 3/4; a float DP gave the second 0.7500000000000001
        assert kondrak_ngram_distance("ghtlfci", "noytztnd", 3) == 0.75
        assert kondrak_ngram_distance("ghtlfci", "cqaieffk", 3) == 0.75


class TestDice:
    def test_night_nacht(self):
        assert dice_coefficient("night", "nacht", 2) == pytest.approx(0.25)

    def test_identical(self):
        assert dice_coefficient("night", "night", 2) == 1.0

    def test_disjoint(self):
        assert dice_coefficient("abc", "xyz", 2) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dice_coefficient("a", "b", 2)

    @settings(max_examples=200)
    @given(x=words, y=words)
    def test_bounded_and_symmetric(self, x, y):
        if len(x) < 2 and len(y) < 2:
            return
        s = dice_coefficient(x, y, 2)
        assert 0.0 <= s <= 1.0
        assert s == dice_coefficient(y, x, 2)


class TestJaccard:
    def test_identity(self):
        assert jaccard_distance("night", "night", 2) == 0.0

    def test_night_nacht(self):
        assert jaccard_distance("night", "nacht", 2) == pytest.approx(1 - 1 / 7)

    def test_disjoint(self):
        assert jaccard_distance("abc", "xyz", 2) == 1.0

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            jaccard_distance("a", "b", 2)

    @settings(max_examples=200)
    @given(x=words, y=words)
    def test_zero_iff_equal_gram_sets(self, x, y):
        if len(x) < 2 and len(y) < 2:
            return
        d = jaccard_distance(x, y, 2)
        assert 0.0 <= d <= 1.0
        same = set(ngram_profile(x, 2)) == set(ngram_profile(y, 2))
        assert (d == 0.0) == same


class TestCharCosine:
    def test_identity(self):
        assert char_cosine_distance("word", "word") == pytest.approx(0.0)

    def test_anagram_witness(self):
        assert char_cosine_distance("ab", "ba") == pytest.approx(0.0)

    def test_orthogonal(self):
        assert char_cosine_distance("aa", "bb") == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            char_cosine_distance("", "abc")

    def test_unicode_alphabet(self):
        # digits/apostrophes participate, not just a-z
        assert char_cosine_distance("it's", "it's") == pytest.approx(0.0)

    @settings(max_examples=200)
    @given(x=nonempty, y=nonempty)
    def test_symmetric_and_bounded(self, x, y):
        d = char_cosine_distance(x, y)
        assert -1e-12 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(char_cosine_distance(y, x))
