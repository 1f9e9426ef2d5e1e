import numpy as np
import pytest

from wordsim.errors import AmbiguityError, ParseError, UnknownWordError, WordsimError
from wordsim.lexicon import build_lexicon, load_corpus, load_lexicon, one_hot


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadLexicon:
    def test_two_pairs(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "thng\tthing\nddnt\tdidn't\n")
        lex = load_lexicon(path)
        assert len(lex) == 4
        assert len(lex.standard_ids) == 2
        assert lex.standard_of[lex.id_of("thng")] == lex.id_of("thing")

    def test_comments_and_blank_lines(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "# header\n\nthng\tthing\n")
        assert len(load_lexicon(path)) == 2

    def test_casefold(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "Thng\tTHING\nthng\tthing\n")
        lex = load_lexicon(path)
        assert len(lex) == 2
        assert "thing" in lex

    def test_missing_tab(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "thng thing\n")
        with pytest.raises(ParseError, match="line 1"):
            load_lexicon(path)

    def test_empty_field(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "thng\tthing\n\tthing\n")
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(path)

    def test_ambiguous_mapping(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "dats\tthat's\ndats\tthis\n")
        with pytest.raises(AmbiguityError) as exc:
            load_lexicon(path)
        assert "that's" in str(exc.value) and "this" in str(exc.value)

    def test_standard_word_also_listed_as_variant(self, tmp_path):
        # membership in C wins; no standard word keeps a mapping
        path = write(tmp_path, "pairs.tsv", "thing\twater\nthng\tthing\n")
        lex = load_lexicon(path)
        assert lex.standard_flags[lex.id_of("thing")]
        assert lex.id_of("thing") not in lex.standard_of

    def test_multiword_standard_forms(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "omg\toh my god\n")
        lex = load_lexicon(path)
        assert "oh my god" in lex

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_lexicon(tmp_path / "nope.tsv")


class TestLexiconInvariants:
    def test_round_trip(self, toy_lexicon):
        for i, w in enumerate(toy_lexicon.words):
            assert toy_lexicon.id_of(w) == i
            assert toy_lexicon.word_of(i) == w

    def test_unknown_word_is_a_typed_error(self, toy_lexicon):
        with pytest.raises(UnknownWordError) as info:
            toy_lexicon.id_of("zebra")
        assert isinstance(info.value, WordsimError)
        assert not isinstance(info.value, KeyError)
        assert str(info.value) == "word not in lexicon: 'zebra'"

    def test_mapping_lands_on_standard(self, toy_lexicon):
        for cid in toy_lexicon.standard_of.values():
            assert toy_lexicon.standard_flags[cid]

    def test_fingerprint_stable_and_discriminating(self, toy_lexicon, small_lexicon):
        assert toy_lexicon.fingerprint() == toy_lexicon.fingerprint()
        assert toy_lexicon.fingerprint() != small_lexicon.fingerprint()

    def test_derived_values_computed_once(self):
        lex = build_lexicon([("thng", "thing"), ("wter", "water")])
        assert lex.fingerprint() is lex.fingerprint()
        assert lex.standard_ids is lex.standard_ids
        assert lex.nonstandard_ids is lex.nonstandard_ids
        assert lex.standard_ids == (1, 3) and lex.nonstandard_ids == (0, 2)


class TestOneHot:
    def test_basic(self):
        lex = build_lexicon([("ab", "cd"), ("ef", "gh")])
        v = one_hot(lex, 2)
        assert v.tolist() == [0, 0, 1, 0]

    def test_l1_norm_one(self, toy_lexicon):
        for i in range(len(toy_lexicon)):
            assert np.sum(np.abs(one_hot(toy_lexicon, i))) == 1.0

    def test_out_of_range(self, toy_lexicon):
        with pytest.raises(IndexError):
            one_hot(toy_lexicon, len(toy_lexicon))


class TestLoadCorpus:
    def test_basic(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "thing water\nhouse night\nright friend\n")
        corpus = load_corpus(path, toy_lexicon)
        assert len(corpus) == 3
        assert corpus.oov_count == 0
        assert corpus.token_count == 6

    def test_skip_token(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "thing zebra water\n")
        corpus = load_corpus(path, toy_lexicon, oov_policy="skip-token")
        assert corpus.sentences == ((toy_lexicon.id_of("thing"), toy_lexicon.id_of("water")),)
        assert corpus.oov_count == 1

    def test_skip_sentence(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "thing zebra\nwater house\n")
        corpus = load_corpus(path, toy_lexicon, oov_policy="skip-sentence")
        assert len(corpus) == 1

    def test_all_empty_is_error(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "zebra\n\n")
        with pytest.raises(WordsimError):
            load_corpus(path, toy_lexicon)

    def test_unknown_policy(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "thing\n")
        with pytest.raises(ValueError):
            load_corpus(path, toy_lexicon, oov_policy="explode")
