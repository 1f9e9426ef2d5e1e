import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordsim.errors import AmbiguityError, ParseError, UnknownWordError, WordsimError
from wordsim.lexicon import Lexicon, build_lexicon, load_corpus, load_lexicon, one_hot, word_id, word_ids

from conftest import TOY_STANDARD, toy_variants
from oracles import fingerprint_reference, load_corpus_reference

BOM = b"\xef\xbb\xbf"

# CRLF, CR and LF endings, comments, blank lines, casefolding, multiword
# forms, non-ASCII and astral characters, and characters that str.splitlines
# would split at but a lexicon line keeps (U+2028, form feed)
PINNED_LEXICON = (
    "# a comment line\r\n"
    "thng\tthing\r\n"
    "\r\n"
    "   # an indented comment\r"
    "Nite\tNIGHT\r"
    "gr8 m8\tgreat mate\n"
    "\n"
    "caf\u00e9\tCAF\u00c9\r\n"
    "stra\u00dfe\tstreet\n"
    "\U0001f600x\t\U0001f600\n"
    "x\u2028y\txy\n"
    "p\x0cq\tpq\n"
    "\u0130stanbul\tistanbul\n"
    "  omg \t oh my god  \n"
    "wter\twater"
).encode("utf-8")


# letters whose casefold is longer than they are (sharp s, dotted capital I, the
# ff ligature), combining and astral characters; GAPS adds whitespace beyond ASCII
WORD = st.lists(
    st.sampled_from(["a", "z", "\u00e9", "e\u0301", "\u0301", "\u00df", "\u0130", "\ufb00",
                     "\U0001f600", "\U00010400", "\u03a3"]),
    min_size=1, max_size=4,
).map("".join)
CORPUS_LEXICON = build_lexicon([("stra\u00dfe", "street"), ("\u0130stanbul", "istanbul"),
                                ("\ufb00ort", "effort"), ("thng", "thing"), ("\u03a3\u03b1", "sa")])
CORPUS_TOKENS = ["STRASSE", "Stra\u00dfe", "strasse", "\u0130STANBUL", "i\u0307stanbul", "istanbul",
                 "\ufb00ort", "FFORT", "thing", "THNG", "\u03a3\u0391", "\u03c3\u03b1", "zebra",
                 "\u00df", "\U0001f600"]
GAPS = [" ", "", "\t", "\u00a0", "\u3000", "\u2028", "\x0c", "\x85", "  \x0b"]


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

    def test_two_tabs(self, tmp_path):
        path = write(tmp_path, "pairs.tsv", "thng\tthing\na\tb\tc\n")
        with pytest.raises(ParseError, match="line 2: expected 2 tab-separated fields, got 3"):
            load_lexicon(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes("thng\tthing\ncaf\u00e9\tcafe\n".encode("latin-1"))
        with pytest.raises(ParseError, match="line 2: not UTF-8"):
            load_lexicon(path)

    def test_fault_before_a_non_utf8_line_is_reported_first(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"thng\tthing\nbad\ncaf\xe9\tcafe\n")
        with pytest.raises(ParseError, match="line 2: missing tab"):
            load_lexicon(path)

    def test_line_numbers_count_crlf_and_cr_endings(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"thng\tthing\r\nwter\twater\rbad\n")
        with pytest.raises(ParseError, match="line 3: missing tab"):
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

    def test_leading_bom_is_dropped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(BOM + b"thng\tthing\n\xef\xbb\xbfwter\twater\n")
        lex = load_lexicon(path)
        # only the first BOM is the file's; a later one belongs to its word
        assert lex.words == ("thng", "thing", "\ufeffwter", "water")

    def test_lines_split_only_at_cr_and_lf(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(PINNED_LEXICON)
        lex = load_lexicon(path)
        assert "x\u2028y" in lex and "p\x0cq" in lex
        assert len(lex) == 21

    def test_fields_normalise_as_build_lexicon_does(self, tmp_path):
        # whitespace beyond ASCII around the fields, and characters whose
        # casefold is longer than they are or is context-free where lower() is not
        pairs = [
            ("\u00a0Stra\u00dfe\u3000", "STREET"),
            ("\ufb00ort\u2028", "effort"),
            ("\u03a3\u0399\u03a3\u03a5\u03a6\u039f\u03a3",
             "\u03c3\u03b9\u03c3\u03c5\u03c6\u03bf\u03c2"),
            ("\u0085\u0130stanbul", "istanbul\u0345"),
            ("\u1e9ee", "sse"),
        ]
        path = write(tmp_path, "pairs.tsv", "".join(f"{n}\t{s}\n" for n, s in pairs))
        loaded, built = load_lexicon(path), build_lexicon(pairs)
        assert loaded == built and loaded.fingerprint() == built.fingerprint()

    def test_casefold_keeps_tabs_and_whitespace(self):
        # load_lexicon casefolds a whole line before splitting it at the tab
        # and stripping the fields, and load_corpus casefolds the whole text
        # before splitting it into lines and tokens: both equal _normalize of
        # each field or token
        for c in map(chr, range(0x110000)):
            folded = c.casefold()
            if c.isspace():
                assert folded == c, hex(ord(c))
            else:
                assert folded and not any(f.isspace() for f in folded), hex(ord(c))


class TestPinnedFingerprints:
    """Saved models store the fingerprint: any drift turns them into a BindingError."""

    def test_mixed_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(PINNED_LEXICON)
        want = "8ee40c48515eba3586775271f86c6ea4507c2d0ed7a7b1b949609827a9012083"
        assert load_lexicon(path).fingerprint() == want
        path.write_bytes(PINNED_LEXICON.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
        assert load_lexicon(path).fingerprint() == want

    def test_toy_pairs_file(self, tmp_path):
        path = write(
            tmp_path,
            "pairs.tsv",
            "\n".join(f"{v}\t{w}" for w in TOY_STANDARD for v in toy_variants(w)) + "\n",
        )
        want = "f6b1adecdf25db1f532fffafe7fb0666423cfbafd81c2ee00cb5eed94da18902"
        assert load_lexicon(path).fingerprint() == want


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

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(WORD, WORD), min_size=1, max_size=8),
        keep=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_fingerprint_equals_the_line_per_word_reference(self, pairs, keep):
        # non-ASCII, astral and combining characters, standard words that are also
        # variants, and a lexicon made by hand that leaves variants without a standard form
        try:
            lex = build_lexicon(pairs)
        except AmbiguityError:
            assume(False)
        kept = {i: std for k, (i, std) in zip(keep, lex.standard_of.items()) if k}
        stripped = Lexicon(words=lex.words, standard_flags=lex.standard_flags, standard_of=kept)
        for lexicon in (lex, stripped):
            assert lexicon.fingerprint() == fingerprint_reference(lexicon)

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


class TestWordIds:
    @pytest.mark.parametrize(
        "ids", [2.5, 2.0, np.float64(2.0), "3", b"3", True, np.bool_(True), None, [3], (3,)]
    )
    def test_one_id_that_is_not_an_integer(self, ids):
        with pytest.raises(TypeError, match="word id must be an integer"):
            word_id(ids, 10)

    @pytest.mark.parametrize(
        "ids", [2.5, "3", True, [1, 2.5], [1, "3"], [True, 1], [1, [2]], [[1, 2]], [(1,)]]
    )
    def test_sequence_with_an_id_that_is_not_an_integer(self, ids):
        with pytest.raises(TypeError, match="word id must be an integer"):
            word_ids(ids, 10)

    @pytest.mark.parametrize(
        "ids", [np.array([1.0, 2.0]), np.array([True, False]), np.array(["1"]), np.array([[1, 2]])]
    )
    def test_array_that_is_not_integer_ids(self, ids):
        with pytest.raises(TypeError, match="word ids must be integers"):
            word_ids(ids, 10)

    @pytest.mark.parametrize("ids", [[], (), np.array([]), np.array([], dtype=np.intp)])
    def test_empty_sequence_is_valid(self, ids):
        got = word_ids(ids, 10)
        assert got.dtype == np.intp and got.shape == (0,)

    def test_integers_of_every_kind(self):
        assert word_id(np.int32(3), 10) == 3 and type(word_id(np.int64(3), 10)) is int
        assert word_ids(4, 10).shape == () and int(word_ids(4, 10)) == 4
        assert word_ids([1, np.int64(2), np.uint8(3)], 10).tolist() == [1, 2, 3]
        assert word_ids(range(3), 10).tolist() == [0, 1, 2]
        assert word_ids(np.arange(3, dtype=np.uint16), 10).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range(self, bad):
        with pytest.raises(IndexError, match=f"word id {bad} out of range for \\|A\\|=10"):
            word_id(bad, 10)
        for ids in ([0, bad], np.array([0, bad])):
            with pytest.raises(IndexError, match=f"word id {bad} out of range for \\|A\\|=10"):
                word_ids(ids, 10)

    def test_one_hot_takes_one_integer_id(self, toy_lexicon):
        for bad in (1.0, [1], True):
            with pytest.raises(TypeError):
                one_hot(toy_lexicon, bad)


class TestLoadCorpus:
    def test_basic(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "thing water\nhouse night\nright friend\n")
        corpus = load_corpus(path, toy_lexicon)
        assert len(corpus) == 3
        assert corpus.oov_count == 0
        assert corpus.token_count == 6

    def test_skip_token(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "thing zebra water\n")
        corpus = load_corpus(path, toy_lexicon)
        assert corpus.sentences == ((toy_lexicon.id_of("thing"), toy_lexicon.id_of("water")),)
        assert corpus.oov_count == 1

    def test_not_utf8(self, tmp_path, toy_lexicon):
        path = tmp_path / "c.txt"
        path.write_bytes(b"thing water\n\nhouse caf\xe9\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8"):
            load_corpus(path, toy_lexicon)

    def test_leading_bom_is_dropped(self, tmp_path, toy_lexicon):
        path = tmp_path / "c.txt"
        path.write_bytes(BOM + b"thing water\n")
        corpus = load_corpus(path, toy_lexicon)
        assert corpus.sentences == ((toy_lexicon.id_of("thing"), toy_lexicon.id_of("water")),)
        assert corpus.oov_count == 0

    def test_all_empty_is_error(self, tmp_path, toy_lexicon):
        path = write(tmp_path, "c.txt", "zebra\n\n")
        with pytest.raises(WordsimError):
            load_corpus(path, toy_lexicon)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(st.lists(st.sampled_from(CORPUS_TOKENS), max_size=5), max_size=6),
        gaps=st.lists(st.sampled_from(GAPS), min_size=30, max_size=30),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r", ""]), min_size=6, max_size=6),
        bom=st.booleans(),
        bad_line=st.one_of(st.none(), st.integers(0, 5)),
    )
    def test_equal_to_the_per_token_loader(self, tmp_path_factory, lines, gaps, ends, bom, bad_line):
        # casefolds that change a token's length, tokens outside the lexicon, blank
        # lines, whitespace beyond ASCII, a leading BOM and a line that is not UTF-8
        gap = iter(gaps)
        text = [(next(gap) + next(gap).join(line) + next(gap)).encode() for line in lines]
        if bad_line is not None and bad_line < len(text):
            text[bad_line] += b"caf\xe9"
        data = (BOM if bom else b"") + b"".join(t + e.encode() for t, e in zip(text, ends))
        path = tmp_path_factory.getbasetemp() / "corpus.txt"
        path.write_bytes(data)
        try:
            want = load_corpus_reference(path, CORPUS_LEXICON)
        except WordsimError as exc:  # ParseError included
            with pytest.raises(type(exc)) as info:
                load_corpus(path, CORPUS_LEXICON)
            assert str(info.value) == str(exc)
        else:
            assert load_corpus(path, CORPUS_LEXICON) == want
