import dataclasses
import gc
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsim import evalharness, gramfam
from wordsim.candidates import CandidateTable
from wordsim.contextenc import EmbeddingMatrix
from wordsim.denoise import build_autoencoder, nearest_standard, train_autoencoder
from wordsim.errors import BindingError, ConfigError, NumericError
from wordsim.evalharness import (
    EvalReport,
    CLASSICAL_METRICS,
    MEMO_ENTRIES,
    MetricSpec,
    _rows,
    _top_k,
    evaluate_accuracies,
    evaluate_accuracy,
    export_report,
    load_report,
    qualitative_neighbors,
    scores,
)
from wordsim.lexicon import build_lexicon
from wordsim.neural import TrainConfig
from wordsim.vecdist import VECTOR_METRICS


@pytest.fixture(scope="module")
def trained_da(toy_lexicon):
    model = build_autoencoder(toy_lexicon, code_size=8, depth=5, seed=0)
    train_autoencoder(
        model, toy_lexicon, TrainConfig(batch_size=16, learning_rate=0.05, epochs=200, seed=0)
    )
    return model


class TestMetricSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            MetricSpec(name="x", kind="mystery")

    def test_unknown_classical(self):
        with pytest.raises(ConfigError):
            MetricSpec(name="soundex")

    @pytest.mark.parametrize("name, kind, params, unread", [
        ("ngram", "classical", {"q": 3}, "['q']"),
        ("levenshtein", "classical", {"n": 2, "model": None}, "['model']"),
        ("Dc", "learned-Dc", {"model": np.ones((2, 2)), "vec_metrc": "L1"}, "['vec_metrc']"),
        ("Da", "learned-Da", {"model": None, "n": 2}, "['n']"),
    ])
    def test_a_parameter_the_kind_does_not_read(self, name, kind, params, unread):
        with pytest.raises(ConfigError, match=re.escape(f"does not read {unread}")):
            MetricSpec(name, kind, params)

    @pytest.mark.parametrize("kind", ["learned-Da", "learned-Dc"])
    @pytest.mark.parametrize("vec_metric", ["cosin", "l2", None, ["L1"]])
    def test_an_unknown_vec_metric_is_refused_at_construction(self, toy_lexicon, kind, vec_metric):
        message = f"unknown vec_metric {vec_metric!r}; choose from {sorted(VECTOR_METRICS)}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            MetricSpec(kind[-2:], kind, {"model": None, "vec_metric": vec_metric})
        rows = np.ones((len(toy_lexicon), 2))
        with pytest.raises(ConfigError, match=re.escape(message)):
            nearest_standard(rows, toy_lexicon, 0, vec_metric=vec_metric)
        for name in VECTOR_METRICS:
            MetricSpec(kind[-2:], kind, {"model": None, "vec_metric": name})

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_a_gram_length_that_is_not_an_int(self, n):
        with pytest.raises(ConfigError, match="gram length n must be an int"):
            evalharness.classical_distance("qgram", "abcd", "abce", n=n)

    def test_classical_distance_reads_the_gram_length(self):
        got = evalharness.classical_distance("ngram", "abcd", "abce", n=3)
        assert got == gramfam.kondrak_ngram_distance("abcd", "abce", 3)
        assert got != evalharness.classical_distance("ngram", "abcd", "abce")  # the n=2 value
        # the metrics without a gram length take n and leave it unread
        assert evalharness.classical_distance("levenshtein", "ab", "ba", n=3) == 2.0

    def test_classical_distance_of_an_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown classical metric: 'nope'"):
            evalharness.classical_distance("nope", "a", "b")


class TestEvaluateAccuracy:
    def test_degenerate_single_pair(self):
        lex = build_lexicon([("thng", "thing")])
        acc = evaluate_accuracy(MetricSpec(name="levenshtein"), lex, ks=(1,))
        assert acc[1] == 100.0

    def test_monotone_in_k(self, toy_lexicon):
        acc = evaluate_accuracy(
            MetricSpec(name="normalized-levenshtein"), toy_lexicon, ks=(1, 2, 5, 10)
        )
        values = [acc[k] for k in (1, 2, 5, 10)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 100.0 for v in values)

    def test_learned_metric_on_toy(self, toy_lexicon, trained_da):
        spec = MetricSpec(name="Da", kind="learned-Da", params={"model": trained_da})
        acc = evaluate_accuracy(spec, toy_lexicon, ks=(1,))
        assert acc[1] >= 90.0

    def test_binding_error(self, small_lexicon, trained_da):
        spec = MetricSpec(name="Da", kind="learned-Da", params={"model": trained_da})
        with pytest.raises(BindingError):
            evaluate_accuracy(spec, small_lexicon, ks=(1,))

    def test_deterministic_tie_breaking(self, toy_lexicon):
        spec = MetricSpec(name="qgram", params={"n": 2})
        a = evaluate_accuracy(spec, toy_lexicon, ks=(1, 5))
        b = evaluate_accuracy(spec, toy_lexicon, ks=(1, 5))
        assert a == b

    def test_no_nonstandard_words_rejected(self):
        lex = build_lexicon([("thng", "thing")])
        from wordsim.lexicon import Lexicon

        all_standard = Lexicon(
            words=lex.words, standard_flags=(True, True), standard_of={}
        )
        with pytest.raises(ConfigError):
            evaluate_accuracy(MetricSpec(name="levenshtein"), all_standard)

    @pytest.mark.parametrize("ks", [(0,), (1, -1), (-5, 5)])
    def test_k_below_one_rejected(self, ks):
        lex = build_lexicon([("thng", "thing")])
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate_accuracy(MetricSpec(name="levenshtein"), lex, ks=ks)

    @pytest.mark.parametrize("ks", [(1, 2.5), (2.0,), (True,), ("2",), (None,)])
    def test_k_that_is_not_an_integer_rejected(self, ks):
        lex = build_lexicon([("thng", "thing")])
        with pytest.raises(TypeError, match="^k must be an integer, got "):
            evaluate_accuracy(MetricSpec(name="levenshtein"), lex, ks=ks)
        assert evaluate_accuracy(MetricSpec(name="levenshtein"), lex, ks=(np.int64(1),)) == {1: 100.0}

    def test_exact_ngram_tie_ranks_by_word_id(self):
        # at n=3 both candidates are exactly 3/4 from the query; the one of
        # lower id ranks first, whatever the rounding of the two values
        lex = build_lexicon([("cqaieffk", "cqaieffk"), ("ghtlfci", "noytztnd")])
        assert lex.id_of("cqaieffk") < lex.id_of("noytztnd")
        spec = MetricSpec(name="ngram", params={"n": 3})
        assert evaluate_accuracy(spec, lex, ks=(1, 2)) == {1: 0.0, 2: 100.0}

    def test_many_specs_equal_one_at_a_time(self, toy_lexicon, trained_da):
        specs = [MetricSpec(name) for name in sorted(CLASSICAL_METRICS)]
        specs += [
            MetricSpec("Da", "learned-Da", {"model": trained_da}),
            MetricSpec("dice", params={"n": 3}),
        ]
        together = evaluate_accuracies(specs, toy_lexicon, ks=(1, 3))
        assert together == [evaluate_accuracy(spec, toy_lexicon, ks=(1, 3)) for spec in specs]

    @pytest.mark.parametrize("name", ["levenshtein", "ngram"])
    def test_memory_is_one_row_per_query(self, name):
        # 300 queries x 2000 candidates: a float64 distance matrix would take 4.8 MB
        rng = np.random.default_rng(0)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        words = {"".join(rng.choice(letters, size=rng.integers(5, 11))) for _ in range(2100)}
        standard = sorted(words)[:2000]
        pairs = [(w[::-1] + "x", w) for w in standard[:300]] + [(w, w) for w in standard]
        lex = build_lexicon(pairs)
        matrix = len(lex.nonstandard_ids) * len(lex.standard_ids) * 8
        peaks = []
        for _ in range(2):  # the first call also builds the candidate table
            tracemalloc.start()
            try:
                evaluate_accuracy(MetricSpec(name), lex, ks=(1, 5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < matrix / 2
        assert peaks[1] < matrix / 5


def ranked(distances, ids):
    """Every id ordered by (distance, id), as the listings order them."""
    return [ids[i] for i in _top_k(distances, ids, len(ids))]


class TestRanking:
    def test_invariant_under_monotone_transform(self, toy_lexicon):
        rng = np.random.default_rng(0)
        U = rng.normal(size=(len(toy_lexicon), 6))
        std = list(toy_lexicon.standard_ids)
        q = toy_lexicon.nonstandard_ids[0]
        dists = [float(np.linalg.norm(U[q] - U[c])) for c in std]
        squared = [d * d for d in dists]
        assert ranked(dists, std) == ranked(squared, std)

    def test_ties_break_by_word_id(self):
        std = [7, 3, 5]
        assert ranked([1.0, 1.0, 0.5], std) == [5, 3, 7]


# few distinct values, so that exact ties are common, with both zeros, infinities and NaN
TIE_PRONE = st.sampled_from([0.0, -0.0, 0.25, 1.0, 1.0 + 2**-52, np.inf, -np.inf, np.nan])
DISTANCE = TIE_PRONE | st.floats(allow_nan=True, allow_infinity=True)


class TestTopK:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.tuples(DISTANCE, st.integers(0, 12)), max_size=40),
        st.sampled_from(["distinct", "repeated"]),
    )
    def test_equals_the_full_lexsort(self, entries, id_kind):
        d = np.array([e[0] for e in entries], dtype=float)
        ids = np.array([e[1] for e in entries], dtype=np.intp)
        if id_kind == "distinct":
            ids = np.argsort(ids, kind="stable")[::-1].copy()
        n = len(d)
        for k in {1, n - 1, n, n + 3} - {-1}:
            got = _top_k(d, ids, k)
            assert got.tolist() == np.lexsort((ids, d))[:k].tolist(), k

    def test_empty_row(self):
        empty = np.array([])
        assert _top_k(empty, np.array([], dtype=np.intp), 1).tolist() == []

    def test_ties_at_the_kth_distance_rank_by_id(self):
        d = np.array([3.0, 1.0, 2.0, 1.0, 1.0, 0.5])
        ids = np.array([0, 9, 1, 4, 7, 2])
        assert _top_k(d, ids, 2).tolist() == [5, 3]
        assert _top_k(d, ids, 3).tolist() == [5, 3, 4]


class TestScores:
    def test_learned_l1_equals_numpy_reference(self, toy_lexicon):
        rows = np.random.default_rng(0).normal(size=(len(toy_lexicon), 11))
        spec = MetricSpec(name="Dc", kind="learned-Dc", params={"model": rows, "vec_metric": "L1"})
        queries, candidates = list(toy_lexicon.nonstandard_ids), list(toy_lexicon.standard_ids)
        reference = np.sum(np.abs(rows[queries][:, None, :] - rows[candidates][None, :, :]), axis=-1)
        got = scores(spec, toy_lexicon, queries, candidates)
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("kind", ["classical", "learned-Dc"])
    def test_out_of_range_ids(self, toy_lexicon, kind):
        rows = np.ones((len(toy_lexicon), 3))
        spec = MetricSpec(name="levenshtein" if kind == "classical" else "Dc", kind=kind,
                          params={} if kind == "classical" else {"model": rows})
        for bad in (-1, len(toy_lexicon)):
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                scores(spec, toy_lexicon, [0, bad], [1])
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                scores(spec, toy_lexicon, [0], [1, bad])


    @pytest.mark.parametrize("role", ["query", "candidate"])
    @pytest.mark.parametrize("metric", ["L1", "L2", "cosine"])
    def test_non_finite_vector(self, toy_lexicon, role, metric):
        rows = np.random.default_rng(1).normal(size=(len(toy_lexicon), 3))
        rows[2 if role == "query" else 5, 0] = np.nan
        spec = MetricSpec(name="Dc", kind="learned-Dc", params={"model": rows, "vec_metric": metric})
        with pytest.raises(NumericError, match="non-finite value"):
            scores(spec, toy_lexicon, [0, 2], [1, 5])
        assert np.isfinite(scores(spec, toy_lexicon, [0, 1], [3, 4])).all()

    def test_ids_that_are_not_integers(self, toy_lexicon):
        spec = MetricSpec(name="levenshtein")
        for queries, candidates in (([2.5], [1]), ([0], ["3"]), ([True], [1]), ([[0, 1]], [1])):
            with pytest.raises(TypeError, match="word id must be an integer"):
                scores(spec, toy_lexicon, queries, candidates)
        assert scores(spec, toy_lexicon, [], [1, 2]).shape == (0, 2)


class TestQualitativeNeighbors:
    def test_standard_query_da_self_first(self, toy_lexicon, trained_da):
        spec = MetricSpec(name="Da", kind="learned-Da", params={"model": trained_da})
        word = toy_lexicon.word_of(toy_lexicon.standard_ids[0])
        out = qualitative_neighbors(spec, toy_lexicon, [word], k=3)
        top = out[word]["neighbors"][0]
        assert top["word"] == word
        assert top["distance"] == pytest.approx(0.0)

    def test_da_candidates_all_standard(self, toy_lexicon, trained_da):
        spec = MetricSpec(name="Da", kind="learned-Da", params={"model": trained_da})
        out = qualitative_neighbors(spec, toy_lexicon, ["thng"], k=5)
        standard_words = {toy_lexicon.word_of(c) for c in toy_lexicon.standard_ids}
        for entry in out["thng"]["neighbors"]:
            assert entry["word"] in standard_words

    def test_dc_embedding_bound_to_another_lexicon(self, toy_lexicon, small_lexicon):
        emb = EmbeddingMatrix(
            U=np.ones((len(toy_lexicon), 4)),
            lexicon_fingerprint=small_lexicon.fingerprint(),
        )
        spec = MetricSpec(name="Dc", kind="learned-Dc", params={"model": emb})
        with pytest.raises(BindingError):
            qualitative_neighbors(spec, toy_lexicon, ["thng"], k=3)

    def test_dc_raw_rows_must_match_lexicon(self, toy_lexicon):
        rows = np.random.default_rng(0).normal(size=(len(toy_lexicon) + 1, 4))
        spec = MetricSpec(name="Dc", kind="learned-Dc", params={"model": rows})
        with pytest.raises(BindingError):
            qualitative_neighbors(spec, toy_lexicon, ["thng"], k=3)
        with pytest.raises(BindingError):
            evaluate_accuracy(spec, toy_lexicon, ks=(1,))

    def test_da_model_bound_to_another_lexicon(self, small_lexicon, trained_da):
        spec = MetricSpec(name="Da", kind="learned-Da", params={"model": trained_da})
        word = small_lexicon.word_of(0)
        with pytest.raises(BindingError):
            qualitative_neighbors(spec, small_lexicon, [word], k=3)

    def test_unknown_query_is_error_entry(self, toy_lexicon):
        spec = MetricSpec(name="levenshtein")
        out = qualitative_neighbors(spec, toy_lexicon, ["zzzz", "thng"], k=2)
        assert "error" in out["zzzz"]
        assert "neighbors" in out["thng"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        lex = build_lexicon([("thng", "thing"), ("nite", "night"), ("wat", "what")])
        with pytest.raises(ValueError, match="k must be >= 1"):
            qualitative_neighbors(MetricSpec(name="levenshtein"), lex, ["thng"], k=k)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_k_that_is_not_an_integer_rejected(self, k):
        lex = build_lexicon([("thng", "thing"), ("nite", "night"), ("wat", "what")])
        with pytest.raises(TypeError, match="^k must be an integer, got "):
            qualitative_neighbors(MetricSpec(name="levenshtein"), lex, ["thng"], k=k)

    def test_query_words_are_looked_up_normalised(self, toy_lexicon):
        spec = MetricSpec(name="levenshtein")
        out = qualitative_neighbors(spec, toy_lexicon, ["THNG", " thng ", "thng"], k=3)
        assert list(out) == ["THNG", " thng ", "thng"]
        assert out["THNG"] == out[" thng "] == out["thng"]
        assert "thng" not in [n["word"] for n in out["THNG"]["neighbors"]]


class TestCandidateMemo:
    """The lexicon's one memo of classical tables and learned rows, keyed by (metric kind,
    candidate id bytes): MEMO_ENTRIES entries, the least recently used dropped first.
    """

    @pytest.fixture
    def lex(self, toy_lexicon):
        """toy_lexicon's words in a lexicon of its own, so that its memo starts empty."""
        return dataclasses.replace(toy_lexicon)

    @pytest.fixture
    def built(self, monkeypatch):
        """The CandidateTables scoring builds, in order."""
        tables = []

        def counting(words):
            tables.append(CandidateTable(words))
            return tables[-1]

        monkeypatch.setattr(evalharness, "CandidateTable", counting)
        return tables

    @staticmethod
    def read_only_rows(lex):
        rows = np.random.default_rng(3).normal(size=(len(lex), 5))
        rows.flags.writeable = False
        return rows

    @staticmethod
    def all_but(lex, q):
        """Every word id but q: one candidate set per query, as a leave-one-out listing scores."""
        return np.delete(np.arange(len(lex)), q)

    def test_scores_and_eval_on_one_candidate_set_build_one_table(self, lex, built):
        spec = MetricSpec("levenshtein")
        first = scores(spec, lex, [0, 1], lex.standard_ids)
        assert scores(spec, lex, [0, 1], lex.standard_array).tobytes() == first.tobytes()
        evaluate_accuracies([spec, MetricSpec("dice")], lex)
        assert len(built) == 1
        assert lex._prepared == {("classical", lex.standard_array.tobytes()): built[0]}

    def test_classical_specs_of_one_rows_call_share_the_table_and_queries(self, lex, built, monkeypatch):
        seen = {}
        for name in ("levenshtein", "ngram"):
            kernel = CLASSICAL_METRICS[name]

            def spy(query, _name=name, _kernel=kernel, **params):
                seen.setdefault(_name, []).append((query, query.table))
                return _kernel(query, **params)

            monkeypatch.setitem(CLASSICAL_METRICS, name, spy)
        specs = [MetricSpec("levenshtein"), MetricSpec("ngram", params={"n": 3})]
        rows = list(_rows(specs, lex, lex.nonstandard_ids, lex.standard_array))
        assert len(rows) == len(lex.nonstandard_ids) and len(built) == 1
        assert seen["levenshtein"] == seen["ngram"]
        assert {id(table) for _, table in seen["ngram"]} == {id(built[0])}
        assert len({id(query) for query, _ in seen["ngram"]}) == len(lex.nonstandard_ids)

    def test_warm_reports_and_listings_equal_fresh_ones_byte_for_byte(self, toy_lexicon, tmp_path):
        warm = dataclasses.replace(toy_lexicon)
        specs = [MetricSpec(name) for name in CLASSICAL_METRICS]
        words = list(warm.words)

        def outputs(lex, path):
            export_report(EvalReport(dict(zip(CLASSICAL_METRICS, evaluate_accuracies(specs, lex)))), path)
            listings = [qualitative_neighbors(spec, lex, words, k=len(lex)) for spec in specs]
            return path.read_bytes(), json.dumps(listings).encode()

        fresh = outputs(dataclasses.replace(toy_lexicon), tmp_path / "fresh.json")
        for n in range(2):  # the first round builds the tables, the second reads them
            assert outputs(warm, tmp_path / f"warm{n}.json") == fresh
        assert len(warm._prepared) == 2

    @pytest.mark.parametrize("name", ["levenshtein", "Dc"])
    def test_many_candidate_sets_leave_the_memo_at_its_bound(self, lex, name):
        if name == "Dc":
            spec = MetricSpec(name, "learned-Dc", {"model": self.read_only_rows(lex)})
        else:
            spec = MetricSpec(name)
        first = scores(spec, lex, [0], self.all_but(lex, 0))
        entry = lex._prepared[(spec.kind, self.all_but(lex, 0).tobytes())]
        assert len(lex) > 2 * MEMO_ENTRIES
        for q in range(1, len(lex)):
            scores(spec, lex, [q], self.all_but(lex, q))
            assert len(lex._prepared) == min(q + 1, MEMO_ENTRIES)
        assert list(lex._prepared) == [(spec.kind, self.all_but(lex, q).tobytes())
                                       for q in range(len(lex) - MEMO_ENTRIES, len(lex))]
        again = scores(spec, lex, [0], self.all_but(lex, 0))
        rebuilt = lex._prepared[(spec.kind, self.all_but(lex, 0).tobytes())]
        assert rebuilt is not entry and again.tobytes() == first.tobytes()
        if name == "Dc":
            assert rebuilt.rows.tobytes() == entry.rows.tobytes()
            assert rebuilt.norms.tobytes() == entry.norms.tobytes()

    def test_alternating_da_and_dc_stay_warm_while_other_sets_come_and_go(self, lex, trained_da):
        rows = self.read_only_rows(lex)
        nearest_standard(trained_da, lex, 0)
        nearest_standard(rows, lex, 0)
        key = lex.standard_array.tobytes()
        da, dc = lex._prepared[("learned-Da", key)], lex._prepared[("learned-Dc", key)]
        spec = MetricSpec("levenshtein")
        for q in range(len(lex)):
            scores(spec, lex, [q], self.all_but(lex, q))
            nearest_standard(trained_da, lex, q)
            nearest_standard(rows, lex, q)
            assert lex._prepared[("learned-Da", key)] is da and lex._prepared[("learned-Dc", key)] is dc
        assert len(lex._prepared) == MEMO_ENTRIES

    def test_an_entry_does_not_keep_a_replaced_array_alive(self, lex):
        old = self.read_only_rows(lex)
        first = nearest_standard(old, lex, 0)
        kept = weakref.ref(old)
        del old
        gc.collect()
        assert kept() is not None  # the memo's entry holds it
        assert nearest_standard(self.read_only_rows(lex), lex, 0) == first
        gc.collect()
        assert kept() is None
        assert len(lex._prepared) == 1


class TestExportReport:
    def report(self):
        return EvalReport(
            accuracies={"levenshtein": {1: 50.0, 5: 80.0}, "qgram": {1: 40.0, 5: 70.0}},
            metadata={"seed": 0},
        )

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        export_report(self.report(), path)
        loaded = load_report(path)
        assert loaded.accuracies == self.report().accuracies
        assert loaded.metadata == self.report().metadata

    def test_csv_row_count(self, tmp_path):
        path = tmp_path / "report.csv"
        export_report(self.report(), path, format="csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,k,accuracy_percent"
        assert len(lines) == 1 + 2 * 2

    def test_deterministic_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        export_report(self.report(), a)
        export_report(self.report(), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "fmt,report",
        [
            # json cannot encode the metadata; the csv rows hold a name UTF-8 cannot encode
            ("json", EvalReport(accuracies={"lcs": {1: 50.0}}, metadata={"created": object()})),
            ("csv", EvalReport(accuracies={"lcs": {1: 50.0}, "\udc80": {1: 40.0}})),
        ],
        ids=["json", "csv"],
    )
    def test_report_that_cannot_be_encoded_keeps_the_existing_file(self, tmp_path, fmt, report):
        path = tmp_path / f"report.{fmt}"
        path.write_bytes(b"an earlier report\n")
        with pytest.raises((TypeError, UnicodeEncodeError)):
            export_report(report, path, format=fmt)
        assert path.read_bytes() == b"an earlier report\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_report(self.report(), tmp_path / "x", format="xml")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "not a JSON object"),
            ('{"report_version": 1}', "lacks the field 'accuracies'"),
            ("{not json", "not a JSON file"),
            ('{"report_version": 1, "accuracies": [1]}', "'accuracies' is not an object"),
            (
                '{"report_version": 1, "accuracies": {"levenshtein": [50.0]}}',
                "'accuracies.levenshtein' is not an object",
            ),
            (
                '{"report_version": 1, "accuracies": {"lev": {"x": 1}}}',
                "'accuracies.lev' has a key that is not an integer",
            ),
            (
                '{"report_version": 1, "accuracies": {"lev": {"1": "x"}}}',
                "'accuracies.lev' has a value that is not a number",
            ),
            (
                '{"report_version": 1, "accuracies": {"lev": {"1": true}}}',
                "'accuracies.lev' has a value that is not a number",
            ),
            *(
                pytest.param(
                    '{"report_version": 1, "accuracies": {"lev": {"%s": 5.0}}}' % key,
                    "'accuracies.lev' has a key that is not an integer k >= 1",
                    id=f"key={key[:8]}",
                )
                for key in ["-3", "0", " 2", "+4", "1_0", "01", "\\u0663", "1e2", "", "9" * 5000]
            ),
            *(
                pytest.param(
                    '{"report_version": 1, "accuracies": {"lev": {"1": %s}}}' % value,
                    "'accuracies.lev' has a value that is not a number in \\[0, 100\\]",
                    id=f"accuracy={value}",
                )
                for value in ["NaN", "Infinity", "-Infinity", "1e308", "-4.0", "100.5", "101"]
            ),
        ],
    )
    def test_malformed_report_rejected(self, tmp_path, text, message):
        path = tmp_path / "report.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_report(path)
