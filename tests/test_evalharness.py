import numpy as np
import pytest

from wordsim.contextenc import EmbeddingMatrix
from wordsim.denoise import build_autoencoder, train_autoencoder
from wordsim.errors import BindingError, ConfigError
from wordsim.evalharness import (
    EvalReport,
    MetricSpec,
    _top_k,
    evaluate_accuracy,
    export_report,
    load_report,
    neighbor_curve,
    qualitative_neighbors,
    scores,
)
from wordsim.lexicon import build_lexicon
from wordsim.neural import TrainConfig


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
        spec = MetricSpec(name="qgram", params={"q": 2})
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


class TestNeighborCurve:
    def test_full_curve_hits_100(self, toy_lexicon):
        spec = MetricSpec(name="levenshtein")
        K = len(toy_lexicon.standard_ids)
        curve = neighbor_curve(spec, toy_lexicon, K)
        assert curve[-1] == (K, 100.0)
        accs = [a for _, a in curve]
        assert accs == sorted(accs)

    def test_first_point_matches_evaluate(self, toy_lexicon):
        spec = MetricSpec(name="jaccard", params={"n": 2})
        curve = neighbor_curve(spec, toy_lexicon, 3)
        acc = evaluate_accuracy(spec, toy_lexicon, ks=(1,))
        assert curve[0] == (1, acc[1])

    def test_k_validation(self, toy_lexicon):
        with pytest.raises(ValueError):
            neighbor_curve(MetricSpec(name="levenshtein"), toy_lexicon, 0)


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
                          params={"model": rows})
        for bad in (-1, len(toy_lexicon)):
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                scores(spec, toy_lexicon, [0, bad], [1])
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                scores(spec, toy_lexicon, [0], [1, bad])


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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_report(self.report(), tmp_path / "x", format="xml")
