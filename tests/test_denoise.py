import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from wordsim import evalharness, neural, vecdist
from wordsim.contextenc import EmbeddingMatrix
from wordsim.denoise import (
    AutoencoderModel,
    build_autoencoder,
    distance_Da,
    encode,
    encode_all,
    hourglass_widths,
    load_autoencoder,
    nearest_standard,
    save_autoencoder,
    train_autoencoder,
)
from wordsim.errors import BindingError, ConfigError, NumericError
from wordsim.evalharness import MetricSpec, evaluate_accuracy, qualitative_neighbors, scores
from wordsim.lexicon import build_lexicon
from wordsim.vecdist import VECTOR_METRICS, cosine, nonzero_norms as norms
from wordsim.neural import TrainConfig, forward

from conftest import MALFORMED_ARRAYS, identity_codes, second_piece_write, wide_lexicon

# a model container's network broken outside its arrays, and the message naming the field
MALFORMED_CONTAINERS = {
    "network-a-list": (lambda data: data.update(network=[1, 2]), "network is not an object"),
    "layers-a-string": (
        lambda data: data["network"].update(layers="abc"), "'layers' is not a list of objects"
    ),
    "layers-numbers": (
        lambda data: data["network"].update(layers=[1, 2]), "'layers' is not a list of objects"
    ),
    "topology-an-int": (lambda data: data["network"].update(topology=4), "'topology' is not a list"),
}


def trained_model(lex, seed=0, epochs=100):
    model = build_autoencoder(lex, code_size=4, depth=5, seed=seed)
    config = TrainConfig(batch_size=8, learning_rate=0.1, epochs=epochs, seed=seed)
    trace = train_autoencoder(model, lex, config)
    return model, trace


class TestHourglassWidths:
    def test_minimal(self):
        assert hourglass_widths(8, 2, 3) == [8, 2, 8]

    def test_symmetric_and_monotone(self):
        widths = hourglass_widths(3000, 11, 7)
        assert widths == widths[::-1]
        assert len(widths) == 7
        assert widths[3] == 11
        assert all(a >= b for a, b in zip(widths[:4], widths[1:4]))

    def test_even_depth_rejected(self):
        with pytest.raises(ConfigError):
            hourglass_widths(8, 2, 4)

    def test_no_compression_rejected(self):
        with pytest.raises(ConfigError):
            hourglass_widths(8, 8, 3)


class TestBuild:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 1.5}, "seed must be an int, got 1.5"),
            ({"seed": True}, "seed must be an int, got True"),
            ({"seed": np.int64(2)}, "seed must be an int, got "),
            ({"code_size": 2.0}, "code_size must be an int, got 2.0"),
            ({"depth": 5.0}, "depth must be an int, got 5.0"),
            ({"depth": True}, "depth must be an int, got True"),
        ],
        ids=["negative-seed", "float-seed", "bool-seed", "int64-seed", "float-code_size",
             "float-depth", "bool-depth"],
    )
    def test_counts_must_be_ints(self, small_lexicon, kwargs, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            build_autoencoder(small_lexicon, **{"code_size": 4, "depth": 5, **kwargs})

    def test_io_widths_match_vocab(self, small_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        assert model.net.topology[0] == len(small_lexicon)
        assert model.net.topology[-1] == len(small_lexicon)
        assert model.net.topology[2] == 4
        assert model.net.layers[-1].activation == "softmax"

    def test_bound_to_lexicon(self, small_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        assert model.lexicon_fingerprint == small_lexicon.fingerprint()


class TestEncode:
    def test_deterministic(self, small_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5, seed=3)
        a = encode(model, small_lexicon, 0)
        b = encode(model, small_lexicon, 0)
        assert np.array_equal(a, b)

    def test_code_width(self, small_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        assert encode(model, small_lexicon, 1).shape == (4,)

    def test_binding_mismatch(self, small_lexicon, toy_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        with pytest.raises(BindingError):
            encode(model, toy_lexicon, 0)

    def test_encode_all_matches_encode(self, small_lexicon):
        # past the first layer, encode multiplies one row and encode_all |A| rows,
        # and the two products may round apart in the last bits
        for depth in (3, 5, 7):
            model = build_autoencoder(small_lexicon, code_size=4, depth=depth, seed=1)
            codes = encode_all(model, small_lexicon)
            for i in range(len(small_lexicon)):
                if depth == 3:
                    assert np.array_equal(codes[i], encode(model, small_lexicon, i))
                else:
                    np.testing.assert_allclose(
                        codes[i], encode(model, small_lexicon, i), rtol=1e-12, atol=0
                    )

    @pytest.mark.parametrize("activation", ["identity", "sigmoid"])
    def test_encode_all_equals_the_identity_matrix_product(self, toy_lexicon, activation):
        model = build_autoencoder(toy_lexicon, code_size=6, depth=7, seed=2)
        for layer in model.net.layers[:-1]:
            layer.activation = activation
        before = encode_all(model, toy_lexicon)  # training must not leave these codes behind
        assert np.array_equal(before, identity_codes(model, toy_lexicon))
        train_autoencoder(model, toy_lexicon, TrainConfig(batch_size=16, learning_rate=0.1))
        after = encode_all(model, toy_lexicon)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, identity_codes(model, toy_lexicon))

    def test_encode_all_after_a_direct_sgd_step(self, toy_lexicon):
        model = build_autoencoder(toy_lexicon, code_size=6, depth=5, seed=2)
        before = encode_all(model, toy_lexicon)
        grads, _ = neural.backward(model.net, np.array([0, 1]), np.array([1, 0]))
        neural.sgd_step(model.net, grads, 0.1)
        after = encode_all(model, toy_lexicon)
        assert not np.array_equal(after, before)
        assert np.array_equal(after, identity_codes(model, toy_lexicon))

    def test_encode_all_returns_one_read_only_array(self, small_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5, seed=1)
        codes = encode_all(model, small_lexicon)
        assert encode_all(model, small_lexicon) is codes
        with pytest.raises(ValueError):
            codes[0, 0] = 1.0

    def test_encode_all_hit_runs_no_layer_product(self, small_lexicon, monkeypatch):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5, seed=1)
        calls = []
        affine = neural._affine

        def counted(layer, a):
            calls.append(layer)
            return affine(layer, a)

        monkeypatch.setattr(neural, "_affine", counted)
        codes = encode_all(model, small_lexicon)
        assert len(calls) == model.bottleneck_index + 1
        calls.clear()
        assert encode_all(model, small_lexicon) is codes
        assert calls == []

    def test_a_loaded_model_encodes_afresh(self, small_lexicon, tmp_path):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5, seed=1)
        codes = encode_all(model, small_lexicon)
        save_autoencoder(model, tmp_path / "ae.json")
        loaded = load_autoencoder(tmp_path / "ae.json")
        assert loaded.net._codes is None
        assert np.array_equal(encode_all(loaded, small_lexicon), codes)


class TestTrain:
    def test_single_pair_memorized(self):
        lex = build_lexicon([("thng", "thing"), ("wter", "water")])
        model = build_autoencoder(lex, code_size=2, depth=3, seed=0)
        train_autoencoder(
            model, lex, TrainConfig(batch_size=4, learning_rate=0.5, epochs=300, seed=0)
        )
        out = forward(model.net, np.eye(len(lex)))[-1]
        for mid, cid in lex.standard_of.items():
            assert int(np.argmax(out[mid])) == cid

    def test_reconstruction_is_probability_vector(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=5)
        out = forward(model.net, np.eye(len(small_lexicon)))[-1]
        assert np.all(out > 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_loss_improves_across_seeds(self, small_lexicon):
        improved = 0
        for seed in range(10):
            _, trace = trained_model(small_lexicon, seed=seed, epochs=30)
            improved += trace[-1] < trace[0]
        assert improved >= 9  # >= 95% of 10 seeds, allowing one failure

    def test_ids_train_as_the_one_hot_rows(self, toy_lexicon):
        config = TrainConfig(batch_size=16, learning_rate=0.1, epochs=3, seed=4)
        model = build_autoencoder(toy_lexicon, code_size=6, depth=7, seed=3)
        trace = train_autoencoder(model, toy_lexicon, config)
        dense = build_autoencoder(toy_lexicon, code_size=6, depth=7, seed=3)
        eye = np.eye(len(toy_lexicon))
        inputs = list(toy_lexicon.standard_of) + list(toy_lexicon.standard_ids)
        targets = list(toy_lexicon.standard_of.values()) + list(toy_lexicon.standard_ids)
        dense_trace = neural.train_supervised(
            dense.net, eye[inputs], eye[targets], config
        )
        assert trace == dense_trace
        for layer, dense_layer in zip(model.net.layers, dense.net.layers):
            assert layer.W.tobytes() == dense_layer.W.tobytes()
            assert layer.b.tobytes() == dense_layer.b.tobytes()

    def test_peak_memory_below_one_dense_one_hot_matrix(self):
        # |A| = 2000: one |A| x |A| float64 matrix is 32 MB, which training on ids never builds
        lex = build_lexicon([(f"v{i:04d}", f"s{i:04d}") for i in range(1000)])
        model = build_autoencoder(lex, code_size=11, depth=3, seed=0)
        config = TrainConfig(epochs=1)
        tracemalloc.start()
        try:
            train_autoencoder(model, lex, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(lex) ** 2 * 8
        # a step holds one batch's large arrays: its B x |A| output and delta and the output
        # layer's dense dW; a step that still held the one before it would exceed this bound
        weights = sum(layer.W.nbytes + layer.b.nbytes for layer in model.net.layers)
        output = model.net.layers[-1]
        step = 2 * config.batch_size * len(lex) * 8 + output.W.nbytes + output.b.nbytes
        assert peak < weights + 1.25 * step

    def test_empty_pair_set_rejected(self):
        from wordsim.lexicon import Lexicon

        base = build_lexicon([("thng", "thing"), ("wter", "water")])
        stripped = Lexicon(
            words=base.words, standard_flags=base.standard_flags, standard_of={}
        )
        model = build_autoencoder(stripped, code_size=2, depth=3)
        with pytest.raises(ConfigError):
            train_autoencoder(model, stripped, TrainConfig(epochs=1))


@pytest.fixture(scope="module")
def da_model(small_lexicon):
    return trained_model(small_lexicon, epochs=50)[0]


class TestDistanceDa:
    @pytest.fixture
    def model(self, da_model):
        return da_model

    def test_self_distance_zero(self, model, small_lexicon):
        for metric in ("L1", "L2", "cosine"):
            assert distance_Da(model, small_lexicon, 3, 3, metric) == pytest.approx(0.0)

    def test_symmetry(self, model, small_lexicon):
        r = np.random.default_rng(0)
        for _ in range(20):
            i, j = r.integers(0, len(small_lexicon), size=2)
            for metric in ("L1", "L2", "cosine"):
                assert distance_Da(model, small_lexicon, int(i), int(j), metric) == pytest.approx(
                    distance_Da(model, small_lexicon, int(j), int(i), metric)
                )

    def test_pseudometric_triangle(self, model, small_lexicon):
        r = np.random.default_rng(1)
        for _ in range(200):
            i, j, k = (int(v) for v in r.integers(0, len(small_lexicon), size=3))
            for metric in ("L1", "L2"):
                dij = distance_Da(model, small_lexicon, i, j, metric)
                djk = distance_Da(model, small_lexicon, j, k, metric)
                dik = distance_Da(model, small_lexicon, i, k, metric)
                assert dik <= dij + djk + 1e-9

    def test_invalid_id(self, model, small_lexicon):
        with pytest.raises(IndexError):
            distance_Da(model, small_lexicon, 0, len(small_lexicon))

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_out_of_range_id_names_it(self, model, small_lexicon, bad):
        assert len(small_lexicon) == 20
        for pair in ((bad, 0), (0, bad)):
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                distance_Da(model, small_lexicon, *pair)

    @pytest.mark.parametrize("metric", sorted(VECTOR_METRICS))
    def test_equals_the_scores_entry_bit_for_bit(self, model, small_lexicon, metric):
        """A pair scored alone equals its entry of a row against every word (vecdist's row-equals-pair)."""
        spec = MetricSpec("Da", "learned-Da", {"model": model, "vec_metric": metric})
        n = len(small_lexicon)
        table = scores(spec, small_lexicon, range(n), range(n))
        for i in range(n):
            for j in range(n):
                assert distance_Da(model, small_lexicon, i, j, metric).hex() == table[i, j].hex()

    def test_leaves_the_prepared_standard_entry_in_place(self, model, small_lexicon):
        lex = dataclasses.replace(small_lexicon)  # a memo of its own
        nearest_standard(model, lex, 0)
        entries = dict(lex._prepared)
        for j in range(10):  # more distinct pairs than the memo holds entries
            distance_Da(model, lex, 0, j)
        assert list(lex._prepared) == list(entries)
        assert all(lex._prepared[key] is entry for key, entry in entries.items())

    def test_config_and_binding_errors(self, model, small_lexicon):
        with pytest.raises(ConfigError, match="unknown vec_metric 'cosin'"):
            distance_Da(model, small_lexicon, 0, 1, "cosin")
        with pytest.raises(ConfigError, match="expects an AutoencoderModel"):
            distance_Da(np.ones((len(small_lexicon), 4)), small_lexicon, 0, 1)
        with pytest.raises(BindingError):
            distance_Da(model, build_lexicon([("thng", "thing"), ("wter", "water")]), 0, 1)

    @pytest.mark.parametrize("metric", sorted(VECTOR_METRICS))
    @pytest.mark.parametrize("role", [0, 1])
    def test_non_finite_code(self, small_lexicon, metric, role):
        model = build_autoencoder(small_lexicon, code_size=4, depth=3, seed=0)
        pair = (0, 3)
        model.net.layers[0].W[1, pair[role]] = np.nan
        with pytest.raises(NumericError, match="^non-finite value in the words' codes$"):
            distance_Da(model, small_lexicon, *pair, metric)

    @pytest.mark.parametrize("role", [0, 1])
    def test_zero_code_under_cosine(self, small_lexicon, role):
        model = build_autoencoder(small_lexicon, code_size=4, depth=3, seed=0)
        pair = (0, 3)
        model.net.layers[0].W[:, pair[role]] = 0.0
        model.net.layers[0].b[:] = 0.0
        with pytest.raises(NumericError, match="undefined for zero vectors"):
            distance_Da(model, small_lexicon, *pair)
        assert distance_Da(model, small_lexicon, *pair, "L2") >= 0.0


class TestNearestStandard:
    def test_standard_query_ranks_itself_first(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=10)
        cid = small_lexicon.standard_ids[0]
        top = nearest_standard(model, small_lexicon, cid, k=3)
        assert top[0] == (cid, pytest.approx(0.0))

    def test_only_standard_candidates(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=5)
        for word_id, _ in nearest_standard(model, small_lexicon, 0, k=100):
            assert small_lexicon.standard_flags[word_id]

    def test_k_truncates(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=5)
        result = nearest_standard(model, small_lexicon, 0, k=10_000)
        assert len(result) == len(small_lexicon.standard_ids)

    def test_variants_resolve_after_training(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=150)
        hits = sum(
            nearest_standard(model, small_lexicon, mid, k=1)[0][0] == cid
            for mid, cid in small_lexicon.standard_of.items()
        )
        assert hits >= 0.9 * len(small_lexicon.standard_of)

    def test_embedding_source(self, small_lexicon):
        U = np.random.default_rng(0).normal(size=(len(small_lexicon), 4))
        result = nearest_standard(U, small_lexicon, 0, k=2, vec_metric="L2")
        assert len(result) == 2

    def test_embedding_matrix_source(self, small_lexicon):
        U = np.random.default_rng(0).normal(size=(len(small_lexicon), 4))
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint=small_lexicon.fingerprint())
        result = nearest_standard(emb, small_lexicon, 0, k=3, vec_metric="L2")
        assert result == nearest_standard(U, small_lexicon, 0, k=3, vec_metric="L2")
        assert [type(v) for v in result[0]] == [int, float]

    def test_embedding_matrix_of_another_lexicon(self, small_lexicon, toy_lexicon):
        U = np.zeros((len(small_lexicon), 4))
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint=toy_lexicon.fingerprint())
        with pytest.raises(BindingError):
            nearest_standard(emb, small_lexicon, 0)

    @pytest.mark.parametrize("bad", [-1, 20])
    def test_out_of_range_query_id(self, da_model, small_lexicon, bad):
        assert len(small_lexicon) == 20
        with pytest.raises(IndexError, match=f"word id {bad} out of range"):
            nearest_standard(da_model, small_lexicon, bad)

    def test_raw_rows_must_match_the_lexicon(self, small_lexicon):
        with pytest.raises(BindingError):
            nearest_standard(np.ones((len(small_lexicon) + 1, 4)), small_lexicon, 0)

    @pytest.mark.parametrize("shape", [(), (20,), (20, 4, 2)])
    def test_a_source_that_is_not_2d_names_its_shape(self, small_lexicon, shape):
        rows = np.ones(shape)
        for source in (rows, EmbeddingMatrix(rows, small_lexicon.fingerprint())):
            with pytest.raises(ConfigError, match=re.escape(f"2-D array of word rows, got shape {shape}")):
                nearest_standard(source, small_lexicon, 0)

    @pytest.mark.parametrize("metric", sorted(VECTOR_METRICS))
    def test_identical_rows_list_by_ascending_id(self, small_lexicon, metric):
        vectors = np.random.default_rng(6).normal(size=(len(small_lexicon), 11))
        query = small_lexicon.nonstandard_ids[0]
        tied = sorted(small_lexicon.standard_ids)[1::3]
        vectors[tied] = vectors[query] + 0.01  # the same row, nearer the query than any other
        for source in (vectors, EmbeddingMatrix(vectors, small_lexicon.fingerprint())):
            top = nearest_standard(source, small_lexicon, query, k=len(tied), vec_metric=metric)
            assert [i for i, _ in top] == tied
            assert len({d for _, d in top}) == 1

    def test_ranks_by_distance_then_id(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=5)
        codes = encode_all(model, small_lexicon)
        for q in range(len(small_lexicon)):
            expected = sorted(
                (float(np.abs(codes[q] - codes[c]).sum()), c) for c in small_lexicon.standard_ids
            )
            result = nearest_standard(model, small_lexicon, q, k=4, vec_metric="L1")
            assert result == [(c, d) for d, c in expected[:4]]


    @pytest.mark.parametrize("bad", [2.5, 2.0, "3", True, [3], None])
    def test_query_id_that_is_not_an_integer(self, da_model, small_lexicon, bad):
        U = np.ones((len(small_lexicon), 3))
        for source in (da_model, U):
            with pytest.raises(TypeError, match="word id must be an integer"):
                nearest_standard(source, small_lexicon, bad)
        assert nearest_standard(U, small_lexicon, np.int64(2)) == nearest_standard(U, small_lexicon, 2)

    @pytest.mark.parametrize(
        "k,error,message",
        [
            (2.5, TypeError, "k must be an integer, got 2.5"),
            (True, TypeError, "k must be an integer, got True"),
            ("2", TypeError, "k must be an integer, got '2'"),
            (0, ValueError, "k must be >= 1"),
            (-1, ValueError, "k must be >= 1"),
        ],
    )
    def test_k_that_is_not_an_integer_of_at_least_one(self, da_model, small_lexicon, k, error, message):
        U = np.ones((len(small_lexicon), 3))
        for source in (da_model, U):
            with pytest.raises(error, match="^" + re.escape(message)):
                nearest_standard(source, small_lexicon, 0, k=k)
        assert nearest_standard(U, small_lexicon, 0, k=np.int64(2)) == nearest_standard(
            U, small_lexicon, 0, k=2
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_or_candidate_vector(self, small_lexicon, bad):
        U = np.random.default_rng(0).normal(size=(len(small_lexicon), 4))
        query, candidate = small_lexicon.nonstandard_ids[0], small_lexicon.standard_ids[3]
        for word, what in ((query, "the query's vector"), (candidate, "a candidate's vector")):
            rows = U.copy()
            rows[word, 1] = bad
            for metric in VECTOR_METRICS:
                with pytest.raises(NumericError, match=f"non-finite value in {what}"):
                    nearest_standard(rows, small_lexicon, query, vec_metric=metric)

    @pytest.mark.parametrize("role", ["query", "candidate"])
    def test_non_finite_code(self, small_lexicon, role):
        model = build_autoencoder(small_lexicon, code_size=4, depth=3, seed=0)
        query, candidate = small_lexicon.nonstandard_ids[0], small_lexicon.standard_ids[3]
        model.net.layers[0].W[1, query if role == "query" else candidate] = np.nan
        with pytest.raises(NumericError, match="non-finite value"):
            nearest_standard(model, small_lexicon, query)

    def test_overflowing_code_is_a_numeric_error(self, small_lexicon):
        model = build_autoencoder(small_lexicon, code_size=4, depth=3, seed=0)
        model.net.layers[0].W[:] = 1e308
        model.net.layers[0].b[:] = 1e308
        with pytest.raises(NumericError, match="overflow"):
            nearest_standard(model, small_lexicon, 0)


def one_pair_top_k(vectors, lex, query, k, metric):
    """The top k standard words of query, each distance a one-pair vector-metric call."""
    d = VECTOR_METRICS[metric]
    ranked = sorted((float(d(vectors[query], vectors[c])), c) for c in lex.standard_ids)
    return [(c, dist) for dist, c in ranked[:k]]


def read_only_rows(lex, seed=3):
    """Random rows, one per word of lex, in a read-only array that owns its data."""
    rows = np.random.default_rng(seed).normal(size=(len(lex), 5))
    rows[7] = rows[5]  # two standard words with equal vectors tie exactly
    rows.flags.writeable = False
    return rows


class TestPreparedCandidates:
    """Read-only vectors that own their data keep their candidates' rows and norms on the lexicon.

    One entry per (metric kind, candidate set); an entry prepared from another array is prepared again.
    """

    @pytest.fixture
    def lex(self, small_lexicon):
        """small_lexicon's words in a lexicon of its own, so that its memo starts empty."""
        return dataclasses.replace(small_lexicon)

    def key(self, lex, kind="learned-Da"):
        return (kind, lex.standard_array.tobytes())

    def source(self, name, lex):
        """A source of the named kind whose vectors are read-only, with its memo key."""
        if name == "Da":
            return trained_model(lex, epochs=5)[0], self.key(lex)
        rows = read_only_rows(lex)
        if name == "Dc-embedding":
            rows = EmbeddingMatrix(rows, lex.fingerprint())
        return rows, self.key(lex, "learned-Dc")

    def test_a_built_or_loaded_model_starts_without_a_memo(self, da_model, lex, tmp_path):
        assert build_autoencoder(lex, code_size=4, depth=5).net._codes is None
        assert not lex._prepared
        nearest_standard(da_model, lex, 0)
        prepared = lex._prepared[self.key(lex)]
        assert prepared.vectors is encode_all(da_model, lex)
        save_autoencoder(da_model, tmp_path / "ae.json")
        loaded = load_autoencoder(tmp_path / "ae.json")
        assert loaded.net._codes is None
        nearest_standard(loaded, lex, 0)
        assert lex._prepared[self.key(lex)] is not prepared
        assert lex._prepared[self.key(lex)].vectors is encode_all(loaded, lex)

    def assert_prepared_once(self, source, key, lex, monkeypatch):
        """Repeated queries reuse one entry's read-only rows and norms, and every word's norm.

        Nothing is checked again: a query whose kept norm is finite has only finite values.
        """
        nearest_standard(source, lex, 0)
        prepared = lex._prepared[key]
        rows, norms = prepared.rows, prepared.norms
        assert not rows.flags.writeable and not norms.flags.writeable
        checked, normed = [], []
        monkeypatch.setattr(evalharness, "check_finite", lambda v, what: checked.append(what))
        monkeypatch.setattr(evalharness, "nonzero_norms", lambda rows: pytest.fail("norms again"))
        monkeypatch.setattr(evalharness, "norm", lambda a: normed.append(a) or vecdist.norm(a))
        for _ in range(2):
            for q in range(len(lex)):
                nearest_standard(source, lex, q)
        assert lex._prepared[key] is prepared
        assert prepared.rows is rows and prepared.norms is norms
        assert not normed  # the first call kept every word's norm
        assert not checked

    def test_repeated_calls_reuse_the_prepared_arrays(self, lex, monkeypatch):
        self.assert_prepared_once(*self.source("Da", lex), lex, monkeypatch)

    @pytest.mark.parametrize("name", ["Dc-array", "Dc-embedding"])
    def test_read_only_dc_rows_are_prepared_once(self, lex, monkeypatch, name):
        self.assert_prepared_once(*self.source(name, lex), lex, monkeypatch)

    @pytest.mark.parametrize("form", ["writeable", "view", "embedding"])
    def test_a_writeable_array_or_a_view_is_prepared_per_call(self, lex, monkeypatch, form):
        rows = np.random.default_rng(3).normal(size=(len(lex), 5))
        if form == "view":
            rows.flags.writeable = False
            rows = rows[:]
        source = EmbeddingMatrix(rows, lex.fingerprint()) if form == "embedding" else rows
        kept = np.array(rows)  # a read-only array that owns its data
        kept.flags.writeable = False
        want = [nearest_standard(kept, dataclasses.replace(lex), q) for q in range(3)] * 2
        prepared, normed = [], []
        monkeypatch.setattr(evalharness, "nonzero_norms", lambda rows: prepared.append(rows) or norms(rows))
        monkeypatch.setattr(evalharness, "norm", lambda a: normed.append(a) or vecdist.norm(a))
        assert [nearest_standard(source, lex, q) for q in [0, 1, 2] * 2] == want
        assert len(prepared) == len(normed) == 6
        assert not lex._prepared

    @pytest.mark.parametrize("name", ["Da", "Dc-array"])
    def test_kept_query_norms_give_the_cosine_of_the_prepared_rows(self, lex, name):
        source, key = self.source(name, lex)
        n = len(lex.standard_ids)
        for _ in range(2):  # the first ask keeps every word's norm, the others read it
            for q in range(len(lex)):
                got = nearest_standard(source, lex, q, k=n)
                entry = lex._prepared[key]
                row = cosine(entry.vectors[q], entry.rows)
                order = np.lexsort((lex.standard_array, row))
                assert got == list(zip(lex.standard_array[order].tolist(), row[order].tolist()))
        # the one pass over every word gives each word's own norm bit for bit
        one_by_one = np.array([vecdist.norm(np.asarray(v, dtype=float)) for v in entry.vectors])
        assert entry.word_norms.tobytes() == one_by_one.tobytes()

    def kept_rows_with(self, lex, word, value):
        """read_only_rows(lex) with the row of word set to value."""
        rows = np.array(read_only_rows(lex))
        rows[word] = value
        rows.flags.writeable = False
        return rows

    def test_a_zero_query_raises_on_every_ask(self, lex):
        query = lex.nonstandard_ids[0]
        rows = self.kept_rows_with(lex, query, 0.0)
        for _ in range(2):
            with pytest.raises(NumericError, match="undefined for zero vectors"):
                nearest_standard(rows, lex, query)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_query_raises_on_every_ask(self, lex, bad):
        query = lex.nonstandard_ids[0]
        rows = self.kept_rows_with(lex, query, [0.5, bad, 0.0, 1.0, 2.0])
        for _ in range(3):
            with pytest.raises(NumericError, match="^non-finite value in the query's vector$"):
                nearest_standard(rows, lex, query)

    @pytest.mark.parametrize("value", [0.0, 1e200])
    def test_a_word_never_asked_may_hold_any_finite_row(self, lex, value):
        never = lex.nonstandard_ids[0]
        rows = self.kept_rows_with(lex, never, value)  # 1e200 squared overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(2):
                for q in range(len(lex)):
                    if q != never:
                        nearest_standard(rows, lex, q)

    def test_a_word_whose_square_overflows_scores_as_a_fresh_computation(self, lex):
        """Its kept norm is inf, so each ask computes it again: the same warnings and distances."""
        word, candidates = lex.nonstandard_ids[0], lex.standard_array
        rows = self.kept_rows_with(lex, word, 1e200)
        nearest_standard(rows, lex, 0)  # keeps every word's norm, word's inf among them
        assert lex._prepared[self.key(lex, "learned-Dc")].word_norms[word] == np.inf
        for _ in range(2):
            with warnings.catch_warnings(record=True) as asked:
                warnings.simplefilter("always")
                got = nearest_standard(rows, lex, word, k=len(candidates))
            with warnings.catch_warnings(record=True) as computed:
                warnings.simplefilter("always")
                row = cosine(rows[word], rows[candidates])
            assert [str(w.message) for w in asked] == [str(w.message) for w in computed]
            order = np.lexsort((candidates, row))
            assert [(i, d.hex()) for i, d in got] == [
                (i, d.hex()) for i, d in zip(candidates[order].tolist(), row[order].tolist())
            ]

    def test_alternating_da_and_dc_keep_both_entries(self, lex):
        (model, da_key), (rows, dc_key) = self.source("Da", lex), self.source("Dc-array", lex)
        nearest_standard(model, lex, 0)
        nearest_standard(rows, lex, 0)
        entries = dict(lex._prepared)
        assert set(entries) == {da_key, dc_key}
        for q in range(len(lex)):
            nearest_standard(model, lex, q)
            nearest_standard(rows, lex, q)
        assert all(lex._prepared[key] is entry for key, entry in entries.items())

    def test_a_new_read_only_array_is_prepared_again(self, lex):
        rows, key = self.source("Dc-array", lex)
        first = nearest_standard(rows, lex, 0)
        prepared = lex._prepared[key]
        again = read_only_rows(lex)
        assert nearest_standard(again, lex, 0) == first
        assert lex._prepared[key] is not prepared and lex._prepared[key].vectors is again

    def test_one_entry_per_candidate_set(self, lex):
        model, _ = trained_model(lex, epochs=5)
        spec = MetricSpec("Da", "learned-Da", {"model": model})
        nearest_standard(model, lex, 0)
        nearest_standard(model, lex, 1, vec_metric="L1")
        evaluate_accuracy(spec, lex)
        qualitative_neighbors(spec, lex, ["apple", "pple"])
        assert list(lex._prepared) == [self.key(lex)]
        scores(spec, lex, [0], [3, 1])
        scores(spec, lex, [2], np.array([3, 1]))
        assert len(lex._prepared) == 2

    @pytest.mark.parametrize("step", ["sgd_step", "train_autoencoder"])
    def test_a_stepped_model_ranks_as_its_reloaded_copy(self, lex, tmp_path, step):
        """No norm, row or scorer kept from the weights before the step is read after it."""
        model, _ = trained_model(lex, epochs=5)
        for metric in VECTOR_METRICS:  # every word's norm and each metric's rows are kept first
            for q in range(len(lex)):
                nearest_standard(model, lex, q, vec_metric=metric)
        before = [nearest_standard(model, lex, q) for q in range(len(lex))]
        prepared = lex._prepared[self.key(lex)]
        if step == "sgd_step":
            grads, _ = neural.backward(model.net, np.array([0, 3]), np.array([1, 2]))
            neural.sgd_step(model.net, grads, 0.5)
        else:
            train_autoencoder(model, lex, TrainConfig(batch_size=4, learning_rate=0.5, epochs=1))
        assert model.net._codes is None
        after = [nearest_standard(model, lex, q) for q in range(len(lex))]
        assert lex._prepared[self.key(lex)] is not prepared
        assert after != before
        save_autoencoder(model, tmp_path / "ae.json")
        # the reloaded copy is asked on a lexicon of its own, so nothing it reads was kept before
        reloaded, fresh = load_autoencoder(tmp_path / "ae.json"), dataclasses.replace(lex)
        n = len(lex.standard_ids)
        for metric in VECTOR_METRICS:
            for q in range(len(lex)):
                got = nearest_standard(model, lex, q, k=n, vec_metric=metric)
                want = nearest_standard(reloaded, fresh, q, k=n, vec_metric=metric)
                assert [(i, d.hex()) for i, d in got] == [(i, d.hex()) for i, d in want]

    def test_codes_computed_again_are_prepared_again(self, lex):
        model, _ = trained_model(lex, epochs=5)
        nearest_standard(model, lex, 0)
        prepared = lex._prepared[self.key(lex)]
        model.net._codes = None
        nearest_standard(model, lex, 0)
        assert lex._prepared[self.key(lex)] is not prepared

    @pytest.mark.parametrize("metric", sorted(VECTOR_METRICS))
    @pytest.mark.parametrize("name", ["Da", "Dc-array", "Dc-embedding"])
    def test_warm_listings_equal_fresh_ones_bit_for_bit(self, small_lexicon, metric, name):
        warm = dataclasses.replace(small_lexicon)
        source, _ = self.source(name, warm)
        spec = MetricSpec(name[:2], f"learned-{name[:2]}", {"model": source, "vec_metric": metric})

        def bits(pairs):
            return [(i, d.hex()) for i, d in pairs]

        def fresh():
            return dataclasses.replace(small_lexicon)

        n, words = len(warm.standard_ids), list(warm.words)
        for _ in range(2):  # the first round prepares the entries, the second reads them
            for q in range(len(warm)):
                for k in (1, 5, n):
                    got = nearest_standard(source, warm, q, k=k, vec_metric=metric)
                    assert bits(got) == bits(nearest_standard(source, fresh(), q, k=k, vec_metric=metric))
            listing = qualitative_neighbors(spec, warm, words, k=len(warm))
            assert listing == qualitative_neighbors(spec, fresh(), words, k=len(warm))
        assert warm._prepared

    @pytest.mark.parametrize("metric", sorted(VECTOR_METRICS))
    @pytest.mark.parametrize("source", ["Da", "Dc-array", "Dc-embedding"])
    def test_equals_one_pair_scoring(self, small_lexicon, metric, source):
        model, _ = trained_model(small_lexicon, epochs=5)
        if source == "Da":
            src, vectors = model, encode_all(model, small_lexicon)
        else:
            vectors = np.random.default_rng(3).normal(size=(len(small_lexicon), 5))
            vectors[7] = vectors[5]  # two standard words with equal vectors tie exactly
            src = vectors if source == "Dc-array" else EmbeddingMatrix(vectors, small_lexicon.fingerprint())
        n = len(small_lexicon.standard_ids)
        for q in range(len(small_lexicon)):
            for k in (1, 5, n):
                got = nearest_standard(src, small_lexicon, q, k=k, vec_metric=metric)
                assert got == one_pair_top_k(vectors, small_lexicon, q, k, metric)


def assert_same_network(loaded, net):
    assert loaded.topology == net.topology
    for a, b in zip(net.layers, loaded.layers):
        assert a.W.tobytes() == b.W.tobytes()
        assert a.b.tobytes() == b.b.tobytes()
        assert a.activation == b.activation


class TestPersistence:
    def test_round_trip_bit_exact(self, small_lexicon, tmp_path):
        model, _ = trained_model(small_lexicon, seed=11, epochs=5)
        path = tmp_path / "ae.json"
        save_autoencoder(model, path)
        loaded = load_autoencoder(path)
        assert_same_network(loaded.net, model.net)
        assert loaded.seed == 11

    @pytest.mark.parametrize("code_size", [1, 2, 11])
    def test_round_trip_bit_exact_above_256_words(self, code_size, tmp_path):
        lex = wide_lexicon()
        model = build_autoencoder(lex, code_size=code_size, depth=3, seed=code_size)
        for layer in model.net.layers:
            layer.b[:] = np.random.default_rng(code_size).normal(size=layer.b.shape)
        path = tmp_path / "ae.json"
        save_autoencoder(model, path)
        assert_same_network(load_autoencoder(path).net, model.net)

    def test_format_1_file_loads(self, tmp_path):
        # the layout format 1 wrote: every array as nested JSON numbers
        model = build_autoencoder(wide_lexicon(), code_size=11, depth=5, seed=4)
        container = {
            "kind": "autoencoder",
            "lexicon_fingerprint": model.lexicon_fingerprint,
            "code_size": model.code_size,
            "depth": model.depth,
            "bottleneck_index": model.bottleneck_index,
            "metadata": {},
            "network": {
                "format_version": 1,
                "topology": model.net.topology,
                "seed": 4,
                "layers": [
                    {"activation": l.activation, "weights": l.W.tolist(), "biases": l.b.tolist()}
                    for l in model.net.layers
                ],
            },
        }
        path = tmp_path / "ae.json"
        path.write_text(json.dumps(container), encoding="utf-8")
        loaded = load_autoencoder(path)
        assert_same_network(loaded.net, model.net)
        assert loaded.seed == 4

    def test_unknown_version_rejected(self, small_lexicon, tmp_path):
        path = tmp_path / "ae.json"
        save_autoencoder(build_autoencoder(small_lexicon, code_size=4, depth=5), path)
        data = json.loads(path.read_text())
        data["network"]["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="99"):
            load_autoencoder(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARRAYS))
    @pytest.mark.parametrize("field", ["weights", "biases"])
    def test_malformed_array_rejected(self, small_lexicon, tmp_path, case, field):
        path = tmp_path / "ae.json"
        save_autoencoder(build_autoencoder(small_lexicon, code_size=4, depth=5), path)
        data = json.loads(path.read_text())
        breaks, message = MALFORMED_ARRAYS[case]
        breaks(data["network"]["layers"][1][field])
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"layers\\[1\\].{field}") as exc:
            load_autoencoder(path)
        assert message in str(exc.value)

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONTAINERS))
    def test_malformed_container_rejected(self, small_lexicon, tmp_path, case):
        path = tmp_path / "ae.json"
        save_autoencoder(build_autoencoder(small_lexicon, code_size=4, depth=5), path)
        data = json.loads(path.read_text())
        breaks, message = MALFORMED_CONTAINERS[case]
        breaks(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError) as exc:
            load_autoencoder(path)
        assert message in str(exc.value)

    def test_biases_of_the_wrong_length_rejected(self, small_lexicon, tmp_path):
        path = tmp_path / "ae.json"
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        save_autoencoder(model, path)
        data = json.loads(path.read_text())
        too_long = np.zeros(model.net.layers[0].out_dim + 1)
        data["network"]["layers"][0]["biases"] = neural.encode_array(too_long)
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="inconsistent layer dimensions"):
            load_autoencoder(path)

    def test_round_trip_encode_bit_identical(self, small_lexicon, tmp_path):
        model, trace = trained_model(small_lexicon, epochs=20)
        path = tmp_path / "ae.json"
        save_autoencoder(model, path, extra_metadata={"final_loss": trace[-1]})
        loaded = load_autoencoder(path)
        for i in range(len(small_lexicon)):
            assert np.array_equal(
                encode(model, small_lexicon, i), encode(loaded, small_lexicon, i)
            )
        assert loaded.code_size == model.code_size
        assert loaded.bottleneck_index == model.bottleneck_index

    def test_missing_field_rejected(self, small_lexicon, tmp_path):
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        path = tmp_path / "ae.json"
        save_autoencoder(model, path)
        data = json.loads(path.read_text())
        del data["network"]["layers"]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="layers"):
            load_autoencoder(path)

    @pytest.mark.parametrize("key", ["code_size", "depth", "bottleneck_index"])
    def test_shape_key_disagreeing_with_the_layers_rejected(self, small_lexicon, tmp_path, key):
        path = tmp_path / "ae.json"
        save_autoencoder(build_autoencoder(small_lexicon, code_size=4, depth=5), path)
        data = json.loads(path.read_text())
        data[key] -= 1
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"field {key} is {data[key]}, its layers give"):
            load_autoencoder(path)

    def test_layers_without_a_middle_one_rejected(self, small_lexicon, tmp_path):
        path = tmp_path / "ae.json"
        save_autoencoder(build_autoencoder(small_lexicon, code_size=4, depth=5), path)
        data = json.loads(path.read_text())
        # three of the four layers still chain, but leave no middle layer for the code
        del data["network"]["layers"][-1], data["network"]["topology"][-1]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="even number of layers, got 3"):
            load_autoencoder(path)

    @pytest.mark.parametrize("old", [b"an earlier model\n", None])
    def test_failed_save_leaves_the_path_as_it_was(self, tmp_path, full_disk, old):
        path = tmp_path / "ae.json"
        # the first layer's weights, 35 x 300, fill more than one piece
        model = build_autoencoder(wide_lexicon(), code_size=4, depth=5)
        # the first write, then the write after the first array's first piece
        for fail_at in (1, second_piece_write(lambda: save_autoencoder(model, path))):
            full_disk.fail_at = fail_at
            if old is not None:
                path.write_bytes(old)
            with pytest.raises(OSError, match="No space left"):
                save_autoencoder(model, path)
            assert list(tmp_path.iterdir()) == ([] if old is None else [path])
            if old is not None:
                assert path.read_bytes() == old

    @pytest.mark.parametrize("old", [b"an earlier model\n", None])
    def test_metadata_json_cannot_hold_leaves_the_path_as_it_was(self, small_lexicon, tmp_path, old):
        path = tmp_path / "ae.json"
        if old is not None:
            path.write_bytes(old)
        model = build_autoencoder(small_lexicon, code_size=4, depth=5)
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_autoencoder(model, path, extra_metadata={"x": object()})
        assert list(tmp_path.iterdir()) == ([] if old is None else [path])
        if old is not None:
            assert path.read_bytes() == old

    def test_file_is_json_dumps_of_the_reference_container(self, tmp_path):
        model = build_autoencoder(wide_lexicon(), code_size=4, depth=5, seed=3)
        metadata = {"final_loss": 1.5, "épochs": (1, 2), "nan": float("nan"), "empty": {}}
        path = tmp_path / "ae.json"
        save_autoencoder(model, path, extra_metadata=metadata)
        reference = {
            "kind": "autoencoder",
            "lexicon_fingerprint": model.lexicon_fingerprint,
            "code_size": 4,
            "depth": 5,
            "bottleneck_index": 1,
            "metadata": metadata,
            "network": neural.network_to_dict(model.net, seed=3),
        }
        assert path.read_bytes() == json.dumps(reference).encode("utf-8")

    def test_save_holds_no_copy_of_the_weights(self, tmp_path):
        rng = np.random.default_rng(0)
        wide = 40_000
        net = neural.Network([
            neural.DenseLayer(rng.normal(size=(8, wide)), np.zeros(8), "identity"),
            neural.DenseLayer(rng.normal(size=(wide, 8)), np.zeros(wide), "softmax"),
        ])
        assert sum(l.W.nbytes + l.b.nbytes for l in net.layers) >= 4_000_000
        model = AutoencoderModel(net, lexicon_fingerprint="0" * 64)
        path = tmp_path / "ae.json"
        tracemalloc.start()
        try:
            save_autoencoder(model, path)  # a new path
            save_autoencoder(model, path)  # and over the file just written
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert load_autoencoder(path).net.layers[1].W.tobytes() == net.layers[1].W.tobytes()

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "ae.json"
        path.write_bytes(b"\xff not json")
        with pytest.raises(ConfigError):
            load_autoencoder(path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_not_a_json_object_rejected(self, tmp_path, text):
        path = tmp_path / "ae.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_autoencoder(path)
