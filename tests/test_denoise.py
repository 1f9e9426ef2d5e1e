import json

import numpy as np
import pytest

from wordsim import neural
from wordsim.contextenc import EmbeddingMatrix
from wordsim.denoise import (
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
from wordsim.errors import BindingError, ConfigError
from wordsim.lexicon import build_lexicon
from wordsim.neural import TrainConfig, forward


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
        model = build_autoencoder(small_lexicon, code_size=4, depth=5, seed=1)
        codes = encode_all(model, small_lexicon)
        for i in range(len(small_lexicon)):
            assert np.allclose(codes[i], encode(model, small_lexicon, i))

    @pytest.mark.parametrize("activation", ["identity", "sigmoid"])
    def test_encode_all_equals_the_identity_matrix_product(self, toy_lexicon, activation):
        model = build_autoencoder(
            toy_lexicon, code_size=6, depth=7, seed=2, hidden_activation=activation
        )
        train_autoencoder(model, toy_lexicon, TrainConfig(batch_size=16, learning_rate=0.1))
        a = np.eye(len(toy_lexicon))
        for layer in model.net.layers[: model.bottleneck_index + 1]:
            a = neural._apply(layer.activation, a @ layer.W.T + layer.b)
        assert np.array_equal(encode_all(model, toy_lexicon), a)


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

    def test_ranks_by_distance_then_id(self, small_lexicon):
        model, _ = trained_model(small_lexicon, epochs=5)
        codes = encode_all(model, small_lexicon)
        for q in range(len(small_lexicon)):
            expected = sorted(
                (float(np.abs(codes[q] - codes[c]).sum()), c) for c in small_lexicon.standard_ids
            )
            result = nearest_standard(model, small_lexicon, q, k=4, vec_metric="L1")
            assert result == [(c, d) for d, c in expected[:4]]


class TestPersistence:
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

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "ae.json"
        path.write_bytes(b"\xff not json")
        with pytest.raises(ConfigError):
            load_autoencoder(path)
