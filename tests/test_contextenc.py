import itertools
import json

import numpy as np
import pytest

from wordsim.contextenc import (
    EmbeddingMatrix,
    PAD,
    build_context_model,
    context_prob,
    context_windows,
    distance_Dc,
    export_embedding_tsv,
    load_embedding,
    save_embedding,
    train_combined,
    train_context,
)
from wordsim.denoise import build_autoencoder, encode_all
from wordsim.errors import BindingError, ConfigError, NumericError
from wordsim.lexicon import Corpus
from wordsim.neural import TrainConfig


def zeroed(model):
    for layer in model.predictor.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    return model


class TestContextWindows:
    def test_padding_and_targets(self):
        corpus = Corpus(sentences=((5, 6, 7),))
        contexts, targets = context_windows(corpus, window=2)
        assert contexts.tolist() == [[PAD, PAD], [PAD, 5], [5, 6]]
        assert targets.tolist() == [5, 6, 7]


class TestContextProb:
    def test_zero_weights_uniform(self, context_lexicon):
        model = zeroed(build_context_model(context_lexicon, n_embed=4, window=3, seed=0))
        p = context_prob(model, [0, 1, 2])
        assert np.allclose(p, 1.0 / len(context_lexicon))

    def test_strictly_positive_and_normalized(self, context_lexicon):
        model = build_context_model(context_lexicon, n_embed=4, window=3, seed=1)
        p = context_prob(model, [3, PAD, 1])
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-9

    def test_wrong_context_length(self, context_lexicon):
        model = build_context_model(context_lexicon, n_embed=4, window=3)
        with pytest.raises(ValueError):
            context_prob(model, [0, 1])


class TestTrainContext:
    def test_log_likelihood_improves(self, context_lexicon, context_corpus):
        improved = 0
        for seed in range(10):
            model = build_context_model(context_lexicon, n_embed=4, window=3, seed=seed)
            trace = train_context(
                model,
                context_corpus,
                TrainConfig(batch_size=32, learning_rate=0.3, epochs=3, seed=seed),
            )
            improved += trace[-1] > trace[0]
        assert improved >= 9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_numeric_error(self, context_lexicon, context_corpus):
        model = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        config = TrainConfig(batch_size=32, learning_rate=1e300, epochs=2, seed=0)
        with pytest.raises(NumericError):
            train_context(model, context_corpus, config)

    def test_repeated_sentence_memorized(self, context_lexicon):
        sent = tuple(context_lexicon.id_of(w) for w in ["the", "dog", "is", "very", "happy"])
        corpus = Corpus(sentences=(sent,) * 30)
        model = build_context_model(context_lexicon, n_embed=4, window=2, hidden_size=16, seed=0)
        train_context(
            model, corpus, TrainConfig(batch_size=16, learning_rate=0.5, epochs=60, seed=0)
        )
        # interior token fully determined by its context
        p = context_prob(model, list(sent[2:4]))
        assert int(np.argmax(p)) == sent[4]
        assert p[sent[4]] > 0.9

    def test_embedding_gradient_matches_finite_differences(self, context_lexicon):
        corpus = Corpus(sentences=((0, 1, 2, 3),))
        model = build_context_model(context_lexicon, n_embed=3, window=2, hidden_size=5, seed=2)
        contexts, targets = context_windows(corpus, 2)
        eye = np.eye(len(context_lexicon))

        def mean_loss():
            total = 0.0
            for ctx, tgt in zip(contexts, targets):
                p = context_prob(model, ctx)
                total -= np.log(p[tgt])
            return total / len(targets)

        # analytic gradient for U via one manual pass
        from wordsim import neural
        from wordsim.contextenc import _gather

        x = _gather(model, contexts)
        y = eye[targets]
        _, _, dx = neural._backward_full(model.predictor, x, y, "cross-entropy")
        dU = np.zeros_like(model.U)
        dslices = dx.reshape(len(targets), 2, 3) / len(targets)
        for pos in range(2):
            for row, cid in enumerate(contexts[:, pos]):
                if cid != PAD:
                    dU[cid] += dslices[row, pos]

        eps = 1e-6
        worst = 0.0
        for i in range(len(context_lexicon)):
            for j in range(3):
                orig = model.U[i, j]
                model.U[i, j] = orig + eps
                hi = mean_loss()
                model.U[i, j] = orig - eps
                lo = mean_loss()
                model.U[i, j] = orig
                numeric = (hi - lo) / (2 * eps)
                denom = max(abs(dU[i, j]), abs(numeric), 1e-12)
                worst = max(worst, abs(dU[i, j] - numeric) / denom)
        assert worst < 1e-4


class TestTrainCombined:
    def cfg(self, seed=0):
        return TrainConfig(batch_size=16, learning_rate=0.05, epochs=1, seed=seed)

    def test_rounds_zero_leaves_embeddings(self, context_lexicon, context_corpus):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=0)
        before = ctx.U.copy()
        emb = train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=0)
        assert np.array_equal(emb.U, before)

    def test_blend_zero_is_pure_context(self, context_lexicon, context_corpus):
        ctx_a = build_context_model(context_lexicon, n_embed=4, window=3, seed=5)
        ctx_b = build_context_model(context_lexicon, n_embed=4, window=3, seed=5)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=5)
        emb = train_combined(
            ctx_a, ae, context_lexicon, context_corpus, self.cfg(), rounds=2, blend=0.0
        )
        for r in range(2):
            train_context(
                ctx_b,
                context_corpus,
                TrainConfig(batch_size=16, learning_rate=0.05, epochs=1, seed=0 + r),
            )
        assert np.allclose(emb.U, ctx_b.U)

    def test_blend_one_copies_codes(self, context_lexicon, context_corpus):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=1)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=1)
        emb = train_combined(
            ctx,
            ae,
            context_lexicon,
            context_corpus,
            self.cfg(),
            rounds=1,
            blend=1.0,
            context_epochs_per_round=0,
        )
        assert np.allclose(emb.U, encode_all(ae, context_lexicon))

    def test_width_mismatch(self, context_lexicon, context_corpus):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3)
        ae = build_autoencoder(context_lexicon, code_size=5, depth=3)
        with pytest.raises(ConfigError):
            train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=1)

    def test_lexicon_mismatch(self, context_lexicon, small_lexicon, context_corpus):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3)
        ae = build_autoencoder(small_lexicon, code_size=4, depth=3)
        with pytest.raises(BindingError):
            train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=1)

    def test_synonym_contexts_end_close(self, context_lexicon, context_corpus):
        ctx = build_context_model(context_lexicon, n_embed=8, window=4, hidden_size=16, seed=0)
        ae = build_autoencoder(context_lexicon, code_size=8, depth=5, seed=0)
        emb = train_combined(
            ctx,
            ae,
            context_lexicon,
            context_corpus,
            self.cfg(),
            rounds=10,
            ae_epochs_per_round=20,
        )
        d = distance_Dc(emb, context_lexicon.id_of("dogg"), context_lexicon.id_of("dog"))
        std = context_lexicon.standard_ids
        median = np.median(
            [distance_Dc(emb, a, b) for a, b in itertools.combinations(std, 2)]
        )
        assert d < median


class TestDistanceDc:
    def test_self_distance_zero(self):
        U = np.random.default_rng(0).normal(size=(6, 3))
        for metric in ("L1", "L2", "cosine"):
            assert distance_Dc(U, 2, 2, metric) == pytest.approx(0.0)

    def test_symmetry_and_triangle(self):
        U = np.random.default_rng(1).normal(size=(10, 4))
        r = np.random.default_rng(2)
        for _ in range(100):
            i, j, k = (int(v) for v in r.integers(0, 10, size=3))
            for metric in ("L1", "L2"):
                assert distance_Dc(U, i, j, metric) == pytest.approx(distance_Dc(U, j, i, metric))
                assert distance_Dc(U, i, k, metric) <= (
                    distance_Dc(U, i, j, metric) + distance_Dc(U, j, k, metric) + 1e-9
                )

    def test_invalid_id(self):
        U = np.zeros((3, 2))
        with pytest.raises(IndexError):
            distance_Dc(U, 0, 5, "L1")

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_names_it(self, bad):
        U = np.ones((3, 2))
        for pair in ((bad, 0), (0, bad)):
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                distance_Dc(U, *pair, "L1")


class TestEmbeddingPersistence:
    def test_round_trip(self, context_lexicon, tmp_path):
        U = np.random.default_rng(3).normal(size=(len(context_lexicon), 4))
        emb = EmbeddingMatrix(
            U=U, lexicon_fingerprint=context_lexicon.fingerprint(), metadata={"rounds": 2}
        )
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        loaded = load_embedding(path)
        assert np.array_equal(loaded.U, U)
        assert loaded.metadata["rounds"] == 2
        assert loaded.lexicon_fingerprint == emb.lexicon_fingerprint

    def test_version_check(self, context_lexicon, tmp_path):
        emb = EmbeddingMatrix(U=np.zeros((3, 2)), lexicon_fingerprint=context_lexicon.fingerprint())
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="99"):
            load_embedding(path)

    def test_missing_field_rejected(self, context_lexicon, tmp_path):
        emb = EmbeddingMatrix(U=np.zeros((3, 2)), lexicon_fingerprint=context_lexicon.fingerprint())
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        data = json.loads(path.read_text())
        del data["rows"]
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="rows"):
            load_embedding(path)

    def test_tsv_export(self, context_lexicon, tmp_path):
        U = np.random.default_rng(4).normal(size=(len(context_lexicon), 3))
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint=context_lexicon.fingerprint())
        path = tmp_path / "emb.tsv"
        export_embedding_tsv(emb, context_lexicon, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(context_lexicon)
        first = lines[0].split("\t")
        assert first[0] == context_lexicon.word_of(0)
        assert [float(v) for v in first[1:]] == U[0].tolist()

    def test_tsv_binding_checked(self, context_lexicon, small_lexicon, tmp_path):
        U = np.zeros((len(context_lexicon), 3))
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint=context_lexicon.fingerprint())
        with pytest.raises(BindingError):
            export_embedding_tsv(emb, small_lexicon, tmp_path / "x.tsv")
