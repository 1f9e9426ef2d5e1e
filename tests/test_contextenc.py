import copy
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordsim import neural
from wordsim.contextenc import (
    EmbeddingMatrix,
    PAD,
    build_context_model,
    context_prob,
    context_windows,
    distance_Dc,
    load_embedding,
    save_embedding,
    train_combined,
    train_context,
)
from wordsim.denoise import build_autoencoder, encode_all, train_autoencoder
from wordsim.errors import BindingError, ConfigError, NumericError
from wordsim.lexicon import Corpus
from wordsim.neural import TrainConfig, init_network
from wordsim.vecdist import VECTOR_METRICS

from conftest import MALFORMED_ARRAYS, identity_codes, second_piece_write, wide_lexicon
from oracles import context_windows_reference, train_context_reference


def zeroed(model):
    for layer in model.predictor.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    return model


class TestBuild:
    @pytest.mark.parametrize(
        "sizes",
        [
            {"n_embed": 0, "hidden_size": 0},
            {"n_embed": 0},
            {"hidden_size": 0},
            {"window": 0},
            {"window": -1},
            {"n_embed": -2},
            {"n_embed": -2, "window": -2},
        ],
        ids=["n_embed-and-hidden", "n_embed", "hidden", "window", "negative-window",
             "negative-n_embed", "negative-n_embed-and-window"],
    )
    def test_size_below_one_rejected(self, context_lexicon, sizes):
        with pytest.raises(ConfigError, match="layer widths must be >= 1"):
            build_context_model(context_lexicon, **sizes)

    @pytest.mark.parametrize(
        "seed,message",
        [(-1, "seed must be >= 0, got -1"), (1.5, "seed must be an int, got 1.5"),
         (True, "seed must be an int, got True")],
        ids=["negative", "float", "bool"],
    )
    def test_seed_must_be_a_non_negative_int(self, context_lexicon, seed, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            build_context_model(context_lexicon, seed=seed)

    @pytest.mark.parametrize(
        "sizes,message",
        [
            ({"n_embed": 2.0}, "n_embed must be an int, got 2.0"),
            ({"window": 2.0}, "window must be an int, got 2.0"),
            ({"hidden_size": 3.0}, "hidden_size must be an int, got 3.0"),
            ({"n_embed": True}, "n_embed must be an int, got True"),
            ({"window": "2"}, "window must be an int, got '2'"),
        ],
        ids=["float-n_embed", "float-window", "float-hidden", "bool-n_embed", "str-window"],
    )
    def test_width_must_be_an_int(self, context_lexicon, sizes, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            build_context_model(context_lexicon, **sizes)

    def test_draws_follow_the_seeded_stream(self, context_lexicon):
        """The rows are the seed's first draw and the predictor's weights the next ones."""
        model = build_context_model(context_lexicon, n_embed=4, window=3, hidden_size=6, seed=9)
        rng = np.random.default_rng(9)
        U = rng.normal(0.0, 0.1, size=(len(context_lexicon), 4))
        predictor = init_network([12, 6, len(context_lexicon)], ["sigmoid", "softmax"], rng)
        assert model.U.tobytes() == U.tobytes()
        for layer, expected in zip(model.predictor.layers, predictor.layers):
            assert layer.W.tobytes() == expected.W.tobytes()


class TestContextWindows:
    def test_padding_and_targets(self):
        corpus = Corpus(sentences=((5, 6, 7),))
        contexts, targets = context_windows(corpus, window=2)
        assert contexts.tolist() == [[PAD, PAD], [PAD, 5], [5, 6]]
        assert targets.tolist() == [5, 6, 7]

    @settings(max_examples=200, deadline=None)
    @given(
        sentences=st.lists(st.lists(st.integers(0, 50), max_size=8).map(tuple), max_size=6).map(tuple),
        window=st.integers(0, 10),
    )
    @example(sentences=(), window=4)
    @example(sentences=((3,), (5,), (3,)), window=2)
    @example(sentences=((1, 2, 3), (4, 5)), window=9)
    def test_equal_to_the_list_built_windows(self, sentences, window):
        corpus = Corpus(sentences=sentences)
        for got, want in zip(context_windows(corpus, window), context_windows_reference(corpus, window)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


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

    @pytest.mark.parametrize(
        "context",
        [[2.5, 1.0, 0.0], [2.0, 1, 0], [True, 1, 0], [1, "0", 2], np.array([2.5, 1.0, 0.0]),
         np.array([True, False, True]), [-1.0, 1, 2]],
    )
    def test_id_that_is_not_an_integer(self, context_lexicon, context):
        model = build_context_model(context_lexicon, n_embed=4, window=3)
        with pytest.raises(TypeError, match="word id must be an integer"):
            context_prob(model, context)

    @pytest.mark.parametrize("context, bad", [([0, -2, 1], -2), ([0, 40, 1], 40), ([41, 40, 1], 41)])
    def test_id_out_of_range_names_it(self, context_lexicon, context, bad):
        # PAD (-1) is the only negative id; -2 would otherwise read row |A| - 2
        model = build_context_model(context_lexicon, n_embed=4, window=3)
        with pytest.raises(IndexError, match=rf"word id {bad} out of range for \|A\|=40"):
            context_prob(model, context)

    def test_ids_of_every_integer_kind(self, context_lexicon):
        model = build_context_model(context_lexicon, n_embed=4, window=3, seed=2)
        want = context_prob(model, [PAD, 39, 0])
        for context in (np.array([PAD, 39, 0], dtype=np.int32), (np.int64(PAD), np.uint8(39), 0)):
            assert context_prob(model, context).tobytes() == want.tobytes()


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

    def test_empty_corpus_is_a_config_error(self, context_lexicon):
        model = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        with pytest.raises(ConfigError, match="no training examples"):
            train_context(model, Corpus(sentences=()), TrainConfig())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_numeric_error(self, context_lexicon, context_corpus):
        model = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        config = TrainConfig(batch_size=32, learning_rate=1e300, epochs=2, seed=0)
        with pytest.raises(NumericError):
            train_context(model, context_corpus, config)

    @pytest.mark.parametrize("case", ["sigmoid-bias", "unused-row"])
    def test_non_finite_parameter_rejected_before_any_step(self, context_lexicon, context_corpus, case):
        model = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        if case == "sigmoid-bias":
            model.predictor.layers[0].b[1] = np.inf  # the sigmoid squashes it to 1
            match = "non-finite parameters in layer 0"
        else:
            model.U[context_lexicon.id_of("catt")] = np.nan  # a word the corpus never uses
            match = "non-finite embedding rows"
        snapshot = lambda: [model.U.tobytes(), model.pad_vec.tobytes()] + [  # noqa: E731
            a.tobytes() for l in model.predictor.layers for a in (l.W, l.b)
        ]
        before = snapshot()
        with pytest.raises(NumericError, match=match):
            train_context(model, context_corpus, TrainConfig(batch_size=32, epochs=1))
        assert snapshot() == before

    @pytest.mark.parametrize("bad", [-2, -1, "|A|"])
    def test_out_of_range_corpus_id_rejected_before_any_step(self, context_lexicon, bad):
        bad = len(context_lexicon) if bad == "|A|" else bad
        corpus = Corpus(((3, bad, 5, 6),) + ((1, 2, 3, 4, 5),) * 40)
        for seed in range(6):
            model = build_context_model(context_lexicon, n_embed=4, window=3, seed=seed)
            snapshot = lambda: [model.U.tobytes(), model.pad_vec.tobytes()] + [  # noqa: E731
                a.tobytes() for l in model.predictor.layers for a in (l.W, l.b)
            ]
            before = snapshot()
            with pytest.raises(IndexError, match=f"word id {bad} out of range"):
                train_context(model, corpus, TrainConfig(batch_size=8, epochs=1, seed=seed))
            assert snapshot() == before, seed

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        sentences=st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=8),
        window=st.integers(1, 3),
        batch_size=st.integers(1, 9),
        epochs=st.integers(1, 2),
        seed=st.integers(0, 5),
    )
    def test_training_equals_the_allocating_loop(self, context_lexicon, sentences, window, batch_size, epochs, seed):
        # every sentence's first window holds PAD; few ids, so rows repeat within a batch
        corpus = Corpus(sentences=tuple(map(tuple, sentences)))
        model = build_context_model(context_lexicon, n_embed=3, window=window, hidden_size=4, seed=seed)
        reference = copy.deepcopy(model)
        config = TrainConfig(batch_size=batch_size, learning_rate=0.5, epochs=epochs, seed=seed)
        trace = train_context(model, corpus, config)
        want = train_context_reference(reference, corpus, config)
        assert np.array(trace).tobytes() == np.array(want).tobytes()
        state = lambda m: [m.U.tobytes(), m.pad_vec.tobytes()] + [  # noqa: E731
            a.tobytes() for l in m.predictor.layers for a in (l.W, l.b)
        ]
        assert state(model) == state(reference)

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
        _, _, dx = neural._backward_full(model.predictor, x, y)
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

    def test_rounds_below_one_rejected(self, context_lexicon, context_corpus):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=0)
        before = ctx.U.copy()
        with pytest.raises(ConfigError, match="rounds must be >= 1"):
            train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=0)
        assert np.array_equal(ctx.U, before)

    @pytest.mark.parametrize("rounds", [2.0, True, "2"])
    def test_rounds_must_be_an_int(self, context_lexicon, context_corpus, rounds):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=0)
        before = ctx.U.copy()
        with pytest.raises(ConfigError, match="^rounds must be an int, got "):
            train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=rounds)
        assert np.array_equal(ctx.U, before)

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

    @pytest.mark.parametrize("ae_epochs", [1, 0])
    def test_rounds_blend_the_codes_of_the_current_weights(
        self, context_lexicon, context_corpus, ae_epochs
    ):
        # with ae_epochs 0 the weights never change, and every round may reuse the first codes
        def build():
            ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=3)
            return ctx, build_autoencoder(context_lexicon, code_size=4, depth=5, seed=3)

        ctx, ae = build()
        emb = train_combined(
            ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=2,
            ae_epochs_per_round=ae_epochs,
        )
        ctx, ae = build()
        for r in range(2):
            train_context(ctx, context_corpus, self.cfg(seed=r))
            if ae_epochs:
                train_autoencoder(ae, context_lexicon, self.cfg(seed=r))
            ctx.U = 0.5 * ctx.U + 0.5 * identity_codes(ae, context_lexicon)
        assert emb.U.tobytes() == ctx.U.tobytes()

    @pytest.mark.parametrize("blend", ["0.5", None, True], ids=["str", "None", "bool"])
    def test_blend_must_be_a_real_number(self, context_lexicon, context_corpus, blend):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=0)
        before, got = ctx.U.copy(), re.escape(repr(blend))
        with pytest.raises(ConfigError, match=f"^blend must be a real number, got {got}$"):
            train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=1, blend=blend)
        assert np.array_equal(ctx.U, before)

    @pytest.mark.parametrize("blend", [-0.1, 1.5, float("nan")])
    def test_blend_outside_the_unit_interval_rejected(self, context_lexicon, context_corpus, blend):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=0)
        with pytest.raises(ConfigError, match=r"^blend must be in \[0, 1\]$"):
            train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=1, blend=blend)

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


    def test_trained_and_loaded_rows_are_read_only(self, context_lexicon, context_corpus, tmp_path):
        ctx = build_context_model(context_lexicon, n_embed=4, window=3, seed=2)
        ae = build_autoencoder(context_lexicon, code_size=4, depth=3, seed=2)
        emb = train_combined(ctx, ae, context_lexicon, context_corpus, self.cfg(), rounds=1)
        assert ctx.U.flags.writeable  # training goes on in place
        saved = emb.U.tobytes()
        for _ in range(2):  # trained, then loaded
            assert not emb.U.flags.writeable and emb.U.base is None
            save_embedding(emb, tmp_path / "emb.json")
            emb = load_embedding(tmp_path / "emb.json")
            assert emb.U.tobytes() == saved


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


    @pytest.mark.parametrize("bad", [2.5, "0", True, [1]])
    def test_id_that_is_not_an_integer(self, bad):
        U = np.ones((3, 2))
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint="")
        for pair in ((bad, 0), (0, bad)):
            for source in (U, emb):
                with pytest.raises(TypeError, match="word id must be an integer"):
                    distance_Dc(source, *pair)

    @pytest.mark.parametrize("shape", [(), (5,), (5, 3, 2)])
    def test_a_source_that_is_not_2d_names_its_shape(self, shape):
        rows = np.ones(shape)
        for source in (rows, EmbeddingMatrix(U=rows, lexicon_fingerprint="")):
            with pytest.raises(ConfigError, match=re.escape(f"2-D array of word rows, got shape {shape}")):
                distance_Dc(source, 0, 1)

    @pytest.mark.parametrize("vec_metric", ["cosin", "l2", None, ["L1"]])
    def test_an_unknown_vec_metric_names_the_choices(self, vec_metric):
        message = f"metric 'Dc' has unknown vec_metric {vec_metric!r}; choose from {sorted(VECTOR_METRICS)}"
        U = np.ones((3, 2))
        for source in (U, EmbeddingMatrix(U=U, lexicon_fingerprint="")):
            with pytest.raises(ConfigError, match=re.escape(message)):
                distance_Dc(source, 0, 1, vec_metric)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row(self, bad):
        U = np.random.default_rng(4).normal(size=(4, 3))
        U[1, 2] = bad
        for pair in ((1, 0), (0, 1)):
            for metric in ("L1", "L2", "cosine"):
                with pytest.raises(NumericError, match="non-finite value"):
                    distance_Dc(U, *pair, metric)
        assert np.isfinite(distance_Dc(U, 0, 2))


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

    @pytest.mark.parametrize("n_embed", [1, 2, 11])
    def test_round_trip_bit_exact_above_256_words(self, n_embed, tmp_path):
        lex = wide_lexicon()
        U = np.random.default_rng(n_embed).normal(size=(len(lex), n_embed))
        path = tmp_path / "emb.json"
        save_embedding(EmbeddingMatrix(U=U, lexicon_fingerprint=lex.fingerprint()), path)
        loaded = load_embedding(path)
        assert loaded.U.shape == U.shape
        assert loaded.U.tobytes() == U.tobytes()

    def test_format_1_file_loads(self, tmp_path):
        # the layout format 1 wrote: rows as nested JSON numbers
        lex = wide_lexicon()
        U = np.random.default_rng(5).normal(size=(len(lex), 11))
        container = {
            "kind": "embedding",
            "format_version": 1,
            "lexicon_fingerprint": lex.fingerprint(),
            "n_embed": 11,
            "metadata": {"rounds": 1},
            "rows": U.tolist(),
        }
        path = tmp_path / "emb.json"
        path.write_text(json.dumps(container), encoding="utf-8")
        loaded = load_embedding(path)
        assert loaded.U.tobytes() == U.tobytes()
        assert not loaded.U.flags.writeable and loaded.U.base is None
        assert loaded.metadata == {"rounds": 1}

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARRAYS))
    def test_malformed_rows_rejected(self, context_lexicon, tmp_path, case):
        U = np.random.default_rng(6).normal(size=(len(context_lexicon), 3))
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint=context_lexicon.fingerprint())
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        data = json.loads(path.read_text())
        breaks, message = MALFORMED_ARRAYS[case]
        breaks(data["rows"])
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="rows") as exc:
            load_embedding(path)
        assert message in str(exc.value)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_not_a_json_object_rejected(self, tmp_path, text):
        path = tmp_path / "emb.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_embedding(path)

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

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda data: data.update(n_embed=3), "field n_embed is 3, its rows are 2 wide"),
            (lambda data: data.pop("n_embed"), "lacks the field 'n_embed'"),
        ],
        ids=["wrong", "missing"],
    )
    def test_n_embed_must_agree_with_the_rows(self, context_lexicon, tmp_path, edit, message):
        emb = EmbeddingMatrix(U=np.zeros((3, 2)), lexicon_fingerprint=context_lexicon.fingerprint())
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=message):
            load_embedding(path)

    @pytest.mark.parametrize("old", [b"an earlier embedding\n", None])
    def test_failed_save_leaves_the_path_as_it_was(self, context_lexicon, tmp_path, full_disk, old):
        path = tmp_path / "emb.json"
        # 700 x 11 rows fill more than one piece
        emb = EmbeddingMatrix(U=np.ones((700, 11)), lexicon_fingerprint=context_lexicon.fingerprint())
        # the first write, then the write after the rows' first piece
        for fail_at in (1, second_piece_write(lambda: save_embedding(emb, path))):
            full_disk.fail_at = fail_at
            if old is not None:
                path.write_bytes(old)
            with pytest.raises(OSError, match="No space left"):
                save_embedding(emb, path)
            assert list(tmp_path.iterdir()) == ([] if old is None else [path])
            if old is not None:
                assert path.read_bytes() == old

    def test_file_is_json_dumps_of_the_reference_container(self, context_lexicon, tmp_path):
        U = np.random.default_rng(4).normal(size=(700, 11))[:, ::2]  # a strided view
        metadata = {"window": 4, "blend": 0.5, "bläsi": [float("inf"), None]}
        emb = EmbeddingMatrix(U=U, lexicon_fingerprint=context_lexicon.fingerprint(), metadata=metadata)
        path = tmp_path / "emb.json"
        save_embedding(emb, path)
        reference = {
            "kind": "embedding",
            "format_version": 2,
            "lexicon_fingerprint": context_lexicon.fingerprint(),
            "n_embed": 6,
            "metadata": metadata,
            "rows": neural.encode_array(U),
        }
        assert path.read_bytes() == json.dumps(reference).encode("utf-8")
