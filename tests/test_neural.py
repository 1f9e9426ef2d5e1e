import copy
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordsim import neural
from wordsim.errors import ConfigError, NumericError
from wordsim.neural import (
    DenseLayer,
    Network,
    TrainConfig,
    backward,
    decode_array,
    encode_array,
    forward,
    init_network,
    loss_value,
    network_from_dict,
    network_to_dict,
    sgd_step,
    sigmoid,
    softmax,
    train_supervised,
)

from oracles import (
    column_grad_reference,
    dense_gradient,
    gradient_check,
    train_supervised_reference,
)

rng = np.random.default_rng(7)


def identity_layer(n):
    return DenseLayer(W=np.eye(n), b=np.zeros(n), activation="identity")


def distribution(r, n):
    """A random cross-entropy target: n positive weights that sum to 1."""
    t = r.uniform(size=n)
    return t / t.sum()


class TestInitNetwork:
    @pytest.mark.parametrize("widths", [[0, 2], [3, 0, 2], [3, -1, 2], [3, 2, 0]])
    def test_width_below_one_rejected(self, widths):
        activations = ["sigmoid"] * (len(widths) - 2) + ["softmax"]
        with pytest.raises(ConfigError, match="layer widths must be >= 1"):
            init_network(widths, activations, np.random.default_rng(0))


class TestForward:
    def test_identity_layer(self):
        net = Network([identity_layer(3)])
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(forward(net, x)[-1], x)

    def test_softmax_zero_logits_uniform(self):
        net = Network([DenseLayer(W=np.zeros((4, 4)), b=np.zeros(4), activation="softmax")])
        out = forward(net, np.zeros(4))[-1]
        assert np.allclose(out, 0.25)

    def test_sigmoid_zero_logits(self):
        net = Network([DenseLayer(W=np.zeros((3, 2)), b=np.zeros(3), activation="sigmoid")])
        out = forward(net, np.ones(2))[-1]
        assert np.allclose(out, 0.5)

    def test_sigmoid_equals_the_two_branch_form_bit_for_bit(self):
        def two_branch(z):
            out = np.empty_like(z, dtype=float)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, 1e-320, -1e-320, np.nan, -np.nan]
        for z in (np.array(edges), np.random.default_rng(5).normal(scale=30, size=(100, 32))):
            with np.errstate(over="raise", invalid="raise", under="ignore"):
                got = sigmoid(z)
            assert got.dtype == np.float64 and got.shape == z.shape
            assert got.tobytes() == two_branch(z).tobytes()

    def test_dimension_mismatch(self):
        net = Network([identity_layer(3)])
        with pytest.raises(ValueError):
            forward(net, np.zeros(4))

    def test_batched_input(self):
        net = init_network([3, 2], ["sigmoid"], rng)
        X = rng.normal(size=(5, 3))
        batch = forward(net, X)[-1]
        for i in range(5):
            assert np.allclose(batch[i], forward(net, X[i])[-1])

    @pytest.mark.parametrize("activation", ["identity", "sigmoid"])
    def test_non_finite_output_of_a_last_layer_other_than_softmax(self, activation):
        # a softmax refuses non-finite logits itself; any other last layer is scanned
        net = Network([DenseLayer(W=np.eye(2), b=np.array([0.0, np.nan]), activation=activation)])
        with pytest.raises(NumericError, match="^non-finite network output$"):
            forward(net, np.zeros((3, 2)))

    def test_softmax_output_layer_refuses_non_finite_logits(self):
        net = Network([DenseLayer(W=np.eye(2), b=np.array([0.0, np.inf]), activation="softmax")])
        with pytest.raises(NumericError, match="softmax input contains NaN/Inf"):
            forward(net, np.zeros((3, 2)))


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(3)), 1 / 3)

    def test_extreme_logits_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        z = rng.normal(size=6)
        assert np.allclose(softmax(z), softmax(z + 123.456))

    def test_sums_to_one(self):
        for _ in range(100):
            z = rng.normal(scale=50, size=8)
            assert abs(softmax(z).sum() - 1.0) < 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            softmax(np.array([1.0, np.nan]))

    def test_argument_is_never_written(self):
        # the output layer normalises its own fresh logits in place; the public function copies
        z = rng.normal(size=(4, 6))
        before = z.copy()
        out = softmax(z)
        assert_same_bytes(z, before)
        net = Network([DenseLayer(W=np.eye(6), b=np.zeros(6), activation="softmax")])
        assert_same_bytes(forward(net, z)[-1], out)


class TestBackward:
    def test_matches_finite_differences(self):
        net = init_network(
            [5, 4, 3, 3], ["sigmoid", "identity", "softmax"], np.random.default_rng(1)
        )
        x = np.random.default_rng(2).normal(size=5)
        t = distribution(np.random.default_rng(3), 3)
        assert gradient_check(net, x, t) < 1e-4

    def test_softmax_cross_entropy_delta(self):
        net = init_network([4, 3], ["softmax"], np.random.default_rng(4))
        x = np.array([0.3, -0.1, 0.7, 0.2])
        t = np.array([0.0, 1.0, 0.0])
        grads, outs = backward(net, x, t)
        expected = np.outer(outs[-1] - t, x)
        assert np.allclose(grads[0][0], expected)
        assert gradient_check(net, x, t) < 1e-4

    def test_cross_entropy_needs_softmax(self):
        net = Network([identity_layer(2)])
        with pytest.raises(ValueError):
            backward(net, np.zeros(2), np.zeros(2))

    def test_shape_mismatch(self):
        net = init_network([2, 2], ["softmax"], np.random.default_rng(0))
        with pytest.raises(ValueError, match="target shape"):
            backward(net, np.zeros(2), np.array([0.0, 1.0, 0.0]))


class TestSgdStep:
    def test_zero_lr_no_change(self):
        net = init_network([3, 2], ["softmax"], np.random.default_rng(5))
        before = [l.W.copy() for l in net.layers]
        grads, _ = backward(net, np.ones(3), np.array([1.0, 0.0]))
        sgd_step(net, grads, 0.0)
        for layer, W in zip(net.layers, before):
            assert np.array_equal(layer.W, W)

    def test_quadratic_single_weight(self):
        # logits (w, 0) for x=1, target class 1: dL/dw = softmax(w, 0)[0] = sigmoid(w)
        net = Network([DenseLayer(W=np.array([[1.0], [0.0]]), b=np.zeros(2), activation="softmax")])
        grads, _ = backward(net, np.ones(1), np.array([0.0, 1.0]))
        sgd_step(net, grads, 0.1)
        assert net.layers[0].W[0, 0] == pytest.approx(1.0 - 0.1 / (1.0 + np.exp(-1.0)))

    def test_monotone_descent_on_quadratic(self):
        # cross-entropy of one softmax layer is convex, with a gradient Lipschitz in ||x||^2 = 2
        net = Network([DenseLayer(W=np.array([[2.0, 0.5], [0.1, -1.0]]), b=np.zeros(2), activation="softmax")])
        x = np.array([1.0, -1.0])
        t = np.array([0.3, 0.7])
        losses = []
        for _ in range(50):
            grads, outs = backward(net, x, t)
            losses.append(loss_value(outs[-1], t))
            sgd_step(net, grads, 0.05)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_step_empties_the_codes(self):
        net = init_network([3, 2], ["softmax"], np.random.default_rng(5))
        net._codes = np.zeros((3, 2))
        grads, _ = backward(net, np.ones(3), np.array([1.0, 0.0]))
        sgd_step(net, grads, 0.1)
        assert net._codes is None

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lr_changes_nothing(self, lr):
        net = init_network([3, 2], ["softmax"], np.random.default_rng(5))
        before = [(l.W.copy(), l.b.copy()) for l in net.layers]
        grads, _ = backward(net, np.ones(3), np.array([1.0, 0.0]))
        with pytest.raises(ConfigError, match="finite"):
            sgd_step(net, grads, lr)
        for layer, (W, b) in zip(net.layers, before):
            assert_same_bytes(layer.W, W)
            assert_same_bytes(layer.b, b)


class TestGradientCheck:
    def test_linear_net_near_exact(self):
        net = init_network([4, 3, 3], ["identity", "softmax"], np.random.default_rng(6))
        x = rng.normal(size=4)
        t = distribution(rng, 3)
        assert gradient_check(net, x, t) < 1e-7

    def test_deep_sigmoid_net(self):
        net = init_network([6, 5, 4, 4], ["sigmoid", "sigmoid", "softmax"], np.random.default_rng(8))
        x = rng.normal(size=6)
        t = distribution(rng, 4)
        assert gradient_check(net, x, t) < 1e-4

    def test_detects_corrupted_gradient(self):
        net = init_network([4, 3, 3], ["sigmoid", "softmax"], np.random.default_rng(9))
        x = rng.normal(size=4)
        t = distribution(rng, 3)
        grads, _ = backward(net, x, t)
        dW, db = grads[0]
        dW = dW * 2.0  # injected fault
        eps = 1e-5
        worst = 0.0
        flat, gflat = net.layers[0].W.reshape(-1), dW.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = loss_value(forward(net, x)[-1], t)
            flat[k] = orig - eps
            lo = loss_value(forward(net, x)[-1], t)
            flat[k] = orig
            numeric = (hi - lo) / (2 * eps)
            denom = max(abs(gflat[k]), abs(numeric), 1e-12)
            worst = max(worst, abs(gflat[k] - numeric) / denom)
        assert worst > 0.1


class TestTraining:
    def test_linearly_separable_toy(self):
        r = np.random.default_rng(10)
        X = np.vstack([r.normal(-2, 0.5, size=(30, 2)), r.normal(2, 0.5, size=(30, 2))])
        Y = np.zeros((60, 2))
        Y[:30, 0] = 1
        Y[30:, 1] = 1
        net = init_network([2, 2], ["softmax"], r)
        train_supervised(net, X, Y, TrainConfig(batch_size=10, learning_rate=0.5, epochs=500, seed=0))
        pred = np.argmax(forward(net, X)[-1], axis=1)
        assert np.array_equal(pred, np.argmax(Y, axis=1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_is_a_numeric_error(self):
        # the sigmoid layer would squash the overflowed inf back to a finite output
        r = np.random.default_rng(3)
        X = r.normal(size=(20, 3))
        Y = np.eye(2)[r.integers(0, 2, size=20)]
        net = init_network([3, 8, 8, 2], ["identity", "sigmoid", "softmax"], r)
        config = TrainConfig(batch_size=5, learning_rate=1e300, epochs=3, seed=0)
        with pytest.raises(NumericError, match="overflow"):
            train_supervised(net, X, Y, config)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        for lr in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="learning_rate must be finite"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("name", ["batch_size", "epochs", "seed"])
    @pytest.mark.parametrize(
        "value", [2.0, "2", True, np.int64(2), None], ids=["float", "str", "bool", "int64", "None"]
    )
    def test_counts_must_be_ints(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an int, got "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("value", ["0.1", None, [0.1], True], ids=["str", "None", "list", "bool"])
    def test_learning_rate_must_be_a_real_number(self, value):
        got = re.escape(repr(value))
        with pytest.raises(ConfigError, match=f"^learning_rate must be a real number, got {got}$"):
            TrainConfig(learning_rate=value)

    @pytest.mark.parametrize("value", [1, np.float32(0.5), np.int64(1), Fraction(1, 4)])
    def test_learning_rate_may_be_any_real_number(self, value):
        assert TrainConfig(learning_rate=value).learning_rate == value

    @pytest.mark.parametrize("form", ["rows", "ids"])
    def test_empty_training_set_is_a_config_error(self, form):
        net = init_network([3, 3], ["softmax"], np.random.default_rng(0))
        empty = np.zeros((0, 3)) if form == "rows" else np.zeros(0, dtype=int)
        with pytest.raises(ConfigError, match="no training examples"):
            train_supervised(net, empty, empty, TrainConfig())


def id_net(n=9, seed=11):
    """An |A|-in, softmax-out network like the autoencoder's, with a sigmoid between."""
    return init_network([n, 5, 4, n], ["identity", "sigmoid", "softmax"], np.random.default_rng(seed))


def assert_same_bytes(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def batch_ids(d):
    """Id batches over [0, d): B = 1, repeated ids, and one id repeated B times."""
    return st.one_of(
        st.lists(st.integers(0, d - 1), min_size=1, max_size=12),
        st.tuples(st.integers(0, d - 1), st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
    )


def assert_same_column_grad(got, want):
    assert got.cols.dtype == want.cols.dtype
    assert_same_bytes(got.cols, want.cols)
    assert_same_bytes(got.rows, want.rows)


def dense_grads(net, grads):
    """grads with a first-layer ColumnGrad written out as the full one-hot dW."""
    return [(dense_gradient(dW, layer.in_dim), db) for layer, (dW, db) in zip(net.layers, grads)]


class TestWordIds:
    """A 1-D integer array is the id form of one-hot rows: the results must not differ."""

    def test_unique_ids_equal_one_hot_rows_bit_for_bit(self):
        net, eye = id_net(), np.eye(9)
        ids, tids = np.array([4, 0, 7, 2]), np.array([1, 1, 8, 0])
        grads, outs = backward(net, ids, tids)
        one_hot_grads, dense_outs = backward(net, eye[ids], eye[tids])
        for (dW, db), (dense_dW, dense_db) in zip(dense_grads(net, grads), one_hot_grads):
            assert_same_bytes(dW, dense_dW)
            assert_same_bytes(db, dense_db)
        for out, dense_out in zip(outs, dense_outs):
            assert_same_bytes(out, dense_out)
        assert_same_bytes(forward(net, ids)[-1], forward(net, eye[ids])[-1])
        assert loss_value(outs[-1], tids) == loss_value(
            dense_outs[-1], eye[tids], 
        )

    def test_repeated_input_ids_sum_their_columns(self):
        net, eye = id_net(), np.eye(9)
        ids, tids = np.array([3, 5, 3, 3, 0, 5]), np.array([2, 2, 6, 1, 0, 4])
        grads, _ = backward(net, ids, tids)
        one_hot_grads, _ = backward(net, eye[ids], eye[tids])
        for (dW, db), (dense_dW, dense_db) in zip(dense_grads(net, grads), one_hot_grads):
            np.testing.assert_allclose(dW, dense_dW, rtol=1e-12, atol=0)
            np.testing.assert_allclose(db, dense_db, rtol=1e-12, atol=0)
        assert grads[0][0].cols.tolist() == [0, 3, 5]

    def test_gradient_check_with_ids(self):
        for seed in range(3):
            r = np.random.default_rng(seed)
            net = id_net(seed=seed)
            ids, tids = r.integers(0, 9, size=4), r.integers(0, 9, size=4)
            assert gradient_check(net, ids, tids) < 1e-4

    def test_id_target_count_must_match_the_batch(self):
        with pytest.raises(ValueError, match="3 target ids for 2 outputs"):
            backward(id_net(), np.array([0, 1]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("bad", [-1, 9])
    @pytest.mark.parametrize(
        "call",
        [
            lambda net, bad: forward(net, np.array([0, bad])),
            lambda net, bad: backward(net, np.array([0, bad]), np.array([0, 1])),
            lambda net, bad: backward(net, np.array([0, 1]), np.array([0, bad])),
            lambda net, bad: loss_value(forward(net, np.array([0, 1]))[-1], np.array([bad, 1])),
            lambda net, bad: train_supervised(
                net, np.array([bad, 1, 2]), np.array([0, 1, 2]), TrainConfig(batch_size=1, epochs=1)
            ),
            lambda net, bad: train_supervised(
                net, np.array([0, 1, 2]), np.array([bad, 1, 2]), TrainConfig(batch_size=1, epochs=1)
            ),
        ],
        ids=["forward", "backward-input", "backward-target", "loss-target", "train-input", "train-target"],
    )
    def test_out_of_range_id_raises_and_never_wraps(self, call, bad):
        net = id_net()
        before = [layer.W.copy() for layer in net.layers]
        with pytest.raises(IndexError, match=rf"word id {bad} out of range for \|A\|=9"):
            call(net, bad)
        # the seed-0 order visits row 0 second, so a per-batch check alone would update first
        for layer, W in zip(net.layers, before):
            assert np.array_equal(layer.W, W)


class TestColumnStep:
    """The first layer's id gradient is its touched columns, and the step moves only those."""

    @pytest.mark.parametrize(
        "ids", [[4, 0, 7, 2, 8, 1, 6, 3], [3, 5, 3, 0, 5, 7, 1, 2]], ids=["distinct", "repeated"]
    )
    def test_column_step_equals_the_one_hot_step(self, ids):
        # a batch of 8 divides exactly, and two addends sum alike in any order,
        # so the one-hot product must agree with the scatter to the byte
        ids, tids = np.array(ids), np.array([1, 1, 8, 0, 2, 2, 5, 7])
        net, reference, eye, lr = id_net(), id_net(), np.eye(9), 0.3
        before = net.layers[0].W.copy()
        grads, _ = backward(net, ids, tids)
        assert grads[0][0].cols.tolist() == sorted(set(ids.tolist()))
        sgd_step(net, grads, lr)
        one_hot_grads, _ = backward(reference, eye[ids], eye[tids])
        for layer, (dW, db) in zip(reference.layers, one_hot_grads):
            layer.W -= lr * dW
            layer.b -= lr * db
        for layer, ref in zip(net.layers, reference.layers):
            assert_same_bytes(layer.W, ref.W)
            assert_same_bytes(layer.b, ref.b)
        untouched = np.setdiff1d(np.arange(9), ids)
        assert_same_bytes(net.layers[0].W[:, untouched], before[:, untouched])

    @settings(max_examples=100, deadline=None)
    @given(batch=batch_ids(7), data=st.data())
    def test_repeated_ids_sum_in_batch_order(self, batch, data):
        # one softmax layer: its output delta is known, so the reference is
        # np.add.at of delta / batch into zeros, in batch order
        ids = np.array(batch)
        tids = np.array(data.draw(st.lists(st.integers(0, 6), min_size=len(ids), max_size=len(ids))))
        net, lr = init_network([7, 7], ["softmax"], np.random.default_rng(12)), 0.7
        delta = forward(net, ids)[-1]
        delta[np.arange(len(ids)), tids] -= 1.0
        reference = column_grad_reference(ids, delta, len(ids))
        expected = net.layers[0].W - lr * dense_gradient(reference, 7)
        grads, _ = backward(net, ids, tids)
        assert_same_column_grad(grads[0][0], reference)
        sgd_step(net, grads, lr)
        assert_same_bytes(net.layers[0].W, expected)

    @settings(max_examples=300, deadline=None)
    @given(batch=batch_ids(6), width=st.integers(1, 4), data=st.data())
    def test_column_grad_equals_the_add_at_reference(self, batch, width, data):
        # summands far apart in size, so another order of adding a repeated id's rows
        # shows in the bits; a row of -0.0 must come out +0.0, as add.at into zeros gives
        ids = np.array(batch)
        value = st.one_of(
            st.floats(-1e17, 1e17, allow_nan=False), st.sampled_from([1e16, -1e16, 1.0, 0.1, -0.0])
        )
        row = st.one_of(st.just([-0.0] * width), st.lists(value, min_size=width, max_size=width))
        delta = np.array(data.draw(st.lists(row, min_size=len(ids), max_size=len(ids))))
        got = neural._column_grad(ids, delta.copy(), len(ids))
        assert_same_column_grad(got, column_grad_reference(ids, delta, len(ids)))


def parameters(net):
    return [a.tobytes() for layer in net.layers for a in (layer.W, layer.b)]


class TestStepArrays:
    """A step writes its large arrays into those of the step before it, with the results of new ones."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        id_inputs=st.booleans(),
        id_targets=st.booleans(),
        n=st.integers(1, 23),
        batch_size=st.integers(1, 9),
        epochs=st.integers(1, 2),
        seed=st.integers(0, 5),
    )
    def test_training_equals_the_allocating_loop(
        self, data, widths, id_inputs, id_targets, n, batch_size, epochs, seed
    ):
        # few input ids over many examples, so batches repeat ids; n need not divide into batches
        widths[-1] = max(widths[-1], 2)
        activation = st.sampled_from(["sigmoid", "identity"])
        hidden = data.draw(st.lists(activation, min_size=len(widths) - 2, max_size=len(widths) - 2))
        r = np.random.default_rng(seed)
        net = init_network(widths, hidden + ["softmax"], r)
        reference = copy.deepcopy(net)
        X = r.integers(0, widths[0], n) if id_inputs else r.normal(size=(n, widths[0]))
        if id_targets:
            Y = r.integers(0, widths[-1], n)
        else:
            Y = np.array([distribution(r, widths[-1]) for _ in range(n)])
        config = TrainConfig(batch_size=batch_size, learning_rate=0.5, epochs=epochs, seed=seed)
        trace = train_supervised(net, X, Y, config)
        want = train_supervised_reference(reference, X, Y, config)
        assert np.array(trace).tobytes() == np.array(want).tobytes()
        assert parameters(net) == parameters(reference)

    def test_a_step_returns_the_arrays_it_was_handed(self):
        net, spare = id_net(), {}
        dense = lambda grads: [grads[0][1]] + [a for pair in grads[1:] for a in pair]  # noqa: E731
        first, first_outs = backward(net, np.array([1, 4, 4]), np.array([0, 2, 8]), spare)
        second, second_outs = backward(net, np.array([3, 3, 5]), np.array([7, 7, 1]), spare)
        assert len(dense(second)) == 5 and all(a is b for a, b in zip(dense(second), dense(first)))
        assert second_outs[-1].base is first_outs[-1].base is spare["out"]
        # the first layer's column set changes from batch to batch, so its gradient is new
        assert isinstance(second[0][0], neural.ColumnGrad) and second[0][0] is not first[0][0]
        assert second[0][0].cols.tolist() == [3, 5]
        # a short batch writes into the leading rows of the batch arrays
        _, short_outs = backward(net, np.array([2]), np.array([6]), spare)
        assert short_outs[-1].base is spare["out"] and len(short_outs[-1]) == 1

    @pytest.mark.parametrize(
        "key,shape",
        [(("dW", 2), (9, 3)), (("db", 1), (5,)), ("out", (2, 9)), ("delta", (3, 8))],
        ids=["dW", "db", "out-rows", "delta-width"],
    )
    def test_a_mis_shaped_spare_array_raises_before_any_weight_moves(self, key, shape):
        net = id_net()
        before = parameters(net)

        def batch(idx, spare):
            spare[key] = np.empty(shape)
            return (*backward(net, idx, idx, spare), idx)

        with pytest.raises(ValueError, match=f"spare array {re.escape(repr(key))} has shape"):
            neural.train_epochs(net, 9, TrainConfig(batch_size=3, epochs=1), batch)
        assert parameters(net) == before

    def test_the_loop_hands_every_batch_one_spare(self):
        # it keeps the dense gradients and the output layer's arrays, and no first-layer ColumnGrad
        net, seen = id_net(), []

        def batch(idx, spare):
            seen.append(spare)
            return (*backward(net, idx, idx, spare), idx)

        neural.train_epochs(net, 9, TrainConfig(batch_size=4, epochs=2), batch)
        assert len(seen) == 6 and all(s is seen[0] for s in seen)
        assert set(seen[0]) == {"out", "delta", ("db", 0), ("dW", 1), ("db", 1), ("dW", 2), ("db", 2)}


class TestNumericAborts:
    """Training checks its parameters once; inside it, numpy raises at the first overflow."""

    def test_id_training_whose_step_overflows(self):
        net = init_network([9, 4, 9], ["identity", "softmax"], np.random.default_rng(11))
        net.layers[1].W *= 1e3  # first-layer deltas near 1e3: lr times them overflows in the step
        r = np.random.default_rng(3)
        X, Y = r.integers(0, 9, size=20), r.integers(0, 9, size=20)
        config = TrainConfig(batch_size=5, learning_rate=1e306, epochs=1, seed=0)
        with pytest.raises(NumericError, match="overflow"):
            train_supervised(net, X, Y, config)

    @pytest.mark.parametrize("case", ["sigmoid-bias", "unread-id-column"])
    def test_non_finite_parameter_rejected_before_any_step(self, case):
        r = np.random.default_rng(4)
        if case == "sigmoid-bias":
            # the sigmoid squashes +inf to 1, so no output shows it
            net = init_network([3, 8, 2], ["sigmoid", "softmax"], r)
            net.layers[0].b[2] = np.inf
            X, Y = r.normal(size=(20, 3)), np.eye(2)[r.integers(0, 2, size=20)]
        else:
            # no batch gathers column 8
            net = id_net()
            net.layers[0].W[1, 8] = np.nan
            X, Y = r.integers(0, 8, size=20), r.integers(0, 9, size=20)
        before = [(l.W.tobytes(), l.b.tobytes()) for l in net.layers]
        with pytest.raises(NumericError, match="non-finite parameters in layer 0"):
            train_supervised(net, X, Y, TrainConfig(batch_size=5, epochs=2))
        assert [(l.W.tobytes(), l.b.tobytes()) for l in net.layers] == before

    @pytest.mark.parametrize("which", ["inputs", "targets"])
    def test_non_finite_training_data_rejected(self, which):
        r = np.random.default_rng(5)
        net = init_network([3, 8, 2], ["sigmoid", "softmax"], r)
        data = {"inputs": r.normal(size=(10, 3)), "targets": np.eye(2)[r.integers(0, 2, size=10)]}
        data[which][4, 1] = np.inf
        with pytest.raises(NumericError, match=f"non-finite training {which}"):
            train_supervised(net, data["inputs"], data["targets"], TrainConfig(batch_size=5))

    @pytest.mark.parametrize("first_input", ["rows", "ids"])
    def test_direct_step_writing_inf_raises(self, first_input):
        net = id_net()
        x = np.array([2, 5]) if first_input == "ids" else np.eye(9)[[2, 5]]
        grads, _ = backward(net, x, np.array([1, 3]))
        if first_input == "ids":
            grads[0][0].rows[1, 0] = np.inf
        else:
            grads[0][0][0, 5] = np.inf
        with pytest.raises(NumericError, match="non-finite parameters in layer 0"):
            sgd_step(net, grads, 0.1)

    def test_parameters_scanned_once_per_training_run(self, monkeypatch):
        scans = []
        monkeypatch.setattr(Network, "check_finite", lambda self: scans.append(self))
        r = np.random.default_rng(6)
        net = id_net()
        train_supervised(net, r.integers(0, 9, 30), r.integers(0, 9, 30), TrainConfig(batch_size=4, epochs=3))
        assert scans == [net]


class TestPersistence:
    def test_seed_recorded(self):
        net = init_network([2, 2], ["identity"], np.random.default_rng(0))
        assert network_to_dict(net, seed=42)["seed"] == 42

    def test_version_check(self):
        net = init_network([2, 2], ["identity"], np.random.default_rng(0))
        data = network_to_dict(net)
        data["format_version"] = 99
        with pytest.raises(ConfigError):
            network_from_dict(data)

    def test_missing_field_rejected(self):
        data = network_to_dict(init_network([2, 2], ["identity"], np.random.default_rng(0)))
        del data["topology"]
        with pytest.raises(ConfigError, match="topology"):
            network_from_dict(data)

    def test_json_serializable(self):
        net = init_network([2, 2], ["identity"], np.random.default_rng(0))
        json.dumps(network_to_dict(net))

    @pytest.mark.parametrize("shape", [(0,), (3,), (2, 0), (4, 5)])
    def test_array_round_trip(self, shape):
        a = np.random.default_rng(1).normal(size=shape)
        back = decode_array(json.loads(json.dumps(encode_array(a))), "a", len(shape))
        assert back.shape == a.shape and back.tobytes() == a.tobytes()
        back += 1.0  # loaded arrays are updated in place by further training

    @pytest.mark.parametrize("value", [["a", "b"], [[1.0], [1.0, 2.0]], [1.0, 2.0], 5, "AAAA"])
    def test_malformed_array_rejected(self, value):
        with pytest.raises(ConfigError, match="^weights "):
            decode_array(value, "weights", 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_in_either_format(self, bad):
        a = np.ones((2, 3))
        a[1, 2] = bad
        # format 1 stores nested numbers, which JSON writes as NaN or Infinity
        for value in (encode_array(a), json.loads(json.dumps(a.tolist()))):
            with pytest.raises(ConfigError, match="^weights holds a non-finite value"):
                decode_array(value, "weights", 2)

    def test_built_and_loaded_networks_start_without_memos(self):
        net = init_network([4, 2, 4], ["identity", "softmax"], np.random.default_rng(0))
        assert net._codes is None
        loaded = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert loaded._codes is None


FLOATS_PER_PIECE = neural.PIECE_BYTES // 8

# the empty shapes, one float, and byte counts at a piece boundary and one float either side
PIECE_SHAPES = [
    (0,), (0, 5), (1, 1), (3, 4),
    (FLOATS_PER_PIECE - 1,), (FLOATS_PER_PIECE,), (FLOATS_PER_PIECE + 1,),
    (2, FLOATS_PER_PIECE // 2), (3, FLOATS_PER_PIECE // 2 + 1),
]


@st.composite
def stored_arrays(draw):
    """A float64 array in any layout: C- or F-ordered, a strided view, or read-only."""
    shape = draw(st.sampled_from(PIECE_SHAPES))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "F", "strided", "read-only"]))
    if layout == "strided":
        return r.normal(size=(*shape, 2))[..., 1]
    a = r.normal(size=shape)
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "read-only":
        a.flags.writeable = False
    return a


json_keys = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_keys, inner, max_size=3),
    ),
    max_leaves=8,
)


class TestPieces:
    @settings(max_examples=60, deadline=None)
    @given(rows=stored_arrays(), weights=stored_arrays(), metadata=st.dictionaries(json_keys, json_values))
    def test_pieces_join_to_json_dumps_of_the_reference_container(self, rows, weights, metadata):
        net = init_network([3, 2], ["softmax"], np.random.default_rng(0))
        container = {
            "metadata": metadata,
            "rows": rows,
            "more": ({"weights": weights}, [rows]),
            "network": neural._network_container(net, seed=5),
        }
        reference = {
            "metadata": metadata,
            "rows": encode_array(rows),
            "more": ({"weights": encode_array(weights)}, [encode_array(rows)]),
            "network": network_to_dict(net, seed=5),
        }
        assert "".join(neural._json_pieces(container)) == json.dumps(reference)

    def test_an_array_is_written_a_piece_at_a_time(self):
        a = np.arange(2.5 * FLOATS_PER_PIECE)
        pieces = list(neural._json_pieces(a))
        assert [len(p) for p in pieces[1:-1]] == [4 * neural.PIECE_BYTES // 3] * 2 + [
            4 * neural.PIECE_BYTES // 6
        ]
        assert "".join(pieces) == json.dumps(encode_array(a))
