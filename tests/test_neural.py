import json

import numpy as np
import pytest

from wordsim.errors import ConfigError, NumericError
from wordsim.neural import (
    DenseLayer,
    Network,
    TrainConfig,
    backward,
    forward,
    gradient_check,
    init_network,
    load_network,
    loss_value,
    network_from_dict,
    network_to_dict,
    save_network,
    sgd_step,
    softmax,
    train_supervised,
)

rng = np.random.default_rng(7)


def identity_layer(n):
    return DenseLayer(W=np.eye(n), b=np.zeros(n), activation="identity")


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


class TestBackward:
    def test_zero_loss_zero_gradients(self):
        net = Network([identity_layer(3)])
        x = np.array([1.0, 2.0, 3.0])
        grads, _ = backward(net, x, x, "squared-L2")
        for dW, db in grads:
            assert np.allclose(dW, 0) and np.allclose(db, 0)

    def test_matches_finite_differences(self):
        net = init_network([5, 4, 3], ["sigmoid", "identity"], np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=5)
        t = np.random.default_rng(3).normal(size=3)
        assert gradient_check(net, x, t, "squared-L2") < 1e-4

    def test_softmax_cross_entropy_delta(self):
        net = init_network([4, 3], ["softmax"], np.random.default_rng(4))
        x = np.array([0.3, -0.1, 0.7, 0.2])
        t = np.array([0.0, 1.0, 0.0])
        grads, outs = backward(net, x, t, "cross-entropy")
        expected = np.outer(outs[-1] - t, x)
        assert np.allclose(grads[0][0], expected)
        assert gradient_check(net, x, t, "cross-entropy") < 1e-4

    def test_cross_entropy_needs_softmax(self):
        net = Network([identity_layer(2)])
        with pytest.raises(ValueError):
            backward(net, np.zeros(2), np.zeros(2), "cross-entropy")

    def test_shape_mismatch(self):
        net = Network([identity_layer(2)])
        with pytest.raises(ValueError):
            backward(net, np.zeros(2), np.zeros(3), "squared-L2")


class TestSgdStep:
    def test_zero_lr_no_change(self):
        net = init_network([3, 2], ["sigmoid"], np.random.default_rng(5))
        before = [l.W.copy() for l in net.layers]
        grads, _ = backward(net, np.ones(3), np.zeros(2), "squared-L2")
        sgd_step(net, grads, 0.0)
        for layer, W in zip(net.layers, before):
            assert np.array_equal(layer.W, W)

    def test_quadratic_single_weight(self):
        # output = p * x with x=1, target 0: loss = p^2, gradient 2p
        net = Network([DenseLayer(W=np.array([[1.0]]), b=np.zeros(1), activation="identity")])
        grads, _ = backward(net, np.ones(1), np.zeros(1), "squared-L2")
        sgd_step(net, grads, 0.1)
        assert net.layers[0].W[0, 0] == pytest.approx(0.8)

    def test_monotone_descent_on_quadratic(self):
        net = Network([DenseLayer(W=np.array([[2.0, 0.5], [0.1, -1.0]]), b=np.zeros(2), activation="identity")])
        x = np.array([1.0, -1.0])
        t = np.array([0.3, 0.7])
        losses = []
        for _ in range(50):
            grads, outs = backward(net, x, t, "squared-L2")
            losses.append(loss_value(outs[-1], t, "squared-L2"))
            sgd_step(net, grads, 0.05)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestGradientCheck:
    def test_linear_net_near_exact(self):
        net = init_network([4, 3], ["identity"], np.random.default_rng(6))
        x = rng.normal(size=4)
        t = rng.normal(size=3)
        assert gradient_check(net, x, t, "squared-L2") < 1e-7

    def test_deep_sigmoid_net(self):
        net = init_network([6, 5, 4], ["sigmoid", "sigmoid"], np.random.default_rng(8))
        x = rng.normal(size=6)
        t = rng.uniform(size=4)
        assert gradient_check(net, x, t, "squared-L2") < 1e-4

    def test_detects_corrupted_gradient(self):
        net = init_network([4, 3], ["sigmoid"], np.random.default_rng(9))
        x = rng.normal(size=4)
        t = rng.uniform(size=3)
        grads, _ = backward(net, x, t, "squared-L2")
        dW, db = grads[0]
        dW = dW * 2.0  # injected fault
        eps = 1e-5
        worst = 0.0
        flat, gflat = net.layers[0].W.reshape(-1), dW.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = loss_value(forward(net, x)[-1], t, "squared-L2")
            flat[k] = orig - eps
            lo = loss_value(forward(net, x)[-1], t, "squared-L2")
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
        train_supervised(net, X, Y, TrainConfig(batch_size=10, learning_rate=0.5, epochs=500, seed=0), "cross-entropy")
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
            train_supervised(net, X, Y, config, "cross-entropy")

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network([4, 3, 2], ["sigmoid", "softmax"], np.random.default_rng(11))
        path = tmp_path / "net.json"
        save_network(net, path, seed=11)
        loaded = load_network(path)
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.W, b.W)
            assert np.array_equal(a.b, b.b)
            assert a.activation == b.activation
        assert loaded.topology == net.topology

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

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_not_a_json_object_rejected(self, tmp_path, text):
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_network(path)

    def test_json_serializable(self):
        net = init_network([2, 2], ["identity"], np.random.default_rng(0))
        json.dumps(network_to_dict(net))
