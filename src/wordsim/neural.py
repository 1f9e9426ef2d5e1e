"""Minimal dense feedforward engine: forward, backprop, SGD, checking.

Inputs may be single vectors (shape (d,)) or batches (shape (B, d));
batch gradients are averaged over the batch. Softmax is only valid as a
final layer trained with cross-entropy.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "DenseLayer",
    "Network",
    "TrainConfig",
    "init_network",
    "forward",
    "sigmoid",
    "softmax",
    "loss_value",
    "backward",
    "sgd_step",
    "gradient_check",
    "train_supervised",
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
]

FORMAT_VERSION = 1

ACTIVATIONS = ("sigmoid", "identity", "softmax")
LOSSES = ("cross-entropy", "squared-L2")


def sigmoid(z):
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(z):
    """Numerically stable softmax along the last axis."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise NumericError("softmax input contains NaN/Inf")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _apply(activation, z):
    if activation == "sigmoid":
        return sigmoid(z)
    if activation == "identity":
        return z
    if activation == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation: {activation!r}")


@dataclass
class DenseLayer:
    W: np.ndarray  # (out_dim, in_dim)
    b: np.ndarray  # (out_dim,)
    activation: str = "sigmoid"

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ValueError("inconsistent layer dimensions")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation!r}")

    @property
    def out_dim(self):
        return self.W.shape[0]

    @property
    def in_dim(self):
        return self.W.shape[1]


@dataclass
class Network:
    layers: List[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer widths do not chain: {prev.out_dim} -> {cur.in_dim}"
                )

    @property
    def topology(self):
        """Widths from input to output."""
        return [self.layers[0].in_dim] + [l.out_dim for l in self.layers]

    def check_finite(self):
        for i, layer in enumerate(self.layers):
            if not (np.all(np.isfinite(layer.W)) and np.all(np.isfinite(layer.b))):
                raise NumericError(f"non-finite parameters in layer {i}")


@dataclass
class TrainConfig:
    batch_size: int = 100
    learning_rate: float = 0.01
    epochs: int = 10
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


def init_network(widths, activations, rng) -> Network:
    """Glorot-uniform initialized network for the given layer widths."""
    if len(activations) != len(widths) - 1:
        raise ValueError("need one activation per parameterized layer")
    layers = []
    for fan_in, fan_out, act in zip(widths, widths[1:], activations):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(W=W, b=np.zeros(fan_out), activation=act))
    return Network(layers)


def forward(net: Network, x) -> list:
    """Activations of every layer; the last entry is the network output."""
    a = np.asarray(x, dtype=float)
    if a.shape[-1] != net.layers[0].in_dim:
        raise ValueError(
            f"input width {a.shape[-1]} != expected {net.layers[0].in_dim}"
        )
    outs = []
    for layer in net.layers:
        z = a @ layer.W.T + layer.b
        a = _apply(layer.activation, z)
        outs.append(a)
    if not np.all(np.isfinite(outs[-1])):
        raise NumericError("non-finite network output")
    return outs


def loss_value(output, target, loss_kind: str) -> float:
    """Mean per-example loss for a batch (or single) output."""
    output = np.atleast_2d(output)
    target = np.atleast_2d(target)
    if loss_kind == "cross-entropy":
        per = -np.sum(target * np.log(np.clip(output, 1e-300, None)), axis=-1)
    elif loss_kind == "squared-L2":
        per = np.sum((output - target) ** 2, axis=-1)
    else:
        raise ValueError(f"unknown loss: {loss_kind!r}")
    return float(np.mean(per))


def backward(net: Network, x, target, loss_kind: str = "squared-L2"):
    """Analytic gradients of the mean batch loss for every (W, b).

    Returns ``(grads, outputs)`` where grads is a list of (dW, db) pairs
    aligned with net.layers.
    """
    grads, outs, _ = _backward_full(net, x, target, loss_kind)
    return grads, outs


def _backward_full(net: Network, x, target, loss_kind):
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    t2 = np.atleast_2d(np.asarray(target, dtype=float))
    outs = forward(net, x2)
    out = outs[-1]
    if t2.shape != out.shape:
        raise ValueError(f"target shape {t2.shape} != output shape {out.shape}")
    batch = x2.shape[0]

    last = net.layers[-1]
    if loss_kind == "cross-entropy":
        if last.activation != "softmax":
            raise ValueError("cross-entropy requires a softmax output layer")
        delta = out - t2
    elif loss_kind == "squared-L2":
        if last.activation == "softmax":
            raise ValueError("squared-L2 with softmax output is unsupported")
        delta = 2.0 * (out - t2)
        if last.activation == "sigmoid":
            delta = delta * out * (1.0 - out)
    else:
        raise ValueError(f"unknown loss: {loss_kind!r}")

    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        inputs = outs[i - 1] if i > 0 else x2
        dW = delta.T @ inputs / batch
        db = np.mean(delta, axis=0)
        grads[i] = (dW, db)
        if i > 0:
            delta = delta @ net.layers[i].W
            prev = outs[i - 1]
            if net.layers[i - 1].activation == "sigmoid":
                delta = delta * prev * (1.0 - prev)
            elif net.layers[i - 1].activation == "softmax":
                raise ValueError("softmax is only supported as the final layer")
    # gradient w.r.t. the input itself, needed by embedding training
    dx = delta @ net.layers[0].W
    return grads, outs, dx


def sgd_step(net: Network, grads, lr: float) -> Network:
    """In-place parameter update p <- p - lr * grad; returns the network."""
    for layer, (dW, db) in zip(net.layers, grads):
        layer.W -= lr * dW
        layer.b -= lr * db
    net.check_finite()
    return net


def gradient_check(net, x, target, loss_kind="squared-L2", epsilon=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    grads, _ = backward(net, x, target, loss_kind)
    worst = 0.0
    for layer, (dW, db) in zip(net.layers, grads):
        for param, grad in ((layer.W, dW), (layer.b, db)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + epsilon
                hi = loss_value(forward(net, x)[-1], target, loss_kind)
                flat[k] = orig - epsilon
                lo = loss_value(forward(net, x)[-1], target, loss_kind)
                flat[k] = orig
                numeric = (hi - lo) / (2 * epsilon)
                denom = max(abs(gflat[k]), abs(numeric), 1e-12)
                worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst


@contextmanager
def _numeric_guard():
    """Abort at the first float overflow or invalid operation, which a sigmoid could hide."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(str(exc)) from None


@_numeric_guard()
def train_supervised(net, X, Y, config: TrainConfig, loss_kind) -> list:
    """Minibatch SGD over (X, Y) rows; returns the per-epoch mean loss trace."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ")
    rng = np.random.default_rng(config.seed)
    n = X.shape[0]
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grads, outs = backward(net, X[idx], Y[idx], loss_kind)
            total += loss_value(outs[-1], Y[idx], loss_kind) * len(idx)
            sgd_step(net, grads, config.learning_rate)
        loss = total / n
        if not math.isfinite(loss):
            raise NumericError("training loss became non-finite")
        trace.append(loss)
    return trace


def network_to_dict(net: Network, seed: Optional[int] = None) -> dict:
    """Versioned JSON-ready container; floats round-trip bit-exactly."""
    return {
        "format_version": FORMAT_VERSION,
        "topology": net.topology,
        "seed": seed,
        "layers": [
            {
                "activation": l.activation,
                "weights": l.W.tolist(),
                "biases": l.b.tolist(),
            }
            for l in net.layers
        ],
    }


def network_from_dict(data: dict) -> Network:
    if data.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported model format version: {data.get('format_version')!r}"
        )
    try:
        layers = [
            DenseLayer(
                W=np.array(l["weights"], dtype=float),
                b=np.array(l["biases"], dtype=float),
                activation=l["activation"],
            )
            for l in data["layers"]
        ]
        topology = list(data["topology"])
    except KeyError as exc:
        raise ConfigError(f"network lacks the field {exc}") from None
    net = Network(layers)
    if net.topology != topology:
        raise ConfigError("topology signature does not match layer shapes")
    return net


def _read_json(path) -> dict:
    """The JSON object stored at path; ConfigError if the file holds anything else."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # also a file that is not UTF-8
            raise ConfigError(f"not a JSON file: {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"not a JSON object: {path}")
    return data


def save_network(net: Network, path, seed=None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net, seed=seed), fh)


def load_network(path) -> Network:
    return network_from_dict(_read_json(path))
