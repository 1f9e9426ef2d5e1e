"""Minimal dense feedforward engine: forward, backprop, SGD, checking.

Inputs may be single vectors (shape (d,)) or batches (shape (B, d));
batch gradients are averaged over the batch. The loss is softmax
cross-entropy, so the last layer must be a softmax and only there.
train_epochs is the one minibatch loop: train_supervised and the
context encoder's trainer both run through it.

A 1-D integer array is the id form of a batch of one-hot rows: ids
stands for eye(d)[ids]. As an input, the first layer gathers the columns
W[:, ids], and backward returns that layer's weight gradient as a
ColumnGrad: the batch's distinct ids and one summed delta row for each,
the only columns where the one-hot dW is not zero. sgd_step moves only
those columns, since the others would move by exactly 0. No input
gradient is formed. As a cross-entropy target, the loss reads
out[i, ids[i]] and the output delta subtracts 1 there. Both give the
one-hot results bit for bit, since a one-hot product adds only exact
zeros; repeated input ids sum their deltas in another order. An id
outside [0, d) raises IndexError.

A training step holds one batch's large arrays. train_epochs keeps a
spare dict across its steps, and backward writes each step's dense
weight gradients, output activation and output delta into the arrays
that the step before it consumed (see _spare_array), so no step frees
an array that the next one allocates again. The results are those of
freshly allocated arrays, bit for bit.
"""

import base64
import json
import math
import numbers
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ConfigError, NumericError
from .lexicon import word_ids

__all__ = [
    "DenseLayer",
    "Network",
    "ColumnGrad",
    "TrainConfig",
    "check_int",
    "init_network",
    "forward",
    "sigmoid",
    "softmax",
    "loss_value",
    "backward",
    "sgd_step",
    "train_epochs",
    "train_supervised",
    "network_to_dict",
    "network_from_dict",
    "encode_array",
    "decode_array",
    "check_format_version",
]

# the version files are written in; loaders read every version in FORMAT_VERSIONS
FORMAT_VERSION = 2
FORMAT_VERSIONS = (1, 2)

ACTIVATIONS = ("sigmoid", "identity", "softmax")

# array bytes per base64 piece of a written file: a multiple of 3, so the
# pieces join without padding, and of 8, so each piece holds whole floats
PIECE_BYTES = 3 * 8 * 2048


def sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise, so no exp overflows.

    One exp serves both branches, with no gathers or scatters. Its
    argument is picked by np.where rather than taken as -|z|, which would
    flip the sign bit of a NaN.
    """
    pos = z >= 0
    e = np.exp(np.where(pos, -z, z))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def softmax(z):
    """Numerically stable softmax along the last axis; z itself is never written."""
    z = np.asarray(z, dtype=float)
    return _softmax(z, np.empty_like(z))


def _softmax(z, out):
    """softmax(z) written into out, which may be z; NumericError if z holds NaN/Inf.

    Finite logits give finite outputs: each row's largest logit gives exp(0) = 1,
    so every row sums to at least 1.
    """
    if not np.all(np.isfinite(z)):
        raise NumericError("softmax input contains NaN/Inf")
    np.subtract(z, np.max(z, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def _apply(activation, z):
    """The activation of the fresh logits z; a softmax is written over z."""
    if activation == "sigmoid":
        return sigmoid(z)
    if activation == "identity":
        return z
    if activation == "softmax":
        return _softmax(z, z)
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
    """Dense layers from input to output.

    A network also keeps the bottleneck codes that denoise.encode_all
    last computed from its weights, one read-only array per weight state;
    scoring keeps the candidates' rows of that array in the lexicon's
    bounded memo (see evalharness._prepared). sgd_step, the one function
    that writes weights in place, empties the codes, so the next
    encode_all returns a new array, whose candidates are then prepared
    again; a network that is built or loaded starts without codes. Edit a
    layer's W, b or activation by hand only before the first encode_all,
    or on a fresh or reloaded network: a hand edit leaves stale codes, and
    the rows prepared from them, in place.
    """

    layers: List[DenseLayer]
    # read-only codes of denoise.encode_all for the current weights; None until computed
    _codes: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

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
class ColumnGrad:
    """A weight gradient that is zero outside some columns: column cols[k] is rows[k]."""

    cols: np.ndarray  # (k,) distinct column indices, ascending
    rows: np.ndarray  # (k, out_dim)


def check_int(name: str, value, least: Optional[int] = None):
    """ConfigError unless value is an int, not a bool, of at least least if given; name names it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def check_real(name: str, value):
    """ConfigError unless value is a real number, not a bool; name names it."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


@dataclass
class TrainConfig:
    batch_size: int = 100
    learning_rate: float = 0.01
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            check_int(name, getattr(self, name), least)
        check_real("learning_rate", self.learning_rate)
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


def init_network(widths, activations, rng) -> Network:
    """Glorot-uniform initialized network for the given layer widths."""
    if len(activations) != len(widths) - 1:
        raise ValueError("need one activation per parameterized layer")
    if min(widths) < 1:
        raise ConfigError(f"layer widths must be >= 1, got {list(widths)}")
    layers = []
    for fan_in, fan_out, act in zip(widths, widths[1:], activations):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        W = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(W=W, b=np.zeros(fan_out), activation=act))
    return Network(layers)


def _is_ids(a) -> bool:
    """Whether a is the id form of one-hot rows: a 1-D integer array."""
    return isinstance(a, np.ndarray) and a.ndim == 1 and a.dtype.kind in "iu"


def _affine(layer: DenseLayer, a, out=None) -> np.ndarray:
    """a @ W.T + b, for float rows or for the one-hot rows that word ids stand for.

    The product of float rows is written into out if it is given.
    """
    if _is_ids(a):
        # a C-ordered gather, as the product eye[ids] @ W.T is
        z = layer.W.T[word_ids(a, layer.in_dim)]
    else:
        z = np.matmul(a, layer.W.T, out=out)
    z += layer.b
    return z


def _spare_array(spare: dict, key, shape) -> np.ndarray:
    """The array spare[key], to write a result of the given shape into.

    A key spare lacks gets a new array, which spare keeps for the next
    step. The batch arrays "out" and "delta" may have more rows than the
    batch, as a short last batch finds them, and give their leading rows.
    Any other shape raises ValueError, before the array is written.
    """
    a = spare.get(key)
    if a is None:
        a = spare[key] = np.empty(shape)
    if key in ("out", "delta") and a.shape[1:] == shape[1:] and len(a) >= shape[0]:
        return a[: shape[0]]
    if a.shape != shape:
        raise ValueError(f"spare array {key!r} has shape {a.shape}, the step needs {shape}")
    return a


def forward(net: Network, x, spare=None) -> list:
    """Activations of every layer; the last entry is the network output.

    Given a spare dict (see backward) and a batch of 2-D rows, the output
    layer's logits are written into its "out" array, unless that layer
    reads word ids, which it gathers.
    """
    if _is_ids(x):
        a = x
    else:
        a = np.asarray(x, dtype=float)
        if a.shape[-1] != net.layers[0].in_dim:
            raise ValueError(
                f"input width {a.shape[-1]} != expected {net.layers[0].in_dim}"
            )
    outs = []
    for layer in net.layers:
        out = None
        if spare is not None and layer is net.layers[-1] and not _is_ids(a):
            out = _spare_array(spare, "out", (len(a), layer.out_dim))
        a = _apply(layer.activation, _affine(layer, a, out))
        outs.append(a)
    # a softmax has already refused non-finite logits, and finite ones give finite outputs
    if net.layers[-1].activation != "softmax" and not np.all(np.isfinite(a)):
        raise NumericError("non-finite network output")
    return outs


def _target_ids(target, out) -> np.ndarray:
    """Target ids checked against the (B, d) output."""
    t = word_ids(target, out.shape[-1])
    if t.shape != out.shape[:1]:
        raise ValueError(f"{t.shape[0]} target ids for {out.shape[0]} outputs")
    return t


def loss_value(output, target) -> float:
    """Mean per-example cross-entropy for a batch (or single) softmax output."""
    output = np.atleast_2d(output)
    if _is_ids(target):
        t = _target_ids(target, output)
        return float(np.mean(-np.log(np.clip(output[np.arange(len(t)), t], 1e-300, None))))
    target = np.atleast_2d(target)
    return float(np.mean(-np.sum(target * np.log(np.clip(output, 1e-300, None)), axis=-1)))


def backward(net: Network, x, target, spare=None):
    """Analytic gradients of the mean batch cross-entropy for every (W, b).

    Returns ``(grads, outputs)`` where grads is a list of (dW, db) pairs
    aligned with net.layers. For word-id inputs the first dW is a
    ColumnGrad, new on every call.

    spare is a dict that keeps a step's large arrays for the next one:
    every dense dW and db, the output activation and the output delta are
    written into its arrays, which it gains on the first call. So the
    returned dense gradients and output are spare's arrays, and the next
    call with the same spare overwrites them: pass it again only once they
    are consumed, as train_epochs does after sgd_step. A spare array of
    another shape raises ValueError (see _spare_array). Without spare,
    every array is new.
    """
    grads, outs, _ = _backward_full(net, x, target, spare)
    return grads, outs


def _backward_full(net: Network, x, target, spare=None):
    """backward's gradients and outputs, plus the input gradient (None for id inputs)."""
    spare = {} if spare is None else spare
    ids = _is_ids(x)
    x2 = x if ids else np.atleast_2d(np.asarray(x, dtype=float))
    outs = forward(net, x2, spare)  # checks the range of input ids before the scatter below reads them
    out = outs[-1]
    batch = out.shape[0]
    if _is_ids(target):
        t2 = _target_ids(target, out)
    else:
        t2 = np.atleast_2d(np.asarray(target, dtype=float))
        if t2.shape != out.shape:
            raise ValueError(f"target shape {t2.shape} != output shape {out.shape}")

    if net.layers[-1].activation != "softmax":
        raise ValueError("cross-entropy requires a softmax output layer")
    delta = _spare_array(spare, "delta", out.shape)
    if t2.ndim == 1:
        np.copyto(delta, out)
        delta[np.arange(batch), t2] -= 1.0
    else:
        np.subtract(out, t2, out=delta)

    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[i]
        if i == 0 and ids:
            dW = _column_grad(x2, delta, batch)
        else:
            inputs = outs[i - 1] if i > 0 else x2
            dW = np.matmul(delta.T, inputs, out=_spare_array(spare, ("dW", i), layer.W.shape))
            dW /= batch
        db = np.mean(delta, axis=0, out=_spare_array(spare, ("db", i), layer.b.shape))
        grads[i] = (dW, db)
        if i > 0:
            delta = delta @ layer.W
            prev = outs[i - 1]
            if net.layers[i - 1].activation == "sigmoid":
                delta = delta * prev * (1.0 - prev)
            elif net.layers[i - 1].activation == "softmax":
                raise ValueError("softmax is only supported as the final layer")
    # gradient w.r.t. the input itself, needed by embedding training
    dx = None if ids else delta @ net.layers[0].W
    return grads, outs, dx


def _column_grad(ids, delta, batch) -> ColumnGrad:
    """The first layer's weight gradient for the one-hot inputs eye[ids]: delta.T @ eye[ids] / batch.

    Column c sums the scaled deltas delta[i] / batch of the examples with
    ids[i] == c in batch order, starting from +0.0 as np.add.at into zeros
    does, so a lone -0.0 becomes +0.0. A stable argsort brings each id's
    examples together in batch order; an id's k-th example is added in
    the k-th pass, one pass per repeat of the most repeated id.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.ones(batch, dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    starts = np.flatnonzero(first)
    scaled = delta[order]
    scaled /= batch
    rows = scaled if len(starts) == batch else scaled[starts]
    rows += 0.0
    repeats = np.diff(starts, append=batch)
    for k in range(1, repeats.max(initial=1)):
        more = repeats > k
        rows[more] += scaled[starts[more] + k]
    return ColumnGrad(sorted_ids[starts], rows)


def sgd_step(net: Network, grads, lr: float) -> Network:
    """In-place parameter update p <- p - lr * grad; returns the network.

    The gradients are scaled by lr in place. A ColumnGrad moves only its
    columns. The parameters are then scanned for NaN/Inf, unless numpy
    already raises on overflow and invalid operations, as it does in the
    trainers: there a step from finite values raises before it can write
    one. A non-finite lr raises ConfigError before any change. The
    network's memo of encode_all codes is emptied first, so the next
    encode_all returns a new array and scoring prepares its candidates
    again.
    """
    if not math.isfinite(lr):
        raise ConfigError(f"learning rate must be finite, got {lr}")
    net._codes = None
    for layer, (dW, db) in zip(net.layers, grads):
        if isinstance(dW, ColumnGrad):
            dW.rows *= lr
            layer.W[:, dW.cols] -= dW.rows.T
        else:
            dW *= lr
            layer.W -= dW
        db *= lr
        layer.b -= db
    err = np.geterr()
    if not (err["over"] == "raise" and err["invalid"] == "raise"):
        net.check_finite()
    return net


@contextmanager
def _numeric_guard():
    """Abort at the first float overflow or invalid operation, which a sigmoid could hide."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(str(exc)) from None


@_numeric_guard()
def train_epochs(net: Network, n: int, config: TrainConfig, batch) -> list:
    """Minibatch SGD over n examples; returns the per-epoch mean loss trace.

    Each epoch visits the examples in a seeded shuffled order, batch_size
    at a time. batch(idx, spare) returns the gradients and outputs of net
    and the targets for the examples idx, taking its gradients from
    backward with spare, the one dict this loop keeps across its steps;
    the loop adds up their loss and steps net. Anything else a batch
    moves, batch steps itself.
    """
    if n == 0:
        raise ConfigError("no training examples")
    # checked once: under the guard, no later step can make a finite value non-finite silently
    net.check_finite()
    rng = np.random.default_rng(config.seed)
    trace = []
    spare = {}
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grads, outs, target = batch(idx, spare)
            total += loss_value(outs[-1], target) * len(idx)
            sgd_step(net, grads, config.learning_rate)
            # drop the rest of the finished batch: only spare's arrays live into the next one
            del grads, outs, target
        loss = total / n
        if not math.isfinite(loss):
            raise NumericError("training loss became non-finite")
        trace.append(loss)
    return trace


def train_supervised(net, X, Y, config: TrainConfig) -> list:
    """Minibatch SGD over (X, Y) rows or word ids; returns the per-epoch mean loss trace."""
    X = word_ids(X, net.layers[0].in_dim) if _is_ids(X) else np.asarray(X, dtype=float)
    Y = word_ids(Y, net.layers[-1].out_dim) if _is_ids(Y) else np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise ValueError("X and Y row counts differ")
    for name, a in (("inputs", X), ("targets", Y)):
        if not _is_ids(a) and not np.all(np.isfinite(a)):
            raise NumericError(f"non-finite training {name}")
    return train_epochs(
        net, X.shape[0], config, lambda idx, spare: (*backward(net, X[idx], Y[idx], spare), Y[idx])
    )


def encode_array(a) -> dict:
    """JSON form of an array: its shape and its little-endian float64 bytes in base64."""
    a = np.asarray(a, dtype="<f8")
    return {"shape": list(a.shape), "f8le": base64.b64encode(a.tobytes()).decode("ascii")}


def decode_array(value, field: str, ndim: int) -> np.ndarray:
    """The ndim-dimensional float64 array an encode_array object holds.

    A list is a format-1 array stored as nested numbers and is read as
    such. Anything malformed, a NaN or infinite value included, raises
    ConfigError naming the field.
    """
    if isinstance(value, list):
        try:
            a = np.array(value, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{field} is not a nested list of numbers") from None
    elif not isinstance(value, dict):
        raise ConfigError(f"{field} is not an array object")
    else:
        shape = value.get("shape")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise ConfigError(
                f"{field}.shape must be a list of non-negative integers, got {shape!r}"
            )
        if "f8le" not in value:
            raise ConfigError(f"{field} lacks the field 'f8le'")
        try:
            raw = base64.b64decode(value["f8le"], validate=True)
        except (TypeError, ValueError):  # binascii.Error is a ValueError
            raise ConfigError(f"{field}.f8le is not valid base64") from None
        expected = 8 * math.prod(shape)
        if len(raw) != expected:
            raise ConfigError(
                f"{field}.f8le holds {len(raw)} bytes; shape {shape} needs {expected}"
            )
        # astype copies out of the read-only bytes, so training can update the array in place
        a = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(float)
    if a.ndim != ndim:
        raise ConfigError(f"{field} must have {ndim} dimensions, got shape {list(a.shape)}")
    if not np.isfinite(a).all():
        raise ConfigError(f"{field} holds a non-finite value")
    return a


def check_format_version(data: dict, what: str):
    """ConfigError unless data["format_version"] is one the loaders read."""
    version = data.get("format_version")
    if version not in FORMAT_VERSIONS:
        raise ConfigError(f"unsupported {what} format version: {version!r}")


def _network_container(net: Network, seed: Optional[int] = None) -> dict:
    """network_to_dict's container with the arrays left as arrays, for _json_pieces to write."""
    return {
        "format_version": FORMAT_VERSION,
        "topology": net.topology,
        "seed": seed,
        "layers": [
            {"activation": l.activation, "weights": l.W, "biases": l.b} for l in net.layers
        ],
    }


def _json_ready(value):
    """value with every array in it, however deep, replaced by its encode_array object."""
    if isinstance(value, np.ndarray):
        return encode_array(value)
    if isinstance(value, dict):
        return {key: _json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(item) for item in value]
    return value


def network_to_dict(net: Network, seed: Optional[int] = None) -> dict:
    """Versioned JSON-ready container; floats round-trip bit-exactly."""
    return _json_ready(_network_container(net, seed))


def network_from_dict(data: dict) -> Network:
    """The network of a network_to_dict container; ConfigError naming a malformed field."""
    if not isinstance(data, dict):
        raise ConfigError("network is not an object")
    check_format_version(data, "model")
    try:
        layers, topology = data["layers"], data["topology"]
        if not isinstance(layers, list) or not all(isinstance(l, dict) for l in layers):
            raise ConfigError("network field 'layers' is not a list of objects")
        if not isinstance(topology, list):
            raise ConfigError("network field 'topology' is not a list")
        net = Network([
            DenseLayer(
                W=decode_array(l["weights"], f"layers[{i}].weights", 2),
                b=decode_array(l["biases"], f"layers[{i}].biases", 1),
                activation=l["activation"],
            )
            for i, l in enumerate(layers)
        ])
    except KeyError as exc:
        raise ConfigError(f"network lacks the field {exc}") from None
    except ValueError as exc:  # layer shapes or activation that DenseLayer and Network reject
        raise ConfigError(f"malformed network: {exc}") from None
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


def _json_pieces(value):
    """The text of json.dumps(_json_ready(value)), in pieces.

    Dicts, lists and tuples are walked; an array is written as its
    encode_array object, whose base64 is made from PIECE_BYTES at a time of
    the C-ordered little-endian float64 values, so no piece holds more than
    about PIECE_BYTES of an array. Any other value is one json.dumps piece
    and raises as json.dumps does, TypeError for an object json cannot hold.
    """
    if isinstance(value, np.ndarray):
        a = np.asarray(value, dtype="<f8")
        step = PIECE_BYTES // 8
        yield f'{{"shape": {json.dumps(list(a.shape))}, "f8le": "'
        for start in range(0, a.size, step):
            # flat slices copy one piece in C order, whatever the array's layout
            yield base64.b64encode(a.flat[start : start + step]).decode("ascii")
        yield '"}'
    elif isinstance(value, dict) and value:
        opening = "{"
        for key, item in value.items():
            # a one-key dict renders its key as json.dumps does, whatever the key's type
            yield opening + json.dumps({key: 0})[1:-4] + ": "
            yield from _json_pieces(item)
            opening = ", "
        yield "}"
    elif isinstance(value, (list, tuple)) and value:
        opening = "["
        for item in value:
            yield opening
            yield from _json_pieces(item)
            opening = ", "
        yield "]"
    else:
        yield json.dumps(value)


def _write_text(path, pieces):
    """Write the text of the pieces to path as UTF-8, one piece at a time.

    This is the one writer of model, embedding and report files, and a
    file costs no more memory than its largest piece. An existing file
    stays until a temp file beside it holds all of the text and then
    replaces it with the old mode; a new path is written in place. A
    symbolic link stays, and the file it points to is the one replaced.
    On any failure, one that the pieces raise included, the file being
    written is removed.
    """
    replace = os.path.exists(path)
    target = path
    if replace:
        path = os.path.realpath(path)
        directory, name = os.path.split(path)
        fd, target = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        os.close(fd)
    try:
        with open(target, "wb") as fh:
            for piece in pieces:
                fh.write(piece.encode("utf-8"))
        if replace:
            shutil.copymode(path, target)
            os.replace(target, path)
    except BaseException:
        if os.path.exists(target):
            os.unlink(target)
        raise
