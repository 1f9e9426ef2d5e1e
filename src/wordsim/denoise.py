"""Denoising autoencoder over one-hot word encodings, trained on their word ids.

The network reconstructs the standard word from a non-standard spelling;
its bottleneck activation is the learned code used by the distance D_a.
"""

from dataclasses import dataclass

import numpy as np

from . import neural
from .errors import ConfigError
from .lexicon import Lexicon, one_hot, word_id
from .neural import Network, TrainConfig
from .vecdist import VECTOR_METRICS, check_finite, check_vec_metric

__all__ = [
    "AutoencoderModel",
    "hourglass_widths",
    "build_autoencoder",
    "encode",
    "encode_all",
    "train_autoencoder",
    "distance_Da",
    "nearest_standard",
    "save_autoencoder",
    "load_autoencoder",
]


@dataclass
class AutoencoderModel:
    """An hourglass network bound to a lexicon; its shape is read from its layers."""

    net: Network
    lexicon_fingerprint: str
    seed: int = 0

    def __post_init__(self):
        n = len(self.net.layers)
        if n < 2 or n % 2:
            raise ConfigError(f"an autoencoder needs an even number of layers, got {n}")

    @property
    def depth(self):
        """Node layers: input, hiddens and output."""
        return len(self.net.layers) + 1

    @property
    def bottleneck_index(self):
        """Index of the code layer into net.layers and forward() outputs."""
        return len(self.net.layers) // 2 - 1

    @property
    def code_size(self):
        return self.net.layers[self.bottleneck_index].out_dim


def hourglass_widths(n_input: int, code_size: int, depth: int) -> list:
    """Symmetric widths interpolating geometrically |A| -> code -> |A|.

    ``depth`` counts node layers (input, hiddens, output) and must be odd
    so the bottleneck sits in the middle; depth=3 gives [n, code, n].
    """
    neural.check_int("depth", depth, 3)
    if depth % 2 == 0:
        raise ConfigError(f"depth must be an odd integer >= 3, got {depth}")
    neural.check_int("code_size", code_size, 1)
    if code_size >= n_input:
        raise ConfigError(
            f"code_size {code_size} must be smaller than the input width {n_input}"
        )
    mid = depth // 2
    ratio = code_size / n_input
    encoder = [max(code_size, round(n_input * ratio ** (k / mid))) for k in range(mid)]
    encoder[0] = n_input
    return encoder + [code_size] + encoder[::-1]


def build_autoencoder(lex: Lexicon, code_size=11, depth=7, seed=0) -> AutoencoderModel:
    """Untrained hourglass autoencoder bound to the given lexicon.

    The reconstruction layer is a softmax over the vocabulary. Hidden
    layers (bottleneck included) are identity: with one-hot inputs and
    Glorot init, sigmoid stacks start with near-constant activations and
    need far more updates to differentiate the inputs, while the linear
    encoder trains quickly and its low-rank bottleneck still forces a
    compressed code. ConfigError unless code_size, depth and seed are ints
    (not bools), with a seed of at least 0.
    """
    neural.check_int("seed", seed, 0)
    widths = hourglass_widths(len(lex), code_size, depth)
    activations = ["identity"] * (len(widths) - 2) + ["softmax"]
    rng = np.random.default_rng(seed)
    net = neural.init_network(widths, activations, rng)
    return AutoencoderModel(net=net, lexicon_fingerprint=lex.fingerprint(), seed=seed)


def encode(model: AutoencoderModel, lex: Lexicon, word_id: int) -> np.ndarray:
    """Bottleneck activation for one_hot(word_id).

    The reference for one row of encode_all: equal up to rounding; bitwise
    at depth 3 (past the first layer, a one-row product rounds apart from
    the |A|-row one).
    """
    lex.check_binding(model)
    a = one_hot(lex, word_id)
    for layer in model.net.layers[: model.bottleneck_index + 1]:
        a = neural._apply(layer.activation, a @ layer.W.T + layer.b)
    return a


def encode_all(model: AutoencoderModel, lex: Lexicon) -> np.ndarray:
    """Codes for every lexicon word, one row per word id, as a read-only array.

    The codes are computed once per weight state and kept on model.net
    until neural.sgd_step changes the weights, so a repeated call returns
    the very array the first one computed. Edit a layer's W, b or
    activation by hand only before the first call, or on a fresh or
    reloaded model. An overflow while encoding raises NumericError.
    """
    lex.check_binding(model)  # the bound lexicon fixes the rows, so the codes follow the weights
    if model.net._codes is None:
        a = np.arange(len(lex))  # the id form of eye(|A|)
        with neural._numeric_guard():
            for layer in model.net.layers[: model.bottleneck_index + 1]:
                a = neural._apply(layer.activation, neural._affine(layer, a))
        a.flags.writeable = False
        model.net._codes = a
    return model.net._codes


def train_autoencoder(model: AutoencoderModel, lex: Lexicon, config: TrainConfig) -> list:
    """Train on (variant -> standard) pairs; returns per-epoch loss trace.

    Standard words are also trained as identity pairs so that C itself is
    representable in code space.
    """
    lex.check_binding(model)
    if not lex.standard_of:
        raise ConfigError("lexicon has no (non-standard, standard) pairs")
    inputs = np.array(list(lex.standard_of.keys()) + list(lex.standard_ids))
    targets = np.array(list(lex.standard_of.values()) + list(lex.standard_ids))
    return neural.train_supervised(model.net, inputs, targets, config)


def distance_Da(model, lex, a_i: int, a_j: int, vec_metric: str = "cosine") -> float:
    """Vector distance between the codes of two lexicon words, as eval ranks by it.

    ConfigError for a vec_metric not in vecdist.VECTOR_METRICS or a model
    that is not an AutoencoderModel, BindingError for one bound to another
    lexicon, NumericError if either code is not finite.
    """
    check_vec_metric("Da", vec_metric)
    i, j = word_id(a_i, len(lex)), word_id(a_j, len(lex))
    if not isinstance(model, AutoencoderModel):
        raise ConfigError("learned-Da expects an AutoencoderModel")
    codes = encode_all(model, lex)
    check_finite(codes[[i, j]], "the words' codes")
    return float(VECTOR_METRICS[vec_metric](codes[i], codes[j]))


def nearest_standard(source, lex, query_id: int, k: int = 5, vec_metric: str = "cosine"):
    """k standard words closest to the query, as (word_id, distance) pairs.

    ``source`` is either a trained AutoencoderModel (distance D_a), or an
    EmbeddingMatrix or raw matrix with one row per word id (distance D_c).
    The query is scored against the lexicon's standard words by their
    prepared entry (evalharness._CandidateRows, which says what is kept
    between asks). Ties break by ascending word id; k beyond |C|
    truncates. k must be an integer >= 1 (TypeError, ValueError), a
    vec_metric not in vecdist.VECTOR_METRICS raises ConfigError, the
    query id must be an integer in [0, |A|) (TypeError, IndexError), a
    source bound to another lexicon raises BindingError, and a NaN or
    infinite query or candidate vector, or a zero one under cosine,
    raises NumericError.
    """
    _check_k(k)
    name = "Da" if isinstance(source, AutoencoderModel) else "Dc"
    check_vec_metric(name, vec_metric)
    qid = word_id(query_id, len(lex))
    candidates = lex.standard_array
    row = _learned_rows(name, f"learned-{name}", source, lex, candidates).score(qid, vec_metric)
    top = _top_k(row, candidates, k)
    return list(zip(candidates[top].tolist(), row[top].tolist()))


# the shape a model file stores beside its layers; load_autoencoder checks it
_SHAPE_KEYS = ("code_size", "depth", "bottleneck_index")


def save_autoencoder(model: AutoencoderModel, path, extra_metadata=None):
    """Persist the model with its lexicon binding and shape; an existing file survives a failure."""
    container = {
        "kind": "autoencoder",
        "lexicon_fingerprint": model.lexicon_fingerprint,
        **{key: getattr(model, key) for key in _SHAPE_KEYS},
        "metadata": extra_metadata or {},
        "network": neural._network_container(model.net, seed=model.seed),
    }
    neural._write_text(path, neural._json_pieces(container))


def load_autoencoder(path) -> AutoencoderModel:
    """The model saved at path; ConfigError if a stored shape key disagrees with the layers."""
    data = neural._read_json(path, lambda data: neural._network_arrays(data.get("network")))
    if data.get("kind") != "autoencoder":
        raise ConfigError(f"not an autoencoder model file: {path}")
    try:
        model = AutoencoderModel(
            net=neural.network_from_dict(data["network"]),
            lexicon_fingerprint=data["lexicon_fingerprint"],
            seed=data["network"].get("seed") or 0,
        )
        for key in _SHAPE_KEYS:
            if data[key] != getattr(model, key):
                raise ConfigError(
                    f"model file field {key} is {data[key]!r}, its layers give "
                    f"{getattr(model, key)}: {path}"
                )
    except KeyError as exc:
        raise ConfigError(f"model file lacks the field {exc}: {path}") from None
    return model


# evalharness imports this module's names, so its scoring path is imported once they are defined
from .evalharness import _check_k, _learned_rows, _top_k  # noqa: E402
