"""Denoising autoencoder over one-hot word encodings.

The network reconstructs the standard word from a non-standard spelling;
its bottleneck activation is the learned code used by the distance D_a.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import neural
from .errors import ConfigError
from .lexicon import Lexicon, one_hot
from .neural import Network, TrainConfig

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
    net: Network
    bottleneck_index: int  # index into forward() outputs
    lexicon_fingerprint: str
    code_size: int
    depth: int
    seed: int = 0

    @property
    def vocab_size(self):
        return self.net.layers[0].in_dim


def hourglass_widths(n_input: int, code_size: int, depth: int) -> list:
    """Symmetric widths interpolating geometrically |A| -> code -> |A|.

    ``depth`` counts node layers (input, hiddens, output) and must be odd
    so the bottleneck sits in the middle; depth=3 gives [n, code, n].
    """
    if depth < 3 or depth % 2 == 0:
        raise ConfigError("depth must be an odd integer >= 3")
    if code_size < 1:
        raise ConfigError("code_size must be >= 1")
    if code_size >= n_input:
        raise ConfigError(
            f"code_size {code_size} must be smaller than the input width {n_input}"
        )
    mid = depth // 2
    ratio = code_size / n_input
    encoder = [max(code_size, round(n_input * ratio ** (k / mid))) for k in range(mid)]
    encoder[0] = n_input
    return encoder + [code_size] + encoder[::-1]


def build_autoencoder(
    lex: Lexicon, code_size=11, depth=7, seed=0, hidden_activation="identity"
) -> AutoencoderModel:
    """Untrained hourglass autoencoder bound to the given lexicon.

    The reconstruction layer is a softmax over the vocabulary. Hidden
    layers (bottleneck included) default to identity: with one-hot inputs
    and Glorot init, sigmoid stacks start with near-constant activations
    and need far more updates to differentiate the inputs, while the
    linear encoder trains quickly and its low-rank bottleneck still forces
    a compressed code. Pass hidden_activation="sigmoid" for the
    non-linear variant.
    """
    widths = hourglass_widths(len(lex), code_size, depth)
    activations = [hidden_activation] * (len(widths) - 2) + ["softmax"]
    rng = np.random.default_rng(seed)
    net = neural.init_network(widths, activations, rng)
    return AutoencoderModel(
        net=net,
        bottleneck_index=depth // 2 - 1,
        lexicon_fingerprint=lex.fingerprint(),
        code_size=code_size,
        depth=depth,
        seed=seed,
    )


def encode(model: AutoencoderModel, lex: Lexicon, word_id: int) -> np.ndarray:
    """Bottleneck activation for one_hot(word_id); the reference for one row of encode_all."""
    lex.check_binding(model)
    a = one_hot(lex, word_id)
    for layer in model.net.layers[: model.bottleneck_index + 1]:
        a = neural._apply(layer.activation, a @ layer.W.T + layer.b)
    return a


def encode_all(model: AutoencoderModel, lex: Lexicon) -> np.ndarray:
    """Codes for every lexicon word, one row per word id."""
    lex.check_binding(model)
    first, *rest = model.net.layers[: model.bottleneck_index + 1]
    # eye(|A|) @ W.T is W.T; C order as that product has, so later products round alike
    a = neural._apply(first.activation, np.ascontiguousarray(first.W.T) + first.b)
    for layer in rest:
        a = neural._apply(layer.activation, a @ layer.W.T + layer.b)
    return a


def train_autoencoder(model: AutoencoderModel, lex: Lexicon, config: TrainConfig) -> list:
    """Train on (variant -> standard) pairs; returns per-epoch loss trace.

    Standard words are also trained as identity pairs so that C itself is
    representable in code space.
    """
    lex.check_binding(model)
    if not lex.standard_of:
        raise ConfigError("lexicon has no (non-standard, standard) pairs")
    inputs = list(lex.standard_of.keys()) + list(lex.standard_ids)
    targets = list(lex.standard_of.values()) + list(lex.standard_ids)
    eye = np.eye(len(lex))
    X = eye[inputs]
    Y = eye[targets]
    return neural.train_supervised(model.net, X, Y, config, "cross-entropy")


def distance_Da(model, lex, a_i: int, a_j: int, vec_metric: str = "cosine") -> float:
    """Vector distance between the codes of two lexicon words, as eval ranks by it."""
    # evalharness imports this module, so its scoring path is imported here
    from .evalharness import MetricSpec, scores
    spec = MetricSpec("Da", "learned-Da", {"model": model, "vec_metric": vec_metric})
    return float(scores(spec, lex, [a_i], [a_j])[0, 0])


def nearest_standard(source, lex, query_id: int, k: int = 5, vec_metric: str = "cosine"):
    """k standard words closest to the query, as (word_id, distance) pairs.

    ``source`` is either a trained AutoencoderModel (distance D_a), or an
    EmbeddingMatrix or raw matrix with one row per word id (distance D_c).
    Ties break by ascending word id; k beyond |C| truncates.
    """
    # evalharness imports this module, so its scoring path is imported here
    from .evalharness import MetricSpec, _top_k, scores
    if k < 1:
        raise ValueError("k must be >= 1")
    name = "Da" if isinstance(source, AutoencoderModel) else "Dc"
    spec = MetricSpec(name, f"learned-{name}", {"model": source, "vec_metric": vec_metric})
    candidates = np.array(lex.standard_ids)
    row = scores(spec, lex, [query_id], candidates)[0]
    return [(int(candidates[i]), float(row[i])) for i in _top_k(row, candidates, k)]


def save_autoencoder(model: AutoencoderModel, path, extra_metadata=None):
    """Persist the model with its lexicon binding and configuration."""
    container = {
        "kind": "autoencoder",
        "lexicon_fingerprint": model.lexicon_fingerprint,
        "code_size": model.code_size,
        "depth": model.depth,
        "bottleneck_index": model.bottleneck_index,
        "metadata": extra_metadata or {},
        "network": neural.network_to_dict(model.net, seed=model.seed),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(container, fh)


def load_autoencoder(path) -> AutoencoderModel:
    data = neural._read_json(path)
    if data.get("kind") != "autoencoder":
        raise ConfigError(f"not an autoencoder model file: {path}")
    try:
        return AutoencoderModel(
            net=neural.network_from_dict(data["network"]),
            bottleneck_index=data["bottleneck_index"],
            lexicon_fingerprint=data["lexicon_fingerprint"],
            code_size=data["code_size"],
            depth=data["depth"],
            seed=data["network"].get("seed") or 0,
        )
    except KeyError as exc:
        raise ConfigError(f"model file lacks the field {exc}: {path}") from None
