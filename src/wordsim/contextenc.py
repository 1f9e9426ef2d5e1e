"""Context encoder: next-word prediction over learned word embeddings.

A feedforward predictor maps the concatenated embeddings of the s
previous words to a softmax over the vocabulary. It trains in
neural.train_epochs, and each batch also steps the embedding rows it
read. Combined training alternates context epochs with autoencoder
epochs and blends embedding rows toward the autoencoder codes, yielding
the mapping behind D_c.
"""

from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from . import neural
from .denoise import AutoencoderModel, encode_all, train_autoencoder
from .errors import BindingError, ConfigError
from .lexicon import Corpus, Lexicon, word_id, word_ids
from .neural import Network, TrainConfig
from .vecdist import VECTOR_METRICS, check_finite, check_vec_metric

__all__ = [
    "PAD",
    "ContextModel",
    "EmbeddingMatrix",
    "build_context_model",
    "context_windows",
    "context_prob",
    "train_context",
    "train_combined",
    "embedding_rows",
    "bound_rows",
    "distance_Dc",
    "save_embedding",
    "load_embedding",
]

#: Boundary-padding pseudo-id used for positions before sentence start.
PAD = -1


@dataclass
class ContextModel:
    U: np.ndarray  # (|A|, n_embed)
    pad_vec: np.ndarray  # embedding of the boundary-padding token
    predictor: Network  # window*n_embed -> hidden -> softmax over |A|
    lexicon_fingerprint: str

    @property
    def n_embed(self):
        return self.U.shape[1]

    @property
    def window(self):
        return self.predictor.layers[0].in_dim // self.n_embed


@dataclass
class EmbeddingMatrix:
    """Final per-word vectors (one row per lexicon word) with provenance."""

    U: np.ndarray
    lexicon_fingerprint: str
    metadata: dict = field(default_factory=dict)

    @property
    def n_embed(self):
        return self.U.shape[1]


def build_context_model(
    lex: Lexicon, n_embed=11, window=4, hidden_size=32, seed=0
) -> ContextModel:
    """Untrained context model; ConfigError unless the widths are ints >= 1 and the seed an int >= 0.

    The ints exclude bools, as neural.check_int does.
    """
    neural.check_int("seed", seed, 0)
    for name, width in (("n_embed", n_embed), ("window", window), ("hidden_size", hidden_size)):
        neural.check_int(name, width)
    if min(n_embed, window, hidden_size) < 1:  # before the draws, which a negative width breaks
        raise ConfigError(
            f"layer widths must be >= 1, got n_embed={n_embed}, window={window}, "
            f"hidden_size={hidden_size}"
        )
    rng = np.random.default_rng(seed)
    U = rng.normal(0.0, 0.1, size=(len(lex), n_embed))
    pad_vec = np.zeros(n_embed)
    predictor = neural.init_network(
        [window * n_embed, hidden_size, len(lex)], ["sigmoid", "softmax"], rng
    )
    return ContextModel(
        U=U,
        pad_vec=pad_vec,
        predictor=predictor,
        lexicon_fingerprint=lex.fingerprint(),
    )


def context_windows(corpus: Corpus, window: int):
    """(context, target) pairs for every token; contexts left-pad with PAD.

    contexts[i, j] is the token window - j places before token i in its
    sentence, or PAD before the sentence's start. Both arrays are int; an
    empty corpus gives two empty 1-D arrays.
    """
    lengths = np.fromiter(map(len, corpus.sentences), dtype=np.intp, count=len(corpus.sentences))
    targets = np.fromiter(chain.from_iterable(corpus.sentences), dtype=int, count=lengths.sum())
    if not len(targets):
        return np.array([], dtype=int), targets
    back = np.arange(-window, 0)
    # each token's place in its sentence, plus how far back each context slot reads
    place = np.arange(len(targets)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    inside = (place[:, None] + back) >= 0
    source = np.arange(len(targets))[:, None] + back
    contexts = np.where(inside, targets.take(source, mode="clip"), PAD)
    return contexts, targets


def _gather(model: ContextModel, contexts: np.ndarray) -> np.ndarray:
    """Concatenated embedding rows for a (B, window) id batch."""
    rows = np.where(
        (contexts == PAD)[:, :, None], model.pad_vec, model.U[contexts]
    )
    return rows.reshape(contexts.shape[0], -1)


def context_prob(model: ContextModel, context) -> np.ndarray:
    """P(next word | context of exactly `window` previous ids).

    Each id is PAD or a word id, checked as lexicon.word_id checks one:
    TypeError for a non-integer or a bool, IndexError for the first id
    outside [0, |A|).
    """
    shape = np.shape(context)
    if shape != (model.window,):
        raise ValueError(
            f"context length {shape} != window ({model.window},)"
        )
    ctx = np.array(
        [PAD if _is_pad(i) else word_id(i, len(model.U)) for i in context], dtype=int
    )
    x = _gather(model, ctx[None, :])
    return neural.forward(model.predictor, x)[-1][0]


def _is_pad(i) -> bool:
    return isinstance(i, (int, np.integer)) and not isinstance(i, bool) and i == PAD


def train_context(model: ContextModel, corpus: Corpus, config: TrainConfig) -> list:
    """SGD on corpus log-likelihood; updates predictor and embedding rows.

    Returns the per-epoch mean log-likelihood trace (ascending is better).
    """
    if not (np.all(np.isfinite(model.U)) and np.all(np.isfinite(model.pad_vec))):
        raise neural.NumericError("non-finite embedding rows")
    contexts, targets = context_windows(corpus, model.window)
    # every sentence id is the target of its own window, so this checks them all before any step
    word_ids(targets, len(model.U))

    def batch(idx, spare):
        ctx_b, tgt_b = contexts[idx], targets[idx]
        grads, outs, dx = neural._backward_full(model.predictor, _gather(model, ctx_b), tgt_b, spare)
        # scatter the input gradient back onto the embedding rows
        dslices = dx.reshape(len(idx), model.window, model.n_embed)
        step = config.learning_rate / len(idx)
        # position-major, so a row read at several positions moves in position order, then batch order
        real = ctx_b.T != PAD
        np.subtract.at(model.U, ctx_b.T[real], step * dslices.transpose(1, 0, 2)[real])
        for pos in range(model.window):
            pad = ~real[pos]
            if np.any(pad):
                model.pad_vec -= step * dslices[pad, pos].sum(axis=0)
        return grads, outs, tgt_b

    # 0.0 - loss, not -loss: a loss of +0.0 stays +0.0
    return [0.0 - loss for loss in neural.train_epochs(model.predictor, len(targets), config, batch)]


def train_combined(
    ctx: ContextModel,
    ae: AutoencoderModel,
    lex: Lexicon,
    corpus: Corpus,
    config: TrainConfig,
    rounds: int = 5,
    blend: float = 0.5,
    context_epochs_per_round: int = 1,
    ae_epochs_per_round: int = 1,
) -> EmbeddingMatrix:
    """Alternate context and autoencoder epochs, blending codes into U.

    Each round runs context training, then autoencoder training, then
    pulls every embedding row toward the word's autoencoder code:
    U[w] <- (1-blend)*U[w] + blend*code(w). Returns the final embeddings,
    a read-only copy of ctx.U (see load_embedding).
    """
    if ae.code_size != ctx.n_embed:
        raise ConfigError(
            f"autoencoder code size {ae.code_size} != embedding width {ctx.n_embed}"
        )
    lex.check_binding(ae)
    lex.check_binding(ctx)
    neural.check_real("blend", blend)
    if not 0.0 <= blend <= 1.0:
        raise ConfigError("blend must be in [0, 1]")
    neural.check_int("rounds", rounds, 1)
    for r in range(rounds):
        if context_epochs_per_round > 0:
            train_context(
                ctx, corpus, replace(config, epochs=context_epochs_per_round, seed=config.seed + r)
            )
        if ae_epochs_per_round > 0:
            train_autoencoder(
                ae, lex, replace(config, epochs=ae_epochs_per_round, seed=config.seed + r)
            )
        codes = encode_all(ae, lex)
        ctx.U = (1.0 - blend) * ctx.U + blend * codes
    U = ctx.U.copy()
    U.flags.writeable = False
    return EmbeddingMatrix(
        U=U,
        lexicon_fingerprint=ctx.lexicon_fingerprint,
        metadata={
            "window": ctx.window,
            "blend": blend,
            "rounds": rounds,
            "seed": config.seed,
        },
    )


def embedding_rows(source) -> np.ndarray:
    """The rows of an EmbeddingMatrix or raw matrix, one per word id; ConfigError unless 2-D."""
    rows = source.U if isinstance(source, EmbeddingMatrix) else np.asarray(source, dtype=float)
    if rows.ndim != 2:
        raise ConfigError(f"a D_c source must be a 2-D array of word rows, got shape {rows.shape}")
    return rows


def bound_rows(source, lex: Lexicon) -> np.ndarray:
    """embedding_rows(source), checked to be lex's word rows.

    BindingError for an EmbeddingMatrix bound to another lexicon, or for
    a row count other than |A|.
    """
    if isinstance(source, EmbeddingMatrix):
        lex.check_binding(source)
    rows = embedding_rows(source)
    if rows.shape[0] != len(lex):
        raise BindingError(f"embedding has {rows.shape[0]} rows, but the lexicon has {len(lex)} words")
    return rows


def distance_Dc(U, a_i: int, a_j: int, vec_metric: str = "cosine") -> float:
    """Vector distance between the embedding rows of two words; NumericError if one is not finite.

    ConfigError, naming the choices, for a vec_metric not in vecdist.VECTOR_METRICS.
    """
    rows = embedding_rows(U)
    i, j = word_id(a_i, len(rows)), word_id(a_j, len(rows))
    check_vec_metric("Dc", vec_metric)
    check_finite(rows[[i, j]], "the words' vectors")
    return float(VECTOR_METRICS[vec_metric](rows[i], rows[j]))


def save_embedding(emb: EmbeddingMatrix, path):
    """Persist the embedding rows with their lexicon binding; an existing file survives a failure."""
    container = {
        "kind": "embedding",
        "format_version": neural.FORMAT_VERSION,
        "lexicon_fingerprint": emb.lexicon_fingerprint,
        "n_embed": emb.n_embed,
        "metadata": emb.metadata,
        "rows": emb.U,
    }
    neural._write_text(path, neural._json_pieces(container))


def load_embedding(path) -> EmbeddingMatrix:
    """The embedding saved at path; ConfigError if its stored n_embed disagrees with the rows.

    U is read-only and owns its data, so scoring keeps its candidates'
    rows prepared (see evalharness._prepared). Edit a copy.
    """
    data = neural._read_json(path)
    if data.get("kind") != "embedding":
        raise ConfigError(f"not an embedding file: {path}")
    neural.check_format_version(data, "embedding")
    try:
        emb = EmbeddingMatrix(
            U=neural.decode_array(data["rows"], "rows", 2),
            lexicon_fingerprint=data["lexicon_fingerprint"],
            metadata=data.get("metadata", {}),
        )
        n_embed = data["n_embed"]
    except KeyError as exc:
        raise ConfigError(f"embedding file lacks the field {exc}: {path}") from None
    if n_embed != emb.n_embed:
        raise ConfigError(
            f"embedding file field n_embed is {n_embed!r}, its rows are {emb.n_embed} wide: {path}"
        )
    emb.U.flags.writeable = False
    return emb
