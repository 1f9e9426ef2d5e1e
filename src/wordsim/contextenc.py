"""Context encoder: next-word prediction over learned word embeddings.

A feedforward predictor maps the concatenated embeddings of the s
previous words to a softmax over the vocabulary. Combined training
alternates context epochs with autoencoder epochs and blends embedding
rows toward the autoencoder codes, yielding the mapping behind D_c.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import neural
from .denoise import AutoencoderModel, encode_all, train_autoencoder
from .errors import ConfigError, WordsimError
from .lexicon import Corpus, Lexicon, word_ids
from .neural import Network, TrainConfig
from .vecdist import vector_metric

__all__ = [
    "PAD",
    "ContextModel",
    "EmbeddingMatrix",
    "build_context_model",
    "context_windows",
    "context_prob",
    "train_context",
    "train_combined",
    "distance_Dc",
    "save_embedding",
    "load_embedding",
    "export_embedding_tsv",
]

#: Boundary-padding pseudo-id used for positions before sentence start.
PAD = -1


@dataclass
class ContextModel:
    U: np.ndarray  # (|A|, n_embed)
    pad_vec: np.ndarray  # embedding of the boundary-padding token
    predictor: Network  # window*n_embed -> hidden -> softmax over |A|
    window: int
    lexicon_fingerprint: str
    seed: int = 0

    @property
    def n_embed(self):
        return self.U.shape[1]


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
    if window < 1:
        raise ConfigError("window must be >= 1")
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
        window=window,
        lexicon_fingerprint=lex.fingerprint(),
        seed=seed,
    )


def context_windows(corpus: Corpus, window: int):
    """(context, target) pairs for every token; contexts left-pad with PAD."""
    contexts, targets = [], []
    for sent in corpus.sentences:
        for t, target in enumerate(sent):
            ctx = [PAD] * max(0, window - t) + list(sent[max(0, t - window) : t])
            contexts.append(ctx)
            targets.append(target)
    return np.array(contexts, dtype=int), np.array(targets, dtype=int)


def _gather(model: ContextModel, contexts: np.ndarray) -> np.ndarray:
    """Concatenated embedding rows for a (B, window) id batch."""
    rows = np.where(
        (contexts == PAD)[:, :, None], model.pad_vec, model.U[contexts]
    )
    return rows.reshape(contexts.shape[0], -1)


def context_prob(model: ContextModel, context) -> np.ndarray:
    """P(next word | context of exactly `window` previous ids)."""
    ctx = np.asarray(context, dtype=int)
    if ctx.shape != (model.window,):
        raise ValueError(
            f"context length {ctx.shape} != window ({model.window},)"
        )
    x = _gather(model, ctx[None, :])
    return neural.forward(model.predictor, x)[-1][0]


@neural._numeric_guard()
def train_context(model: ContextModel, corpus: Corpus, config: TrainConfig) -> list:
    """SGD on corpus log-likelihood; updates predictor and embedding rows.

    Returns the per-epoch mean log-likelihood trace (ascending is better).
    """
    contexts, targets = context_windows(corpus, model.window)
    if len(targets) == 0:
        raise WordsimError("corpus yields no training windows")
    vocab = model.U.shape[0]
    eye = np.eye(vocab)
    rng = np.random.default_rng(config.seed)
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(len(targets)) if config.shuffle else np.arange(len(targets))
        total_ll = 0.0
        for start in range(0, len(targets), config.batch_size):
            idx = order[start : start + config.batch_size]
            ctx_b, tgt_b = contexts[idx], targets[idx]
            x = _gather(model, ctx_b)
            y = eye[tgt_b]
            grads, outs, dx = neural._backward_full(
                model.predictor, x, y, "cross-entropy"
            )
            total_ll -= neural.loss_value(outs[-1], y, "cross-entropy") * len(idx)
            neural.sgd_step(model.predictor, grads, config.learning_rate)
            # scatter the input gradient back onto the embedding rows
            dslices = dx.reshape(len(idx), model.window, model.n_embed)
            step = config.learning_rate / len(idx)
            for pos in range(model.window):
                ids = ctx_b[:, pos]
                real = ids != PAD
                np.subtract.at(model.U, ids[real], step * dslices[real, pos])
                if np.any(~real):
                    model.pad_vec -= step * dslices[~real, pos].sum(axis=0)
        ll = total_ll / len(targets)
        if not np.isfinite(ll):
            raise neural.NumericError("log-likelihood became non-finite")
        trace.append(float(ll))
    return trace


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
    U[w] <- (1-blend)*U[w] + blend*code(w). Returns the final embeddings.
    """
    if ae.code_size != ctx.n_embed:
        raise ConfigError(
            f"autoencoder code size {ae.code_size} != embedding width {ctx.n_embed}"
        )
    lex.check_binding(ae)
    lex.check_binding(ctx)
    if not 0.0 <= blend <= 1.0:
        raise ConfigError("blend must be in [0, 1]")
    cfg = dict(
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
        shuffle=config.shuffle,
    )
    for r in range(rounds):
        round_cfg = dict(cfg, seed=config.seed + r)
        if context_epochs_per_round > 0:
            train_context(
                ctx, corpus, TrainConfig(epochs=context_epochs_per_round, **round_cfg)
            )
        if ae_epochs_per_round > 0:
            train_autoencoder(
                ae, lex, TrainConfig(epochs=ae_epochs_per_round, **round_cfg)
            )
        codes = encode_all(ae, lex)
        ctx.U = (1.0 - blend) * ctx.U + blend * codes
    return EmbeddingMatrix(
        U=ctx.U.copy(),
        lexicon_fingerprint=ctx.lexicon_fingerprint,
        metadata={
            "window": ctx.window,
            "blend": blend,
            "rounds": rounds,
            "seed": config.seed,
        },
    )


def distance_Dc(U, a_i: int, a_j: int, vec_metric: str = "cosine") -> float:
    """Vector distance between the embedding rows of two words."""
    rows = U.U if isinstance(U, EmbeddingMatrix) else np.asarray(U, dtype=float)
    i, j = word_ids([a_i, a_j], len(rows))
    d = vector_metric(vec_metric)
    return float(d(rows[i], rows[j]))


def save_embedding(emb: EmbeddingMatrix, path):
    container = {
        "kind": "embedding",
        "format_version": neural.FORMAT_VERSION,
        "lexicon_fingerprint": emb.lexicon_fingerprint,
        "n_embed": emb.n_embed,
        "metadata": emb.metadata,
        "rows": emb.U.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(container, fh)


def load_embedding(path) -> EmbeddingMatrix:
    data = neural._read_json(path)
    if data.get("kind") != "embedding":
        raise ConfigError(f"not an embedding file: {path}")
    if data.get("format_version") != neural.FORMAT_VERSION:
        raise ConfigError(f"unsupported embedding format version: {data.get('format_version')!r}")
    try:
        return EmbeddingMatrix(
            U=np.array(data["rows"], dtype=float),
            lexicon_fingerprint=data["lexicon_fingerprint"],
            metadata=data.get("metadata", {}),
        )
    except KeyError as exc:
        raise ConfigError(f"embedding file lacks the field {exc}: {path}") from None


def export_embedding_tsv(emb: EmbeddingMatrix, lex: Lexicon, path):
    """`word<TAB>v1..vn` text export for interoperability."""
    lex.check_binding(emb)
    with open(path, "w", encoding="utf-8") as fh:
        for word, row in zip(lex.words, emb.U):
            fh.write(word + "\t" + "\t".join(repr(float(v)) for v in row) + "\n")
