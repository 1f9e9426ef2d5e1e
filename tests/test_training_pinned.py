"""Training results pinned bit for bit on the toy fixtures.

The hex strings and digests below were written by the two trainers as
they stood before they shared one minibatch loop: the autoencoder's
loss trace on word ids, a dense-row loss trace, the context encoder's
log-likelihood trace, and the weights and embedding rows each run
leaves. Any change to the order of the shuffle, the batches, the loss
sum or the steps shows here as a changed bit.
"""

import hashlib
import math

import numpy as np

from wordsim.contextenc import build_context_model, train_combined, train_context
from wordsim.denoise import build_autoencoder, train_autoencoder
from wordsim.lexicon import Corpus
from wordsim.neural import TrainConfig, init_network, train_supervised


def digest(*arrays):
    """sha256 of the arrays' little-endian float64 bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def net_digest(net):
    return digest(*[a for layer in net.layers for a in (layer.W, layer.b)])


def test_autoencoder_on_word_ids(toy_lexicon):
    model = build_autoencoder(toy_lexicon, code_size=4, depth=5, seed=0)
    config = TrainConfig(batch_size=7, learning_rate=0.5, epochs=3, seed=1)
    trace = train_autoencoder(model, toy_lexicon, config)
    assert [x.hex() for x in trace] == [
        "0x1.0f57192e89fadp+2", "0x1.ddf7b2744edf8p+1", "0x1.b690cbf52b7bap+1"
    ]
    assert net_digest(model.net) == "8b43a462613c1bdb1aebdbdb6bf38a648d13f6052608a9fa46c6ea57e945b929"


def test_supervised_on_dense_rows():
    r = np.random.default_rng(10)
    X = r.normal(size=(45, 6))
    Y = np.eye(3)[r.integers(0, 3, size=45)]
    net = init_network([6, 5, 3], ["sigmoid", "softmax"], r)
    trace = train_supervised(net, X, Y, TrainConfig(batch_size=8, learning_rate=0.3, epochs=3, seed=2))
    assert [x.hex() for x in trace] == [
        "0x1.1c578c08fa489p+0", "0x1.15638676609c1p+0", "0x1.146c3910a73efp+0"
    ]
    assert net_digest(net) == "f3e4c0e72004635810293001dbe5502c60e75fa533c5c302d3be2b022f2646b8"


def test_context_encoder(context_lexicon, context_corpus):
    model = build_context_model(context_lexicon, n_embed=4, window=3, hidden_size=16, seed=0)
    config = TrainConfig(batch_size=32, learning_rate=0.3, epochs=3, seed=2)
    trace = train_context(model, context_corpus, config)
    assert [x.hex() for x in trace] == [
        "-0x1.76d45b45c15d0p+1", "-0x1.39e26a3dc02a0p+1", "-0x1.dc295edb3eb36p+0"
    ]
    assert digest(model.U, model.pad_vec) == (
        "7efd14e71467f30f76481f829a637363b74d46e65b54b9f2aba82cdd057f806d"
    )
    assert net_digest(model.predictor) == (
        "1a4a0ef98b0cb550ce3a0962a5879d35ffbcfc392092d84cb3491b62bc6d8bf1"
    )


def test_context_trace_of_a_certain_prediction_is_positive_zero(context_lexicon):
    """A log-likelihood of exactly 0 is +0.0, never -0.0."""
    dog = context_lexicon.id_of("dog")
    model = build_context_model(context_lexicon, n_embed=4, window=2, hidden_size=3, seed=0)
    for layer in model.predictor.layers:
        layer.W[:] = 0.0
        layer.b[:] = 0.0
    model.predictor.layers[-1].b[dog] = 1000.0  # the softmax gives "dog" exactly 1
    corpus = Corpus(sentences=((dog,) * 5,) * 3)
    trace = train_context(model, corpus, TrainConfig(batch_size=4, epochs=2))
    assert [x.hex() for x in trace] == ["0x0.0p+0", "0x0.0p+0"]
    assert all(math.copysign(1.0, x) == 1.0 for x in trace)


def test_combined_embedding_rows(context_lexicon, context_corpus):
    ae = build_autoencoder(context_lexicon, code_size=4, depth=5, seed=0)
    ctx = build_context_model(context_lexicon, n_embed=4, window=3, hidden_size=16, seed=0)
    config = TrainConfig(batch_size=32, learning_rate=0.3, seed=5)
    emb = train_combined(ctx, ae, context_lexicon, context_corpus, config, rounds=2)
    assert digest(emb.U) == "1b0a9661219c9304db29a246b87b15d1763781a22cdc4adedf0281a52077f827"
    assert net_digest(ae.net) == "30728e0d63d3135937e84ba289009d7f0535bfc18f48b48a4365f25cb7ab4c03"
