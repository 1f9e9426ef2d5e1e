"""Training results pinned bit for bit on the toy fixtures.

The pins are the autoencoder's loss trace on word ids, a dense-row loss
trace, the context encoder's log-likelihood trace, and the weights and
embedding rows each run leaves. Any change to the order of the shuffle,
the batches, the loss sum or the steps shows here as a changed bit.

The last bits of a training depend on the kernels the CPU is given: a
BLAS kernel fixes the order in which a matrix product adds, and numpy's
SIMD loops (AVX-512 among them) round some elementwise functions
differently from its baseline ones. The pinned trainings therefore run
in a child Python on one thread of OpenBLAS's ``Prescott`` kernels,
which every x86-64 CPU executes, with numpy held to its baseline
instructions, so the pins hold whatever the CPU offers and whatever
kernels the test process itself uses. The C library's exp and log still
pick their own code by CPU, so the child also reports a probe of them
(libm_probe), and each pin is compared with the value recorded on that
code; a libm with no recorded pins fails and prints its probe. Run as a
script, this file prints the child's results as JSON.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wordsim.contextenc import build_context_model, train_combined, train_context
from wordsim.denoise import build_autoencoder, train_autoencoder
from wordsim.lexicon import Corpus
from wordsim.neural import TrainConfig, init_network, train_supervised

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """The environment of the pinned trainings: one thread of fixed kernels."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_CORETYPE": "Prescott"}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # numpy may not be given both; enabling only the baseline switches every SIMD dispatch off
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env["NPY_ENABLE_CPU_FEATURES"] = " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["baseline"])
    return env


def digest(*arrays):
    """sha256 of the arrays' little-endian float64 bytes, in order."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def net_digest(net):
    return digest(*[a for layer in net.layers for a in (layer.W, layer.b)])


def hex_trace(trace):
    return [x.hex() for x in trace]


def autoencoder_on_word_ids(toy_lexicon):
    model = build_autoencoder(toy_lexicon, code_size=4, depth=5, seed=0)
    config = TrainConfig(batch_size=7, learning_rate=0.5, epochs=3, seed=1)
    trace = train_autoencoder(model, toy_lexicon, config)
    return {"trace": hex_trace(trace), "net": net_digest(model.net)}


def supervised_on_dense_rows():
    r = np.random.default_rng(10)
    X = r.normal(size=(45, 6))
    Y = np.eye(3)[r.integers(0, 3, size=45)]
    net = init_network([6, 5, 3], ["sigmoid", "softmax"], r)
    trace = train_supervised(net, X, Y, TrainConfig(batch_size=8, learning_rate=0.3, epochs=3, seed=2))
    return {"trace": hex_trace(trace), "net": net_digest(net)}


def context_encoder(context_lexicon, context_corpus):
    model = build_context_model(context_lexicon, n_embed=4, window=3, hidden_size=16, seed=0)
    config = TrainConfig(batch_size=32, learning_rate=0.3, epochs=3, seed=2)
    trace = train_context(model, context_corpus, config)
    return {"trace": hex_trace(trace), "embedding": digest(model.U, model.pad_vec),
            "net": net_digest(model.predictor)}


def combined_embedding_rows(context_lexicon, context_corpus):
    ae = build_autoencoder(context_lexicon, code_size=4, depth=5, seed=0)
    ctx = build_context_model(context_lexicon, n_embed=4, window=3, hidden_size=16, seed=0)
    config = TrainConfig(batch_size=32, learning_rate=0.3, seed=5)
    emb = train_combined(ctx, ae, context_lexicon, context_corpus, config, rounds=2)
    return {"embedding": digest(emb.U), "net": net_digest(ae.net)}


def libm_probe():
    """sha256 of exp and log over fixed grids, which tells which libm body numpy called."""
    return digest(np.exp(np.linspace(-20.0, 20.0, 2**18)), np.log(np.linspace(1e-3, 1e3, 2**18)))


def train_all():
    """Every pinned training's results, by name, and the libm probe of the process."""
    from conftest import make_context_corpus, make_context_lexicon, make_toy_lexicon

    context_lexicon = make_context_lexicon()
    context_corpus = make_context_corpus(context_lexicon)
    return {
        "libm_probe": libm_probe(),
        "autoencoder_on_word_ids": autoencoder_on_word_ids(make_toy_lexicon()),
        "supervised_on_dense_rows": supervised_on_dense_rows(),
        "context_encoder": context_encoder(context_lexicon, context_corpus),
        "combined_embedding_rows": combined_embedding_rows(context_lexicon, context_corpus),
    }


# x86-64 glibc runs exp and log on an FMA body where the CPU has FMA and AVX2 and on an SSE2
# body otherwise, or under GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX,-FMA4,-AVX512F;
# the child's libm_probe names the body, and each pin is the value recorded on it
LIBM_BODIES = {
    "c469f839dc30c9970cd5c85bdf3ad9ea9445f7b7f74d240b6c19a070966ca91c": "fma",
    "39443d469069466a9f88d33e938691842c9278066751846905f79584e5f9edb4": "sse2",
}


@pytest.fixture(scope="module")
def pinned():
    done = subprocess.run([sys.executable, __file__], env=child_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def body(pinned):
    """The libm body the child ran on; a body with no recorded pins fails with its probe."""
    probe = pinned["libm_probe"]
    if probe not in LIBM_BODIES:
        pytest.fail(f"no pins are recorded for this libm; its libm_probe is {probe}")
    return LIBM_BODIES[probe]


def test_autoencoder_on_word_ids(pinned, body):
    got = pinned["autoencoder_on_word_ids"]
    assert got["trace"] == [
        "0x1.0f57192e89fadp+2", "0x1.ddf7b2744edf8p+1", "0x1.b690cbf52b7bap+1"
    ]
    assert got["net"] == {
        "fma": "40aac4d3d984fccabea675dc5736f20a260b3d2590f36e304400bdeeb0063ed1",
        "sse2": "3dab6283e7ff1fabedb27c74fe91cd5797155f5b4199751e2f1000e80aeccdff",
    }[body]


def test_supervised_on_dense_rows(pinned, body):
    """The same on both bodies; a body with no recorded pins still fails."""
    got = pinned["supervised_on_dense_rows"]
    assert got["trace"] == [
        "0x1.1c578c08fa489p+0", "0x1.15638676609c1p+0", "0x1.146c3910a73efp+0"
    ]
    assert got["net"] == "3941322efedaaab27d67c27966e2782e254d6f9a513466ebd2ee0b5c284ede55"


def test_context_encoder(pinned, body):
    got = pinned["context_encoder"]
    assert got["trace"] == [
        "-0x1.76d45b45c15d0p+1", "-0x1.39e26a3dc02a0p+1",
        {"fma": "-0x1.dc295edb3eb36p+0", "sse2": "-0x1.dc295edb3eb38p+0"}[body],
    ]
    assert got["embedding"] == {
        "fma": "bf833acdac51d74d60f77b0c7ded429bfd09ac8bfa42736ddf806ad4ab697c38",
        "sse2": "d452d3ef73374bbac24f967f9d19f5a607532cde2a839644b6715104b19aa69d",
    }[body]
    assert got["net"] == {
        "fma": "ddc3ff5283a2bab7ba9a911e552056200224693cb0bc06e7c3a75701ae71b02e",
        "sse2": "4a3857021bf3ee1e8842838a6a241307e74b51016384a1fdf9f4d7043681c66f",
    }[body]


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


def test_combined_embedding_rows(pinned, body):
    got = pinned["combined_embedding_rows"]
    assert got["embedding"] == {
        "fma": "db004d11e85cf1826864be547caa770e43ac8d45940d76edc036a063a787eeb0",
        "sse2": "20b0c61981465c9c6b1ad4c19a06d48c2983f6c8fa16d1f9ec7581b97314115e",
    }[body]
    assert got["net"] == "e54bce4f3cb4fe3e18a674604b1164498e6684d49420ca6d05734d47abccced1"


if __name__ == "__main__":
    print(json.dumps(train_all()))
