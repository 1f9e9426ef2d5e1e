"""Independent oracles used to check the DP string metrics and backprop.

The string oracles deliberately avoid the dynamic-programming
formulation used by the library: distances come from explicit
edit-script search (BFS over the string space, or branch-and-bound over
scripts) or from enumerating every alignment. gradient_check compares
neural.backward with central differences of the loss; dense_gradient
writes a ColumnGrad out as the full weight gradient it stands for.

The loop and np.add.at builders that the library replaced with array
passes stay here as the references those passes must equal bit for bit:
the first layer's column gradient, the context windows, the corpus
loader and the lexicon fingerprint's text. So does the training step
that allocated every array anew, which the steps that write into the
arrays of the step before them must equal bit for bit.
"""

import hashlib
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from unittest import mock

import numpy as np

from wordsim import contextenc, neural
from wordsim.contextenc import PAD
from wordsim.errors import ConfigError, NumericError, WordsimError
from wordsim.lexicon import Corpus, _lines, _normalize
from wordsim.neural import ColumnGrad, backward, forward, loss_value, sgd_step


def all_strings(alphabet, max_len):
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in product(alphabet, repeat=length))
    return out


def script_neighbors(s, alphabet, max_len, ops):
    """Strings reachable from s by one edit operation."""
    seen = set()
    if "delete" in ops:
        for i in range(len(s)):
            seen.add(s[:i] + s[i + 1 :])
    if "insert" in ops and len(s) < max_len:
        for i in range(len(s) + 1):
            for c in alphabet:
                seen.add(s[:i] + c + s[i:])
    if "substitute" in ops:
        for i in range(len(s)):
            for c in alphabet:
                if c != s[i]:
                    seen.add(s[:i] + c + s[i + 1 :])
    seen.discard(s)
    return seen


def bfs_script_distances(source, alphabet, max_len, ops):
    """Unit-cost script length from source to every reachable string.

    Intermediate strings are capped at max_len, which is lossless for
    insert/delete/substitute scripts between strings no longer than
    max_len (deletions can always be ordered before insertions).
    """
    dist = {source: 0}
    queue = deque([source])
    while queue:
        cur = queue.popleft()
        for nxt in script_neighbors(cur, alphabet, max_len, ops):
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def osa_script_search(x, y):
    """Restricted Damerau distance by branch-and-bound over edit scripts.

    Enumerates left-to-right scripts (match/substitute, delete, insert,
    adjacent transposition); the restriction holds because each source
    position is consumed exactly once.
    """
    best = [len(x) + len(y)]

    def go(i, j, cost):
        remaining = abs((len(x) - i) - (len(y) - j))
        if cost + remaining >= best[0]:
            return
        if i == len(x) and j == len(y):
            best[0] = cost
            return
        if (
            i + 1 < len(x)
            and j + 1 < len(y)
            and x[i] == y[j + 1]
            and x[i + 1] == y[j]
        ):
            go(i + 2, j + 2, cost + 1)
        if i < len(x) and j < len(y):
            go(i + 1, j + 1, cost + (x[i] != y[j]))
        if i < len(x):
            go(i + 1, j, cost + 1)
        if j < len(y):
            go(i, j + 1, cost + 1)

    go(0, 0, 0)
    return best[0]


def kondrak_alignment_search(x, y, n):
    """Kondrak's n-gram distance as an exact Fraction, by enumerating alignments.

    A monotone alignment pairs positions i1 < i2 < ... of x with j1 < j2 <
    ... of y. A pair costs the share of the n gram characters that differ
    between the grams ending at its two positions, both padded at the head
    with a marker that equals only itself; every unpaired character of
    either string costs 1. The distance is the least total cost over all
    alignments, divided by the longer length. Enumeration grows
    combinatorially, so keep the strings short.
    """

    def gram(s, i):
        return tuple(s[p] if p >= 0 else None for p in range(i - n + 1, i + 1))

    best = None
    for r in range(min(len(x), len(y)) + 1):
        for xs in combinations(range(len(x)), r):
            for ys in combinations(range(len(y)), r):
                cost = Fraction(len(x) + len(y) - 2 * r)
                for i, j in zip(xs, ys):
                    differ = sum(a != b for a, b in zip(gram(x, i), gram(y, j)))
                    cost += Fraction(differ, n)
                if best is None or cost < best:
                    best = cost
    return best / max(len(x), len(y))


def dense_gradient(dW, in_dim):
    """dW as the full (out_dim, in_dim) weight gradient: a ColumnGrad written out, else dW."""
    if not isinstance(dW, ColumnGrad):
        return dW
    full = np.zeros((in_dim, dW.rows.shape[1]))
    full[dW.cols] = dW.rows
    return full.T


def gradient_check(net, x, target, epsilon=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    grads, _ = backward(net, x, target)
    worst = 0.0
    for layer, (dW, db) in zip(net.layers, grads):
        dW = dense_gradient(dW, layer.in_dim)
        for param, grad in ((layer.W, dW), (layer.b, db)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + epsilon
                hi = loss_value(forward(net, x)[-1], target)
                flat[k] = orig - epsilon
                lo = loss_value(forward(net, x)[-1], target)
                flat[k] = orig
                numeric = (hi - lo) / (2 * epsilon)
                denom = max(abs(gflat[k]), abs(numeric), 1e-12)
                worst = max(worst, abs(gflat[k] - numeric) / denom)
    return worst


def column_grad_reference(ids, delta, batch) -> ColumnGrad:
    """The ColumnGrad of one-hot inputs eye[ids]: np.add.at of delta / batch into zeros, in batch order."""
    cols, where = np.unique(ids, return_inverse=True)
    rows = np.zeros((len(cols), delta.shape[1]))
    np.add.at(rows, where, delta / batch)
    return ColumnGrad(cols, rows)


def backward_full_reference(net, x, target):
    """neural._backward_full with every array of the step new: its gradients, outputs and input gradient."""
    ids = neural._is_ids(x)
    x2 = x if ids else np.atleast_2d(np.asarray(x, dtype=float))
    outs = forward(net, x2)
    out = outs[-1]
    batch = out.shape[0]
    if neural._is_ids(target):
        t2 = neural._target_ids(target, out)
    else:
        t2 = np.atleast_2d(np.asarray(target, dtype=float))
        if t2.shape != out.shape:
            raise ValueError(f"target shape {t2.shape} != output shape {out.shape}")
    if net.layers[-1].activation != "softmax":
        raise ValueError("cross-entropy requires a softmax output layer")
    if t2.ndim == 1:
        delta = out.copy()
        delta[np.arange(batch), t2] -= 1.0
    else:
        delta = out - t2
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        if i == 0 and ids:
            dW = neural._column_grad(x2, delta, batch)
        else:
            inputs = outs[i - 1] if i > 0 else x2
            dW = delta.T @ inputs
            dW /= batch
        db = np.mean(delta, axis=0)
        grads[i] = (dW, db)
        if i > 0:
            delta = delta @ net.layers[i].W
            prev = outs[i - 1]
            if net.layers[i - 1].activation == "sigmoid":
                delta = delta * prev * (1.0 - prev)
            elif net.layers[i - 1].activation == "softmax":
                raise ValueError("softmax is only supported as the final layer")
    dx = None if ids else delta @ net.layers[0].W
    return grads, outs, dx


@neural._numeric_guard()
def train_epochs_reference(net, n, config, batch):
    """neural.train_epochs where batch(idx) allocates its own arrays, kept until the next batch returns."""
    if n == 0:
        raise ConfigError("no training examples")
    net.check_finite()
    rng = np.random.default_rng(config.seed)
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            grads, outs, target = batch(idx)
            total += loss_value(outs[-1], target) * len(idx)
            sgd_step(net, grads, config.learning_rate)
        loss = total / n
        if not math.isfinite(loss):
            raise NumericError("training loss became non-finite")
        trace.append(loss)
    return trace


def train_supervised_reference(net, X, Y, config):
    """neural.train_supervised over float rows or word ids, each step allocating its own arrays."""
    return train_epochs_reference(
        net, len(X), config, lambda idx: (*backward_full_reference(net, X[idx], Y[idx])[:2], Y[idx])
    )


def train_context_reference(model, corpus, config):
    """contextenc.train_context run through train_epochs_reference and backward_full_reference."""

    def loop(net, n, config, batch):
        return train_epochs_reference(net, n, config, lambda idx: batch(idx, None))

    def full(net, x, target, spare):
        return backward_full_reference(net, x, target)

    with mock.patch.object(neural, "train_epochs", loop), mock.patch.object(neural, "_backward_full", full):
        return contextenc.train_context(model, corpus, config)


def context_windows_reference(corpus, window):
    """contextenc.context_windows built token by token from lists."""
    contexts, targets = [], []
    for sent in corpus.sentences:
        for t, target in enumerate(sent):
            ctx = [PAD] * max(0, window - t) + list(sent[max(0, t - window) : t])
            contexts.append(ctx)
            targets.append(target)
    return np.array(contexts, dtype=int), np.array(targets, dtype=int)


def load_corpus_reference(corpus_path, lex) -> Corpus:
    """lexicon.load_corpus, normalising and looking up one token at a time."""
    sentences = []
    oov = 0
    for line in _lines(corpus_path):
        ids = []
        for t in line.split():
            t = _normalize(t)
            if t in lex:
                ids.append(lex.id_of(t))
            else:
                oov += 1
        if ids:
            sentences.append(tuple(ids))
    if not sentences:
        raise WordsimError(f"no usable sentences in {corpus_path}")
    return Corpus(sentences=tuple(sentences), oov_count=oov)


def fingerprint_reference(lex) -> str:
    """Lexicon.fingerprint from one formatted line per word."""
    text = "".join(
        f"{w}\t{int(flag)}\t{lex.standard_of.get(i, -1)}\n"
        for i, (w, flag) in enumerate(zip(lex.words, lex.standard_flags))
    )
    return hashlib.sha256(text.encode()).hexdigest()
