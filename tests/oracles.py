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
loader and the lexicon fingerprint's text.
"""

import hashlib
from collections import deque
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from wordsim.contextenc import PAD
from wordsim.errors import WordsimError
from wordsim.lexicon import Corpus, _lines, _normalize
from wordsim.neural import ColumnGrad, backward, forward, loss_value


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
