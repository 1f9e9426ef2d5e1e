#!/usr/bin/env python3
"""Desk-scale end-to-end experiment.

Builds a small lexicon of misspelling pairs and a synthetic corpus,
trains the denoising autoencoder and the combined model, then prints an
accuracy@k table over the classical and learned metrics.
"""

import argparse
import sys

import numpy as np

from wordsim import contextenc, denoise
from wordsim.cli import _ranks
from wordsim.evalharness import MetricSpec, evaluate_accuracy
from wordsim.lexicon import Corpus, build_lexicon
from wordsim.neural import TrainConfig

STANDARD = [
    "thing", "water", "house", "night", "right", "friend", "people",
    "school", "birthday", "tomorrow", "morning", "coffee", "window",
    "garden", "music", "family", "street", "summer", "winter", "dinner",
]

TEMPLATES = [
    ["night", "{X}", "music"],
    ["people", "{X}", "school"],
    ["morning", "coffee", "{X}"],
    ["{X}", "garden", "summer"],
]


def variants(word):
    mid = len(word) // 2
    return [word[:mid] + word[mid + 1:], word[1] + word[0] + word[2:], word + word[-1]]


def synth_corpus(lex, n_sentences, seed):
    rng = np.random.default_rng(seed)
    sents = []
    for _ in range(n_sentences):
        template = TEMPLATES[rng.integers(len(TEMPLATES))]
        x = STANDARD[rng.integers(len(STANDARD))]
        sents.append(tuple(lex.id_of(x if t == "{X}" else t) for t in template))
    return Corpus(sentences=tuple(sents))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--ks", type=_ranks, default="1,5", help="comma-separated k values")
    args = ap.parse_args(argv)

    lex = build_lexicon([(v, w) for w in STANDARD for v in variants(w)])
    corpus = synth_corpus(lex, 500, args.seed)
    print(f"lexicon: {len(lex)} words ({len(lex.standard_ids)} standard)")
    print(f"corpus: {len(corpus.sentences)} sentences\n")

    ae = denoise.build_autoencoder(lex, code_size=8, depth=5, seed=args.seed)
    denoise.train_autoencoder(
        ae, lex,
        TrainConfig(batch_size=16, learning_rate=0.05, epochs=args.epochs, seed=args.seed),
    )

    ae2 = denoise.build_autoencoder(lex, code_size=8, depth=5, seed=args.seed)
    ctx = contextenc.build_context_model(
        lex, n_embed=8, window=4, hidden_size=16, seed=args.seed
    )
    emb = contextenc.train_combined(
        ctx, ae2, lex, corpus,
        TrainConfig(batch_size=16, learning_rate=0.05, epochs=1, seed=args.seed),
        rounds=args.rounds, blend=0.5, ae_epochs_per_round=20,
    )

    specs = [
        MetricSpec(name="levenshtein"),
        MetricSpec(name="normalized-levenshtein"),
        MetricSpec(name="damerau-levenshtein"),
        MetricSpec(name="ngram", params={"n": 2}),
        MetricSpec(name="dice", params={"n": 2}),
        MetricSpec(name="Da", kind="learned-Da", params={"model": ae, "vec_metric": "cosine"}),
        MetricSpec(name="Dc", kind="learned-Dc", params={"model": emb, "vec_metric": "cosine"}),
    ]
    header = "metric".ljust(24) + "".join(f"acc@{k}".rjust(10) for k in args.ks)
    print(header)
    print("-" * len(header))
    for spec in specs:
        acc = evaluate_accuracy(spec, lex, ks=args.ks)
        print(spec.name.ljust(24) + "".join(f"{acc[k]:9.2f}%" for k in args.ks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
