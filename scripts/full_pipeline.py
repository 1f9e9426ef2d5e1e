#!/usr/bin/env python3
"""Full-scale training and evaluation pipeline.

Given a misspelling-pairs TSV and a sentence corpus, trains the
autoencoder and the combined model at the reference configuration
(code size 11, depth 7, batch 100, learning rate 0.01), then writes an
accuracy@k report comparing every classical metric against the learned
distances with L1, Euclidean, and cosine.

Example:
    python3 scripts/full_pipeline.py --pairs pairs.tsv --corpus text.txt \
        --out-dir runs/full --seed 0
"""

import argparse
import os
import sys

from wordsim import contextenc, denoise
from wordsim.cli import _ranks
from wordsim.evalharness import (
    CLASSICAL_METRICS,
    EvalReport,
    MetricSpec,
    evaluate_accuracy,
    export_report,
)
from wordsim.lexicon import load_corpus, load_lexicon
from wordsim.neural import TrainConfig


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", required=True, help="misspelling\\tstandard TSV")
    ap.add_argument("--corpus", required=True, help="one sentence per line")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--code-size", type=int, default=11)
    ap.add_argument("--depth", type=int, default=7)
    ap.add_argument("--batch", type=int, default=100)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--ae-epochs", type=int, default=50)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--ks", type=_ranks, default="1,5", help="comma-separated k values")
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    lex = load_lexicon(args.pairs)
    corpus = load_corpus(args.corpus, lex)
    print(f"lexicon: {len(lex)} words ({len(lex.standard_ids)} standard)")
    print(
        f"corpus: {len(corpus.sentences)} sentences, "
        f"{corpus.oov_count} out-of-vocabulary tokens skipped"
    )

    config = TrainConfig(
        batch_size=args.batch, learning_rate=args.lr, epochs=args.ae_epochs, seed=args.seed
    )
    ae = denoise.build_autoencoder(
        lex, code_size=args.code_size, depth=args.depth, seed=args.seed
    )
    trace = denoise.train_autoencoder(ae, lex, config)
    print(f"autoencoder: final loss {trace[-1]:.6f}")
    denoise.save_autoencoder(ae, os.path.join(args.out_dir, "autoencoder.json"))

    ae2 = denoise.build_autoencoder(
        lex, code_size=args.code_size, depth=args.depth, seed=args.seed
    )
    ctx = contextenc.build_context_model(
        lex, n_embed=args.code_size, window=4, hidden_size=32, seed=args.seed
    )
    emb = contextenc.train_combined(
        ctx, ae2, lex, corpus,
        TrainConfig(batch_size=args.batch, learning_rate=args.lr, epochs=1, seed=args.seed),
        rounds=args.rounds, blend=0.5, ae_epochs_per_round=args.ae_epochs // args.rounds or 1,
    )
    contextenc.save_embedding(emb, os.path.join(args.out_dir, "embedding.json"))

    specs = [MetricSpec(name=name) for name in sorted(CLASSICAL_METRICS)]
    for vm in ("L1", "L2", "cosine"):
        specs.append(
            MetricSpec(name=f"Da-{vm}", kind="learned-Da",
                       params={"model": ae, "vec_metric": vm})
        )
        specs.append(
            MetricSpec(name=f"Dc-{vm}", kind="learned-Dc",
                       params={"model": emb, "vec_metric": vm})
        )

    accuracies = {}
    for spec in specs:
        accuracies[spec.name] = evaluate_accuracy(spec, lex, ks=args.ks)
        line = "  ".join(f"acc@{k}={v:.2f}%" for k, v in accuracies[spec.name].items())
        print(f"{spec.name}: {line}")

    report = EvalReport(
        accuracies=accuracies,
        metadata={
            "pairs": os.path.abspath(args.pairs),
            "corpus": os.path.abspath(args.corpus),
            "lexicon_fingerprint": lex.fingerprint(),
            "seed": args.seed,
        },
    )
    report_path = os.path.join(args.out_dir, "report.json")
    export_report(report, report_path)
    export_report(report, os.path.join(args.out_dir, "report.csv"), format="csv")
    print(f"report written to {report_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
