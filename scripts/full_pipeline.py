#!/usr/bin/env python3
"""Full-scale training and evaluation pipeline, as a sequence of wordsim commands.

Given a misspelling-pairs TSV and a sentence corpus, trains the
autoencoder and the combined model at the CLI's reference configuration
(code size 11, depth 7, batch 100, learning rate 0.01), then writes three
accuracy@k reports to the output directory: every classical metric with
Da and Dc under cosine (report.json), and Da and Dc under L1
(report-L1.json) and L2 (report-L2.json).

Example:
    python3 scripts/full_pipeline.py --pairs pairs.tsv --corpus text.txt \
        --out-dir runs/full --seed 0
"""

import argparse
import os
import sys

from wordsim import cli
from wordsim.evalharness import CLASSICAL_METRICS


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", required=True, help="misspelling\\tstandard TSV")
    ap.add_argument("--corpus", required=True, help="one sentence per line")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    def out(name):
        return os.path.join(args.out_dir, name)

    lexicon = ["--lexicon", args.pairs]
    models = ["--model", out("autoencoder.json"), "--embedding", out("embedding.json")]
    classical = ",".join(sorted(CLASSICAL_METRICS))
    steps = [
        ["train-ae", *lexicon, "--out", out("autoencoder.json")],
        ["train-combined", *lexicon, "--corpus", args.corpus, "--rounds", "10",
         "--out", out("embedding.json")],
        ["eval", *lexicon, *models, "--metrics", f"{classical},Da,Dc",
         "--out", out("report.json")],
    ] + [
        ["eval", *lexicon, *models, "--metrics", "Da,Dc", "--vec-metric", vec_metric,
         "--out", out(f"report-{vec_metric}.json")]
        for vec_metric in ("L1", "L2")
    ]
    for step in steps:
        rc = cli.main(["--seed", str(args.seed), *step])
        if rc != cli.EXIT_OK:
            return rc
    return cli.EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
