"""Command-line entry point.

Subcommands: dist, nearest, train-ae, train-ctx, train-combined, eval.
Exit codes: 0 success, 2 usage error, 3 data/binding error, 4 numeric
abort.
"""

import argparse
import datetime
import os
import shutil
import sys
import tempfile

from . import contextenc, denoise, evalharness
from .errors import NumericError, WordsimError
from .evalharness import CLASSICAL_METRICS, EvalReport, MetricSpec
from .lexicon import load_corpus, load_lexicon
from .neural import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _gram_length(text):
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"gram length must be >= 1, got {text}")
    return int(text)


def _parser():
    p = argparse.ArgumentParser(prog="wordsim")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--verbose", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    # the options _learned_spec reads, shared by dist, nearest and eval
    learned = argparse.ArgumentParser(add_help=False)
    learned.add_argument("--model", help="autoencoder model file (metric Da)")
    learned.add_argument("--embedding", help="embedding file (metric Dc)")
    learned.add_argument("--vec-metric", choices=["L1", "L2", "cosine"], default="cosine")
    # the gram length of qgram, ngram, dice and jaccard, shared by dist and eval
    grams = argparse.ArgumentParser(add_help=False)
    grams.add_argument("--n", type=_gram_length, default=2, help="gram length of the gram metrics")

    d = sub.add_parser(
        "dist", parents=[learned, grams], help="distance of two strings or lexicon words"
    )
    d.add_argument("--metric", required=True)
    d.add_argument("--lexicon", help="pairs TSV (required for Da/Dc)")
    d.add_argument("x")
    d.add_argument("y")

    n = sub.add_parser("nearest", parents=[learned], help="nearest standard words to a query")
    n.add_argument("--lexicon", required=True)
    n.add_argument("--query", required=True)
    n.add_argument("--k", type=int, default=5)

    ta = sub.add_parser("train-ae", help="train the denoising autoencoder")
    ta.add_argument("--lexicon", required=True)
    ta.add_argument("--code-size", type=int, default=11)
    ta.add_argument("--depth", type=int, default=7)
    ta.add_argument("--batch", type=int, default=100)
    ta.add_argument("--lr", type=float, default=0.01)
    ta.add_argument("--epochs", type=int, default=50)
    ta.add_argument("--out", required=True)

    tc = sub.add_parser("train-ctx", help="train the context encoder")
    tc.add_argument("--lexicon", required=True)
    tc.add_argument("--corpus", required=True)
    tc.add_argument("--embed-size", type=int, default=11)
    tc.add_argument("--window", type=int, default=4)
    tc.add_argument("--hidden", type=int, default=32)
    tc.add_argument("--batch", type=int, default=100)
    tc.add_argument("--lr", type=float, default=0.01)
    tc.add_argument("--epochs", type=int, default=5)
    tc.add_argument("--out", required=True)

    tb = sub.add_parser("train-combined", help="combined autoencoder + context training")
    tb.add_argument("--lexicon", required=True)
    tb.add_argument("--corpus", required=True)
    tb.add_argument("--code-size", type=int, default=11)
    tb.add_argument("--depth", type=int, default=7)
    tb.add_argument("--window", type=int, default=4)
    tb.add_argument("--hidden", type=int, default=32)
    tb.add_argument("--rounds", type=int, default=5)
    tb.add_argument("--blend", type=float, default=0.5)
    tb.add_argument("--batch", type=int, default=100)
    tb.add_argument("--lr", type=float, default=0.01)
    tb.add_argument("--out", required=True)

    e = sub.add_parser("eval", parents=[learned, grams], help="accuracy@k evaluation")
    e.add_argument("--lexicon", required=True)
    e.add_argument(
        "--metrics",
        default="all-classical",
        help="comma-separated metric names, or all-classical",
    )
    e.add_argument("--ks", default="1,5", help="comma-separated k values")
    e.add_argument("--out")
    return p


def _timestamp():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _learned_spec(name, args):
    """MetricSpec of learned metric Da or Dc, its model loaded from --model or --embedding."""
    if name == "Da":
        if not args.model:
            raise WordsimError("metric Da needs --model")
        model = denoise.load_autoencoder(args.model)
    else:
        if not args.embedding:
            raise WordsimError("metric Dc needs --embedding")
        model = contextenc.load_embedding(args.embedding)
    return MetricSpec(name, f"learned-{name}", {"model": model, "vec_metric": args.vec_metric})


def _cmd_dist(args):
    name = args.metric
    if name in CLASSICAL_METRICS:
        value = evalharness.classical_distance(name, args.x, args.y, n=args.n, q=args.n)
    elif name in ("Da", "Dc"):
        if not args.lexicon:
            raise WordsimError("--lexicon is required for learned metrics")
        lex = load_lexicon(args.lexicon)
        i, j = lex.id_of(args.x), lex.id_of(args.y)
        value = float(evalharness.scores(_learned_spec(name, args), lex, [i], [j])[0, 0])
    else:
        known = sorted(CLASSICAL_METRICS) + ["Da", "Dc"]
        print(f"unknown metric {name!r}; choose from {known}", file=sys.stderr)
        return EXIT_USAGE
    print(f"{name}: {value}")
    return EXIT_OK


def _cmd_nearest(args):
    lex = load_lexicon(args.lexicon)
    if not (args.model or args.embedding):
        raise WordsimError("nearest needs --model or --embedding")
    spec = _learned_spec("Da" if args.model else "Dc", args)
    qid = lex.id_of(args.query.casefold())
    for word_id, dist in denoise.nearest_standard(
        spec.params["model"], lex, qid, k=args.k, vec_metric=args.vec_metric
    ):
        print(f"{lex.word_of(word_id)}\t{dist}")
    return EXIT_OK


def _write_out(out_path, write):
    """Run write(path), which creates the output file at path, without losing a file at out_path.

    A file already at out_path stays untouched until write has filled a
    temp file beside it, which then replaces it; if write fails, only the
    temp file is removed. A new out_path is written in place and removed
    if write fails.
    """
    if not os.path.exists(out_path):
        try:
            return write(out_path)
        except BaseException:
            if os.path.exists(out_path):
                os.unlink(out_path)
            raise
    directory, name = os.path.split(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    os.close(fd)
    try:
        result = write(tmp)
        shutil.copymode(out_path, tmp)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return result


def _cmd_train_ae(args):
    lex = load_lexicon(args.lexicon)
    model = denoise.build_autoencoder(
        lex, code_size=args.code_size, depth=args.depth, seed=args.seed
    )
    config = TrainConfig(
        batch_size=args.batch,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )

    def run(path):
        trace = denoise.train_autoencoder(model, lex, config)
        denoise.save_autoencoder(
            model,
            path,
            extra_metadata={
                "created": _timestamp(),
                "batch_size": config.batch_size,
                "learning_rate": config.learning_rate,
                "epochs": config.epochs,
                "seed": config.seed,
                "final_loss": trace[-1],
            },
        )
        return trace

    trace = _write_out(args.out, run)
    print(f"trained autoencoder: final loss {trace[-1]:.6f} -> {args.out}")
    return EXIT_OK


def _cmd_train_ctx(args):
    lex = load_lexicon(args.lexicon)
    corpus = load_corpus(args.corpus, lex)
    model = contextenc.build_context_model(
        lex,
        n_embed=args.embed_size,
        window=args.window,
        hidden_size=args.hidden,
        seed=args.seed,
    )
    config = TrainConfig(
        batch_size=args.batch,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )

    def run(path):
        trace = contextenc.train_context(model, corpus, config)
        emb = contextenc.EmbeddingMatrix(
            U=model.U.copy(),
            lexicon_fingerprint=model.lexicon_fingerprint,
            metadata={
                "created": _timestamp(),
                "window": model.window,
                "seed": config.seed,
                "final_log_likelihood": trace[-1],
            },
        )
        contextenc.save_embedding(emb, path)
        return trace

    trace = _write_out(args.out, run)
    print(
        f"trained context encoder: final mean log-likelihood "
        f"{trace[-1]:.6f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_train_combined(args):
    lex = load_lexicon(args.lexicon)
    corpus = load_corpus(args.corpus, lex)
    ae = denoise.build_autoencoder(
        lex, code_size=args.code_size, depth=args.depth, seed=args.seed
    )
    ctx = contextenc.build_context_model(
        lex,
        n_embed=args.code_size,
        window=args.window,
        hidden_size=args.hidden,
        seed=args.seed,
    )
    config = TrainConfig(batch_size=args.batch, learning_rate=args.lr, seed=args.seed)

    def run(path):
        emb = contextenc.train_combined(
            ctx, ae, lex, corpus, config, rounds=args.rounds, blend=args.blend
        )
        emb.metadata["created"] = _timestamp()
        contextenc.save_embedding(emb, path)

    _write_out(args.out, run)
    print(f"combined training done: {args.rounds} rounds -> {args.out}")
    return EXIT_OK


def _cmd_eval(args):
    lex = load_lexicon(args.lexicon)
    if args.metrics == "all-classical":
        names = sorted(CLASSICAL_METRICS)
    else:
        names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    ks = tuple(int(k) for k in args.ks.split(","))
    specs = []
    for name in names:
        if name in ("Da", "Dc"):
            specs.append(_learned_spec(name, args))
        else:
            specs.append(MetricSpec(name=name, params={"n": args.n, "q": args.n}))
    accuracies = {}
    for spec in specs:
        accuracies[spec.name] = evalharness.evaluate_accuracy(spec, lex, ks=ks)
        line = "  ".join(f"acc@{k}={v:.2f}%" for k, v in accuracies[spec.name].items())
        print(f"{spec.name}: {line}")
    if args.out:
        report = EvalReport(
            accuracies=accuracies,
            metadata={
                "lexicon": os.path.abspath(args.lexicon),
                "lexicon_fingerprint": lex.fingerprint(),
                "seed": args.seed,
                "gram_n": args.n,
                "created": _timestamp(),
            },
        )
        fmt = "csv" if args.out.endswith(".csv") else args.format
        _write_out(args.out, lambda path: evalharness.export_report(report, path, format=fmt))
        print(f"report written to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "dist": _cmd_dist,
    "nearest": _cmd_nearest,
    "train-ae": _cmd_train_ae,
    "train-ctx": _cmd_train_ctx,
    "train-combined": _cmd_train_combined,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (WordsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
