"""Command-line entry point.

Subcommands: dist, nearest, train-ae, train-ctx, train-combined, eval.
Exit codes: 0 success, 2 usage error, 3 data/binding error, 4 numeric
abort. A command trains or evaluates, then saves through the library,
which keeps an existing file until the new one is complete.
"""

import argparse
import datetime
import functools
import os
import sys

from . import contextenc, denoise, evalharness
from .errors import NumericError, WordsimError
from .evalharness import CLASSICAL_METRICS, EvalReport, MetricSpec
from .lexicon import _normalize, load_corpus, load_lexicon
from .neural import TrainConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _integer(what, least=1, odd=False):
    """An argparse type reading an integer >= least, odd if asked; what names it in the error."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if value < least or (odd and value % 2 == 0):
            rule = f"an odd integer >= {least}" if odd else f">= {least}"
            raise argparse.ArgumentTypeError(f"{what} must be {rule}, got {text}")
        return value

    return parse


_gram_length = _integer("gram length")
# a k of accuracy@k (eval --ks) or of a top-k listing (nearest --k)
_rank = _integer("k")
_epochs = _integer("epochs")


def _ranks(text):
    """Comma-separated ks, each an integer >= 1."""
    return tuple(_rank(k) for k in text.split(","))


@functools.cache
def _parser():
    """The argument parser, built once per process: parsing leaves it as it was."""
    p = argparse.ArgumentParser(prog="wordsim")
    p.add_argument("--seed", type=_integer("seed", least=0), default=0)
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
    n.add_argument("--k", type=_rank, default=5)

    # the options of every training command
    train = argparse.ArgumentParser(add_help=False)
    train.add_argument("--lexicon", required=True)
    train.add_argument("--batch", type=_integer("batch size"), default=100)
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--out", required=True)
    # the autoencoder's shape, shared by train-ae and train-combined
    hourglass = argparse.ArgumentParser(add_help=False)
    hourglass.add_argument("--code-size", type=_integer("code size"), default=11)
    hourglass.add_argument("--depth", type=_integer("depth", least=3, odd=True), default=7)
    # the context predictor's input and width, shared by train-ctx and train-combined
    context = argparse.ArgumentParser(add_help=False)
    context.add_argument("--corpus", required=True)
    context.add_argument("--window", type=_integer("window"), default=4)
    context.add_argument("--hidden", type=_integer("hidden size"), default=32)

    ta = sub.add_parser(
        "train-ae", parents=[train, hourglass], help="train the denoising autoencoder"
    )
    ta.add_argument("--epochs", type=_epochs, default=50)

    tc = sub.add_parser("train-ctx", parents=[train, context], help="train the context encoder")
    tc.add_argument("--embed-size", type=_integer("embedding size"), default=11)
    tc.add_argument("--epochs", type=_epochs, default=5)

    tb = sub.add_parser(
        "train-combined",
        parents=[train, hourglass, context],
        help="combined autoencoder + context training",
    )
    tb.add_argument("--rounds", type=_integer("rounds"), default=5)
    tb.add_argument("--blend", type=float, default=0.5)

    e = sub.add_parser("eval", parents=[learned, grams], help="accuracy@k evaluation")
    e.add_argument("--lexicon", required=True)
    e.add_argument(
        "--metrics",
        default="all-classical",
        help="comma-separated metric names, or all-classical",
    )
    e.add_argument("--ks", type=_ranks, default="1,5", help="comma-separated k values")
    e.add_argument("--out", help="report file: CSV for a .csv suffix, JSON otherwise")
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


def _word_id(lex, word):
    """Id of a word given on the command line, normalised as the lexicon file's words are."""
    return lex.id_of(_normalize(word))


def _unknown_metric(name):
    known = sorted(CLASSICAL_METRICS) + ["Da", "Dc"]
    print(f"unknown metric {name!r}; choose from {known}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_dist(args):
    name = args.metric
    if name in CLASSICAL_METRICS:
        value = evalharness.classical_distance(name, args.x, args.y, n=args.n)
    elif name in ("Da", "Dc"):
        if not args.lexicon:
            raise WordsimError("--lexicon is required for learned metrics")
        lex = load_lexicon(args.lexicon)
        i, j = _word_id(lex, args.x), _word_id(lex, args.y)
        model = _learned_spec(name, args).params["model"]
        if name == "Da":
            value = denoise.distance_Da(model, lex, i, j, args.vec_metric)
        else:
            value = contextenc.distance_Dc(contextenc.bound_rows(model, lex), i, j, args.vec_metric)
    else:
        return _unknown_metric(name)
    print(f"{name}: {value}")
    return EXIT_OK


def _cmd_nearest(args):
    if bool(args.model) == bool(args.embedding):
        print("nearest takes exactly one of --model and --embedding", file=sys.stderr)
        return EXIT_USAGE
    lex = load_lexicon(args.lexicon)
    spec = _learned_spec("Da" if args.model else "Dc", args)
    qid = _word_id(lex, args.query)
    for word_id, dist in denoise.nearest_standard(
        spec.params["model"], lex, qid, k=args.k, vec_metric=args.vec_metric
    ):
        print(f"{lex.word_of(word_id)}\t{dist}")
    return EXIT_OK


def _train_config(args, **kwargs):
    """TrainConfig of the options every training command takes, plus kwargs."""
    return TrainConfig(batch_size=args.batch, learning_rate=args.lr, seed=args.seed, **kwargs)


def _cmd_train_ae(args):
    lex = load_lexicon(args.lexicon)
    model = denoise.build_autoencoder(
        lex, code_size=args.code_size, depth=args.depth, seed=args.seed
    )
    config = _train_config(args, epochs=args.epochs)
    trace = denoise.train_autoencoder(model, lex, config)
    denoise.save_autoencoder(
        model,
        args.out,
        extra_metadata={
            "created": _timestamp(),
            "batch_size": config.batch_size,
            "learning_rate": config.learning_rate,
            "epochs": config.epochs,
            "seed": config.seed,
            "final_loss": trace[-1],
        },
    )
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
    config = _train_config(args, epochs=args.epochs)
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
    contextenc.save_embedding(emb, args.out)
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
    config = _train_config(args)
    emb = contextenc.train_combined(
        ctx, ae, lex, corpus, config, rounds=args.rounds, blend=args.blend
    )
    emb.metadata["created"] = _timestamp()
    contextenc.save_embedding(emb, args.out)
    print(f"combined training done: {args.rounds} rounds -> {args.out}")
    return EXIT_OK


def _cmd_eval(args):
    if args.metrics == "all-classical":
        names = sorted(CLASSICAL_METRICS)
    else:
        names = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not names:
        print("--metrics names no metric", file=sys.stderr)
        return EXIT_USAGE
    for i, name in enumerate(names):
        if name not in CLASSICAL_METRICS and name not in ("Da", "Dc"):
            return _unknown_metric(name)
        if name in names[:i]:
            print(f"--metrics names {name!r} twice", file=sys.stderr)
            return EXIT_USAGE
    lex = load_lexicon(args.lexicon)
    specs = []
    for name in names:
        if name in ("Da", "Dc"):
            specs.append(_learned_spec(name, args))
        else:
            specs.append(MetricSpec(name=name, params={"n": args.n}))
    # every spec is resolved and scored before the first line is printed
    results = evalharness.evaluate_accuracies(specs, lex, ks=args.ks)
    for spec, acc in zip(specs, results):
        line = "  ".join(f"acc@{k}={v:.2f}%" for k, v in acc.items())
        print(f"{spec.name}: {line}")
    accuracies = {spec.name: acc for spec, acc in zip(specs, results)}
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
        fmt = "csv" if args.out.endswith(".csv") else "json"
        evalharness.export_report(report, args.out, format=fmt)
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
