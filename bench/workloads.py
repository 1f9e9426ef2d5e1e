"""The three benchmark workloads.

Each is a closed loop with one client in one process: the next operation
starts when the previous one has returned. A workload writes its seeded
inputs in ``setup``; ``run_pass`` is a fixed script of operations that
yields after each one, so the harness can stop at its deadline; ``check``
compares every output with a reference; ``metrics`` reports the figures.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from statistics import median

import numpy as np

import checks
import gen
from wordsim import cli, contextenc, denoise, editfam, evalharness, gramfam, lexicon
from wordsim.evalharness import MetricSpec

KS = (1, 5)


def call_cli(argv):
    """Run ``wordsim.cli.main`` in-process; raise with its stderr on a non-zero exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def array_digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def model_arrays(model):
    return [x for layer in model.net.layers for x in (layer.W, layer.b)]


def trace_digest(values):
    """Hash of a loss trace that changes with any bit of any value."""
    return hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def nearest_rank(values, q):
    """The q-quantile as the smallest sample with at least a share q at or below it."""
    s = sorted(values)
    return s[max(0, int(np.ceil(q * len(s))) - 1)] if s else 0.0


class Workload:
    name = ""
    sizes = {}
    smoke_sizes = {}
    setup_reps = 15
    # share of numpy work in the timed loop and in a set-up, for the host pace (see pace.py)
    numpy_share = 0.0
    setup_numpy_share = 0.0

    def __init__(self, run):
        self.run = run
        self.size = self.smoke_sizes if run.smoke else self.sizes

    def install_phases(self, tracer):
        """Wrap the few phase boundaries the end-to-end figures need."""

    def generate(self, d):
        """Write the seeded input files into directory ``d``."""
        raise NotImplementedError

    def metrics(self, times, paced=False):
        """(items per second, {figure: (value, unit, samples) or note}).

        ``times`` holds the operation durations by kind; ``paced`` says
        they are scaled to the nominal host pace, so that figures a workload
        takes from spans instead must be scaled too.
        """
        raise NotImplementedError


class EvalClassical(Workload):
    """`wordsim eval --metrics all-classical` over a big dictionary, few queries."""

    name = "eval-classical"
    sizes = {"standard": 1000, "queries": 20, "listings": 4}
    smoke_sizes = {"standard": 60, "queries": 4, "listings": 2}

    def generate(self, d):
        rng = gen.rng_for(self.run.seed, self.name)
        size = self.size
        vocab = gen.make_vocabulary(rng, size["standard"], size["queries"] + 1, 1, long_varied=1)
        long_base, *bases = vocab.variants
        # pair the shortest remaining query with the longest, so every batch asks for about the same work
        bases.sort(key=lambda s: (len(vocab.variants[s][0]), s))
        self.batches = []  # (path, [(query, truth)], word ids)
        for b in range(len(bases) // 2):
            varied = [bases[b], bases[-1 - b]]
            pairs = [(vocab.variants[s][0], s) for s in varied]
            pairs += [(w, w) for w in vocab.standard if w not in varied]
            rng.shuffle(pairs)
            path = os.path.join(d, f"batch{len(self.batches)}.tsv")
            gen.write_pairs(path, pairs)
            self.batches.append((path, [(vocab.variants[s][0], s) for s in varied], gen.lexicon_order(pairs)))
        pairs = vocab.pairs(rng)
        self.full_path = os.path.join(d, "lexicon.tsv")
        gen.write_pairs(self.full_path, pairs)
        self.full_order = gen.lexicon_order(pairs)
        # the long query is listed, so the listing path always sees a pattern beyond 64 characters
        short = [vocab.variants[s][0] for s in bases]
        self.listing_words = [vocab.variants[long_base][0]] + rng.sample(short, size["listings"])
        self.standard = vocab.standard

    def setup(self, d):
        self.generate(d)
        for path, _, _ in self.batches:
            lexicon.load_lexicon(path)
        self.full_lex = lexicon.load_lexicon(self.full_path)
        self.eval_ops = []  # (batch, accuracies, op id)
        self.listings = []  # (result, op id)

    def run_pass(self):
        run = self.run
        for b, (path, _, _) in enumerate(self.batches):
            out = run.out_path("report.json")
            argv = ["eval", "--lexicon", path, "--metrics", "all-classical", "--ks", "1,5", "--out", out]
            if run.op("eval", lambda: call_cli(argv)):
                self.eval_ops.append((b, evalharness.load_report(out).accuracies, run.op_id))
            yield
        spec = MetricSpec(name="levenshtein")
        if run.op("levenshtein listing",
                  lambda: evalharness.qualitative_neighbors(spec, self.full_lex, self.listing_words, k=5)):
            self.listings.append((run.last_result, run.op_id))
        yield

    def reference(self):
        """Scalar-function results, cached per seed and per source of everything they depend on."""
        h = hashlib.sha256(json.dumps([self.run.seed, self.size]).encode())
        for path in (__file__, gen.__file__, checks.__file__, editfam.__file__, gramfam.__file__):
            with open(path, "rb") as fh:
                h.update(fh.read())
        path = os.path.join(self.run.results_dir, f"eval-classical-reference-{h.hexdigest()[:16]}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        ref = {
            "accuracy": [checks.classical_accuracy(queries, self.standard, order, KS)
                         for _, queries, order in self.batches],
            "listings": {q: checks.classical_neighbors(q, list(self.full_order), self.full_order, 5)
                         for q in self.listing_words},
        }
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        os.replace(tmp, path)
        return json.loads(json.dumps(ref))  # the same types as a cache hit

    def check(self):
        run = self.run
        ref = self.reference()
        for b, acc, op in self.eval_ops:
            for metric, want in ref["accuracy"][b].items():
                got = acc.get(metric, {})
                if any(abs(got.get(k, -1.0) - want[str(k)]) > 1e-9 for k in KS):
                    run.fail(op, f"batch {b} {metric}: accuracy {got} != reference {want}")
        for result, op in self.listings:
            for q in self.listing_words:
                got = [[n["word"], n["distance"]] for n in result[q]["neighbors"]]
                if got != ref["listings"][q]:
                    run.fail(op, f"levenshtein listing {q!r}: {got} != reference {ref['listings'][q]}")

    def metrics(self, times, paced=False):
        # the batches ask for about the same work, so eval operations pool into one median
        qps = rate(2, median(times["eval"])) if "eval" in times else 0.0
        first = {}
        for b, acc, _ in self.eval_ops:
            first.setdefault(b, acc)
        n_queries = {b: len(q) for b, (_, q, _) in enumerate(self.batches)}
        seen = max(1, sum(n_queries[b] for b in first))
        # accuracy over the first result of every batch, averaged over the ten metrics
        acc = {k: float(np.mean([sum(first[b][m][k] * n_queries[b] for b in first) / seen
                                 for m in checks.SCALAR])) for k in KS}
        return qps, {
            "eval_queries_per_s": (qps, "queries/s", len(self.eval_ops)),
            "acc_at_1_mean": (acc[1], "%", len(checks.SCALAR)),
            "acc_at_5_mean": (acc[5], "%", len(checks.SCALAR)),
        }


class Train(Workload):
    """`wordsim train-ae` then `wordsim train-combined` at the reference config."""

    name = "train"
    sizes = {"standard": 400, "varied": 400, "per_word": 2, "epochs": 2, "rounds": 1}
    numpy_share = 0.5
    ae_numpy_share = 0.9  # inside train_autoencoder: numpy batches, no model writes
    smoke_sizes = {"standard": 40, "varied": 40, "per_word": 2, "epochs": 1, "rounds": 1}

    def generate(self, d):
        rng = gen.rng_for(self.run.seed, self.name)
        s = self.size
        vocab = gen.make_vocabulary(rng, s["standard"], s["varied"], s["per_word"])
        self.lex_path = os.path.join(d, "lexicon.tsv")
        self.corpus_path = os.path.join(d, "corpus.txt")
        gen.write_pairs(self.lex_path, vocab.pairs(rng))
        gen.write_lines(self.corpus_path, gen.make_sentences(rng, vocab))
        # the program trains on every variant pair plus every standard word as an identity pair
        self.examples_per_epoch = s["varied"] * s["per_word"] + s["standard"]

    def setup(self, d):
        self.generate(d)
        lex = lexicon.load_lexicon(self.lex_path)
        self.windows_per_epoch = lexicon.load_corpus(self.corpus_path, lex).token_count
        self.ae_traces, self.ctx_traces = [], []  # (op id, per-epoch trace)
        self.unsaved, self.saved = [], []  # (op id, object or digest, path)

    def install_phases(self, tr):
        def keep(store):
            return lambda args, kwargs, result: store.append((self.run.op_id, result))

        def keep_saved(args, kwargs, result):
            self.unsaved.append((self.run.op_id, args[0], args[1]))

        tr.wrap(denoise, "train_autoencoder", "denoise.train_autoencoder", after=keep(self.ae_traces))
        tr.wrap(contextenc, "train_autoencoder", "denoise.train_autoencoder", after=keep(self.ae_traces))
        tr.wrap(contextenc, "train_context", "contextenc.train_context", after=keep(self.ctx_traces))
        tr.wrap(contextenc, "train_combined", "contextenc.train_combined")
        tr.wrap(denoise, "save_autoencoder", "denoise.save_autoencoder", after=keep_saved)
        tr.wrap(contextenc, "save_embedding", "contextenc.save_embedding", after=keep_saved)

    def run_pass(self):
        run, s = self.run, self.size
        common = ["--lexicon", self.lex_path, "--code-size", "11", "--depth", "7", "--batch", "100", "--lr", "0.01"]
        ae_argv = ["train-ae", *common, "--epochs", str(s["epochs"]), "--out", run.out_path("ae.json")]
        comb_argv = ["train-combined", *common, "--corpus", self.corpus_path, "--rounds", str(s["rounds"]),
                     "--out", run.out_path("emb.json")]
        for argv in (ae_argv, comb_argv):
            run.op(argv[0], lambda: call_cli(["--seed", str(run.seed), *argv]))
            self._digest_saved()
            yield

    def _digest_saved(self):
        """Hash what was just saved while it is still in memory, outside the timing."""
        for op, obj, path in self.unsaved:
            arrays = model_arrays(obj) if isinstance(obj, denoise.AutoencoderModel) else [obj.U]
            self.saved.append((op, array_digest(arrays), path))
        self.unsaved.clear()

    def check(self):
        run = self.run
        for store, label in ((self.ae_traces, "autoencoder loss"), (self.ctx_traces, "context log-likelihood")):
            for op, trace in store:
                if not all(np.isfinite(trace)):
                    run.fail(op, f"{label} not finite: {trace}")
        # every pass trains from the same seed, so its traces must repeat bit for bit
        per_op = {}
        for op, trace in self.ae_traces + self.ctx_traces:
            per_op.setdefault(op, []).append(trace_digest(trace))
        first_of_kind = {}
        for op, digests in sorted(per_op.items()):
            if digests != first_of_kind.setdefault(run.op_kind[op], digests):
                run.fail(op, f"{run.op_kind[op]}: loss traces differ from its first run")
        for op, digest, path in self.saved:
            if path.endswith("ae.json"):
                loaded = array_digest(model_arrays(denoise.load_autoencoder(path)))
            else:
                loaded = array_digest([contextenc.load_embedding(path).U])
            if loaded != digest:
                run.fail(op, f"{os.path.basename(path)} does not reload to the saved arrays")

    def metrics(self, times, paced=False):
        tr = self.run.tracer
        kind = self.run.op_kind
        # per operation kind: median time inside train_autoencoder, and its epochs
        ae = {}
        scale = (lambda s, e: self.run.pace.scale(self.ae_numpy_share, s, e)) if paced else None
        for dt, (op, trace) in zip(tr.durations("denoise.train_autoencoder", scale), self.ae_traces):
            ae.setdefault(kind[op], ([], len(trace)))[0].append(dt)
        ae_s = sum(median(d) for d, _ in ae.values())
        examples_per_s = rate(sum(e for _, e in ae.values()) * self.examples_per_epoch, ae_s)
        ctx_s = tr.durations("contextenc.train_context")
        comb_s = tr.durations("contextenc.train_combined")
        saves = [a + b for a, b in zip(tr.durations("denoise.save_autoencoder"),
                                        tr.durations("contextenc.save_embedding"))]
        ctx_epochs = len(self.ctx_traces[0][1]) if self.ctx_traces else 0
        first = next((t for op, t in self.ae_traces if self.run.op_kind[op] == "train-ae"), [float("nan")])
        return examples_per_s, {
            "train_examples_per_s": (examples_per_s, "examples/s", len(self.ae_traces)),
            "ctx_windows_per_s": (rate(ctx_epochs * self.windows_per_epoch, median(ctx_s) if ctx_s else 0),
                                  "windows/s", len(ctx_s)),
            "combined_round_s": (median(comb_s) / self.size["rounds"] if comb_s else 0.0, "s", len(comb_s)),
            "model_save_s": (median(saves) if saves else 0.0, "s", len(saves)),
            "ae_final_loss": (first[-1], "nats", len(first)),
            "ae_loss_trace_sha": trace_digest(first),
        }


class ServeLearned(Workload):
    """Load a trained model and answer Da/Dc queries: nearest, eval, listings, cold CLI."""

    name = "serve-learned"
    sizes = {"standard": 400, "varied": 100, "per_word": 2, "nearest": 60, "listings": 5}
    smoke_sizes = {"standard": 40, "varied": 20, "per_word": 2, "nearest": 4, "listings": 2}
    setup_reps = 9  # each set-up trains and saves a model
    numpy_share = 0.5
    setup_numpy_share = 0.5

    def generate(self, d):
        rng = gen.rng_for(self.run.seed, self.name)
        s = self.size
        vocab = gen.make_vocabulary(rng, s["standard"], s["varied"], s["per_word"])
        pairs = vocab.pairs(rng)
        self.lex_path = os.path.join(d, "lexicon.tsv")
        self.corpus_path = os.path.join(d, "corpus.txt")
        gen.write_pairs(self.lex_path, pairs)
        gen.write_lines(self.corpus_path, gen.make_sentences(rng, vocab))
        words = list(gen.lexicon_order(pairs))
        self.nearest_words = rng.sample(words, s["nearest"])
        self.listing_words = rng.sample(words, s["listings"])
        self.cold_words = rng.sample(words, 2)

    def setup(self, d):
        self.generate(d)
        self.ae_path = os.path.join(d, "ae.json")
        self.emb_path = os.path.join(d, "emb.json")
        seed = ["--seed", str(self.run.seed)]
        call_cli(seed + ["train-ae", "--lexicon", self.lex_path, "--epochs", "1", "--out", self.ae_path])
        call_cli(seed + ["train-combined", "--lexicon", self.lex_path, "--corpus", self.corpus_path,
                         "--rounds", "1", "--out", self.emb_path])
        self.lex = lexicon.load_lexicon(self.lex_path)
        self.loads, self.nearest, self.evals, self.listings, self.cold = [], [], [], [], []

    def run_pass(self):
        run, lex = self.run, self.lex
        if not run.op("load models", lambda: (denoise.load_autoencoder(self.ae_path),
                                              contextenc.load_embedding(self.emb_path))):
            return
        ae, emb = self.models = run.last_result
        self.loads.append((run.op_id, (array_digest(model_arrays(ae)), array_digest([emb.U]))))
        yield
        for word in self.nearest_words:
            qid = lex.id_of(word)
            if run.op("nearest", lambda: (denoise.nearest_standard(ae, lex, qid, k=5),
                                          denoise.nearest_standard(emb.U, lex, qid, k=5))):
                self.nearest.append((run.op_id, qid, run.last_result))
            yield
        out = run.out_path("report.json")
        argv = ["eval", "--lexicon", self.lex_path, "--metrics", "Da,Dc", "--ks", "1,5",
                "--model", self.ae_path, "--embedding", self.emb_path, "--out", out]
        if run.op("eval Da,Dc", lambda: call_cli(argv)):
            self.evals.append((run.op_id, evalharness.load_report(out).accuracies))
        yield
        for kind, model in (("learned-Da", ae), ("learned-Dc", emb)):
            spec = MetricSpec(name=kind[-2:], kind=kind, params={"model": model})
            if run.op(f"{spec.name} listing",
                      lambda: evalharness.qualitative_neighbors(spec, lex, self.listing_words, k=5)):
                self.listings.append((spec.name, run.op_id, run.last_result))
            yield
        for word, source in zip(self.cold_words, (["--model", self.ae_path], ["--embedding", self.emb_path])):
            argv = [sys.executable, "-m", "wordsim.cli", "nearest", *source,
                    "--lexicon", self.lex_path, "--query", word, "--k", "5"]
            if run.op(f"cold cli nearest {source[0]}", lambda: run.subprocess(argv)):
                self.cold.append((run.op_id, source[0], word, run.last_result))
            yield

    def check(self):
        run, lex = self.run, self.lex
        if not self.loads:
            return
        for op, digests in self.loads[1:]:
            if digests != self.loads[0][1]:
                run.fail(op, "models load to different arrays than the first time")
        ae, emb = self.models
        vectors = {"Da": checks.reference_codes(ae), "Dc": emb.U}
        standard = np.array(lex.standard_ids)
        everyone = np.arange(len(lex))

        def check_top_k(op, label, got, name, qid, candidates):
            ref = checks.cosine_rows(vectors[name], [qid], candidates)[0]
            ok, reordered = checks.compare_top_k(got, candidates, ref, 5)
            if not ok:
                run.fail(op, f"{label}: {got} disagrees with the numpy reference")
            run.tie_reorders += reordered

        for op, qid, (da, dc) in self.nearest:
            check_top_k(op, f"nearest Da {qid}", da, "Da", qid, standard)
            check_top_k(op, f"nearest Dc {qid}", dc, "Dc", qid, standard)
        for name, op, result in self.listings:
            for word in self.listing_words:
                qid = lex.id_of(word)
                got = [(lex.id_of(n["word"]), n["distance"]) for n in result[word]["neighbors"]]
                candidates = standard if name == "Da" else everyone[everyone != qid]
                check_top_k(op, f"{name} listing {word!r}", got, name, qid, candidates)
        for op, source, word, stdout in self.cold:
            got = [(lex.id_of(w), float(d)) for w, d in (line.split("\t") for line in stdout.splitlines())]
            name = "Da" if source == "--model" else "Dc"
            check_top_k(op, f"cold nearest {name} {word!r}", got, name, lex.id_of(word), standard)
        queries = np.array(lex.nonstandard_ids)
        truth = np.array([lex.standard_of[q] for q in queries])
        truth_col = np.searchsorted(standard, truth)
        for name in ("Da", "Dc"):
            bounds = checks.learned_hits(checks.cosine_rows(vectors[name], queries, standard),
                                         truth_col, standard, truth, KS)
            for op, acc in self.evals:
                for k, (lo, exact, hi) in bounds.items():
                    hits = round(acc[name][k] * len(queries) / 100)
                    if not lo <= hits <= hi:
                        run.fail(op, f"eval {name} acc@{k}: {hits} hits outside reference [{lo}, {hi}]")
                    run.tie_reorders += hits != exact

    def metrics(self, times, paced=False):
        lat = times.get("nearest", [])
        p50 = median(lat) if lat else 0.0
        first = self.evals[0][1] if self.evals else {"Da": dict.fromkeys(KS, 0.0), "Dc": dict.fromkeys(KS, 0.0)}
        evals = times.get("eval Da,Dc", [])
        cold = times.get("cold cli nearest --model", []) + times.get("cold cli nearest --embedding", [])
        loads = times.get("load models", [])
        return rate(1, p50), {
            "eval_queries_per_s": (rate(len(self.lex.nonstandard_ids), median(evals) if evals else 0),
                                   "queries/s", len(evals)),
            "acc_at_1_mean": ((first["Da"][1] + first["Dc"][1]) / 2, "%", 2),
            "acc_at_5_mean": ((first["Da"][5] + first["Dc"][5]) / 2, "%", 2),
            "model_load_s": (median(loads) if loads else 0.0, "s", len(loads)),
            "nearest_p50_ms": (1e3 * p50, "ms", len(lat)),
            "nearest_p90_ms": (1e3 * nearest_rank(lat, 0.9), "ms", len(lat)),
            "cli_nearest_s": (median(cold) if cold else 0.0, "s", len(cold)),
        }


WORKLOADS = {w.name: w for w in (EvalClassical, Train, ServeLearned)}
