"""Where the traced run wraps wordsim, and the per-layer figures it derives.

Wrap sites follow how callers look functions up: ``cli`` imported
``load_lexicon``/``load_corpus`` by name, ``evalharness`` and
``contextenc`` imported ``encode_all`` by name, ``contextenc`` imported
``train_autoencoder`` by name, and some ``CLASSICAL_METRICS`` and
``VECTOR_METRICS`` entries point straight at kernel functions. Each such
binding gets its own wrapper under the span name of the function it
reaches.
"""

from wordsim import cli, contextenc, denoise, editfam, evalharness, gramfam, lexicon, neural, vecdist

EDITFAM = ("levenshtein", "normalized_levenshtein", "damerau_levenshtein", "hamming",
           "lcs_length", "lcs_distance", "metric_lcs", "episode_distance")
GRAMFAM = ("ngram_profile", "qgram_distance", "kondrak_ngram_distance", "dice_coefficient",
           "jaccard_distance", "char_cosine_distance")
NEURAL = ("forward", "backward", "sgd_step", "train_supervised", "network_to_dict", "network_from_dict")
DENOISE = ("build_autoencoder", "encode", "encode_all", "train_autoencoder", "distance_Da",
           "nearest_standard", "save_autoencoder", "load_autoencoder")
CONTEXTENC = ("build_context_model", "context_windows", "train_context", "train_combined",
              "distance_Dc", "save_embedding", "load_embedding")
LEARNED = ("Da", "Dc")
MODULES = ("lexicon", "editfam", "gramfam", "evalharness", "vecdist", "neural", "denoise", "contextenc")


def install(tr):
    """Wrap every layer boundary; already wrapped bindings keep their wrapper."""
    tr.wrap(cli, "main", "cli.main")
    for owner in (lexicon, cli):
        tr.wrap(owner, "load_lexicon", "lexicon.load_lexicon")
        tr.wrap(owner, "load_corpus", "lexicon.load_corpus")
    tr.wrap(lexicon.Lexicon, "fingerprint", "lexicon.fingerprint", after=tr.note_fingerprint)
    for module, names in ((editfam, EDITFAM), (gramfam, GRAMFAM), (neural, NEURAL),
                          (denoise, DENOISE), (contextenc, CONTEXTENC)):
        for fn in names:
            hook = None
            if fn == "save_autoencoder":
                hook = tr.file_bytes("denoise.model_bytes")
            elif fn == "save_embedding":
                hook = tr.file_bytes("contextenc.embedding_bytes")
            tr.wrap(module, fn, f"{module.__name__.split('.')[-1]}.{fn}", after=hook)
    tr.wrap(evalharness, "encode_all", "denoise.encode_all")
    tr.wrap(contextenc, "encode_all", "denoise.encode_all")
    tr.wrap(contextenc, "train_autoencoder", "denoise.train_autoencoder")
    for table in (evalharness.CLASSICAL_METRICS, vecdist.VECTOR_METRICS):
        for key, fn in list(table.items()):
            module = getattr(fn, "__module__", "")
            if module in ("wordsim.editfam", "wordsim.gramfam", "wordsim.vecdist"):
                tr.wrap(table, key, f"{module.split('.')[-1]}.{fn.__name__}")
    for fn in ("l1", "l2", "cosine"):
        tr.wrap(vecdist, fn, f"vecdist.{fn}")

    def scored(args, kwargs, result):
        lex = args[1]
        tr.count("evalharness.pairs_scored", len(lex.nonstandard_ids) * len(lex.standard_ids))

    def listed(args, kwargs, result):
        spec, lex = args[0], args[1]
        per_query = len(lex.standard_ids) if spec.kind == "learned-Da" else len(lex) - 1
        known = sum("neighbors" in r for r in result.values())
        tr.count("evalharness.pairs_scored", known * per_query)

    tr.wrap(evalharness, "evaluate_accuracy", lambda args, kwargs: f"evalharness.{args[0].name}", after=scored)
    tr.wrap(evalharness, "qualitative_neighbors", "evalharness.qualitative", after=listed)
    tr.wrap(evalharness, "export_report", "evalharness.export_report")


def figures(tr, import_s):
    """Every per-layer metric, by name; layers a workload never calls read 0."""
    by_name, by_module, n_spans = tr.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "raised": 0}
    span = lambda name: by_name.get(name, empty)  # noqa: E731
    module = lambda name: by_module.get(name, {"entry_calls": 0, "entry_busy_s": 0.0,  # noqa: E731
                                               "entry_raised": 0, "self_s": 0.0})
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {"cli.import_s": import_s, "cli.self_s": module("cli")["self_s"]}
    for name in ("load_lexicon", "load_corpus", "fingerprint"):
        m[f"lexicon.{name}.busy_s"] = span(f"lexicon.{name}")["busy_s"]
    fp_calls = span("lexicon.fingerprint")["calls"]
    m["lexicon.fingerprint.calls"] = fp_calls
    m["lexicon.fingerprint.useful_ratio"] = ratio(tr.counters.get("lexicon.distinct_hashed", 0), fp_calls)
    for mod in ("editfam", "gramfam", "vecdist"):
        m[f"{mod}.calls"] = module(mod)["entry_calls"]
        m[f"{mod}.busy_s"] = module(mod)["entry_busy_s"]
    m["editfam.us_per_call"] = 1e6 * ratio(m["editfam.busy_s"], m["editfam.calls"])
    m["gramfam.undefined_ratio"] = ratio(module("gramfam")["entry_raised"], m["gramfam.calls"])
    for metric in list(evalharness.CLASSICAL_METRICS) + list(LEARNED):
        m[f"evalharness.{metric}.busy_s"] = span(f"evalharness.{metric}")["busy_s"]
    m["evalharness.pairs_scored"] = tr.counters.get("evalharness.pairs_scored", 0)
    m["evalharness.qualitative.busy_s"] = span("evalharness.qualitative")["busy_s"]
    for fn in ("forward", "backward"):
        m[f"neural.{fn}.calls"] = span(f"neural.{fn}")["calls"]
        m[f"neural.{fn}.busy_s"] = span(f"neural.{fn}")["busy_s"]
    for fn in ("sgd_step", "network_to_dict", "network_from_dict"):
        m[f"neural.{fn}.busy_s"] = span(f"neural.{fn}")["busy_s"]
    m["denoise.encode_all.calls"] = span("denoise.encode_all")["calls"]
    m["denoise.encode_all.busy_s"] = span("denoise.encode_all")["busy_s"]
    per_query, _ = tr.nested("denoise.encode_all", "denoise.nearest_standard")
    m["denoise.encode_all.calls_per_query"] = ratio(per_query, span("denoise.nearest_standard")["calls"])
    for fn in ("nearest_standard", "train_autoencoder", "save_autoencoder", "load_autoencoder"):
        m[f"denoise.{fn}.busy_s"] = span(f"denoise.{fn}")["busy_s"]
    m["denoise.model_bytes"] = tr.counters.get("denoise.model_bytes", 0)
    m["contextenc.train_context.busy_s"] = span("contextenc.train_context")["busy_s"]
    combined = span("contextenc.train_combined")["busy_s"]
    _, context_s = tr.nested("contextenc.train_context", "contextenc.train_combined")
    _, ae_s = tr.nested("denoise.train_autoencoder", "contextenc.train_combined")
    m["contextenc.combined.context_s"] = context_s
    m["contextenc.combined.ae_s"] = ae_s
    m["contextenc.combined.blend_s"] = combined - context_s - ae_s
    for fn in ("save_embedding", "load_embedding"):
        m[f"contextenc.{fn}.busy_s"] = span(f"contextenc.{fn}")["busy_s"]
    m["contextenc.embedding_bytes"] = tr.counters.get("contextenc.embedding_bytes", 0)
    for mod in MODULES:
        m[f"{mod}.self_s"] = module(mod)["self_s"]
    m["trace.spans"] = n_spans
    return m
