"""The traced benchmark's wrap sites still exist in wordsim.

``bench/layers.py`` wraps wordsim functions by name, and per-kernel spans
are attributed through the ``CLASSICAL_METRICS`` entries. These tests
read that file without changing it, so that a renamed function fails
here rather than as an ``AttributeError`` in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wordsim import cli, contextenc, denoise, editfam, evalharness, gramfam, lexicon, neural
from wordsim.candidates import GramIndex
from wordsim.evalharness import CLASSICAL_METRICS
from wordsim.lexicon import load_lexicon
from wordsim.vecdist import VECTOR_METRICS

from conftest import TOY_STANDARD, toy_variants

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Recorder:
    """Stands in for the bench tracer: records every binding install() wraps, wrapping none."""

    def __init__(self):
        self.bindings = []

    def wrap(self, owner, key, span, after=None):
        self.bindings.append((owner, key))

    def file_bytes(self, counter):
        return None

    def note_fingerprint(self, args, kwargs, result):
        pass


def test_named_functions_exist(layers):
    for module, names in ((editfam, layers.EDITFAM), (gramfam, layers.GRAMFAM),
                          (neural, layers.NEURAL), (denoise, layers.DENOISE),
                          (contextenc, layers.CONTEXTENC)):
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for name in ("evaluate_accuracy", "qualitative_neighbors", "export_report"):
        assert callable(getattr(evalharness, name, None)), name
    for owner in (cli, lexicon):
        for name in ("load_lexicon", "load_corpus"):
            assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"


def test_every_wrapped_binding_exists(layers):
    recorder = Recorder()
    layers.install(recorder)
    assert recorder.bindings
    for owner, key in recorder.bindings:
        if isinstance(owner, dict):
            assert key in owner, key
        else:
            assert hasattr(owner, key), f"{owner!r}.{key}"


def test_classical_metrics_are_module_level_kernels():
    for name, fn in CLASSICAL_METRICS.items():
        assert fn.__module__ in ("wordsim.editfam", "wordsim.gramfam"), name
        assert getattr(sys.modules[fn.__module__], fn.__name__) is fn, name


def toy_pairs(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text(
        "".join(f"{v}\t{w}\n" for w in TOY_STANDARD for v in toy_variants(w)), encoding="utf-8"
    )
    return path


def count_calls(table, monkeypatch):
    """Replace every entry of table by one that counts its calls; returns the counts by name."""
    calls = dict.fromkeys(table, 0)

    def counting(name, kernel):
        def stand_in(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)

        return stand_in

    for name, kernel in list(table.items()):
        monkeypatch.setitem(table, name, counting(name, kernel))
    return calls


def test_cli_eval_calls_each_kernel_once_per_query(tmp_path, monkeypatch):
    path = toy_pairs(tmp_path)
    calls = count_calls(CLASSICAL_METRICS, monkeypatch)
    assert cli.main(["eval", "--lexicon", str(path), "--metrics", "all-classical"]) == 0
    queries = len(load_lexicon(path).nonstandard_ids)
    assert calls == dict.fromkeys(CLASSICAL_METRICS, queries)


def test_cli_eval_makes_one_gram_overlap_pass_per_query_and_gram_length(tmp_path, monkeypatch):
    path = toy_pairs(tmp_path)
    lengths = []
    overlap = GramIndex.overlap

    def counted(index, symbols):
        lengths.append(index.n)
        return overlap(index, symbols)

    monkeypatch.setattr(GramIndex, "overlap", counted)
    assert cli.main(["eval", "--lexicon", str(path), "--metrics", "all-classical"]) == 0
    queries = len(load_lexicon(path).nonstandard_ids)
    # qgram, dice and jaccard at the default n = 2, cosine at n = 1
    assert sorted(lengths) == [1] * queries + [2] * queries


@pytest.mark.parametrize("vec_metric", sorted(VECTOR_METRICS))
def test_learned_scoring_calls_the_vector_metric_once_per_query(tmp_path, monkeypatch, vec_metric):
    path = toy_pairs(tmp_path)
    lex = load_lexicon(path)
    ae = denoise.build_autoencoder(lex, code_size=4, depth=3, seed=0)
    rows = np.random.default_rng(0).normal(size=(len(lex), 4))
    emb = contextenc.EmbeddingMatrix(U=rows, lexicon_fingerprint=lex.fingerprint())
    denoise.save_autoencoder(ae, tmp_path / "ae.json")
    contextenc.save_embedding(emb, tmp_path / "emb.json")
    calls = count_calls(VECTOR_METRICS, monkeypatch)
    assert cli.main(["eval", "--lexicon", str(path), "--metrics", "Da,Dc", "--vec-metric", vec_metric,
                     "--model", str(tmp_path / "ae.json"), "--embedding", str(tmp_path / "emb.json")]) == 0
    queries = len(lex.nonstandard_ids)
    assert calls == {**dict.fromkeys(VECTOR_METRICS, 0), vec_metric: 2 * queries}
    for source in (ae, rows, emb):
        for q in range(len(lex)):
            denoise.nearest_standard(source, lex, q, vec_metric=vec_metric)
    assert calls[vec_metric] == 2 * queries + 3 * len(lex)
