import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wordsim
from wordsim import cli, contextenc, denoise, neural

from conftest import TOY_STANDARD, toy_variants

ROOT = Path(__file__).resolve().parent.parent


def load_file(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_pipeline_without_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        load_file(ROOT / "scripts" / "full_pipeline.py").main([])
    assert exc.value.code == 2
    assert "--pairs" in capsys.readouterr().err


def test_full_pipeline_runs_the_cli_commands(tmp_path):
    pairs, corpus, out = tmp_path / "pairs.tsv", tmp_path / "corpus.txt", tmp_path / "run"
    pairs.write_text("".join(f"{v}\t{w}\n" for w in TOY_STANDARD for v in toy_variants(w)))
    corpus.write_text("".join(" ".join(TOY_STANDARD[i : i + 4]) + "\n" for i in range(0, 20, 2)))
    main = load_file(ROOT / "scripts" / "full_pipeline.py").main
    assert main(["--pairs", str(pairs), "--corpus", str(corpus), "--out-dir", str(out)]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == [
        "autoencoder.json", "embedding.json", "report-L1.json", "report-L2.json", "report.json"
    ]
    for name, metrics in [("report.json", 12), ("report-L1.json", 2), ("report-L2.json", 2)]:
        assert len(json.loads((out / name).read_text())["accuracies"]) == metrics

    direct = tmp_path / "ae.json"
    assert cli.main(["--seed", "0", "train-ae", "--lexicon", str(pairs), "--out", str(direct)]) == 0
    models = []
    for path in (out / "autoencoder.json", direct):
        data = json.loads(path.read_text())
        data["metadata"].pop("created")
        models.append(data)
    assert models[0] == models[1]


@pytest.mark.parametrize("workload", ["eval-classical", "train", "serve-learned"])
def test_bench_smoke_run_is_correct(workload):
    """A one-second smoke run passes the bench's own checks.

    eval-classical checks every kernel against the bench's scalar oracle;
    train checks that loss traces repeat bit for bit and that saved files
    reload to the arrays that were saved; serve-learned checks every Da
    and Dc result against a plain numpy cosine reference and requires a
    true top k up to ties.
    """
    argv = ["bench/run.py", "--workload", workload, "--smoke", "--seed", "3",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


# the names bench/layers.py wraps in a traced run, per wordsim module
BENCH_LAYERS = load_file(ROOT / "bench" / "layers.py")


@pytest.mark.parametrize(
    "module,name",
    [
        (module, name)
        for module, names in [
            ("editfam", BENCH_LAYERS.EDITFAM),
            ("gramfam", BENCH_LAYERS.GRAMFAM),
            ("neural", BENCH_LAYERS.NEURAL),
            ("denoise", BENCH_LAYERS.DENOISE),
            ("contextenc", BENCH_LAYERS.CONTEXTENC),
        ]
        for name in names
    ],
)
def test_bench_traced_names_exist(module, name):
    assert callable(getattr(getattr(wordsim, module), name, None))


@pytest.mark.parametrize(
    "owner,name",
    [
        ("evalharness", "encode_all"),
        ("contextenc", "encode_all"),
        ("contextenc", "train_autoencoder"),
        ("evalharness", "evaluate_accuracy"),
        ("evalharness", "qualitative_neighbors"),
        ("evalharness", "export_report"),
        ("cli", "main"),
        ("cli", "load_lexicon"),
        ("cli", "load_corpus"),
        ("lexicon.Lexicon", "fingerprint"),
    ],
)
def test_bench_wrapped_bindings_exist(owner, name):
    """The bindings bench/layers.py wraps by name beside its five name tuples."""
    obj = wordsim
    for part in owner.split("."):
        obj = getattr(obj, part)
    assert callable(getattr(obj, name, None))


def test_training_reaches_the_traced_backward_and_step(
    toy_lexicon, context_lexicon, context_corpus, monkeypatch
):
    """bench/layers.py wraps neural.backward and neural.sgd_step to time each training batch."""
    calls = {"backward": 0, "sgd_step": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(neural, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(neural, name, counting)
    model = denoise.build_autoencoder(toy_lexicon, code_size=4, depth=5, seed=0)
    config = neural.TrainConfig(batch_size=7, epochs=3, seed=0)
    denoise.train_autoencoder(model, toy_lexicon, config)
    examples = len(toy_lexicon.standard_of) + len(toy_lexicon.standard_ids)
    batches = config.epochs * -(-examples // config.batch_size)
    assert calls == {"backward": batches, "sgd_step": batches}

    # context training takes its gradients from _backward_full, and steps the predictor alike
    calls["sgd_step"] = 0
    ctx = contextenc.build_context_model(context_lexicon, n_embed=4, window=3, seed=0)
    config = neural.TrainConfig(batch_size=64, epochs=2, seed=0)
    contextenc.train_context(ctx, context_corpus, config)
    batches = config.epochs * -(-context_corpus.token_count // config.batch_size)
    assert calls["sgd_step"] == batches


def test_classical_metrics_are_traced_kernels():
    """bench/layers.py traces the CLASSICAL_METRICS entries that are editfam or gramfam functions."""
    for name, fn in wordsim.evalharness.CLASSICAL_METRICS.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ in ("wordsim.editfam", "wordsim.gramfam"), name


def test_bench_reads_of_model_objects(toy_lexicon, monkeypatch):
    """The autoencoder attributes bench/workloads.py and bench/checks.py read."""
    for name in ("checks", "gen"):  # the modules bench/workloads.py imports from bench/
        monkeypatch.setitem(sys.modules, name, load_file(ROOT / "bench" / f"{name}.py"))
    workloads = load_file(ROOT / "bench" / "workloads.py")
    model = denoise.build_autoencoder(toy_lexicon, code_size=4, depth=5, seed=0)
    arrays = workloads.model_arrays(model)
    assert [a.shape for a in arrays] == [
        shape for l in model.net.layers for shape in (l.W.shape, l.b.shape)
    ]
    codes = workloads.checks.reference_codes(model)
    assert codes.shape == (len(toy_lexicon), model.code_size)
    assert np.allclose(codes, denoise.encode_all(model, toy_lexicon), rtol=1e-12, atol=0)
