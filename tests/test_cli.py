import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wordsim import cli, contextenc, denoise, gramfam
from wordsim.cli import main
from wordsim.lexicon import load_lexicon

from conftest import TOY_STANDARD, toy_variants

SRC = Path(__file__).resolve().parent.parent / "src"


def write_pairs(path):
    lines = [f"{v}\t{w}" for w in TOY_STANDARD for v in toy_variants(w)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_corpus(path):
    sentences = [
        "thing water house",
        "night right friend",
        "people school birthday",
        "tomorrow morning coffee",
        "window garden music",
    ] * 4
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def pairs_file(tmp_path):
    return write_pairs(tmp_path / "pairs.tsv")


@pytest.fixture()
def corpus_file(tmp_path):
    return write_corpus(tmp_path / "corpus.txt")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The toy pairs file and a trained model per learned metric: (pairs, {metric: path})."""
    d = tmp_path_factory.mktemp("trained")
    pairs, corpus = str(write_pairs(d / "pairs.tsv")), str(write_corpus(d / "corpus.txt"))
    models = {"Da": str(d / "ae.json"), "Dc": str(d / "emb.json")}
    assert main(
        [
            "--seed", "0", "train-ae", "--lexicon", pairs, "--code-size", "8",
            "--depth", "5", "--batch", "16", "--lr", "0.05", "--epochs", "200",
            "--out", models["Da"],
        ]
    ) == 0
    assert main(
        [
            "train-combined", "--lexicon", pairs, "--corpus", corpus,
            "--code-size", "6", "--depth", "3", "--window", "2", "--hidden", "8",
            "--rounds", "2", "--batch", "16", "--out", models["Dc"],
        ]
    ) == 0
    return pairs, models


class TestDist:
    def test_levenshtein(self, capsys):
        assert main(["dist", "--metric", "levenshtein", "vector", "doctor"]) == 0
        assert "2.0" in capsys.readouterr().out

    def test_identity(self, capsys):
        assert main(["dist", "--metric", "levenshtein", "abc", "abc"]) == 0
        assert "0.0" in capsys.readouterr().out

    def test_dice_printed_as_distance(self, capsys):
        assert main(["dist", "--metric", "dice", "--n", "2", "night", "nacht"]) == 0
        assert "0.75" in capsys.readouterr().out

    def test_undefined_pair_prints_inf(self, capsys):
        assert main(["dist", "--metric", "dice", "a", "b"]) == 0
        assert capsys.readouterr().out == "dice: inf\n"

    def test_gram_length_applies_to_qgram(self, capsys):
        assert main(["dist", "--metric", "qgram", "--n", "1", "ab", "ba"]) == 0
        assert capsys.readouterr().out == "qgram: 0.0\n"

    @pytest.mark.parametrize("command", ["dist", "eval"])
    def test_gram_length_below_one_exit_2(self, pairs_file, command, capsys):
        rest = {"dist": ["--metric", "dice", "a", "b"], "eval": ["--lexicon", str(pairs_file)]}
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", "0", *rest[command]])
        assert exc.value.code == 2
        assert "gram length must be >= 1" in capsys.readouterr().err

    def test_gram_length_of_qgram_is_the_scalar_one(self, capsys):
        assert main(["dist", "--metric", "qgram", "--n", "3", "abcab", "abcabc"]) == 0
        assert capsys.readouterr().out == f"qgram: {float(gramfam.qgram_distance('abcab', 'abcabc', 3))}\n"

    def test_q_option_removed(self):
        with pytest.raises(SystemExit):
            main(["dist", "--metric", "qgram", "--q", "3", "ab", "ba"])

    def test_unknown_metric_exit_2(self, capsys):
        assert main(["dist", "--metric", "soundex", "a", "b"]) == 2

    def test_learned_without_model_exit_3(self, pairs_file):
        assert main(
            ["dist", "--metric", "Da", "--lexicon", str(pairs_file), "thng", "thing"]
        ) == 3


class TestTrainAe:
    def test_train_and_nearest(self, pairs_file, tmp_path, capsys):
        model = tmp_path / "ae.json"
        rc = main(
            [
                "--seed", "0",
                "train-ae",
                "--lexicon", str(pairs_file),
                "--code-size", "8",
                "--depth", "5",
                "--batch", "16",
                "--lr", "0.05",
                "--epochs", "200",
                "--out", str(model),
            ]
        )
        assert rc == 0
        assert model.exists()
        capsys.readouterr()

        rc = main(
            [
                "nearest",
                "--model", str(model),
                "--lexicon", str(pairs_file),
                "--query", "thng",
                "--k", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0].split("\t")[0] == "thing"

        capsys.readouterr()
        rc = main(
            [
                "dist",
                "--metric", "Da",
                "--model", str(model),
                "--lexicon", str(pairs_file),
                "thng", "thing",
            ]
        )
        assert rc == 0

    def test_seeded_determinism(self, pairs_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            main(
                [
                    "--seed", "7",
                    "train-ae",
                    "--lexicon", str(pairs_file),
                    "--code-size", "4",
                    "--depth", "3",
                    "--batch", "16",
                    "--lr", "0.05",
                    "--epochs", "20",
                    "--out", str(path),
                ]
            )
            data = json.loads(path.read_text())
            data["metadata"].pop("created")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]

    def test_binding_mismatch_exit_3(self, pairs_file, tmp_path):
        model = tmp_path / "ae.json"
        main(
            [
                "train-ae", "--lexicon", str(pairs_file),
                "--code-size", "4", "--depth", "3", "--epochs", "1",
                "--batch", "16", "--out", str(model),
            ]
        )
        other = tmp_path / "other.tsv"
        other.write_text("thng\tthing\nwter\twater\n", encoding="utf-8")
        rc = main(
            [
                "dist", "--metric", "Da", "--model", str(model),
                "--lexicon", str(other), "thng", "thing",
            ]
        )
        assert rc == 3


class TestOutputFiles:
    def train_ae(self, pairs_file, out, lr):
        return main(
            [
                "train-ae", "--lexicon", str(pairs_file),
                "--code-size", "4", "--depth", "3", "--epochs", "2",
                "--batch", "16", "--lr", lr, "--out", str(out),
            ]
        )

    def test_failed_run_keeps_existing_out(self, pairs_file, tmp_path):
        out = tmp_path / "keep.json"
        out.write_bytes(b"an earlier model\n")
        assert self.train_ae(pairs_file, out, "1e300") == 4
        assert out.read_bytes() == b"an earlier model\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json", "pairs.tsv"]

    def test_failed_run_leaves_no_new_out(self, pairs_file, tmp_path):
        out = tmp_path / "new.json"
        assert self.train_ae(pairs_file, out, "1e300") == 4
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_aborts_without_numpy_warnings(self, pairs_file, tmp_path, capsys):
        assert self.train_ae(pairs_file, tmp_path / "ae.json", "1e300") == 4
        assert capsys.readouterr().err == "numeric abort: overflow encountered in matmul\n"

    def test_successful_run_replaces_out(self, pairs_file, tmp_path):
        out = tmp_path / "ae.json"
        out.write_text("old", encoding="utf-8")
        out.chmod(0o640)
        assert self.train_ae(pairs_file, out, "0.05") == 0
        assert json.loads(out.read_text())["kind"] == "autoencoder"
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ae.json", "pairs.tsv"]

    @pytest.mark.parametrize("lr, code", [("0.05", 0), ("1e300", 4)])
    def test_out_through_a_symlink_writes_its_target(self, pairs_file, tmp_path, lr, code):
        models = tmp_path / "models"
        models.mkdir()
        target = models / "ae.json"
        target.write_text("old", encoding="utf-8")
        target.chmod(0o640)
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert self.train_ae(pairs_file, link, lr) == code
        assert link.is_symlink() and os.readlink(link) == str(target)
        if code == 0:
            assert json.loads(target.read_text())["kind"] == "autoencoder"
        else:
            assert target.read_text() == "old"
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "models", "pairs.tsv"]
        assert [p.name for p in models.iterdir()] == ["ae.json"]


    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["train-ae", "train-ctx", "train-combined"])
    def test_non_finite_lr_exit_3(self, pairs_file, corpus_file, tmp_path, capsys, command, lr):
        out = tmp_path / "keep.json"
        out.write_bytes(b"an earlier model\n")
        corpus = [] if command == "train-ae" else ["--corpus", str(corpus_file)]
        rc = main(
            [command, "--lexicon", str(pairs_file), *corpus, f"--lr={lr}", "--out", str(out)]
        )
        assert rc == 3
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier model\n"


class TestTrainContext:
    @pytest.mark.parametrize(
        "command,option,message",
        [
            ("train-combined", "--rounds", "rounds"),
            ("train-combined", "--hidden", "hidden size"),
            ("train-ctx", "--hidden", "hidden size"),
            ("train-ctx", "--embed-size", "embedding size"),
            ("train-ae", "--batch", "batch size"),
            ("train-ctx", "--batch", "batch size"),
            ("train-combined", "--batch", "batch size"),
            ("train-ae", "--epochs", "epochs"),
            ("train-ctx", "--epochs", "epochs"),
            ("train-ctx", "--window", "window"),
            ("train-combined", "--window", "window"),
            ("train-ae", "--code-size", "code size"),
            ("train-combined", "--code-size", "code size"),
        ],
    )
    def test_size_below_one_exit_2(
        self, pairs_file, corpus_file, tmp_path, capsys, command, option, message
    ):
        out = tmp_path / "emb.json"
        corpus = [] if command == "train-ae" else ["--corpus", str(corpus_file)]
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command, "--lexicon", str(pairs_file), *corpus,
                    option, "0", "--out", str(out),
                ]
            )
        assert exc.value.code == 2
        assert f"{message} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "depth,message",
        [
            ("4", "must be an odd integer >= 3, got 4"),
            ("1", "must be an odd integer >= 3, got 1"),
            ("-1", "must be an odd integer >= 3, got -1"),
            ("five", "must be an integer, got 'five'"),
        ],
    )
    @pytest.mark.parametrize("command", ["train-ae", "train-combined"])
    def test_bad_depth_exit_2(
        self, pairs_file, corpus_file, tmp_path, capsys, command, depth, message
    ):
        out = tmp_path / "model.json"
        corpus = [] if command == "train-ae" else ["--corpus", str(corpus_file)]
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    command, "--lexicon", str(pairs_file), *corpus,
                    "--depth", depth, "--out", str(out),
                ]
            )
        assert exc.value.code == 2
        assert f"depth {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "seed,message",
        [("-1", "must be >= 0, got -1"), ("x", "must be an integer, got 'x'")],
        ids=["negative", "not-an-integer"],
    )
    @pytest.mark.parametrize("command", ["train-ae", "train-ctx", "train-combined"])
    def test_bad_seed_exit_2(
        self, pairs_file, corpus_file, tmp_path, capsys, command, seed, message
    ):
        out = tmp_path / "model.json"
        corpus = [] if command == "train-ae" else ["--corpus", str(corpus_file)]
        with pytest.raises(SystemExit) as exc:
            main(["--seed", seed, command, "--lexicon", str(pairs_file), *corpus, "--out", str(out)])
        assert exc.value.code == 2
        assert f"seed {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_train_ctx_writes_embedding(self, pairs_file, corpus_file, tmp_path, capsys):
        out = tmp_path / "emb.json"
        rc = main(
            [
                "train-ctx",
                "--lexicon", str(pairs_file),
                "--corpus", str(corpus_file),
                "--embed-size", "6",
                "--window", "2",
                "--hidden", "8",
                "--batch", "16",
                "--epochs", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "embedding"
        assert data["n_embed"] == 6

    def test_train_combined_and_dc(self, pairs_file, corpus_file, tmp_path, capsys):
        out = tmp_path / "emb.json"
        rc = main(
            [
                "train-combined",
                "--lexicon", str(pairs_file),
                "--corpus", str(corpus_file),
                "--code-size", "6",
                "--depth", "3",
                "--window", "2",
                "--hidden", "8",
                "--rounds", "2",
                "--batch", "16",
                "--out", str(out),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            [
                "dist", "--metric", "Dc", "--embedding", str(out),
                "--lexicon", str(pairs_file), "thng", "thing",
            ]
        )
        assert rc == 0

    def test_train_combined_seeded_determinism(self, pairs_file, corpus_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = main(
                [
                    "--seed", "5",
                    "train-combined",
                    "--lexicon", str(pairs_file),
                    "--corpus", str(corpus_file),
                    "--code-size", "6",
                    "--depth", "3",
                    "--window", "2",
                    "--hidden", "8",
                    "--rounds", "2",
                    "--batch", "16",
                    "--out", str(path),
                ]
            )
            assert rc == 0
            data = json.loads(path.read_text())
            data["metadata"].pop("created")
            outs.append(json.dumps(data))
        assert outs[0] == outs[1]


class TestEval:
    def test_classical_eval_csv(self, pairs_file, tmp_path, capsys):
        report = tmp_path / "report.csv"
        rc = main(
            [
                "eval",
                "--lexicon", str(pairs_file),
                "--metrics", "levenshtein,normalized-levenshtein",
                "--ks", "1,5",
                "--out", str(report),
            ]
        )
        assert rc == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "metric,k,accuracy_percent"
        assert len(lines) == 1 + 2 * 2

    def test_all_classical_stdout(self, pairs_file, capsys):
        rc = main(["eval", "--lexicon", str(pairs_file), "--ks", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "levenshtein" in out and "jaccard" in out

    def test_missing_lexicon_exit_3(self, tmp_path):
        assert main(["eval", "--lexicon", str(tmp_path / "nope.tsv")]) == 3

    @pytest.mark.parametrize("ks,message", [("x", "must be an integer"), ("0,-1", "must be >= 1")])
    def test_bad_ks_exit_2(self, pairs_file, ks, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--lexicon", str(pairs_file), "--ks", ks])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_metric_exit_2(self, pairs_file, capsys):
        rc = main(["eval", "--lexicon", str(pairs_file), "--metrics", "levenshtein,soundex"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "unknown metric 'soundex'" in captured.err and captured.out == ""

    def test_empty_metrics_exit_2(self, pairs_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(
            ["eval", "--lexicon", str(pairs_file), "--metrics", ",", "--out", str(report)]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert "no metric" in captured.err and captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize(
        "metrics,model", [("levenshtein,levenshtein,lcs", None), ("Da,dice,Da", "Da"), ("Dc,Dc", "Dc")]
    )
    def test_metric_named_twice_exit_2(self, tmp_path, capsys, metrics, model):
        # refused before the lexicon or a model is read: neither file exists
        repeated = metrics.split(",")[0]
        report = tmp_path / "report.json"
        argv = ["eval", "--lexicon", str(tmp_path / "missing.tsv"), "--metrics", metrics, "--out", str(report)]
        if model == "Da":
            argv += ["--model", str(tmp_path / "missing-model.json")]
        elif model == "Dc":
            argv += ["--embedding", str(tmp_path / "missing-embedding.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"--metrics names {repeated!r} twice\n" and captured.out == ""
        assert not report.exists()

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (
                ["--metrics", "levenshtein,lcs,dice", "--ks", "1,2,5"],
                "levenshtein: acc@1=96.67%  acc@2=100.00%  acc@5=100.00%\n"
                "lcs: acc@1=98.33%  acc@2=100.00%  acc@5=100.00%\n"
                "dice: acc@1=96.67%  acc@2=100.00%  acc@5=100.00%\n",
            ),
            (
                ["--n", "3", "--ks", "1,3"],
                "cosine: acc@1=95.00%  acc@3=100.00%\n"
                "damerau-levenshtein: acc@1=100.00%  acc@3=100.00%\n"
                "dice: acc@1=86.67%  acc@3=95.00%\n"
                "jaccard: acc@1=86.67%  acc@3=95.00%\n"
                "lcs: acc@1=98.33%  acc@3=100.00%\n"
                "levenshtein: acc@1=96.67%  acc@3=100.00%\n"
                "metric-lcs: acc@1=98.33%  acc@3=100.00%\n"
                "ngram: acc@1=98.33%  acc@3=100.00%\n"
                "normalized-levenshtein: acc@1=96.67%  acc@3=100.00%\n"
                "qgram: acc@1=85.00%  acc@3=95.00%\n",
            ),
        ],
        ids=["listed-order", "all-classical-n3"],
    )
    def test_stdout_is_pinned(self, pairs_file, argv, stdout, capsys):
        # the lines as the metric-by-metric evaluation printed them, byte for byte
        assert main(["eval", "--lexicon", str(pairs_file), *argv]) == 0
        assert capsys.readouterr().out == stdout

    def test_binding_error_prints_no_accuracy(self, trained, tmp_path, capsys):
        _, models = trained
        other = write_pairs(tmp_path / "other.tsv")
        with open(other, "a", encoding="utf-8") as fh:
            fh.write("wter\twater\n")
        argv = ["eval", "--lexicon", str(other), "--metrics", "levenshtein,Da", "--model", models["Da"]]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not trained against this lexicon" in captured.err


class TestSharedParser:
    """main reuses one parser: each call must act as the same call in a fresh interpreter."""

    def run(self, argv, report):
        """(exit code, stdout, stderr, report without its timestamp) of main(argv) here."""
        if report.exists():
            report.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue(), self.report(report)

    def run_fresh(self, argv, report):
        if report.exists():
            report.unlink()
        done = subprocess.run(
            [sys.executable, "-m", "wordsim.cli", *argv],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        return done.returncode, done.stdout, done.stderr, self.report(report)

    @staticmethod
    def report(path):
        if not path.exists():
            return None
        data = json.loads(path.read_text())
        data["metadata"].pop("created")
        return data

    def test_calls_in_one_process_match_fresh_interpreters(self, pairs_file, tmp_path, monkeypatch):
        # the usage message wraps at the terminal width, so both sides get the same one
        monkeypatch.setenv("COLUMNS", "80")
        report = tmp_path / "report.json"
        eval_ = [
            "eval", "--lexicon", str(pairs_file), "--metrics", "lcs,dice", "--out", str(report)
        ]
        calls = [
            eval_ + ["--ks", "1"],
            eval_,  # --ks back to its default 1,5
            ["--seed", "7"] + eval_,
            eval_,  # --seed back to its default 0
            eval_ + ["--ks", "0"],  # a usage error
            eval_ + ["--n", "3"],
        ]
        here = [self.run(argv, report) for argv in calls]
        assert [h[0] for h in here] == [0, 0, 0, 0, 2, 0]
        assert here[1][3]["accuracies"]["lcs"].keys() == {"1", "5"}
        assert [h[3]["metadata"]["seed"] for h in here[2:4]] == [7, 0]
        for argv, got in zip(calls, here):
            assert got == self.run_fresh(argv, report), argv


class TestInputErrors:
    def test_lexicon_not_utf8_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes("thng\tthing\ncaf\u00e9\tcafe\n".encode("latin-1"))
        rc = main(["dist", "--metric", "Dc", "--lexicon", str(bad), "a", "b"])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")

    def test_lexicon_two_tabs_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\tc\n", encoding="utf-8")
        assert main(["eval", "--lexicon", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("error: line 1: expected 2 tab-separated fields")

    def test_corpus_not_utf8_exit_3(self, pairs_file, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"thing water\nhouse caf\xe9\n")
        out = tmp_path / "e.json"
        rc = main(
            ["train-ctx", "--lexicon", str(pairs_file), "--corpus", str(corpus), "--out", str(out)]
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: line 2: not UTF-8")
        assert not out.exists()


class TestLearnedScoring:
    """dist, nearest and eval score Da and Dc along one path."""

    @pytest.mark.parametrize("metric,flag", [("Da", "--model"), ("Dc", "--embedding")])
    def test_dist_prints_the_distance_nearest_ranks_by(self, trained, metric, flag, capsys):
        pairs, models = trained
        source = [flag, models[metric], "--lexicon", pairs]
        assert main(["nearest", *source, "--query", "thng", "--k", "5"]) == 0
        listing = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert len(listing) == 5
        lex = load_lexicon(pairs)
        if metric == "Da":
            model = denoise.load_autoencoder(models[metric])
            reference = lambda i, j: denoise.distance_Da(model, lex, i, j)  # noqa: E731
        else:
            emb = contextenc.load_embedding(models[metric])
            reference = lambda i, j: contextenc.distance_Dc(emb, i, j)  # noqa: E731
        for word, distance in listing:
            assert main(["dist", "--metric", metric, *source, "thng", word]) == 0
            assert capsys.readouterr().out == f"{metric}: {distance}\n"
            assert str(reference(lex.id_of("thng"), lex.id_of(word))) == distance

    @pytest.mark.parametrize("metric,flag", [("Da", "--model"), ("Dc", "--embedding")])
    def test_words_are_looked_up_as_the_lexicon_file_normalises_them(
        self, trained, metric, flag, capsys
    ):
        pairs, models = trained
        source = [flag, models[metric], "--lexicon", pairs]
        assert main(["nearest", *source, "--query", "thng"]) == 0
        listing = capsys.readouterr().out
        assert main(["nearest", *source, "--query", " THNG "]) == 0
        assert capsys.readouterr().out == listing
        assert main(["dist", "--metric", metric, *source, "thng", "water"]) == 0
        distance = capsys.readouterr().out
        assert main(["dist", "--metric", metric, *source, "THNG", " Water "]) == 0
        assert capsys.readouterr().out == distance

    def test_nearest_with_two_model_sources_exit_2(self, trained, capsys):
        pairs, models = trained
        both = ["--model", models["Da"], "--embedding", models["Dc"], "--lexicon", pairs]
        assert main(["nearest", *both, "--query", "thng"]) == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--embedding" in err
        # eval scores Da and Dc in one run, so it takes both
        assert main(["eval", *both, "--metrics", "Da,Dc"]) == 0

    def test_nearest_without_a_model_source_exit_2(self, tmp_path, capsys):
        # a usage error found before the lexicon is read: the file need not exist
        missing = tmp_path / "missing.tsv"
        assert main(["nearest", "--lexicon", str(missing), "--query", "thng"]) == 2
        err = capsys.readouterr().err
        assert "--model" in err and "--embedding" in err

    def test_nearest_embedding_of_another_lexicon_exit_3(self, trained, tmp_path, capsys):
        _, models = trained
        other = tmp_path / "other.tsv"
        other.write_text("thng\tthing\nwter\twater\n", encoding="utf-8")
        rc = main(
            ["nearest", "--embedding", models["Dc"], "--lexicon", str(other), "--query", "thng"]
        )
        assert rc == 3
        assert "lexicon" in capsys.readouterr().err
        rc = main(["dist", "--metric", "Dc", "--embedding", models["Dc"], "--lexicon", str(other),
                   "thng", "thing"])
        assert rc == 3
        assert "lexicon" in capsys.readouterr().err

    @pytest.mark.parametrize("extra_rows", [-1, 1])
    def test_nearest_embedding_of_the_wrong_row_count_exit_3(
        self, trained, tmp_path, extra_rows, capsys
    ):
        pairs, models = trained
        emb = contextenc.load_embedding(models["Dc"])
        rows = len(emb.U) + extra_rows
        emb.U = np.resize(emb.U, (rows, emb.n_embed))
        broken = tmp_path / "emb.json"
        contextenc.save_embedding(emb, broken)
        rc = main(["nearest", "--embedding", str(broken), "--lexicon", pairs, "--query", "thng"])
        assert rc == 3
        assert f"embedding has {rows} rows" in capsys.readouterr().err
        rc = main(["dist", "--metric", "Dc", "--embedding", str(broken), "--lexicon", pairs, "thng", "thing"])
        assert rc == 3
        assert f"embedding has {rows} rows" in capsys.readouterr().err

    def test_k_below_one_exit_2(self, trained, capsys):
        pairs, models = trained
        source = ["--model", models["Da"], "--lexicon", pairs]
        with pytest.raises(SystemExit) as exc:
            main(["nearest", *source, "--query", "thng", "--k", "0"])
        assert exc.value.code == 2
        assert "k must be >= 1" in capsys.readouterr().err

    def test_unknown_query_exit_3(self, trained, capsys):
        pairs, models = trained
        rc = main(["nearest", "--model", models["Da"], "--lexicon", pairs, "--query", "frend"])
        assert rc == 3
        assert capsys.readouterr().err == "error: word not in lexicon: 'frend'\n"

    def test_model_without_field_exit_3(self, trained, tmp_path, capsys):
        pairs, models = trained
        with open(models["Da"], encoding="utf-8") as fh:
            data = json.load(fh)
        del data["bottleneck_index"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["nearest", "--model", str(broken), "--lexicon", pairs, "--query", "thng"])
        assert rc == 3
        assert "bottleneck_index" in capsys.readouterr().err

    @pytest.mark.parametrize("metric,flag", [("Da", "--model"), ("Dc", "--embedding")])
    def test_model_with_a_non_finite_value_exit_3(self, trained, tmp_path, metric, flag, capsys):
        pairs, models = trained
        if metric == "Da":
            model = denoise.load_autoencoder(models["Da"])
            model.net.layers[1].W[0, 2] = np.nan
            save, field = denoise.save_autoencoder, "layers[1].weights"
        else:
            model = contextenc.load_embedding(models["Dc"])
            model.U = model.U.copy()  # a loaded U is read-only
            model.U[3, 1] = np.inf
            save, field = contextenc.save_embedding, "rows"
        broken = tmp_path / "broken.json"
        save(model, broken)
        rc = main(["nearest", flag, str(broken), "--lexicon", pairs, "--query", "thng"])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {field} holds a non-finite value\n"

    def test_codes_that_overflow_exit_4(self, trained, tmp_path, capsys):
        pairs, models = trained
        model = denoise.load_autoencoder(models["Da"])
        model.net.layers[0].W[:] = 1e308
        model.net.layers[0].b[:] = 1e308
        broken = tmp_path / "huge.json"
        denoise.save_autoencoder(model, broken)
        for argv in (["nearest", "--query", "thng"], ["eval", "--metrics", "Da"],
                     ["dist", "--metric", "Da", "thng", "water"]):
            assert main([*argv, "--model", str(broken), "--lexicon", pairs]) == 4
            err = capsys.readouterr().err
            assert err.startswith("numeric abort: overflow")

    @pytest.mark.parametrize(
        "metric,flag,field",
        [
            ("Da", "--model", "code_size"),
            ("Da", "--model", "depth"),
            ("Da", "--model", "bottleneck_index"),
            ("Dc", "--embedding", "n_embed"),
        ],
    )
    def test_model_with_a_wrong_shape_field_exit_3(
        self, trained, tmp_path, metric, flag, field, capsys
    ):
        pairs, models = trained
        with open(models[metric], encoding="utf-8") as fh:
            data = json.load(fh)
        data[field] -= 1
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["nearest", flag, str(broken), "--lexicon", pairs, "--query", "thng"])
        assert rc == 3
        assert f"field {field} is {data[field]}," in capsys.readouterr().err

    def test_model_with_malformed_array_exit_3(self, trained, tmp_path, capsys):
        pairs, models = trained
        with open(models["Da"], encoding="utf-8") as fh:
            data = json.load(fh)
        data["network"]["layers"][0]["weights"]["f8le"] = "not base64!"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["nearest", "--model", str(broken), "--lexicon", pairs, "--query", "thng"])
        assert rc == 3
        assert capsys.readouterr().err == "error: layers[0].weights.f8le is not valid base64\n"

    def test_model_with_malformed_container_exit_3(self, trained, tmp_path, capsys):
        pairs, models = trained
        with open(models["Da"], encoding="utf-8") as fh:
            data = json.load(fh)
        data["network"]["layers"] = "abc"
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data), encoding="utf-8")
        rc = main(["nearest", "--model", str(broken), "--lexicon", pairs, "--query", "thng"])
        assert rc == 3
        assert capsys.readouterr().err == "error: network field 'layers' is not a list of objects\n"

    def test_model_not_json_exit_3(self, trained, tmp_path):
        pairs, _ = trained
        broken = tmp_path / "broken.json"
        broken.write_text("not json\n", encoding="utf-8")
        assert main(["nearest", "--model", str(broken), "--lexicon", pairs, "--query", "thng"]) == 3

    def test_key_error_escapes_main(self, trained, monkeypatch):
        pairs, models = trained

        def broken(path):
            raise KeyError("a programming error")

        monkeypatch.setattr(cli, "load_lexicon", broken)
        with pytest.raises(KeyError):
            main(["nearest", "--model", models["Da"], "--lexicon", pairs, "--query", "thng"])


def test_threads_option_removed():
    with pytest.raises(SystemExit):
        main(["--threads", "2", "dist", "--metric", "levenshtein", "a", "b"])


def test_verbose_option_removed():
    with pytest.raises(SystemExit):
        main(["--verbose", "dist", "--metric", "levenshtein", "a", "b"])


def test_format_option_removed():
    with pytest.raises(SystemExit):
        main(["--format", "csv", "dist", "--metric", "levenshtein", "a", "b"])
