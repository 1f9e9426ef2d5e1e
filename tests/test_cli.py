import json

import pytest

from wordsim import cli, contextenc, denoise
from wordsim.cli import main
from wordsim.lexicon import load_lexicon

from conftest import TOY_STANDARD, toy_variants


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


class TestTrainContext:
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

    def test_nearest_embedding_of_another_lexicon_exit_3(self, trained, tmp_path, capsys):
        _, models = trained
        other = tmp_path / "other.tsv"
        other.write_text("thng\tthing\nwter\twater\n", encoding="utf-8")
        rc = main(
            ["nearest", "--embedding", models["Dc"], "--lexicon", str(other), "--query", "thng"]
        )
        assert rc == 3
        assert "lexicon" in capsys.readouterr().err

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
