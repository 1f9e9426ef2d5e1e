import json

import pytest

from wordsim.cli import main

from conftest import TOY_STANDARD, toy_variants


@pytest.fixture()
def pairs_file(tmp_path):
    lines = [f"{v}\t{w}" for w in TOY_STANDARD for v in toy_variants(w)]
    path = tmp_path / "pairs.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def corpus_file(tmp_path):
    sentences = [
        "thing water house",
        "night right friend",
        "people school birthday",
        "tomorrow morning coffee",
        "window garden music",
    ] * 4
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    return path


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the lr overflows on purpose
    def test_failed_run_keeps_existing_out(self, pairs_file, tmp_path):
        out = tmp_path / "keep.json"
        out.write_bytes(b"an earlier model\n")
        assert self.train_ae(pairs_file, out, "1e300") == 4
        assert out.read_bytes() == b"an earlier model\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.json", "pairs.tsv"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_leaves_no_new_out(self, pairs_file, tmp_path):
        out = tmp_path / "new.json"
        assert self.train_ae(pairs_file, out, "1e300") == 4
        assert not out.exists()

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
