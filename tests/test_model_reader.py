"""The reader of model, embedding and report files against json.load of the whole file.

neural._read_json decodes each array written in the writer's layout as it
reads the file in pieces; tests/oracles.py keeps the reader that parsed
the whole text first and decoded each base64 string afterwards. Every
file, well formed or not, must load to the reference's arrays, bit for
bit and with the same dtype and flags, or raise the reference's
exception with its message.
"""

import base64
import dataclasses
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wordsim import neural
from wordsim.cli import main
from wordsim.contextenc import EmbeddingMatrix, load_embedding, save_embedding
from wordsim.denoise import (
    AutoencoderModel,
    build_autoencoder,
    load_autoencoder,
    nearest_standard,
    save_autoencoder,
)
from wordsim.errors import ConfigError
from wordsim.evalharness import EvalReport, export_report, load_report
from wordsim.lexicon import build_lexicon

from conftest import MALFORMED_ARRAYS
from oracles import decode_array_reference, load_reference

LOADERS = {"autoencoder": load_autoencoder, "embedding": load_embedding, "report": load_report}
MiB = 2**20


def write_file(kind, path, lex):
    """A file as the library writes it; its metadata holds a '/' for the escape cases."""
    if kind == "autoencoder":
        save_autoencoder(build_autoencoder(lex, code_size=4, depth=5, seed=3), path,
                         extra_metadata={"note": "a/b", "loss": 0.5})
    elif kind == "embedding":
        rows = np.random.default_rng(3).normal(size=(len(lex), 3))
        save_embedding(EmbeddingMatrix(rows, lex.fingerprint(), {"note": "a/b", "rounds": 1}), path)
    else:
        export_report(EvalReport({"levenshtein": {1: 50.0, 5: 75.5}}, {"note": "a/b"}), path)


def described(result):
    """What a loaded object holds, each array by its bits, dtype, shape and flags."""
    if isinstance(result, AutoencoderModel):
        arrays = [a for layer in result.net.layers for a in (layer.W, layer.b)]
        rest = (result.lexicon_fingerprint, result.seed, [l.activation for l in result.net.layers])
    elif isinstance(result, EmbeddingMatrix):
        arrays, rest = [result.U], (result.lexicon_fingerprint, result.metadata)
    else:
        return result
    return rest, [
        (a.tobytes(), a.dtype.str, a.shape, a.flags.c_contiguous, a.base is None, a.flags.writeable)
        for a in arrays
    ]


def outcome(load, path):
    try:
        return described(load(path))
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def assert_loads_as_the_reference(kind, path):
    load = LOADERS[kind]
    assert outcome(load, path) == outcome(lambda p: load_reference(load, p), path)


def array_objects(value):
    """Every encode_array object in a parsed file, in document order."""
    if isinstance(value, dict):
        if set(value) == {"shape", "f8le"}:
            yield value
            return
        for item in value.values():
            yield from array_objects(item)
    elif isinstance(value, list):
        for item in value:
            yield from array_objects(item)


class Pairs(list):
    """A JSON object as its (key, value) pairs, which may name a key twice."""


def render(value) -> str:
    """json.dumps(value), with a Pairs written pair by pair."""
    if isinstance(value, dict):
        value = Pairs(value.items())
    if isinstance(value, Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {render(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(render(item) for item in value) + "]"
    return json.dumps(value)


def with_duplicate(data, other_first):
    """data with the first key that holds an array named twice: once more for another array."""
    other = neural.encode_array(np.full(2, 0.25))

    def walk(value):
        if isinstance(value, dict):
            for key, item in value.items():
                if isinstance(item, dict) and set(item) == {"shape", "f8le"}:
                    pairs = Pairs((k, v) for k, v in value.items() if k != key)
                    pairs += [(key, other), (key, item)] if other_first else [(key, item), (key, other)]
                    return pairs
            return {key: walk(item) for key, item in value.items()}
        if isinstance(value, list):
            return [walk(item) for item in value]
        return value

    return walk(data)


def format_1(value):
    """value with every array object stored as nested numbers, as format 1 wrote it."""
    if isinstance(value, dict):
        if set(value) == {"shape", "f8le"}:
            return decode_array_reference(value, "a", len(value["shape"])).tolist()
        return {key: format_1(item) for key, item in value.items()}
    if isinstance(value, list):
        return [format_1(item) for item in value]
    return value


def reordered(value):
    """value with the keys of every array object in the other order."""
    if isinstance(value, dict):
        if set(value) == {"shape", "f8le"}:
            return {"f8le": value["f8le"], "shape": value["shape"]}
        return {key: reordered(item) for key, item in value.items()}
    if isinstance(value, list):
        return [reordered(item) for item in value]
    return value


def broken(case):
    """The MALFORMED_ARRAYS breaker applied to the at-th array of the file, as the test files do."""

    def mutate(text, data, at):
        arrays = list(array_objects(data))
        if arrays:
            MALFORMED_ARRAYS[case][0](arrays[at % len(arrays)])
        return json.dumps(data).encode()

    return mutate


def padded_inside(text, data, at):
    """The at-th array's string as two base64 strings joined, so a '==' pads a group inside it."""
    arrays = list(array_objects(data))
    if arrays:
        array = arrays[at % len(arrays)]
        raw = base64.b64decode(array["f8le"])
        cut = 1 + 3 * (len(raw) // 6)  # past the first piece of a long array
        array["f8le"] = (base64.b64encode(raw[:cut]) + base64.b64encode(raw[cut:])).decode()
    return json.dumps(data).encode()


def stray(where):
    """The file with one more array object, one that no loader decodes."""

    def mutate(text, data, at):
        array = neural.encode_array(np.arange(3.0))
        if where == "file":
            return json.dumps(array).encode()
        if where == "metadata":
            data.setdefault("metadata", {})["stray"] = array
        elif where == "top-level":
            data["stray"] = array
        elif "network" in data:  # in place of a layer
            data["network"]["layers"][0] = array
        else:
            data["metadata"] = array
        return json.dumps(data).encode()

    return mutate


ARRAY_TEXT = json.dumps(neural.encode_array(np.arange(3.0)))

# each mutation gives the bytes of a file from the text the library wrote and its parsed data
MUTATIONS = {
    "as-written": lambda text, data, at: text,
    "truncated": lambda text, data, at: text[: at % len(text)],
    "non-utf-8-byte": lambda text, data, at: text[: at % len(text)] + b"\xff" + text[at % len(text) :],
    "bom": lambda text, data, at: b"\xef\xbb\xbf" + text,
    "compact": lambda text, data, at: json.dumps(data, separators=(",", ":")).encode(),
    "indent-1": lambda text, data, at: json.dumps(data, indent=1).encode(),
    "keys-reordered": lambda text, data, at: json.dumps(reordered(data)).encode(),
    "escaped-slash": lambda text, data, at: text.replace(b"/", b"\\/"),
    "format-1": lambda text, data, at: json.dumps(format_1(data)).encode(),
    "duplicate-key-array-last": lambda text, data, at: render(with_duplicate(data, True)).encode(),
    "duplicate-key-array-first": lambda text, data, at: render(with_duplicate(data, False)).encode(),
    "array-in-a-string": lambda text, data, at: text.replace(
        b'"a/b"', b'"a' + ARRAY_TEXT.encode() + b'b"'
    ),
    "padding-inside-a-string": padded_inside,
    "key-after-f8le": lambda text, data, at: text.replace(b'"}', b'", "x": 1}'),
    "bytes-past-the-shape": lambda text, data, at: text.replace(b'"}', b'AAAA"}'),
    "bracket-closes-an-array": lambda text, data, at: text.replace(b'"}', b'"]', 1),
    "shape-with-a-5000-digit-dimension": lambda text, data, at: text.replace(
        b'"shape": [', b'"shape": [' + b"9" * 5000 + b", ", 1
    ),
    "empty-but-too-big-for-numpy": lambda text, data, at: text.replace(
        b'{"shape": [',
        b'{"shape": [0, 100000000000000000, 100000000000000000], "f8le": ""}, "x": {"shape": [',
        1,
    ),
    "shape-with-a-leading-zero": lambda text, data, at: text.replace(b'"shape": [', b'"shape": [0', 1),
    "number-like-the-marker": lambda text, data, at: text.replace(b'"a/b"', b"-0.0E-0"),
    **{f"array-in-{where}": stray(where) for where in ("metadata", "top-level", "file", "layers")},
    **{f"breaker-{case}": broken(case) for case in sorted(MALFORMED_ARRAYS)},
}


def mutated_file(kind, path, lex, mutation, at=7, lead=0):
    write_file(kind, path, lex)
    text = path.read_bytes()
    path.write_bytes(b" " * lead + MUTATIONS[mutation](text, json.loads(text), at))


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_every_case_loads_as_the_reference(small_lexicon, tmp_path, kind, mutation):
    path = tmp_path / "file.json"
    mutated_file(kind, path, small_lexicon, mutation)
    assert_loads_as_the_reference(kind, path)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(sorted(LOADERS)),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    at=st.integers(0, 2**20),
    lead=st.integers(0, 40),
    piece_bytes=st.sampled_from([24, 48, 96, neural.PIECE_BYTES]),
)
def test_any_file_loads_as_the_reference(small_lexicon, tmp_path, kind, mutation, at, lead, piece_bytes):
    path = tmp_path / "file.json"
    mutated_file(kind, path, small_lexicon, mutation, at, lead)
    with mock.patch.object(neural, "PIECE_BYTES", piece_bytes):
        assert_loads_as_the_reference(kind, path)


@pytest.mark.parametrize("mutation", ["as-written", "padding-inside-a-string", "breaker-byte-count"])
@pytest.mark.parametrize("kind", ["autoencoder", "embedding"])
def test_an_array_split_at_every_offset_loads_as_the_reference(small_lexicon, tmp_path, kind, mutation):
    path = tmp_path / "file.json"
    # pieces of 32 characters: leading spaces move every array string across each offset mod 32
    with mock.patch.object(neural, "PIECE_BYTES", 24), mock.patch.object(
        neural, "_read_whole", wraps=neural._read_whole
    ) as read_whole:
        for lead in range(32):
            mutated_file(kind, path, small_lexicon, mutation, lead=lead)
            assert_loads_as_the_reference(kind, path)
    # a file as the library writes it is decoded as it is read, never read whole
    assert read_whole.called == (mutation != "as-written")


@pytest.mark.parametrize(
    "mutation, whole",
    [("as-written", False), ("compact", False), ("format-1", False), ("keys-reordered", False),
     ("breaker-byte-count", True), ("breaker-f8le-not-base64", True), ("escaped-slash", True),
     ("array-in-metadata", True), ("duplicate-key-array-last", True), ("truncated", True)],
)
def test_only_a_file_the_pieces_cannot_read_is_read_whole(small_lexicon, tmp_path, mutation, whole):
    path = tmp_path / "ae.json"
    mutated_file("autoencoder", path, small_lexicon, mutation)
    with mock.patch.object(neural, "_read_whole", wraps=neural._read_whole) as read_whole:
        outcome(load_autoencoder, path)
    assert read_whole.called == whole


class TestDeepNesting:
    """JSON nested past the parser's recursion limit is a file that is not JSON, not a RecursionError."""

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        return path

    @pytest.mark.parametrize("kind", sorted(LOADERS))
    def test_loaders_raise_config_error(self, deep, kind):
        with pytest.raises(ConfigError, match="^not a JSON file: .*deep.json: maximum recursion depth"):
            LOADERS[kind](deep)

    @pytest.mark.parametrize("option", ["--model", "--embedding"])
    def test_nearest_exits_3(self, deep, tmp_path, option, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("thng\tthing\nwter\twater\n", encoding="utf-8")
        assert main(["nearest", option, str(deep), "--lexicon", str(pairs), "--query", "thng"]) == 3
        assert "not a JSON file" in capsys.readouterr().err


def traced_peak(fn):
    """(result of fn(), bytes traced at fn's peak above its start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestMemoryAndLayout:
    def test_a_load_holds_its_weights_and_less_than_a_mebibyte_more(self, tmp_path):
        # json.load of the whole file peaked at about three times the weights
        lex = build_lexicon([(f"w{i}", f"w{i}") for i in range(2000)])
        path = tmp_path / "ae.json"
        save_autoencoder(build_autoencoder(lex, code_size=11, depth=7), path)
        model, peak = traced_peak(lambda: load_autoencoder(path))
        weights = sum(layer.W.nbytes + layer.b.nbytes for layer in model.net.layers)
        assert weights > 10 * MiB
        assert peak < weights + MiB

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("autoencoder", '{"kind": "autoencoder", "network": {"format_version": 2, "topology": [], '
                            '"layers": [{"weights": {"shape": [1000000000000], "f8le": "AAAA"}}]}}'),
            ("embedding", '{"kind": "embedding", "format_version": 2, '
                          '"rows": {"shape": [1000000, 1000000], "f8le": "AAAA"}}'),
        ],
    )
    def test_a_shape_the_file_cannot_hold_is_refused_before_it_is_allocated(self, tmp_path, kind, text):
        path = tmp_path / "huge.json"
        path.write_text(text)
        (exc_type, message), peak = traced_peak(lambda: outcome(LOADERS[kind], path))
        assert exc_type is ConfigError and "bytes; shape" in message
        assert (exc_type, message) == outcome(lambda p: load_reference(LOADERS[kind], p), path)
        assert peak < MiB

    def test_loaded_arrays_own_their_data(self, small_lexicon, tmp_path):
        write_file("autoencoder", tmp_path / "ae.json", small_lexicon)
        write_file("embedding", tmp_path / "emb.json", small_lexicon)
        model = load_autoencoder(tmp_path / "ae.json")
        emb = load_embedding(tmp_path / "emb.json")
        arrays = [a for layer in model.net.layers for a in (layer.W, layer.b)] + [emb.U]
        for a in arrays:
            assert a.dtype == np.float64 and a.dtype.isnative
            assert a.flags.c_contiguous and a.base is None
        # training updates a model's weights in place; an embedding's rows are read-only
        assert all(a.flags.writeable for a in arrays[:-1])
        assert not emb.U.flags.writeable

    def test_a_loaded_embedding_is_prepared_once(self, small_lexicon, tmp_path):
        lex = dataclasses.replace(small_lexicon)  # a memo of its own
        write_file("embedding", tmp_path / "emb.json", lex)
        emb = load_embedding(tmp_path / "emb.json")
        nearest_standard(emb, lex, 0)
        key = ("learned-Dc", lex.standard_array.tobytes())
        entry = lex._prepared[key]
        for _ in range(2):
            for q in range(len(lex)):
                nearest_standard(emb, lex, q)
        assert lex._prepared[key] is entry
