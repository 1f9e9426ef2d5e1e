"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with -s to see the verdict lines as the suite executes; each test
also asserts, so a FAIL line always comes with a test failure.
"""

import json
import statistics
import string
import time
from functools import partial

import numpy as np
import pytest

from wordsim import contextenc, denoise, editfam, gramfam, neural
from wordsim.candidates import CandidateTable, Query
from wordsim.cli import main as cli_main
from wordsim.evalharness import MetricSpec, evaluate_accuracy
from wordsim.lexicon import build_lexicon
from wordsim.neural import TrainConfig, softmax

from conftest import TOY_STANDARD, make_context_corpus, toy_variants
from oracles import all_strings, bfs_script_distances, gradient_check, osa_script_search


def verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_equivalence():
    # every pair of strings of length <= 5 over {a,b,c} against
    # edit-script search oracles; DP answers must match exactly, and so
    # must the batched kernels, all three given one prepared query per x
    start = time.monotonic()
    universe = all_strings("abc", 5)
    table = CandidateTable(universe)
    mismatches = 0
    for x in universe:
        lev_oracle = bfs_script_distances(x, "abc", 5, ("insert", "delete", "substitute"))
        lcs_oracle = bfs_script_distances(x, "abc", 5, ("insert", "delete"))
        osa_oracle = {y: osa_script_search(x, y) for y in universe}
        for y in universe:
            if editfam.levenshtein(x, y) != lev_oracle[y]:
                mismatches += 1
            if editfam.lcs_distance(x, y) != lcs_oracle[y]:
                mismatches += 1
            if editfam.damerau_levenshtein(x, y) != osa_oracle[y]:
                mismatches += 1
        query = Query(table, x)
        for kernel, oracle in (
            (editfam.damerau_levenshtein_many, osa_oracle),
            (editfam.lcs_distance_many, lcs_oracle),
            (editfam.levenshtein_many, lev_oracle),
        ):
            want = [oracle[y] for y in universe]
            mismatches += int(np.count_nonzero(table.unsort(kernel(query)) != want))
    elapsed = time.monotonic() - start
    verdict(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"{len(universe) ** 2} pairs x 3 metrics, scalar and batched, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_metric_axioms():
    # 10^4 random ascii triples, lengths <= 12; full metric axioms for
    # Levenshtein, Damerau, and LCS distance; q-gram checked for
    # non-negativity, symmetry, and triangle only, with a stored
    # identity-failure witness
    start = time.monotonic()
    rng = np.random.default_rng(0)
    alphabet = string.ascii_lowercase

    def rand_word():
        n = int(rng.integers(0, 13))
        return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))

    full = [editfam.levenshtein, editfam.damerau_levenshtein, editfam.lcs_distance]
    qgram = lambda x, y: gramfam.qgram_distance(x, y, 2)
    violations = 0
    for _ in range(10_000):
        x, y, z = rand_word(), rand_word(), rand_word()
        for d in full:
            dxy, dyz, dxz = d(x, y), d(y, z), d(x, z)
            if dxy < 0 or (dxy == 0) != (x == y):
                violations += 1
            if dxy != d(y, x):
                violations += 1
            if dxz > dxy + dyz:
                violations += 1
        dxy, dyz, dxz = qgram(x, y), qgram(y, z), qgram(x, z)
        if dxy < 0 or dxy != qgram(y, x) or dxz > dxy + dyz:
            violations += 1
    # the same axioms through the batched kernels, one prepared query per
    # word, over every triple of 300 more words
    words = [rand_word() for _ in range(300)]
    table = CandidateTable(words)
    kernels = [editfam.levenshtein_many, editfam.damerau_levenshtein_many,
               editfam.lcs_distance_many, partial(gramfam.qgram_distance_many, n=2)]
    queries = [Query(table, x) for x in words]
    same = np.array([[x == y for y in words] for x in words])
    for i, kernel in enumerate(kernels):
        d = np.array([table.unsort(kernel(query)) for query in queries])
        violations += int(np.count_nonzero(d < 0) + np.count_nonzero(d != d.T))
        if i < 3:
            violations += int(np.count_nonzero((d == 0) != same))
        for y in range(len(words)):
            violations += int(np.count_nonzero(d > d[:, y, None] + d[None, y, :]))
    # identity-of-indiscernibles failure witness for the q-gram distance
    witness_ok = gramfam.qgram_distance("abab", "baba", 1) == 0 and "abab" != "baba"
    elapsed = time.monotonic() - start
    verdict(
        2,
        violations == 0 and witness_ok and elapsed < 60.0,
        f"10^4 triples and 300^3 batched, {violations} violations, q-gram witness "
        f"{'held' if witness_ok else 'missing'}, {elapsed:.1f}s",
    )


def test_criterion_3_spot_value():
    d = editfam.levenshtein("vector", "doctor")
    verdict(3, d == 2, f"levenshtein('vector','doctor') = {d}")


def test_criterion_4_gradient_checks():
    # analytic vs central finite-difference gradients, 10 seeds each,
    # for a 7-layer autoencoder over a 32-word lexicon and for the
    # context-encoder prediction network
    start = time.monotonic()
    words = [f"w{i:02d}xyz" for i in range(16)]
    lex = build_lexicon([(w[1:], w) for w in words])
    assert len(lex) == 32
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        ae = denoise.build_autoencoder(lex, code_size=8, depth=7, seed=seed)
        x = np.eye(len(lex))[int(rng.integers(len(lex)))]
        t = np.eye(len(lex))[int(rng.integers(len(lex)))]
        worst = max(worst, gradient_check(ae.net, x, t))

        ctx = contextenc.build_context_model(
            lex, n_embed=8, window=4, hidden_size=16, seed=seed
        )
        cx = rng.normal(size=ctx.predictor.topology[0])
        ct = np.eye(len(lex))[int(rng.integers(len(lex)))]
        worst = max(worst, gradient_check(ctx.predictor, cx, ct))
    elapsed = time.monotonic() - start
    verdict(
        4,
        worst < 1e-4 and elapsed < 120.0,
        f"max relative error {worst:.2e} over 10 seeds, {elapsed:.1f}s",
    )


def test_criterion_5_softmax_normalization():
    rng = np.random.default_rng(0)
    logits = rng.normal(scale=10.0, size=(10_000, 32))
    # extreme rows: saturated logits in both directions
    logits[0] = 1000.0
    logits[1] = -1000.0
    logits[2, 0], logits[2, 1:] = 1000.0, -1000.0
    sums = softmax(logits).sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    verdict(5, worst <= 1e-9, f"max |sum - 1| = {worst:.2e} over 10^4 inputs")


def test_criterion_6_toy_denoising_run(toy_lexicon):
    # the denoising experiment at desk scale: 20 standard words, 3
    # synthetic variants each; code 8, depth 5, batch 16, lr 0.05,
    # 200 epochs; accuracy@1 >= 90% for at least 8 of 10 seeds
    start = time.monotonic()
    passing = 0
    accs = []
    for seed in range(10):
        model = denoise.build_autoencoder(toy_lexicon, code_size=8, depth=5, seed=seed)
        denoise.train_autoencoder(
            model,
            toy_lexicon,
            TrainConfig(batch_size=16, learning_rate=0.05, epochs=200, seed=seed),
        )
        spec = MetricSpec(
            name="Da", kind="learned-Da", params={"model": model, "vec_metric": "cosine"}
        )
        acc = evaluate_accuracy(spec, toy_lexicon, ks=(1,))[1]
        accs.append(acc)
        passing += acc >= 90.0
    elapsed = time.monotonic() - start
    verdict(
        6,
        passing >= 8 and elapsed < 300.0,
        f"{passing}/10 seeds reached accuracy@1 >= 90% "
        f"(min {min(accs):.1f}%), {elapsed:.1f}s",
    )


def test_criterion_7_toy_context_run(context_lexicon):
    # 'dogg' and 'dog' share identical context templates in a 500
    # sentence corpus; after combined training their distance must fall
    # below the median pairwise distance among standard words
    start = time.monotonic()
    lex = context_lexicon
    corpus = make_context_corpus(lex, n_sentences=500, seed=123)
    dogg, dog = lex.id_of("dogg"), lex.id_of("dog")
    standard = list(lex.standard_ids)
    passing = 0
    for seed in range(10):
        ae = denoise.build_autoencoder(lex, code_size=8, depth=5, seed=seed)
        ctx = contextenc.build_context_model(
            lex, n_embed=8, window=4, hidden_size=16, seed=seed
        )
        emb = contextenc.train_combined(
            ctx,
            ae,
            lex,
            corpus,
            TrainConfig(batch_size=16, learning_rate=0.05, epochs=1, seed=seed),
            rounds=10,
            blend=0.5,
            ae_epochs_per_round=20,
        )
        target = contextenc.distance_Dc(emb, dogg, dog)
        pairwise = [
            contextenc.distance_Dc(emb, a, b)
            for i, a in enumerate(standard)
            for b in standard[i + 1 :]
        ]
        passing += target < statistics.median(pairwise)
    elapsed = time.monotonic() - start
    verdict(
        7,
        passing >= 8 and elapsed < 300.0,
        f"{passing}/10 seeds put Dc(dogg,dog) below the standard-pair median, "
        f"{elapsed:.1f}s",
    )


CHALLENGE_LEXICON = "data/challenge_pairs.tsv"


def test_criterion_8_challenge_classical_rows():
    # conditional: needs the public challenge pairs file; expected
    # accuracies with +/- 2 point tolerance
    import os

    if not os.path.exists(CHALLENGE_LEXICON):
        print(f"criterion  8: SKIP - challenge dataset not present at {CHALLENGE_LEXICON}")
        pytest.skip("challenge dataset not available")
    from wordsim.lexicon import load_lexicon

    start = time.monotonic()
    lex = load_lexicon(CHALLENGE_LEXICON)
    norm = evaluate_accuracy(MetricSpec(name="normalized-levenshtein"), lex, ks=(1, 5))
    edit = evaluate_accuracy(MetricSpec(name="levenshtein"), lex, ks=(1,))
    ok = (
        abs(norm[1] - 63.17) <= 2.0
        and abs(norm[5] - 78.30) <= 2.0
        and abs(edit[1] - 55.75) <= 2.0
        and time.monotonic() - start < 600.0
    )
    verdict(
        8,
        ok,
        f"normalized acc@1={norm[1]:.2f}% acc@5={norm[5]:.2f}%, edit acc@1={edit[1]:.2f}%",
    )


def test_criterion_9_full_scale_targets_informational():
    # documentation only, never a gate: published full-scale targets for
    # the learned metrics (cosine), with seeds flowing from --seed 0
    print(
        "criterion  9: PASS - informational targets: Da-cosine acc@1 83.82%, "
        "Dc-cosine acc@1 85.37% acc@5 89.61% (full-scale runs are stochastic; "
        "gating rests on criteria 6-7)"
    )


def test_criterion_10_cli_determinism(tmp_path):
    lines = [f"{v}\t{w}" for w in TOY_STANDARD for v in toy_variants(w)]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dumps = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = cli_main(
            [
                "--seed", "11",
                "train-ae",
                "--lexicon", str(pairs),
                "--code-size", "8",
                "--depth", "5",
                "--batch", "16",
                "--lr", "0.05",
                "--epochs", "25",
                "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        data["metadata"].pop("created")  # timestamp is the one allowed difference
        dumps.append(json.dumps(data, sort_keys=True))
    verdict(
        10,
        dumps[0] == dumps[1],
        "two seeded train-ae runs byte-identical after dropping the timestamp",
    )
