"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [PASS]/[FAIL] line describing what was measured.
The real-data smoke test at the end only runs when CB2CF_REAL_DATA points
at a directory holding ratings.csv and metadata.jsonl.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cb2cf import net
from cb2cf.cli import main as cli_main
from cb2cf.data import (ContentProfile, UserHistory, cooccurrence_from_ratings,
                        load_sets)
from cb2cf.evaluation import (EvalDataset, make_folds, mean_ndcg, mpr,
                              mse_metric, ndcg_at_k, percentile_rank,
                              run_system)
from cb2cf.features import (Centroids, bow_histogram, fit_feature_context,
                            featurize_item)
from cb2cf.model import (SystemSpec, TrainConfig, analogy, backward_batch,
                         build_model, bundle_parts, forward_batch, stack_bundles, train)
from cb2cf.sgns import EmbeddingTable, SgnsConfig, similarity_search, train_sgns
from cb2cf.synthetic import SyntheticSpec, generate_synthetic
from gradcheck import grad_check, l2_penalty
from model_helpers import float64_model
from synthetic_helpers import cluster_labels


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(0)

    # Layer-level checks.
    target5 = rng.standard_normal((1, 5))

    def dense_loss(tensors):
        y, cache = net.dense_forward(tensors["x"], tensors["w"], tensors["b"])
        loss, grad_y = net.mse_loss(y, target5)
        grad_x, grad_w, grad_b = net.dense_backward(cache, grad_y)
        return loss[0], {"x": grad_x, "w": grad_w, "b": grad_b}

    dense_err = grad_check(dense_loss, {
        "x": rng.standard_normal((1, 7)), "w": rng.standard_normal((5, 7)),
        "b": rng.standard_normal(5)})

    target4 = rng.standard_normal((1, 4))

    def conv_loss(tensors):
        pooled, conv_cache = net.conv1d_maxpool_forward(
            tensors["m"], tensors["f"], tensors["cb"], [0, len(tensors["m"])])
        act = net.relu_forward(pooled)
        loss, grad_act = net.mse_loss(act, target4)
        grad_pooled = net.relu_backward(pooled, grad_act)
        grad_m, grad_f, grad_cb = net.conv1d_maxpool_backward(conv_cache,
                                                              grad_pooled)
        return loss[0], {"m": grad_m, "f": grad_f, "cb": grad_cb}

    conv_err = grad_check(conv_loss, {
        "m": rng.standard_normal((8, 3)), "f": rng.standard_normal((4, 3, 3)),
        "cb": rng.standard_normal(4)})

    def l2_loss(tensors):
        loss, grads = l2_penalty({"w": tensors["w"]}, 0.01)
        return loss, {"w": grads["w"]}

    l2_err = grad_check(l2_loss, {"w": rng.standard_normal((3, 4))})

    # Assembled model: text length 12, word dim 6, 4 filters, output dim 5,
    # with the fine-tuned embedding rows checked as extra tensors.
    words = [f"w{c}" for c in "abcdefghijkl"]
    table = EmbeddingTable(words, rng.standard_normal((12, 6)))
    plot = " ".join(words[:10] + [words[0], words[3]])  # repeats exercise accumulation
    profiles = [ContentProfile(id=f"m{i}", plot=plot,
                               genres=["g1" if i % 2 else "g2"],
                               actors=[f"a{i % 3}"], directors=["d0"],
                               languages=["en" if i % 2 else "fr"],
                               year=1980 + i) for i in range(6)]
    context = fit_feature_context(profiles, word_table=table, min_tag_count=1)
    spec = SystemSpec.named(
        "CNN+Tags+Year", output_dim=5, cnn_filters=4, cnn_width=3,
        cnn_hidden=5, year_hidden=3, combiner_hidden=6,
        tag_hidden={"Genres": 4, "Actors": 4, "Director": 3, "Language": 3},
        text_length=12)
    model = float64_model(build_model(spec, context, seed=1))
    bundle = featurize_item(profiles[0], context, bundle_parts(spec))
    rows = sorted(set(int(r) for r in bundle.text_indices))
    target = rng.standard_normal(5)
    lam = 0.01
    l2_names = [n for n in model.params
                if n == "cnn.filters" or n == "combiner.weight"
                or (n.endswith(".weight") and n.split(".")[0] in
                    ("genres", "actors", "director", "language"))]

    def model_loss(tensors):
        for name in model.params:
            model.params[name] = tensors[name]
        for r in rows:
            model.embedding[r] = tensors[f"embedding_row_{r}"]
        preds, cache = forward_batch(model, stack_bundles(spec, [bundle]))
        loss, grad_pred = net.mse_loss(preds[0], target)
        grads, (touched, touched_grads) = backward_batch(model, cache, grad_pred[None, :])
        emb_rows = dict(zip(touched.tolist(), touched_grads))
        penalty, penalty_grads = l2_penalty(
            {n: model.params[n] for n in l2_names}, lam)
        for name, g in penalty_grads.items():
            grads[name] = grads[name] + g
        for r in rows:
            grads[f"embedding_row_{r}"] = emb_rows.get(r, np.zeros(6))
        return loss + penalty, grads

    tensors = {name: value for name, value in model.params.items()}
    for r in rows:
        tensors[f"embedding_row_{r}"] = model.embedding[r]
    model_err = grad_check(model_loss, tensors)

    elapsed = time.monotonic() - started
    worst = max(dense_err, conv_err, l2_err, model_err)
    _report(1, worst < 1e-4 and elapsed < 60.0,
            f"max relative gradient error {worst:.2e} "
            f"(dense {dense_err:.1e}, conv {conv_err:.1e}, l2 {l2_err:.1e}, "
            f"assembled {model_err:.1e}) in {elapsed:.1f}s")


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(42)
    ids = [f"c{i}" for i in range(6)]
    catalog = EmbeddingTable(ids, rng.standard_normal((6, 4)))

    def cos(u, v):
        nu = float(np.linalg.norm(u))
        nv = float(np.linalg.norm(v))
        if nu == 0.0 or nv == 0.0:
            return -1.0
        return float(np.dot(u, v) / (nu * nv))

    def ref_rank(item, pred):
        sims = {o: cos(catalog.get(o), pred) for o in ids}
        return sum(1 for o in ids if o != item and sims[o] > sims[item])

    def ref_ndcg(item, pred, k):
        original = catalog.get(item)
        others = [i for i in ids if i != item]

        def top(query):
            return sorted(others,
                          key=lambda i: (-cos(query, catalog.get(i)), i))[:k]

        def dcg(ranked):
            total = 0.0
            for pos, rid in enumerate(ranked, start=1):
                total += max(0.0, cos(catalog.get(rid), original)) \
                    / math.log2(pos + 1)
            return total

        idcg = dcg(top(original))
        if idcg < 1e-12:
            return 0.0
        return dcg(top(pred)) / idcg

    mismatches = 0
    for _ in range(20):
        pred = rng.standard_normal(4)
        for item in ids:
            if percentile_rank(item, pred, catalog) != ref_rank(item, pred):
                mismatches += 1
            for k in (1, 3, 5):
                if ndcg_at_k(item, pred, catalog, k) != ref_ndcg(item, pred, k):
                    mismatches += 1

    # Positive-quadrant catalog: identity optima need nonzero ideal gains.
    pos_catalog = EmbeddingTable(ids, rng.random((6, 4)) + 0.1)
    identity = {i: pos_catalog.get(i) for i in ids}
    identity_ok = (mse_metric(pos_catalog, identity) == 0.0
                   and mpr(identity, pos_catalog) == 0.0
                   and all(v == 1.0 for v in
                           mean_ndcg(identity, pos_catalog, (1, 3, 5)).values()))

    rng = np.random.default_rng(0)
    big = rng.standard_normal((1000, 40))
    big /= np.linalg.norm(big, axis=1, keepdims=True)
    big_ids = [f"m{i:04d}" for i in range(1000)]
    big_catalog = EmbeddingTable(big_ids, big)
    preds = rng.standard_normal((1000, 40))
    preds /= np.linalg.norm(preds, axis=1, keepdims=True)
    random_mpr = mpr({big_ids[i]: preds[i] for i in range(1000)}, big_catalog)

    ok = (mismatches == 0 and identity_ok
          and abs(random_mpr - 0.5) <= 0.02)
    _report(2, ok,
            f"brute-force mismatches {mismatches}, identity optima "
            f"{'hit' if identity_ok else 'missed'}, random-unit mpr "
            f"{random_mpr:.4f} (want 0.5 +/- 0.02)")


def test_criterion_3_item_vector_cluster_recovery():
    started = time.monotonic()
    spec = SyntheticSpec(items=40, clusters=4, dim=12, vocab_size=40,
                         noise=0.0, set_count=2000, max_set_size=4, seed=11)
    sets, _, _ = generate_synthetic(spec)
    labels = cluster_labels(spec)
    config = SgnsConfig(dim=10, epochs=100, negatives=5, subsample=1.0,
                        learning_rate=0.025, seed=3)
    table = train_sgns(sets, config)

    hits = 0
    for item_id in table.ids:
        neighbor, _ = similarity_search(table.get(item_id), table, 1,
                                        exclude={item_id})[0]
        hits += labels[neighbor] == labels[item_id]
    purity = hits / len(table)

    unit = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    sims = unit @ unit.T
    member_labels = np.array([labels[i] for i in table.ids])
    same = member_labels[:, None] == member_labels[None, :]
    off_diag = ~np.eye(len(table), dtype=bool)
    intra = float(sims[same & off_diag].mean())
    inter = float(sims[~same].mean())
    gap = intra - inter

    elapsed = time.monotonic() - started
    _report(3, purity >= 0.9 and gap >= 0.3 and elapsed < 120.0,
            f"neighbor purity {purity:.3f} (>= 0.9), intra-inter cosine gap "
            f"{gap:.3f} (>= 0.3) in {elapsed:.1f}s")


def test_criterion_4_ablation_ordering():
    started = time.monotonic()
    spec = SyntheticSpec(items=500, clusters=8, dim=40, vocab_size=200,
                         noise=0.05, year_weight=0.5, set_count=0, seed=21)
    _, profiles, targets = generate_synthetic(spec)

    words = sorted({t for p in profiles for t in p.plot.split()})
    rng = np.random.default_rng(77)
    vectors = rng.standard_normal((len(words), 12))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    word_table = EmbeddingTable(words, vectors)

    dataset = EvalDataset(profiles, targets, word_table=word_table)
    folds = make_folds([p.id for p in profiles], folds=10, seed=5)
    config = TrainConfig(batch_size=32, word_dropout=0.2, dropout=0.2,
                         l2=1e-4, learning_rate=0.01, max_epochs=60,
                         patience=5, val_fraction=0.1, seed=9)
    overrides = {"cnn_filters": 40, "cnn_hidden": 32, "combiner_hidden": 64,
                 "text_length": 60}

    results = {}
    for name in ("CNN+Tags+Year", "Tags", "Genres", "Actors", "Director",
                 "Language"):
        report = run_system(name, dataset, folds, config, ndcg_ks=(10,),
                            min_tag_count=5, spec_overrides=overrides)
        results[name] = report.mean.mpr

    singles = {n: results[n] for n in ("Genres", "Actors", "Director",
                                       "Language")}
    combined = results["CNN+Tags+Year"]
    tags = results["Tags"]
    ordering = combined < tags < min(singles.values())
    beats_random = all(v < 0.4 for v in results.values())
    elapsed = time.monotonic() - started
    summary = ", ".join(f"{n}={v:.4f}" for n, v in results.items())
    _report(4, ordering and beats_random and elapsed < 1800.0,
            f"mean mpr {summary}; combined < tags < best single: {ordering}; "
            f"all < 0.4: {beats_random}; {elapsed:.0f}s")


def test_criterion_5_text_variant_contract(word_table):
    profiles = [ContentProfile(id=f"m{i}", plot="alpha beta gamma delta",
                               year=1990 + i) for i in range(6)]
    context = fit_feature_context(profiles, word_table=word_table, min_tag_count=1)
    targets = {p.id: np.arange(3, dtype=np.float64) for p in profiles}
    config = TrainConfig(batch_size=2, word_dropout=0.0, dropout=0.0, l2=0.0,
                         learning_rate=0.01, max_epochs=1, patience=1,
                         val_fraction=0.0, seed=1)

    outcomes = {}
    for variant in ("static", "non-static"):
        spec = SystemSpec.named("CNN", output_dim=3, cnn_variant=variant,
                                cnn_filters=3, cnn_width=2, cnn_hidden=4,
                                combiner_hidden=5, text_length=6)
        model = build_model(spec, context, seed=0)
        bundles = [featurize_item(p, context, bundle_parts(spec))
                   for p in profiles]
        train(model, bundles, targets, config)
        outcomes[variant] = model.embedding

    static_ok = np.array_equal(outcomes["static"], word_table.vectors)
    changed = int(np.sum(np.any(outcomes["non-static"] != word_table.vectors,
                                axis=1)))
    _report(5, static_ok and changed >= 1,
            f"static table bit-identical: {static_ok}; non-static rows "
            f"changed after one epoch: {changed} (>= 1)")


def test_criterion_6_deterministic_evaluation(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main(["synth", "--items", "24", "--clusters", "3", "--dim", "6",
                     "--vocab-size", "12", "--set-count", "10", "--seed", "1",
                     "--out", str(data_dir)]) == 0

    def evaluate(tag):
        report = tmp_path / f"report_{tag}.tsv"
        report_json = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cb2cf.cli", "evaluate",
             "--systems", "Genres+Year",
             "--metadata", str(data_dir / "metadata.jsonl"),
             "--targets", str(data_dir / "vectors.vec"),
             "--folds", "3", "--min-tag-count", "1", "--ndcg-k", "2",
             "--batch", "4", "--max-epochs", "2", "--val-fraction", "0",
             "--word-dropout", "0", "--dropout", "0", "--seed", "0",
             "--report", str(report), "--report-json", str(report_json)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return report.read_bytes(), report_json.read_bytes()

    first = evaluate("a")
    second = evaluate("b")
    identical = first[0] == second[0] and first[1] == second[1]
    _report(6, identical,
            f"two evaluate runs byte-identical: {identical} "
            f"({len(first[0])} tsv bytes)")


def test_criterion_7_featurization_invariants():
    rng = np.random.default_rng(3)
    failures = []

    # BOW histograms stay on the probability simplex.
    for trial in range(30):
        words = [f"w{i}" for i in range(rng.integers(3, 9))]
        table = EmbeddingTable(words,
                               rng.standard_normal((len(words), 5)))
        centroids = Centroids(rng.standard_normal((int(rng.integers(2, 5)), 5)))
        tokens = list(rng.choice(words + ["oov"], size=int(rng.integers(1, 20))))
        hist = bow_histogram(tokens, centroids, table)
        if abs(float(hist.sum()) - 1.0) > 1e-9 or (hist < 0).any():
            failures.append(f"bow simplex broken on trial {trial}")
            break

    # The CNN's text rows are exactly zero past the item's words.
    text_spec = SystemSpec.named("CNN", output_dim=2, cnn_filters=2, cnn_width=3,
                                 cnn_hidden=2, combiner_hidden=2, text_length=8)
    for trial in range(20):
        words = [f"w{c}" for c in "abcdef"]
        table = EmbeddingTable(words, rng.standard_normal((6, 4)))
        n_words = int(rng.integers(0, 5))
        text = " ".join(rng.choice(words, size=n_words)) if n_words else None
        profile = ContentProfile(id="t", plot=text)
        context = fit_feature_context([profile], word_table=table)
        text_model = build_model(text_spec, context)
        bundle = featurize_item(profile, context, bundle_parts(text_spec))
        _, cache = forward_batch(text_model, stack_bundles(text_spec, [bundle]))
        _, _, _, (rows, _, _), _ = cache["text"]
        if not np.all(rows[len(bundle.text_indices):] == 0.0):
            failures.append(f"padding not zero on trial {trial}")
            break

    # Tag retention boundary: count 4 dropped, count 5 kept at min count 5.
    boundary = [ContentProfile(id=f"b{i}", genres=(["kept"] if i < 5 else [])
                               + (["dropped"] if i < 4 else []))
                for i in range(5)]
    vocab = fit_feature_context(boundary, min_tag_count=5).tag_vocab
    if "kept" not in vocab.index["genres"]:
        failures.append("count-5 tag was dropped")
    if "dropped" in vocab.index["genres"]:
        failures.append("count-4 tag was kept")

    # A rating of exactly 3.5 is not a liked item.
    histories = [UserHistory("u1", [("A", 3.5, 1), ("B", 4.0, 2),
                                    ("C", 4.0, 3)]),
                 UserHistory("u2", [("D", 4.0, 1)])]
    sets = cooccurrence_from_ratings(histories)
    if sets.sets != [("B", "C")]:
        failures.append(f"threshold rule broken: {sets.sets}")
    if sets.dropped != 1:
        failures.append(f"single-liked user not counted dropped: {sets.dropped}")

    _report(7, not failures, "; ".join(failures) or
            "bow simplex, zero padding, min-count boundary, strict >3.5, "
            "size-<2 discard all hold")


def test_criterion_8_planted_analogy_geometry():
    rng = np.random.default_rng(5)
    base = 3.0 + rng.random(6)
    u = 0.5 * rng.random(6)
    w = 0.5 * rng.random(6)

    tags = [f"g{i}{j}" for i in range(4) for j in range(4)]
    profiles = [ContentProfile(id=f"p{idx}", genres=[tag])
                for idx, tag in enumerate(tags)]
    context = fit_feature_context(profiles, min_tag_count=1)
    spec = SystemSpec.named("Genres", output_dim=2,
                            tag_hidden={"Genres": 6, "Actors": 6,
                                        "Director": 6, "Language": 6})
    model = build_model(spec, context, seed=0)
    weight = np.zeros((6, context.tag_vocab.size("genres")))
    for i in range(4):
        for j in range(4):
            col = context.tag_vocab.index["genres"][f"g{i}{j}"]
            weight[:, col] = base + i * u + j * w
    model.params["genres.weight"] = weight
    model.params["genres.bias"] = np.zeros(6)

    quadruples = [(0, 0, 1, 1), (0, 1, 2, 3), (1, 0, 3, 2), (2, 2, 0, 1),
                  (3, 3, 1, 0), (1, 2, 2, 0), (0, 3, 3, 1), (2, 1, 1, 3),
                  (3, 0, 0, 2), (1, 3, 3, 0)]
    hits = 0
    for i1, j1, i2, j2 in quadruples:
        a, b, c = f"g{i2}{j1}", f"g{i1}{j1}", f"g{i1}{j2}"
        expected = f"g{i2}{j2}"
        top, _ = analogy(model, "genres", a, b, c, topk=1)[0]
        hits += top == expected
    _report(8, hits == len(quadruples),
            f"planted analogies at rank 1: {hits}/{len(quadruples)}")


@pytest.mark.skipif(not os.environ.get("CB2CF_REAL_DATA"),
                    reason="CB2CF_REAL_DATA not set; manual smoke run only")
def test_criterion_9_real_data_smoke(tmp_path):
    source = os.environ["CB2CF_REAL_DATA"]
    ratings = os.path.join(source, "ratings.csv")
    metadata = os.path.join(source, "metadata.jsonl")
    vectors = tmp_path / "items.vec"
    ctx = tmp_path / "ctx.ckpt"
    model_path = tmp_path / "model.ckpt"
    report_json = tmp_path / "report.json"

    assert cli_main(["train-item2vec", "--ratings", ratings,
                     "--epochs", "20", "--out", str(vectors)]) == 0
    assert cli_main(["fit-features", "--metadata", metadata,
                     "--out", str(ctx)]) == 0
    assert cli_main(["train-model", "--system", "Tags",
                     "--features", str(ctx), "--metadata", metadata,
                     "--targets", str(vectors), "--max-epochs", "10",
                     "--out", str(model_path)]) == 0
    assert cli_main(["evaluate", "--systems", "Tags",
                     "--metadata", metadata, "--targets", str(vectors),
                     "--folds", "2", "--max-epochs", "10", "--ndcg-k", "10",
                     "--report", str(tmp_path / "report.tsv"),
                     "--report-json", str(report_json)]) == 0
    payload = json.loads(report_json.read_text())
    smoke_mpr = payload["systems"][0]["mean"]["mpr"]
    _report(9, smoke_mpr < 0.45,
            f"real-data chain completed, mean mpr {smoke_mpr:.4f} (< 0.45)")
