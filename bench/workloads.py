"""The three benchmark workloads.

Each workload has a `setup` that generates its inputs from the seed (timed
as set-up, not as work) and an `op` that performs one timed operation
through the program's public entry points (`cb2cf.cli.main` and the `cb2cf`
API) and then applies the workload's correctness gate to its output,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cb2cf
from cb2cf import cli, evaluation, features, model, sgns

import inputs


@dataclass
class OpResult:
    seconds: float
    parts: dict[str, float] = field(default_factory=dict)  # named sub-timings
    failed: int = 0       # failed operations inside this op
    attempted: int = 1    # operations inside this op
    problems: list[str] = field(default_factory=list)


def _cli(argv: list[str]) -> tuple[int, float, str]:
    """Run `cb2cf.cli.main(argv)` with its output captured; returns the
    exit code, the wall seconds and the captured stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- embed ------------------------------------------------------------------

class Embed:
    """`cb2cf train-item2vec --ratings` then `cb2cf train-word2vec`."""

    name = "embed"
    ITEMS, CLUSTERS, USERS, LARGEST_SET = 300, 3, 300, 100
    SENTENCES = 1000
    ITEM_EPOCHS, WORD_EPOCHS = 60, 4
    PURITY_MIN = 0.9

    def __init__(self):
        # Kept across set-ups: every set-up writes the same inputs, so
        # every op must write the same vectors.
        self.digests: tuple[str, str] | None = None
        self.gate_values: dict = {}

    def setup(self, seed: int, directory: Path):
        self.seed = seed
        self.directory = directory
        self.inputs = inputs.generate_embed(
            seed, directory, items=self.ITEMS, clusters=self.CLUSTERS, users=self.USERS,
            largest_set=self.LARGEST_SET, sentences=self.SENTENCES)

    def descriptors(self) -> dict:
        return {**self.inputs.descriptors, "item_epochs": self.ITEM_EPOCHS,
                "word_epochs": self.WORD_EPOCHS}

    def timings(self, results: list[OpResult]):
        for part in ("item2vec_s", "word2vec_s"):
            yield part, [r.parts[part] for r in results], "s"

    def op(self, index: int) -> OpResult:
        items_out = self.directory / "items.vec"
        words_out = self.directory / "words.vec"
        item_code, item_s, item_err = _cli(
            ["train-item2vec", "--ratings", str(self.inputs.ratings), "--out", str(items_out),
             "--epochs", str(self.ITEM_EPOCHS), "--seed", str(self.seed)])
        word_code, word_s, word_err = _cli(
            ["train-word2vec", "--corpus", str(self.inputs.corpus), "--out", str(words_out),
             "--epochs", str(self.WORD_EPOCHS), "--seed", str(self.seed)])
        result = OpResult(item_s + word_s, {"item2vec_s": item_s, "word2vec_s": word_s},
                          attempted=2)
        for code, err, label in ((item_code, item_err, "train-item2vec"),
                                 (word_code, word_err, "train-word2vec")):
            if code != 0:
                result.failed += 1
                result.problems.append(f"{label} exited {code}: {err.strip()}")
        if result.failed:
            return result
        digests = (_digest(items_out), _digest(words_out))
        if self.digests is None:
            self.digests = digests
            result.problems += self._gate(items_out, words_out)
        elif digests != self.digests:
            result.problems.append("a repeated run with the same seed wrote different vectors")
        result.failed = min(2, len(result.problems))
        return result

    def _gate(self, items_out: Path, words_out: Path) -> list[str]:
        problems = []
        built = cb2cf.cooccurrence_from_ratings(cb2cf.load_ratings(self.inputs.ratings))
        if len(built.sets) != len(self.inputs.planted_sets):
            problems.append(f"{len(built.sets)} sets built from ratings, "
                            f"{len(self.inputs.planted_sets)} planted")
        elif sorted(built.sets) != self.inputs.planted_sets:
            problems.append("sets built from ratings differ from the planted sets")
        table = cb2cf.EmbeddingTable.load(items_out)
        planted_items = {i for s in self.inputs.planted_sets for i in s}
        if set(table.ids) != planted_items:
            problems.append(f"{len(table)} item vectors for {len(planted_items)} planted items")
        else:
            purity = neighbour_purity(table, self.inputs.clusters)
            self.gate_values["item_vector_purity"] = purity
            if purity < self.PURITY_MIN:
                problems.append(f"item vector cluster purity {purity:.3f} < {self.PURITY_MIN}")
        words = cb2cf.EmbeddingTable.load(words_out)
        if len(words) != self.inputs.corpus_vocabulary:
            problems.append(f"{len(words)} word vectors for "
                            f"{self.inputs.corpus_vocabulary} distinct corpus tokens")
        return problems


def neighbour_purity(table, clusters: dict[str, int]) -> float:
    """Share of items whose nearest other item by cosine is in the same
    planted cluster."""
    unit = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    labels = np.array([clusters[i] for i in table.ids])
    return float(np.mean(labels[np.argmax(sims, axis=1)] == labels))


# -- crossval ----------------------------------------------------------------

FULL_SYSTEM, BASELINE_SYSTEM = "CNN+BOW+Tags+Year", "Tags"


def crossval_problems(report: dict, required=(FULL_SYSTEM, BASELINE_SYSTEM)) -> list[str]:
    """The crossval gate on an evaluation report (the `--report-json`
    layout): every mean metric finite, MPR strictly inside (0, 0.5), every
    NDCG inside (0, 1], and the full system ranks better than tags alone."""
    problems = []
    mprs = {}
    for system in report["systems"]:
        name, mean = system["system"], system["mean"]
        values = [mean["mse"], mean["mpr"], *mean["ndcg"].values()]
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{name}: a mean metric is not finite")
            continue
        if not 0.0 < mean["mpr"] < 0.5:
            problems.append(f"{name}: MPR {mean['mpr']!r} outside (0, 0.5)")
        for k, v in mean["ndcg"].items():
            if not 0.0 < v <= 1.0:
                problems.append(f"{name}: NDCG@{k} {v!r} outside (0, 1]")
        mprs[name] = mean["mpr"]
    missing = [s for s in required if s not in {x["system"] for x in report["systems"]}]
    if missing:
        problems.append(f"report lacks systems {missing}")
    elif len(required) == 2 and required[0] in mprs and required[1] in mprs \
            and not mprs[required[0]] < mprs[required[1]]:
        problems.append(f"{required[0]} MPR {mprs[required[0]]:.4f} is not below "
                        f"{required[1]} MPR {mprs[required[1]]:.4f}")
    return problems


class Crossval:
    """`cb2cf evaluate --config` over the paper's ablation pair."""

    name = "crossval"
    CATALOG, ITEMS, CLUSTERS, WORD_DIM = 1200, 60, 10, 32
    SETTINGS = {
        "systems": f"{FULL_SYSTEM},{BASELINE_SYSTEM}",
        "folds": 2,
        "max_epochs": 6,
        "patience": 6,
        # A fold trains on 30 items: at the default batch of 32 that is one
        # Adam step per epoch, too few for the full system to beat Tags.
        "batch": 4,
    }

    def __init__(self):
        # Kept across set-ups, which all write the same inputs.
        self.first_report: bytes | None = None
        self.gate_values: dict = {}

    def setup(self, seed: int, directory: Path):
        self.inputs = inputs.generate_crossval(
            seed, directory, catalog=self.CATALOG, items=self.ITEMS, clusters=self.CLUSTERS,
            word_dim=self.WORD_DIM, settings=self.SETTINGS)

    def descriptors(self) -> dict:
        return {**self.inputs.descriptors, **self.SETTINGS}

    def timings(self, results: list[OpResult]):
        yield "crossval_s", [r.seconds for r in results], "s"

    def op(self, index: int) -> OpResult:
        code, seconds, err = _cli(["evaluate", "--config", str(self.inputs.config)])
        result = OpResult(seconds)
        if code != 0:
            result.failed = 1
            result.problems.append(f"evaluate exited {code}: {err.strip()}")
            return result
        raw = self.inputs.report.read_bytes()
        if self.first_report is None:
            self.first_report = raw
            report = json.loads(raw)
            self.gate_values = {s["system"] + ".mpr": s["mean"]["mpr"] for s in report["systems"]}
            result.problems += crossval_problems(report)
        elif raw != self.first_report:
            result.problems.append("a repeated evaluation wrote a different report")
        result.failed = 1 if result.problems else 0
        return result

    def self_check(self) -> list[str]:
        """The gate must reject all-NaN predictions pushed through
        `run_system(..., predictor=...)`."""
        ids = [p.id for p in self.inputs.profiles[:20]]
        folds = evaluation.make_folds(ids, folds=2, seed=0)
        dataset = evaluation.EvalDataset(self.inputs.profiles, self.inputs.targets)
        dim = self.inputs.targets.dim
        ks = tuple(k for k in evaluation.DEFAULT_NDCG_KS if k < len(self.inputs.targets))
        try:
            system = evaluation.run_system(
                BASELINE_SYSTEM, dataset, folds, model.TrainConfig(), ndcg_ks=ks,
                predictor=lambda test_ids: np.full((len(test_ids), dim), np.nan))
        except ValueError as exc:
            # Refusing non-finite predictions outright also rejects them;
            # any other error means the check did not run.
            if "finite" not in str(exc).lower() and "nan" not in str(exc).lower():
                return [f"self-check: run_system raised an unrelated error: {exc}"]
            self.gate_values["nan_self_check"] = f"run_system refused: {exc}"
            return []
        report = evaluation.report_json_dict(evaluation.EvalReport([system], ks, 2, 0))
        rejected = crossval_problems(report, required=(BASELINE_SYSTEM,))
        if rejected:
            self.gate_values["nan_self_check"] = "gate rejected: " + "; ".join(rejected)
            return []
        return ["self-check: the crossval gate accepted all-NaN predictions"]


# -- coldstart ---------------------------------------------------------------

class Coldstart:
    """Closed loop, one client, no think time: featurize a cold item,
    predict its CF vector, rank the catalog."""

    name = "coldstart"
    CATALOG, CLUSTERS, TRAIN_ITEMS, QUERIES, WORD_DIM = 20_000, 10, 32, 256, 100
    TOPK = 10

    def __init__(self):
        self.gate_values: dict = {}

    def setup(self, seed: int, directory: Path):
        gen = inputs.generate_coldstart(seed, catalog=self.CATALOG, clusters=self.CLUSTERS,
                                        train_items=self.TRAIN_ITEMS, queries=self.QUERIES,
                                        word_dim=self.WORD_DIM)
        centroids = cb2cf.fit_kmeans(gen.word_table.vectors, 250, seed=seed)
        context = cb2cf.fit_feature_context(gen.train_profiles, word_table=gen.word_table,
                                            centroids=centroids)
        spec = cb2cf.SystemSpec.named(FULL_SYSTEM, output_dim=gen.catalog.dim)
        net_model = cb2cf.build_model(spec, context, seed=seed)
        parts = model.bundle_parts(spec)
        bundles = [cb2cf.featurize_item(p, context, parts) for p in gen.train_profiles]
        cb2cf.train(net_model, bundles, gen.catalog, cb2cf.TrainConfig(max_epochs=1, seed=seed))
        features.save_feature_context(context, directory / "features")
        cb2cf.save_model(net_model, directory / "model.bin", features_ref="features")
        self.model = cb2cf.load_model(directory / "model.bin")
        self.parts = model.bundle_parts(self.model.spec)
        self.catalog = gen.catalog
        self.queries = gen.queries
        self._descriptors = gen.descriptors
        vectors = self.catalog.vectors
        self._norms = np.linalg.norm(vectors, axis=1)
        self._id_rank = np.argsort(np.argsort(np.array(self.catalog.ids)))

    def descriptors(self) -> dict:
        return {**self._descriptors, "system": self.model.spec.name,
                "text_length": self.model.spec.text_length, "topk": self.TOPK}

    def timings(self, results: list[OpResult]):
        yield "query_p50_ms", [r.seconds * 1e3 for r in results], "ms"

    def op(self, index: int) -> OpResult:
        query = self.queries[index % len(self.queries)]
        start = time.perf_counter()
        bundle = features.featurize_item(query, self.model.features, self.parts)
        predicted = model.predict(self.model, [bundle])[0]
        top = sgns.similarity_search(predicted, self.catalog, self.TOPK)
        seconds = time.perf_counter() - start
        result = OpResult(seconds)
        result.problems = self._gate(predicted, top)
        result.failed = 1 if result.problems else 0
        return result

    def _gate(self, predicted: np.ndarray, top) -> list[str]:
        if not np.all(np.isfinite(predicted)):
            return ["prediction is not finite"]
        vectors = self.catalog.vectors
        sims = (vectors @ predicted) / (self._norms * float(np.linalg.norm(predicted)))
        order = np.lexsort((self._id_rank, -sims))[: self.TOPK]
        expected = [self.catalog.ids[i] for i in order]
        got = [item_id for item_id, _ in top]
        if got != expected:
            return [f"top-{self.TOPK} {got} differs from the reference {expected}"]
        if not np.allclose([s for _, s in top], sims[order], rtol=0, atol=1e-9):
            return ["top-k scores differ from the reference cosines"]
        return []


WORKLOADS = {w.name: w for w in (Embed, Crossval, Coldstart)}
