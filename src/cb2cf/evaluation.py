"""Rank-based evaluation of predicted CF vectors and the k-fold ablation
protocol.

The percentile rank of an item counts catalog items whose cosine to the
predicted vector strictly exceeds the cosine of the item's own original
vector, so ties favor the original; dividing by catalog size minus one puts
0 at a perfect retrieval and 0.5 at random. NDCG(K) retrieves the K most
similar catalog items to the prediction, scores each by its clamped cosine
to the item's original vector, discounts by 1/log2(rank+1), and normalizes
by the ideal ordering induced by the original vector itself. A zero-norm or
non-finite prediction ranks worst: percentile rank catalog size minus one
and NDCG 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .features import (DEFAULT_MIN_TAG_COUNT, DEFAULT_TEMPERATURE, Centroids,
                       check_min_tag_count, check_temperature, fit_feature_context,
                       featurize_item)
from .model import (SystemSpec, TrainConfig, _target_vector, build_model, bundle_parts,
                    predict, train)
from .net import check_count, check_seed, mse_loss
from .sgns import EmbeddingTable, cosine_scores, top_rows

DEFAULT_NDCG_KS = (10, 30, 50, 100, 200, 500, 1000)
REPORT_VERSION = 1


@dataclass
class FoldAssignment:
    assignment: dict[str, int]
    folds: int

    def items_in(self, fold: int) -> list[str]:
        if not 0 <= fold < self.folds:
            raise ValueError(f"fold {fold} outside 0..{self.folds - 1}")
        return sorted(i for i, f in self.assignment.items() if f == fold)

    def items_not_in(self, fold: int) -> list[str]:
        held_out = set(self.items_in(fold))
        return sorted(i for i in self.assignment if i not in held_out)


def check_folds(folds: int) -> None:
    check_count(folds, "folds", 2)


def make_folds(ids: Sequence[str], folds: int = 10, seed: int = 0) -> FoldAssignment:
    """Seeded shuffle then round-robin assignment, so fold sizes differ by
    at most one and a fixed seed reproduces the split exactly."""
    unique = sorted(set(ids))
    if len(unique) != len(ids):
        raise ValueError("duplicate ids")
    check_folds(folds)
    if len(unique) < folds:
        raise ValueError("fewer items than folds")
    shuffled = list(unique)
    np.random.default_rng(seed).shuffle(shuffled)
    return FoldAssignment({item: p % folds for p, item in enumerate(shuffled)}, folds)


def mse_metric(originals, predictions: Mapping[str, np.ndarray]) -> float:
    """Mean over items of ``net.mse_loss``, each row checked against its target first."""
    if not predictions:
        raise ValueError("no predictions")
    rows = [np.asarray(predicted, dtype=np.float64) for predicted in predictions.values()]
    targets = [_target_vector(originals, i, row.shape) for i, row in zip(predictions, rows)]
    losses, _ = mse_loss(np.stack(rows), np.stack(targets))
    return sum(losses.tolist()) / len(predictions)


def percentile_rank(item_id: str, predicted: np.ndarray,
                    catalog: EmbeddingTable) -> int:
    """Number of other catalog items strictly more similar to the predicted
    vector than the item's own original vector. A zero-norm or non-finite
    prediction takes the worst possible rank."""
    if item_id not in catalog:
        raise ValueError(f"item {item_id!r} not in catalog")
    if len(catalog) < 2:
        raise ValueError("catalog needs at least 2 items")
    scores = cosine_scores(predicted, catalog)
    if scores is None:
        return len(catalog) - 1
    return int(np.count_nonzero(scores > scores[catalog.index[item_id]]))


def mpr(predictions: Mapping[str, np.ndarray], catalog: EmbeddingTable) -> float:
    """Mean of percentile ranks normalized by catalog size minus one:
    0 is perfect, 0.5 is random."""
    if not predictions:
        raise ValueError("no predictions")
    denom = len(catalog) - 1
    total = sum(percentile_rank(i, v, catalog) for i, v in predictions.items())
    return total / (len(predictions) * denom)


def usable_cutoffs(ks: Sequence[int], catalog: EmbeddingTable) -> tuple[int, ...]:
    """The NDCG cutoffs in ``ks`` that rank within ``catalog``: 1 <= k <= len(catalog) - 1."""
    return tuple(k for k in ks if 1 <= k < len(catalog))


@lru_cache(maxsize=None)
def _discounts(n: int) -> np.ndarray:
    """log2(rank + 1) for ranks 1..n, from math.log2; read-only, as every
    caller shares it."""
    discounts = np.array([math.log2(position) for position in range(2, n + 2)])
    discounts.flags.writeable = False
    return discounts


def ndcg_at_cutoffs(item_id: str, predicted: np.ndarray, catalog: EmbeddingTable,
                    ks: Sequence[int]) -> list[float]:
    """NDCG at every cutoff in ``ks`` from one ranking to the largest: a
    cutoff's DCG is the running gain sum at that rank. Relevance of a
    retrieved item is its cosine to the original vector, clamped at zero;
    the ideal DCG sums every other item's gain in descending order. A
    zero-norm or non-finite prediction, or ideal gain below 1e-12, scores 0."""
    if item_id not in catalog:
        raise ValueError(f"item {item_id!r} not in catalog")
    if usable_cutoffs(ks, catalog) != tuple(ks):
        raise ValueError(f"k must be in 1..{len(catalog) - 1}")
    scores = cosine_scores(predicted, catalog)
    relevance = cosine_scores(catalog.get(item_id), catalog)
    if scores is None or relevance is None:
        return [0.0] * len(ks)

    def dcgs(gains: np.ndarray) -> list[float]:
        # np.cumsum adds left to right: the same bits as a running float sum.
        prefix = np.cumsum(np.where(gains > 0.0, gains, 0.0) / _discounts(len(gains)))
        return [float(prefix[k - 1]) for k in ks]

    top = max(ks, default=0)
    retrieved = relevance[top_rows(scores, catalog, top, exclude={item_id})]
    # Equal gains add the same terms in any order, so no tie-break is needed.
    ideal = np.sort(np.delete(relevance, catalog.index[item_id]))[::-1][:top]
    return [0.0 if idcg < 1e-12 else dcg / idcg
            for dcg, idcg in zip(dcgs(retrieved), dcgs(ideal))]


def ndcg_at_k(item_id: str, predicted: np.ndarray, catalog: EmbeddingTable,
              k: int) -> float:
    return ndcg_at_cutoffs(item_id, predicted, catalog, (k,))[0]


def mean_ndcg(predictions: Mapping[str, np.ndarray], catalog: EmbeddingTable,
              ks: Sequence[int]) -> dict[int, float]:
    """Mean NDCG over the predictions for every cutoff in ``ks``."""
    if not predictions:
        raise ValueError("no predictions")
    rows = [ndcg_at_cutoffs(i, v, catalog, ks) for i, v in predictions.items()]
    return {k: sum(row[j] for row in rows) / len(rows) for j, k in enumerate(ks)}


@dataclass
class FoldMetrics:
    fold: int | None  # None marks the cross-fold mean row
    mse: float
    mpr: float
    ndcg: dict[int, float]


@dataclass
class SystemReport:
    system: str
    folds: list[FoldMetrics]
    mean: FoldMetrics


@dataclass
class EvalDataset:
    """Profiles plus the full CF catalog they are scored against, and the
    corpus-level text assets shared by every fold."""

    profiles: list
    targets: EmbeddingTable
    word_table: EmbeddingTable | None = None
    centroids: Centroids | None = None


@dataclass(frozen=True)
class EvalSettings:
    """How an evaluation runs, besides its systems and data. Construction checks
    each value by the rule of the code that uses it; the cutoffs' range depends
    on the catalog, and is checked against it when the systems run."""

    config: TrainConfig
    folds: int = 10
    seed: int = 0
    ndcg_ks: tuple[int, ...] = DEFAULT_NDCG_KS
    min_tag_count: int = DEFAULT_MIN_TAG_COUNT
    temperature: float = DEFAULT_TEMPERATURE
    spec_overrides: Mapping | None = None

    def __post_init__(self) -> None:
        check_folds(self.folds)
        check_seed(self.seed)
        check_min_tag_count(self.min_tag_count)
        check_temperature(self.temperature)
        for key in ("components", "output_dim", "name"):
            if key in (self.spec_overrides or {}):
                raise ValueError(f"spec_overrides cannot set {key!r}: each system sets its own")
        SystemSpec(("Year",), **(self.spec_overrides or {}))  # rules that hold for every system
        ks = tuple(self.ndcg_ks)
        integers = {k for k in ks if isinstance(k, (int, np.integer)) and not isinstance(k, bool)}
        if len(integers) < len(ks):
            raise ValueError(f"ndcg cutoffs must be distinct integers, got {list(ks)}")
        object.__setattr__(self, "ndcg_ks", tuple(int(k) for k in ks))


@dataclass
class EvalReport:
    systems: list[SystemReport]
    ndcg_ks: tuple[int, ...]
    folds: int
    seed: int


Predictor = Callable[[list[str]], np.ndarray]


def _fold_seed(base: int, fold: int) -> int:
    return base + 1_000_003 * (fold + 1)


_worker_task: dict = {}  # a forked worker's fold task, set by the pool initializer


def _fold_workers(folds: int) -> int:
    """Processes for ``folds`` independent folds: one per usable CPU while this
    process runs one thread, else one. A fork copies no other thread (a BLAS
    pool, a caller's) but may copy a lock one holds, so no fold forks beside it."""
    import multiprocessing  # here and below: commands that never evaluate skip ~1.4 MB
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:  # no /proc: the other threads cannot be ruled out
        return 1
    if threads > 1 or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return min(folds, len(os.sched_getaffinity(0)))


def _run_fold(fold: int) -> list[FoldMetrics]:
    return _worker_task["fold"](fold)


def _map_folds(task: Callable[[int], list[FoldMetrics]], folds: int) -> list[list[FoldMetrics]]:
    """``task`` over folds 0..folds-1: in-process, or as ``_fold_workers``
    allows, in a pool whose workers all fork before its manager thread starts.
    Workers inherit ``task`` by the fork: only indices and metrics are sent."""
    workers = _fold_workers(folds)
    if workers == 1:
        return [task(fold) for fold in range(folds)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _worker_task.update, ({"fold": task},)) as pool:
        return list(pool.map(_run_fold, range(folds)))  # raises the first failed fold's error


def _run_systems(systems: Sequence[str], dataset: EvalDataset, folds: FoldAssignment,
                 settings: EvalSettings, predictor: Predictor | None = None) -> list[SystemReport]:
    """Every system, fold by fold. A fold fits its feature statistics on its
    training items only and featurizes each item once, with the parts of all
    systems; each system then trains from the fold's seed, and its held-out
    predictions are ranked against the full catalog."""
    catalog, config, ndcg_ks = dataset.targets, settings.config, settings.ndcg_ks
    if usable_cutoffs(ndcg_ks, catalog) != ndcg_ks:
        raise ValueError(f"ndcg cutoffs {list(ndcg_ks)} invalid for catalog of {len(catalog)}")
    specs = [SystemSpec.named(name, output_dim=catalog.dim, **(settings.spec_overrides or {}))
             for name in systems]
    by_id = {p.id: p for p in dataset.profiles}
    for item_id in folds.assignment:
        if item_id not in catalog:
            raise ValueError(f"fold item {item_id!r} has no target vector")
        if predictor is None and item_id not in by_id:
            raise ValueError(f"fold item {item_id!r} has no profile")
    if not specs:
        return []
    parts = set().union(*map(bundle_parts, specs))

    def fold_metrics(fold: int) -> list[FoldMetrics]:
        test_ids = folds.items_in(fold)
        if predictor is not None:
            predicted = [predictor(test_ids) for _ in specs]
        else:
            train_ids = folds.items_not_in(fold)
            context = fit_feature_context(
                [by_id[i] for i in train_ids],
                word_table=dataset.word_table, centroids=dataset.centroids,
                min_tag_count=settings.min_tag_count, temperature=settings.temperature)
            train_bundles = [featurize_item(by_id[i], context, parts) for i in train_ids]
            test_bundles = [featurize_item(by_id[i], context, parts) for i in test_ids]
            seed, predicted = _fold_seed(config.seed, fold), []
            for spec in specs:
                model = build_model(spec, context, seed=seed)
                train(model, train_bundles, catalog, replace(config, seed=seed))
                predicted.append(predict(model, test_bundles))
        by_system = [{item_id: vectors[i] for i, item_id in enumerate(test_ids)}
                     for vectors in predicted]
        return [FoldMetrics(fold, mse_metric(catalog, p), mpr(p, catalog),
                            mean_ndcg(p, catalog, ndcg_ks)) for p in by_system]

    _ = catalog._id_rank, catalog._cosine_rows  # cached once, before any fork
    reports = []
    for name, rows in zip(systems, zip(*_map_folds(fold_metrics, folds.folds))):
        mean_row = FoldMetrics(None, float(np.mean([r.mse for r in rows])),
                               float(np.mean([r.mpr for r in rows])),
                               {k: float(np.mean([r.ndcg[k] for r in rows])) for k in ndcg_ks})
        reports.append(SystemReport(name, list(rows), mean_row))
    return reports


def run_system(system: str, dataset: EvalDataset, folds: FoldAssignment,
               config: TrainConfig, *, predictor: Predictor | None = None,
               **settings) -> SystemReport:
    """Train and score the named system across all folds, in one pool of
    forked fold workers when the process runs one thread (``_fold_workers``).
    ``settings`` are the other fields of ``EvalSettings(config, **settings)``;
    the folds come drawn, so its ``seed`` goes unused.
    ``predictor`` replaces the model entirely (a testing hook mapping test
    ids to predicted vectors)."""
    return _run_systems([system], dataset, folds, EvalSettings(config, **settings),
                        predictor)[0]


def run_evaluation(systems: Sequence[str], dataset: EvalDataset,
                   settings: EvalSettings) -> EvalReport:
    """Run every named system over one shared fold assignment of the
    profiles, drawn by the settings' folds and seed, with one pool of fold
    workers for all of them. Each fold fits its feature context and
    featurizes its items once, and every system scores what it would score
    through ``run_system`` alone."""
    assignment = make_folds([p.id for p in dataset.profiles], settings.folds, settings.seed)
    return EvalReport(_run_systems(systems, dataset, assignment, settings),
                      settings.ndcg_ks, settings.folds, settings.seed)


def report_tsv(report: EvalReport) -> str:
    """Tab-separated rows: one per system and fold plus a mean row per
    system. Floats use repr so identical runs serialize identically."""
    header = ["system", "fold", "mse", "mpr"] + [f"ndcg@{k}" for k in report.ndcg_ks]
    lines = ["\t".join(header)]
    for sys_report in report.systems:
        for row in sys_report.folds + [sys_report.mean]:
            fold_label = "mean" if row.fold is None else str(row.fold)
            cells = [sys_report.system, fold_label, repr(row.mse), repr(row.mpr)]
            cells += [repr(row.ndcg[k]) for k in report.ndcg_ks]
            lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def report_json_dict(report: EvalReport) -> dict:
    def row_dict(row: FoldMetrics) -> dict:
        return {"mse": row.mse, "mpr": row.mpr,
                "ndcg": {str(k): row.ndcg[k] for k in report.ndcg_ks}}

    return {
        "version": REPORT_VERSION,
        "folds": report.folds,
        "seed": report.seed,
        "ndcg_ks": list(report.ndcg_ks),
        "systems": [
            {"system": s.system,
             "folds": [{"fold": r.fold, **row_dict(r)} for r in s.folds],
             "mean": row_dict(s.mean)}
            for s in report.systems
        ],
    }
