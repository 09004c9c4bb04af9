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
                       fit_feature_context, featurize_item)
from .model import (Cb2cfModel, SystemSpec, TrainConfig, _target_vector,
                    build_model, bundle_parts, predict, train)
from .sgns import EmbeddingTable, cosine_scores, top_rows

DEFAULT_NDCG_KS = (10, 30, 50, 100, 200, 500, 1000)
REPORT_VERSION = 1


@dataclass
class FoldAssignment:
    assignment: dict[str, int]
    folds: int
    seed: int

    def items_in(self, fold: int) -> list[str]:
        if not 0 <= fold < self.folds:
            raise ValueError(f"fold {fold} outside 0..{self.folds - 1}")
        return sorted(i for i, f in self.assignment.items() if f == fold)

    def items_not_in(self, fold: int) -> list[str]:
        if not 0 <= fold < self.folds:
            raise ValueError(f"fold {fold} outside 0..{self.folds - 1}")
        return sorted(i for i, f in self.assignment.items() if f != fold)


def make_folds(ids: Sequence[str], folds: int = 10, seed: int = 0) -> FoldAssignment:
    """Seeded shuffle then round-robin assignment, so fold sizes differ by
    at most one and a fixed seed reproduces the split exactly."""
    unique = sorted(set(ids))
    if len(unique) != len(ids):
        raise ValueError("duplicate ids")
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if len(unique) < folds:
        raise ValueError("fewer items than folds")
    shuffled = list(unique)
    np.random.default_rng(seed).shuffle(shuffled)
    return FoldAssignment({item: p % folds for p, item in enumerate(shuffled)},
                          folds, seed)


def mse_metric(originals, predictions: Mapping[str, np.ndarray]) -> float:
    """Mean over items of the per-coordinate mean squared difference."""
    if not predictions:
        raise ValueError("no predictions")
    total = 0.0
    for item_id, predicted in predictions.items():
        predicted = np.asarray(predicted, dtype=np.float64)
        diff = predicted - _target_vector(originals, item_id, predicted.shape)
        total += float(np.sum(diff * diff) / diff.size)
    return total / len(predictions)


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
    the ideal ranking orders the catalog by the original vector itself. A
    zero-norm or non-finite prediction, or ideal gain below 1e-12, scores 0."""
    if item_id not in catalog:
        raise ValueError(f"item {item_id!r} not in catalog")
    if not all(1 <= k <= len(catalog) - 1 for k in ks):
        raise ValueError(f"k must be in 1..{len(catalog) - 1}")
    scores = cosine_scores(predicted, catalog)
    relevance = cosine_scores(catalog.get(item_id), catalog)
    if scores is None or relevance is None:
        return [0.0] * len(ks)

    def dcgs(query_scores: np.ndarray) -> list[float]:
        gains = relevance[top_rows(query_scores, catalog, max(ks, default=0),
                                   exclude={item_id})]
        # np.cumsum adds left to right: the same bits as a running float sum.
        prefix = np.cumsum(np.where(gains > 0.0, gains, 0.0) / _discounts(len(gains)))
        return [float(prefix[k - 1]) for k in ks]

    return [0.0 if idcg < 1e-12 else dcg / idcg
            for dcg, idcg in zip(dcgs(scores), dcgs(relevance))]


def ndcg_at_k(item_id: str, predicted: np.ndarray, catalog: EmbeddingTable,
              k: int) -> float:
    return ndcg_at_cutoffs(item_id, predicted, catalog, (k,))[0]


def mean_ndcg_at(predictions: Mapping[str, np.ndarray], catalog: EmbeddingTable,
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


@dataclass
class EvalReport:
    systems: list[SystemReport]
    ndcg_ks: tuple[int, ...]
    folds: int
    seed: int


Predictor = Callable[[list[str]], np.ndarray]


def _fold_seed(base: int, fold: int) -> int:
    return base + 1_000_003 * (fold + 1)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
_worker_task: dict = {}  # a forked worker's fold task, set by the pool initializer


def _fold_workers(folds: int) -> int:
    """Processes for ``folds`` independent folds: the usable CPUs divided by
    the first BLAS thread count set. With none set, BLAS is taken to use
    every CPU, which leaves one process."""
    import multiprocessing  # here and below: commands that never evaluate skip ~1.4 MB
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    blas = next((int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS)
                 if v and v.strip().isdecimal() and int(v) > 0), cpus)
    return max(1, min(folds, cpus // blas))


def _run_fold(fold: int) -> FoldMetrics:
    return _worker_task["fold"](fold)


def _map_folds(task: Callable[[int], FoldMetrics], folds: int) -> list[FoldMetrics]:
    """``task`` over folds 0..folds-1, in-process or in a pool forked up front.
    Workers inherit ``task`` by the fork: only indices and metrics are sent."""
    workers = _fold_workers(folds)
    if workers == 1:
        return [task(fold) for fold in range(folds)]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             _worker_task.update, ({"fold": task},)) as pool:
        return list(pool.map(_run_fold, range(folds)))  # raises the first failed fold's error


def run_system(system: str | SystemSpec, dataset: EvalDataset,
               folds: FoldAssignment, config: TrainConfig, *,
               ndcg_ks: Sequence[int] = DEFAULT_NDCG_KS,
               min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
               temperature: float = DEFAULT_TEMPERATURE,
               spec_overrides: Mapping | None = None,
               predictor: Predictor | None = None) -> SystemReport:
    """Train and score one system across all folds.

    Every fold refits the item-dependent feature statistics on its training
    items only; predictions for the held-out items are ranked against the
    full catalog. ``predictor`` replaces the model entirely (a testing hook
    mapping test ids to predicted vectors). Folds run in forked processes
    when BLAS leaves CPUs idle (``_fold_workers``).
    """
    catalog = dataset.targets
    for k in ndcg_ks:
        if not 1 <= k <= len(catalog) - 1:
            raise ValueError(f"ndcg cutoff {k} invalid for catalog of {len(catalog)}")
    if isinstance(system, SystemSpec):
        spec = system
    else:
        spec = SystemSpec.named(system, output_dim=catalog.dim,
                                **(spec_overrides or {}))
    by_id = {p.id: p for p in dataset.profiles}
    for item_id in folds.assignment:
        if item_id not in catalog:
            raise ValueError(f"fold item {item_id!r} has no target vector")
        if predictor is None and item_id not in by_id:
            raise ValueError(f"fold item {item_id!r} has no profile")

    parts = bundle_parts(spec)

    def fold_metrics(fold: int) -> FoldMetrics:
        test_ids = folds.items_in(fold)
        if predictor is not None:
            predicted = predictor(test_ids)
        else:
            train_ids = folds.items_not_in(fold)
            context = fit_feature_context(
                [by_id[i] for i in train_ids],
                word_table=dataset.word_table, centroids=dataset.centroids,
                max_words=spec.text_length, min_tag_count=min_tag_count,
                temperature=temperature)
            train_bundles = [featurize_item(by_id[i], context, parts) for i in train_ids]
            test_bundles = [featurize_item(by_id[i], context, parts) for i in test_ids]
            seed = _fold_seed(config.seed, fold)
            model = build_model(spec, context, seed=seed)
            train(model, train_bundles, catalog, replace(config, seed=seed))
            predicted = predict(model, test_bundles)
        predictions = {item_id: predicted[i] for i, item_id in enumerate(test_ids)}
        return FoldMetrics(
            fold=fold,
            mse=mse_metric(catalog, predictions),
            mpr=mpr(predictions, catalog),
            ndcg=mean_ndcg_at(predictions, catalog, ndcg_ks),
        )

    _ = catalog._id_rank, catalog._cosine_rows  # cached once, before any fork
    fold_rows = _map_folds(fold_metrics, folds.folds)
    mean_row = FoldMetrics(
        fold=None,
        mse=float(np.mean([r.mse for r in fold_rows])),
        mpr=float(np.mean([r.mpr for r in fold_rows])),
        ndcg={k: float(np.mean([r.ndcg[k] for r in fold_rows])) for k in ndcg_ks},
    )
    name = spec.name if isinstance(system, SystemSpec) else system
    return SystemReport(name, fold_rows, mean_row)


def run_evaluation(systems: Sequence[str], dataset: EvalDataset,
                   config: TrainConfig, *, folds: int = 10, seed: int = 0,
                   ndcg_ks: Sequence[int] = DEFAULT_NDCG_KS,
                   min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
                   temperature: float = DEFAULT_TEMPERATURE,
                   spec_overrides: Mapping | None = None) -> EvalReport:
    """Run every named system over one shared fold assignment."""
    ids = [p.id for p in dataset.profiles]
    missing = [i for i in ids if i not in dataset.targets]
    if missing:
        raise ValueError(f"{len(missing)} profiles have no target vector "
                         f"(first: {missing[0]!r})")
    assignment = make_folds(ids, folds=folds, seed=seed)
    ks = tuple(ndcg_ks)
    reports = [run_system(name, dataset, assignment, config, ndcg_ks=ks,
                          min_tag_count=min_tag_count, temperature=temperature,
                          spec_overrides=spec_overrides)
               for name in systems]
    return EvalReport(reports, ks, folds, seed)


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
