import concurrent.futures
import dataclasses
import json
import math
import multiprocessing
import os
import re
import threading
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cb2cf import evaluation
from cb2cf.data import ContentProfile
from cb2cf.evaluation import (DEFAULT_NDCG_KS, EvalDataset, EvalReport, EvalSettings,
                              make_folds, mean_ndcg, mpr, mse_metric, ndcg_at_k,
                              percentile_rank, report_json_dict, report_tsv,
                              run_evaluation, run_system)
from cb2cf.features import fit_kmeans
from cb2cf.model import TrainConfig
from cb2cf.sgns import EmbeddingTable, cosine_scores, top_rows
from process_helpers import fresh_python


class TestMakeFolds:
    def test_one_item_per_fold_when_counts_match(self):
        ids = [f"m{i}" for i in range(10)]
        assignment = make_folds(ids, folds=10, seed=0)
        sizes = [len(assignment.items_in(f)) for f in range(10)]
        assert sizes == [1] * 10

    def test_sizes_differ_by_at_most_one(self):
        ids = [f"m{i:02d}" for i in range(23)]
        assignment = make_folds(ids, folds=10, seed=3)
        sizes = sorted(len(assignment.items_in(f)) for f in range(10))
        assert sizes == [2] * 7 + [3] * 3

    def test_folds_partition_the_ids(self):
        ids = [f"m{i:02d}" for i in range(17)]
        assignment = make_folds(ids, folds=5, seed=1)
        seen = [i for f in range(5) for i in assignment.items_in(f)]
        assert sorted(seen) == sorted(ids)
        for f in range(5):
            inside = set(assignment.items_in(f))
            outside = set(assignment.items_not_in(f))
            assert inside | outside == set(ids)
            assert inside & outside == set()

    def test_membership_lists_are_sorted(self):
        assignment = make_folds([f"m{i:02d}" for i in range(12)],
                                folds=3, seed=2)
        for f in range(3):
            assert assignment.items_in(f) == sorted(assignment.items_in(f))
            assert assignment.items_not_in(f) == \
                sorted(assignment.items_not_in(f))

    def test_same_seed_same_split_different_seed_differs(self):
        ids = [f"m{i:02d}" for i in range(30)]
        first = make_folds(ids, folds=10, seed=7)
        second = make_folds(ids, folds=10, seed=7)
        assert first.assignment == second.assignment
        third = make_folds(ids, folds=10, seed=8)
        assert third.assignment != first.assignment

    def test_input_order_does_not_matter(self):
        ids = [f"m{i:02d}" for i in range(15)]
        forward_order = make_folds(ids, folds=5, seed=4)
        reverse_order = make_folds(list(reversed(ids)), folds=5, seed=4)
        assert forward_order.assignment == reverse_order.assignment

    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_folds(["a", "b", "a"], folds=2)
        with pytest.raises(ValueError, match="fewer items"):
            make_folds(["a", "b"], folds=3)
        with pytest.raises(ValueError, match="folds"):
            make_folds(["a", "b"], folds=1)
        assignment = make_folds(["a", "b", "c"], folds=2)
        with pytest.raises(ValueError):
            assignment.items_in(2)
        with pytest.raises(ValueError):
            assignment.items_not_in(-1)


def _catalog():
    inv = 1.0 / math.sqrt(2.0)
    return EmbeddingTable(
        ["a", "b", "c", "d"],
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [inv, inv]]))


class TestPercentileRank:
    def test_hand_computed_case(self):
        # cos to (0, 1): a 0, b 1, c 0, d 1/sqrt(2); two beat a's own 0.
        assert percentile_rank("a", np.array([0.0, 1.0]), _catalog()) == 2

    def test_exact_prediction_is_rank_zero(self):
        catalog = _catalog()
        for item_id in catalog.ids:
            assert percentile_rank(item_id, catalog.get(item_id), catalog) == 0

    def test_ties_favor_the_original(self):
        catalog = EmbeddingTable(
            ["a", "b", "c"],
            np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        # b has the same cosine as a itself; not strictly greater.
        assert percentile_rank("a", np.array([2.0, 0.0]), catalog) == 0

    def test_matches_a_plain_loop_on_random_vectors(self):
        rng = np.random.default_rng(12)
        ids = [f"m{i}" for i in range(6)]
        catalog = EmbeddingTable(ids, rng.standard_normal((6, 4)))
        for item_id in ids:
            predicted = rng.standard_normal(4)

            def cos(u, v):
                return float(np.dot(u, v)
                             / (np.linalg.norm(u) * np.linalg.norm(v)))

            own = cos(predicted, catalog.get(item_id))
            expected = sum(1 for other in ids if other != item_id
                           and cos(predicted, catalog.get(other)) > own)
            assert percentile_rank(item_id, predicted, catalog) == expected

    def test_zero_prediction_takes_the_worst_rank(self):
        assert percentile_rank("a", np.zeros(2), _catalog()) == 3

    def test_scale_invariance(self):
        catalog = _catalog()
        predicted = np.array([0.3, -0.9])
        assert percentile_rank("b", predicted, catalog) == \
            percentile_rank("b", 7.5 * predicted, catalog)

    def test_validation(self):
        catalog = _catalog()
        with pytest.raises(ValueError, match="not in catalog"):
            percentile_rank("z", np.array([1.0, 0.0]), catalog)
        with pytest.raises(ValueError, match="dimension"):
            percentile_rank("a", np.array([1.0, 0.0, 0.0]), catalog)
        tiny = EmbeddingTable(["only"], np.ones((1, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            percentile_rank("only", np.ones(2), tiny)


class TestMpr:
    def test_identity_predictions_score_zero(self):
        catalog = _catalog()
        predictions = {i: catalog.get(i) for i in catalog.ids}
        assert mpr(predictions, catalog) == 0.0

    def test_mean_of_normalized_ranks(self):
        catalog = _catalog()
        predictions = {"a": np.array([0.0, 1.0]),   # rank 2
                       "b": catalog.get("b")}        # rank 0
        assert mpr(predictions, catalog) == pytest.approx((2 + 0) / (2 * 3))

    def test_empty_predictions_rejected(self):
        with pytest.raises(ValueError):
            mpr({}, _catalog())


def _reference_ndcg(item_id, predicted, catalog, k):
    """Plain-loop NDCG: rank by cosine with ascending-id tie break."""
    def cos(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu == 0.0 or nv == 0.0:
            return -1.0
        return float(np.dot(u, v) / (nu * nv))

    original = catalog.get(item_id)
    others = [i for i in catalog.ids if i != item_id]

    def top(query):
        ranked = sorted(others, key=lambda i: (-cos(query, catalog.get(i)), i))
        return ranked[:k]

    def dcg(ranked):
        return sum(max(0.0, cos(catalog.get(i), original))
                   / math.log2(pos + 1)
                   for pos, i in enumerate(ranked, start=1))

    idcg = dcg(top(original))
    if idcg < 1e-12:
        return 0.0
    return dcg(top(predicted)) / idcg


class TestNdcg:
    def test_identity_predictions_score_one(self):
        rng = np.random.default_rng(2)
        ids = [f"m{i}" for i in range(8)]
        catalog = EmbeddingTable(ids, rng.random((8, 3)) + 0.1)
        for item_id in ids:
            for k in (1, 3, 7):
                assert ndcg_at_k(item_id, catalog.get(item_id),
                                 catalog, k) == 1.0

    def test_matches_a_plain_loop_on_random_vectors(self):
        rng = np.random.default_rng(6)
        ids = [f"m{i}" for i in range(8)]
        catalog = EmbeddingTable(ids, rng.standard_normal((8, 5)))
        for item_id in ids[:4]:
            predicted = rng.standard_normal(5)
            for k in (1, 2, 5, 7):
                expected = _reference_ndcg(item_id, predicted, catalog, k)
                assert ndcg_at_k(item_id, predicted, catalog, k) == \
                    pytest.approx(expected, abs=1e-12)

    def test_sorted_ideal_gains_match_a_tie_broken_ideal_ranking_bit_for_bit(self):
        def two_rankings(item_id, predicted, catalog, ks):
            """NDCG with the ideal DCG taken from a second, tie-broken ranking."""
            relevance = cosine_scores(catalog.get(item_id), catalog)
            scores = cosine_scores(predicted, catalog)
            if scores is None or relevance is None:
                return [0.0] * len(ks)

            def dcgs(query):
                gains = relevance[top_rows(query, catalog, max(ks), exclude={item_id})]
                gains = np.where(gains > 0.0, gains, 0.0)
                return np.cumsum(gains / evaluation._discounts(len(gains)))[np.array(ks) - 1]

            return [0.0 if i < 1e-12 else float(d / i)
                    for d, i in zip(dcgs(scores), dcgs(relevance))]

        rng = np.random.default_rng(12)
        ids = [f"m{i:02d}" for i in range(40)]
        catalog = EmbeddingTable(ids, np.round(rng.standard_normal((40, 3))))  # many ties
        ks = (1, 2, 5, 17, 39)
        for item_id in ids:
            predicted = np.round(rng.standard_normal(3))
            assert evaluation.ndcg_at_cutoffs(item_id, predicted, catalog, ks) == \
                two_rankings(item_id, predicted, catalog, ks)

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        ids = [f"m{i}" for i in range(6)]
        catalog = EmbeddingTable(ids, rng.standard_normal((6, 4)))
        predicted = rng.standard_normal(4)
        assert ndcg_at_k("m2", predicted, catalog, 3) == \
            ndcg_at_k("m2", 0.25 * predicted, catalog, 3)

    def test_zero_prediction_scores_zero(self):
        assert ndcg_at_k("a", np.zeros(2), _catalog(), 2) == 0.0

    def test_k_bounds(self):
        catalog = _catalog()
        assert evaluation.usable_cutoffs((0, 3, 1, 4, -1, 2), catalog) == (3, 1, 2)
        with pytest.raises(ValueError, match="k must be"):
            ndcg_at_k("a", np.ones(2), catalog, 0)
        with pytest.raises(ValueError, match="k must be"):
            ndcg_at_k("a", np.ones(2), catalog, 4)

    def test_mean_ndcg_is_the_average(self):
        catalog = _catalog()
        predictions = {"a": np.array([1.0, 0.2]), "b": np.array([0.1, 1.0])}
        expected = (ndcg_at_k("a", predictions["a"], catalog, 2)
                    + ndcg_at_k("b", predictions["b"], catalog, 2)) / 2
        assert mean_ndcg(predictions, catalog, (2,))[2] == pytest.approx(expected)


def test_non_finite_predictions_rank_worst():
    rng = np.random.default_rng(50)
    ids = [f"m{i:02d}" for i in range(50)]
    catalog = EmbeddingTable(ids, rng.standard_normal((50, 8)))
    all_nan = {i: np.full(8, np.nan) for i in ids}
    assert mpr(all_nan, catalog) == 1.0
    assert mean_ndcg(all_nan, catalog, (5,))[5] == 0.0
    infinite = np.array([np.inf] + [1.0] * 7)
    assert percentile_rank("m00", infinite, catalog) == 49
    assert ndcg_at_k("m00", infinite, catalog, 5) == 0.0


class TestMseMetric:
    def test_hand_computed_value(self):
        catalog = EmbeddingTable(["a", "b"],
                                 np.array([[1.0, 1.0], [0.0, 0.0]]))
        predictions = {"a": np.array([2.0, 1.0]),   # per-item mse 0.5
                       "b": np.array([0.0, 2.0])}   # per-item mse 2.0
        assert mse_metric(catalog, predictions) == pytest.approx(1.25)

    def test_accepts_a_plain_mapping_of_originals(self):
        originals = {"a": np.array([1.0, 0.0])}
        predictions = {"a": np.array([0.0, 0.0])}
        assert mse_metric(originals, predictions) == pytest.approx(0.5)

    def test_validation(self):
        catalog = _catalog()
        with pytest.raises(ValueError, match="no predictions"):
            mse_metric(catalog, {})
        with pytest.raises(ValueError, match="shape"):
            mse_metric(catalog, {"a": np.ones(3)})
        with pytest.raises(ValueError, match="no target vector"):
            mse_metric(catalog, {"z": np.ones(2)})
        with pytest.raises(ValueError, match=r"^target for 'b' has shape \(2,\), expected \(3,\)$"):
            mse_metric(catalog, {"a": np.ones(2), "b": np.ones(3)})

    def test_plain_mapping_without_the_item_is_rejected(self):
        with pytest.raises(ValueError, match="no target vector for item 'z'"):
            mse_metric({"a": np.ones(2)}, {"z": np.ones(2)})

    def test_equals_the_per_item_loop_bit_for_bit(self):
        """The stacked ``net.mse_loss`` form against the per-item sum it replaced."""
        rng = np.random.default_rng(23)
        for _ in range(300):
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, 70))
            scale = 10.0 ** rng.integers(-4, 5)
            catalog = EmbeddingTable([f"i{j}" for j in range(n)],
                                     scale * rng.standard_normal((n, dim)))
            predictions = {item_id: scale * rng.standard_normal(dim)
                           for item_id in catalog.ids if rng.random() < 0.7} or \
                {"i0": rng.standard_normal(dim)}
            total = 0.0
            for item_id, predicted in predictions.items():
                diff = predicted - catalog.get(item_id)
                total += float(np.sum(diff * diff) / diff.size)
            assert mse_metric(catalog, predictions) == total / len(predictions)


def _tagged_dataset(n=9, dim=3, seed=0):
    genres = ["action", "drama", "noir"]
    profiles = [ContentProfile(id=f"m{i:02d}", genres=[genres[i % 3]],
                               year=1970 + 2 * i) for i in range(n)]
    rng = np.random.default_rng(seed)
    targets = EmbeddingTable([p.id for p in profiles],
                             rng.standard_normal((n, dim)))
    return EvalDataset(profiles=profiles, targets=targets)


def _text_dataset(n=9, dim=3):
    """``_tagged_dataset`` with plots over a small word table and its
    centroids, so text and BOW systems can featurize."""
    dataset = _tagged_dataset(n, dim)
    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "omega", "sigma"]
    dataset.word_table = EmbeddingTable(words, rng.standard_normal((len(words), 4)))
    dataset.centroids = fit_kmeans(dataset.word_table.vectors, 2, seed=0)
    for i, profile in enumerate(dataset.profiles):
        profile.plot = " ".join(words[(i + j) % len(words)] for j in range(3 + i % 4))
    return dataset


def _quick_config():
    return TrainConfig(batch_size=4, word_dropout=0.0, dropout=0.0, l2=0.0,
                       learning_rate=0.01, max_epochs=2, patience=5,
                       val_fraction=0.0, seed=0)


def _settings(**fields):
    return EvalSettings(_quick_config(), **fields)


class TestEvalSettings:
    def test_defaults_are_those_the_evaluation_signatures_had(self):
        settings = EvalSettings(_quick_config())
        assert (settings.folds, settings.seed, settings.ndcg_ks, settings.min_tag_count,
                settings.temperature, settings.spec_overrides) \
            == (10, 0, (10, 30, 50, 100, 200, 500, 1000), 5, 0.1, None)
        assert EvalSettings(_quick_config(), ndcg_ks=[2, 4]).ndcg_ks == (2, 4)

    @pytest.mark.parametrize("field, value, message", [
        ("folds", 1, "folds must be >= 2"),
        ("folds", 0, "folds must be >= 2"),
        ("min_tag_count", 0, "min_count must be >= 1"),
        ("temperature", 0.0, "temperature must be positive and finite"),
        ("temperature", math.nan, "temperature must be positive and finite"),
        ("temperature", math.inf, "temperature must be positive and finite"),
        ("spec_overrides", {"text_length": 0}, "text_length must be an integer >= 1"),
        ("spec_overrides", {"text_length": 2}, "cnn_width exceeds text_length"),
        ("spec_overrides", {"cnn_variant": "dynamic"}, "cnn_variant must be one of"),
        ("spec_overrides", {"output_dim": 3}, "spec_overrides cannot set 'output_dim'"),
        ("spec_overrides", {"name": "Year"}, "spec_overrides cannot set 'name'"),
        ("spec_overrides", {"components": ("Year",)}, "spec_overrides cannot set 'components'"),
        ("seed", -1, "seed must be >= 0"),
    ])
    def test_each_bad_field_raises(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            EvalSettings(_quick_config(), **{field: value})
        if field == "folds":  # run_system takes its folds drawn
            return
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            run_system("Year", _tagged_dataset(), make_folds(["a", "b"], 2), _quick_config(),
                       predictor=lambda ids: pytest.fail("a fold ran"), **{field: value})

    def test_is_frozen(self):
        settings = EvalSettings(_quick_config())
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.temperature = 1.0
        assert settings == EvalSettings(_quick_config())


class TestRunSystem:
    def test_perfect_predictor_hits_the_metric_optima(self):
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=0)

        def oracle(test_ids):
            return np.stack([dataset.targets.get(i) for i in test_ids])

        report = run_system("Genres+Year", dataset, folds, _quick_config(),
                            ndcg_ks=(2,), predictor=oracle)
        assert report.system == "Genres+Year"
        assert [r.fold for r in report.folds] == [0, 1, 2]
        assert report.mean.fold is None
        for row in report.folds + [report.mean]:
            assert row.mse == 0.0
            assert row.mpr == 0.0
            assert row.ndcg[2] == 1.0

    def test_trained_runs_are_deterministic(self):
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=1)
        reports = [run_system("Genres+Year", dataset, folds, _quick_config(),
                              ndcg_ks=(2,), min_tag_count=1)
                   for _ in range(2)]
        for first, second in zip(reports[0].folds, reports[1].folds):
            assert first.mse == second.mse
            assert first.mpr == second.mpr
            assert first.ndcg == second.ndcg

    def test_fold_metrics_average_into_the_mean_row(self):
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=2)
        report = run_system("Year", dataset, folds, _quick_config(),
                            ndcg_ks=(2,), min_tag_count=1)
        assert report.mean.mse == pytest.approx(
            np.mean([r.mse for r in report.folds]))
        assert report.mean.mpr == pytest.approx(
            np.mean([r.mpr for r in report.folds]))
        assert report.mean.ndcg[2] == pytest.approx(
            np.mean([r.ndcg[2] for r in report.folds]))

    def test_validation_errors(self):
        dataset = _tagged_dataset()
        ids = [p.id for p in dataset.profiles]
        folds = make_folds(ids, folds=3, seed=0)
        with pytest.raises(ValueError, match="ndcg cutoff"):
            run_system("Year", dataset, folds, _quick_config(),
                       ndcg_ks=(len(ids),))
        orphan_folds = make_folds(ids + ["ghost"], folds=3, seed=0)
        with pytest.raises(ValueError, match="no target"):
            run_system("Year", dataset, orphan_folds, _quick_config(),
                       ndcg_ks=(2,))
        short = EvalDataset(profiles=dataset.profiles[:-1],
                            targets=dataset.targets)
        with pytest.raises(ValueError, match="no profile"):
            run_system("Year", short, folds, _quick_config(), ndcg_ks=(2,))


class TestRunEvaluationReports:
    def _report(self):
        dataset = _tagged_dataset()
        return run_evaluation(["Genres+Year", "Year"], dataset,
                              _settings(folds=3, seed=4, ndcg_ks=(2, 4), min_tag_count=1))

    def test_rerun_serializes_byte_identically(self):
        first = report_tsv(self._report())
        second = report_tsv(self._report())
        assert first == second

    def test_tsv_layout_and_parse_back(self):
        report = self._report()
        text = report_tsv(report)
        lines = text.splitlines()
        assert lines[0] == "system\tfold\tmse\tmpr\tndcg@2\tndcg@4"
        # 2 systems x (3 folds + 1 mean row).
        assert len(lines) == 1 + 2 * 4
        assert text.endswith("\n")
        row = lines[1].split("\t")
        assert row[0] == "Genres+Year"
        assert row[1] == "0"
        assert float(row[2]) == report.systems[0].folds[0].mse
        assert float(row[3]) == report.systems[0].folds[0].mpr
        assert float(row[4]) == report.systems[0].folds[0].ndcg[2]
        mean_row = lines[4].split("\t")
        assert mean_row[1] == "mean"
        assert float(mean_row[2]) == report.systems[0].mean.mse

    def test_json_dict_structure(self):
        report = self._report()
        payload = report_json_dict(report)
        assert payload["version"] == 1
        assert payload["folds"] == 3
        assert payload["seed"] == 4
        assert payload["ndcg_ks"] == [2, 4]
        assert [s["system"] for s in payload["systems"]] == \
            ["Genres+Year", "Year"]
        first = payload["systems"][0]
        assert [f["fold"] for f in first["folds"]] == [0, 1, 2]
        assert set(first["mean"]["ndcg"]) == {"2", "4"}
        assert first["folds"][0]["mse"] == report.systems[0].folds[0].mse

    def test_missing_targets_are_rejected(self):
        dataset = _tagged_dataset()
        trimmed = EmbeddingTable(dataset.targets.ids[:-1],
                                 dataset.targets.vectors[:-1])
        broken = EvalDataset(profiles=dataset.profiles, targets=trimmed)
        with pytest.raises(ValueError, match="no target"):
            run_evaluation(["Year"], broken, _settings(folds=3, ndcg_ks=(2,)))


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs this process may use and how many threads
    ``/proc/self/task`` lists: one, as in a process whose BLAS is pinned to
    one thread, unless the test says otherwise (``None``: it cannot be read)."""
    listdir = os.listdir

    def use(count, threads=1):
        def fake_listdir(path="."):
            if path != "/proc/self/task":
                return listdir(path)
            if threads is None:
                raise FileNotFoundError(path)
            return [str(t) for t in range(threads)]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                            raising=False)
        monkeypatch.setattr(os, "listdir", fake_listdir)
    return use


class TestFoldWorkers:
    def test_unset_blas_threads_leave_one_worker(self, cpus):
        cpus(2, threads=2)  # numpy loaded unpinned: its BLAS pool runs beside the main thread
        assert evaluation._fold_workers(10) == 1

    def test_one_blas_thread_per_cpu(self, cpus):
        cpus(2)
        assert evaluation._fold_workers(10) == 2

    def test_fewer_folds_than_cpus(self, cpus):
        cpus(8)
        assert evaluation._fold_workers(3) == 3

    def test_an_unreadable_proc_runs_serially(self, cpus):
        cpus(3)
        assert evaluation._fold_workers(2) == 2
        cpus(3, threads=None)
        assert evaluation._fold_workers(2) == 1

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods()
                        or not os.path.isdir("/proc/self/task"),
                        reason="needs fork and a /proc that lists threads")
    def test_a_second_live_thread_leaves_one_worker(self):
        """A fresh interpreter, whose BLAS the package pins to one thread,
        forks a worker per CPU until a ``threading.Thread`` starts."""
        out = fresh_python(
            "-c",
            "import os, threading\n"
            "os.sched_getaffinity = lambda pid: set(range(4))\n"
            "from cb2cf import evaluation\n"
            "alone = evaluation._fold_workers(10)\n"
            "threading.Thread(target=threading.Event().wait, daemon=True).start()\n"
            "print(alone, evaluation._fold_workers(10))\n")
        assert out.split() == ["4", "1"]

    def test_no_fork_start_method_runs_serially(self, cpus, monkeypatch):
        cpus(8)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert evaluation._fold_workers(10) == 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="folds fork only where fork is a start method")
class TestFoldPool:
    """The serial path (1 CPU) against the pool (3 CPUs, 3 workers)."""

    @pytest.fixture(params=[1, 3], ids=["serial", "pool"])
    def workers(self, request, cpus):
        cpus(request.param)
        assert evaluation._fold_workers(3) == request.param
        threads = threading.active_count()
        yield request.param
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads  # the next fork is as safe as this one

    @staticmethod
    def _report_bytes():
        report = run_evaluation(["Genres+Year", "Year"], _tagged_dataset(),
                                _settings(folds=3, seed=4, ndcg_ks=(2, 4), min_tag_count=1))
        return json.dumps(report_json_dict(report)), report_tsv(report)

    def test_pool_reports_equal_serial_reports(self, cpus):
        cpus(1)
        serial = self._report_bytes()
        cpus(3)
        assert evaluation._fold_workers(3) == 3
        assert self._report_bytes() == serial
        assert multiprocessing.active_children() == []

    def test_each_fold_runs_in_a_worker_process(self, workers, tmp_path):
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=0)

        def oracle(test_ids):
            (tmp_path / test_ids[0]).write_text(str(os.getpid()))
            return np.stack([dataset.targets.get(i) for i in test_ids])

        report = run_system("Year", dataset, folds, _quick_config(), ndcg_ks=(2,),
                            predictor=oracle)
        assert [r.mpr for r in report.folds] == [0.0, 0.0, 0.0]
        pids = {p.read_text() for p in tmp_path.iterdir()}
        assert len(list(tmp_path.iterdir())) == 3
        if workers == 1:
            assert pids == {str(os.getpid())}
        else:
            assert str(os.getpid()) not in pids

    def test_a_fold_that_fails_in_training_raises_its_error(self, workers):
        dataset = _tagged_dataset()  # no word table, so a text system cannot featurize
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=0)
        with pytest.raises(ValueError, match="^text features requested but the context "
                                             "has no word table$"):
            run_system("CNN+Year", dataset, folds, _quick_config(), ndcg_ks=(2,),
                       min_tag_count=1)

    def test_the_lowest_failing_fold_raises_even_when_it_fails_last(self, workers):
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=0)
        first = folds.items_in(0)[0]

        def predictor(test_ids):
            if test_ids[0] == first:
                time.sleep(0.3)
            raise ValueError(f"no prediction for {test_ids[0]}")

        with pytest.raises(ValueError, match=f"^no prediction for {first}$"):
            run_system("Year", dataset, folds, _quick_config(), ndcg_ks=(2,),
                       predictor=predictor)

    def test_a_worker_that_dies_fails_the_call(self, cpus):
        cpus(3)
        assert evaluation._fold_workers(3) == 3  # in-process, the dying fold would end the run
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=0)
        with pytest.raises(BrokenProcessPool):
            run_system("Year", dataset, folds, _quick_config(), ndcg_ks=(2,),
                       predictor=lambda test_ids: os._exit(3))
        assert multiprocessing.active_children() == []

    def test_missing_targets_fail_before_any_fold(self, workers):
        TestRunEvaluationReports().test_missing_targets_are_rejected()

    @pytest.fixture
    def pools(self, monkeypatch):
        """Records every fold pool started."""
        started = []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        return started

    def test_shared_folds_report_what_separate_system_runs_report(self, workers, pools):
        dataset, systems, ks = _text_dataset(), ["CNN+BOW+Year", "Genres"], (2, 4)
        report = run_evaluation(systems, dataset,
                                _settings(folds=3, seed=4, ndcg_ks=ks, min_tag_count=1))
        assert len(pools) == (0 if workers == 1 else 1)
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=4)
        separate = EvalReport([run_system(name, dataset, folds, _quick_config(), ndcg_ks=ks,
                                          min_tag_count=1) for name in systems], ks, 3, 4)
        assert report_json_dict(report) == report_json_dict(separate)
        assert report_tsv(report) == report_tsv(separate)

    def test_a_fold_fits_and_featurizes_once_for_every_system(self, cpus, monkeypatch):
        cpus(1)
        fits, featurized = [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args[0])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(evaluation, "fit_feature_context",
                            counted(fits, evaluation.fit_feature_context))
        monkeypatch.setattr(evaluation, "featurize_item",
                            counted(featurized, evaluation.featurize_item))
        dataset = _text_dataset()
        run_evaluation(["CNN+BOW+Year", "Genres"], dataset,
                       _settings(folds=3, seed=4, ndcg_ks=(2,), min_tag_count=1))
        assert len(fits) == 3
        assert sorted(p.id for p in featurized) == \
            sorted(p.id for p in dataset.profiles for _ in range(3))

    def test_no_systems_report_nothing_and_start_no_pool(self, workers, pools):
        report = run_evaluation([], _tagged_dataset(), _settings(folds=3, ndcg_ks=(2,)))
        assert report.systems == [] and pools == []
        assert report_tsv(report) == "system\tfold\tmse\tmpr\tndcg@2\n"

    def test_a_text_system_without_a_word_table_fails_from_the_lowest_fold(
            self, workers, monkeypatch):
        dataset = _tagged_dataset()
        folds = make_folds([p.id for p in dataset.profiles], folds=3, seed=0)
        fit = evaluation.fit_feature_context

        def fit_slow_fold_0_and_fail_the_rest(profiles, **kwargs):
            held_out = set(folds.assignment) - {p.id for p in profiles}
            fold = folds.assignment[held_out.pop()]
            if fold > 0:
                raise ValueError(f"fold {fold} failed first")
            time.sleep(0.3)
            return fit(profiles, **kwargs)

        monkeypatch.setattr(evaluation, "fit_feature_context",
                            fit_slow_fold_0_and_fail_the_rest)
        with pytest.raises(ValueError, match="^text features requested but the context "
                                             "has no word table$"):
            run_evaluation(["Year", "CNN+Year"], dataset,
                           _settings(folds=3, seed=0, ndcg_ks=(2,), min_tag_count=1))


def test_default_ndcg_cutoffs():
    assert DEFAULT_NDCG_KS == (10, 30, 50, 100, 200, 500, 1000)
