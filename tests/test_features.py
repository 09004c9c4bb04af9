import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cb2cf import features, net
from cb2cf.data import ContentProfile
from cb2cf.evaluation import make_folds
from cb2cf.features import (ALL_PARTS, Centroids, FeatureContext, NA_TOKEN, TAG_FIELDS,
                            YearStats, bow_histogram, build_tag_vocab,
                            featurize_item, fit_feature_context, fit_kmeans,
                            fit_year_stats, load_feature_context, numeric_feature,
                            save_feature_context, tag_vector,
                            text_tokens, text_word_indices)
from cb2cf.sgns import EmbeddingTable

WORDS = ["alpha", "beta", "delta", "epsilon", "gamma", "zeta"]


def _table(words=WORDS, dim=4, seed=3):
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((len(words), dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return EmbeddingTable(words, vectors)


def test_text_tokens_falls_back_to_sentinel():
    assert text_tokens(None) == [NA_TOKEN]
    assert text_tokens("") == [NA_TOKEN]
    assert text_tokens("!!!") == [NA_TOKEN]
    assert text_tokens("Alpha beta") == ["alpha", "beta"]


def _text_indices(text, table):
    return text_word_indices(text_tokens(text), table)


def test_text_matrix_stacks_and_zero_pads(word_table):
    out = _text_indices("alpha beta gamma", word_table)
    assert out.dtype == np.int64
    assert out.tolist() == [word_table.index[w] for w in ("alpha", "beta", "gamma")]


def test_text_matrix_keeps_first_in_table_words(word_table):
    # OOV words are skipped; the model's text_length cap is tested on the stack.
    out = _text_indices("qqq alpha zzz beta gamma", word_table)
    assert out.tolist() == [word_table.index[w] for w in ("alpha", "beta", "gamma")]


def test_text_matrix_missing_text_is_all_zero(word_table):
    assert len(_text_indices(None, word_table)) == 0


def test_text_matrix_sentinel_with_vector_is_used():
    table = _table(words=[NA_TOKEN, "alpha"])
    assert _text_indices(None, table).tolist() == [table.index[NA_TOKEN]]


@settings(max_examples=50)
@given(st.lists(st.sampled_from(WORDS + ["oov1", "oov2"]), max_size=12))
def test_text_matrix_pads_with_exact_zeros(tokens):
    table = _table()
    out = _text_indices(" ".join(tokens), table)
    in_table = [t for t in tokens if t in table.index]
    assert out.tolist() == [table.index[t] for t in in_table]


def _loop_kmeans(points, clusters, seed):
    """The per-cluster Lloyd loop that ``fit_kmeans`` replaced: the reference."""
    rng = np.random.default_rng(seed)
    centroids = features._kmeans_pp_init(points, clusters, rng)
    sq = (points ** 2).sum(axis=1)
    for _ in range(features.KMEANS_MAX_ITER):
        d2 = sq[:, None] + (centroids ** 2).sum(axis=1)[None, :] - 2.0 * points @ centroids.T
        assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(len(points)), assign].copy()
        updated = centroids.copy()
        for c in range(clusters):
            members = assign == c
            if members.any():
                updated[c] = points[members].mean(axis=0)
        for c in range(clusters):
            if not (assign == c).any():
                pick = int(np.argmax(point_d2))
                updated[c] = points[pick]
                point_d2[pick] = -np.inf
        shift = float(np.max(np.linalg.norm(updated - centroids, axis=1)))
        centroids = updated
        if shift < features.KMEANS_TOL:
            break
    return centroids


class _WeightRecorder:
    """A seeded Generator for k-means++ that records each pick, and each weighted
    pick's weights with the picks made before it."""

    def __init__(self, seed):
        self.rng, self.picks, self.weights = np.random.default_rng(seed), [], []

    def integers(self, n):
        self.picks.append(int(self.rng.integers(n)))
        return self.picks[-1]

    def choice(self, n, p):
        self.weights.append((list(self.picks), p.copy()))
        self.picks.append(int(self.rng.choice(n, p=p)))
        return self.picks[-1]


def _loop_pp_init(points, clusters, rng):
    """k-means++ seeding with fresh arrays per pick, as ``_kmeans_pp_init`` did: the reference."""
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, clusters):
        total = d2.sum()
        pick = int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((points - points[pick]) ** 2).sum(axis=1))
    return points[chosen].copy()


# The seeding weighs rows by ``sq + sq[pick] - 2 * points @ points[pick]``, the
# reference by ``((points - points[pick]) ** 2).sum(1)``; they round apart by at
# most 6.9e-17 in a weight over these tests' inputs.
WEIGHT_ATOL = 1e-15


def _assert_seeding_matches_the_reference(points, clusters, seed):
    got_rng, want_rng = _WeightRecorder(seed), _WeightRecorder(seed)
    got = features._kmeans_pp_init(points, clusters, got_rng)
    assert got.tobytes() == _loop_pp_init(points, clusters, want_rng).tobytes()
    assert [picks for picks, _ in got_rng.weights] == [picks for picks, _ in want_rng.weights]
    for (picks, weights), (_, want) in zip(got_rng.weights, want_rng.weights):
        np.testing.assert_allclose(weights, want, rtol=0, atol=WEIGHT_ATOL)
        # A row equal to a chosen one (-0.0 equals 0.0) weighs exactly 0.
        chosen = (points[:, None, :] == points[picks][None]).all(axis=2).any(axis=1)
        assert np.all(weights[chosen] == 0.0)
    return got_rng


class TestKmeans:
    @pytest.mark.parametrize("points, clusters", [
        (np.random.default_rng(0).standard_normal((300, 32)), 25),
        (np.random.default_rng(1).standard_normal((90, 129)), 6),
        (np.repeat(np.random.default_rng(2).standard_normal((5, 3)), 40, axis=0), 9),
        (np.repeat(np.random.default_rng(3).standard_normal((7, 4)), 6, axis=0), 7),
    ], ids=["random", "wide", "duplicate-heavy", "clusters-equal-distinct-rows"])
    def test_seeding_equals_the_fresh_array_reference(self, points, clusters):
        for seed in range(3):
            _assert_seeding_matches_the_reference(points, clusters, seed)

    def test_a_round_sees_the_one_expression_distances(self, monkeypatch):
        points, clusters = np.random.default_rng(8).standard_normal((301, 5)), 9
        monkeypatch.setattr(features, "KMEANS_MAX_ITER", 1)
        monkeypatch.setattr(features, "KMEANS_BLOCK", 4 * clusters + 1)  # 4 rows, then 1
        seen, argmin = [], np.argmin

        def spy(d2, axis=None):
            seen.append(d2.copy())
            return argmin(d2, axis=axis)

        monkeypatch.setattr(np, "argmin", spy)
        fit_kmeans(points, clusters, seed=2)
        monkeypatch.undo()
        centroids = features._kmeans_pp_init(points, clusters, np.random.default_rng(2))
        want = (points ** 2).sum(axis=1)[:, None] + (centroids ** 2).sum(axis=1)[None, :] \
            - 2.0 * points @ centroids.T
        assert [d2.tobytes() for d2 in seen] == [want.tobytes()]

    def test_fit_holds_one_points_by_clusters_matrix(self):
        points = np.random.default_rng(6).standard_normal((2000, 16))
        fit_kmeans(points[:50], 4)  # numpy's lazy imports are not the fit's memory
        tracemalloc.start()
        try:
            fit_kmeans(points, 250, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2000 * 250 * 8

    @pytest.mark.parametrize("n, dim, clusters", [(40, 1, 3), (60, 2, 4), (200, 7, 9),
                                                  (300, 32, 25), (90, 129, 6)])
    def test_array_update_equals_the_per_cluster_loop(self, n, dim, clusters):
        points = np.random.default_rng(n + dim).standard_normal((n, dim))
        got, want = fit_kmeans(points, clusters, seed=dim).vectors, _loop_kmeans(
            points, clusters, dim)
        if dim == 1:  # a one-column mean sums pairwise, np.add.at in row order
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        else:
            assert np.array_equal(got, want)

    def test_empty_clusters_reseed_in_ascending_order_as_the_loop_does(self, monkeypatch):
        points = np.random.default_rng(5).standard_normal((50, 3))
        far = np.array([[40.0, 0.0, 0.0], [0.0, 0.0, -40.0]])  # nearest to no point
        init = lambda pts, k, rng: np.concatenate([pts[:k - 2], far])  # noqa: E731
        monkeypatch.setattr(features, "_kmeans_pp_init", init)
        monkeypatch.setattr(features, "KMEANS_MAX_ITER", 1)
        got, want = fit_kmeans(points, 6, seed=0).vectors, _loop_kmeans(points, 6, 0)
        assert np.array_equal(got, want)
        # The point farthest from its centroid takes cluster 4, the next-farthest cluster 5.
        d2 = ((points[:, None] - init(points, 6, None)[None]) ** 2).sum(axis=2).min(axis=1)
        farthest, next_farthest = np.argsort(-d2)[:2]
        assert np.array_equal(got[4], points[farthest])
        assert np.array_equal(got[5], points[next_farthest])
        monkeypatch.setattr(features, "KMEANS_MAX_ITER", 100)
        assert np.array_equal(fit_kmeans(points, 6, seed=0).vectors, _loop_kmeans(points, 6, 0))

    def test_separated_blobs_get_one_centroid_each(self):
        rng = np.random.default_rng(0)
        blobs = [np.array([0.0, 0.0]), np.array([10.0, 0.0]),
                 np.array([0.0, 10.0])]
        points = np.concatenate(
            [center + 0.1 * rng.standard_normal((20, 2)) for center in blobs])
        centroids = fit_kmeans(points, 3, seed=1)
        for center in blobs:
            distances = np.linalg.norm(centroids.vectors - center, axis=1)
            assert distances.min() < 1.0

    def test_cluster_count_equal_to_distinct_points_recovers_them(self):
        points = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]] * 4)
        centroids = fit_kmeans(points, 3, seed=0)
        got = {tuple(np.round(v, 9)) for v in centroids.vectors}
        assert got == {(0.0, 0.0), (5.0, 5.0), (9.0, 0.0)}

    def test_inertia_never_increases_with_more_iterations(self, monkeypatch):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((60, 3))

        def inertia(centroids):
            d2 = ((points[:, None, :] - centroids.vectors[None]) ** 2).sum(-1)
            return float(d2.min(axis=1).sum())

        values = []
        for rounds in range(1, 8):
            monkeypatch.setattr(features, "KMEANS_MAX_ITER", rounds)
            values.append(inertia(fit_kmeans(points, 4, seed=7)))
        for previous, current in zip(values, values[1:]):
            assert current <= previous + 1e-9

    def test_duplicate_heavy_input_still_yields_distinct_centroids(self):
        points = np.array([[0.0]] * 10 + [[5.0]] * 10 + [[9.0]])
        centroids = fit_kmeans(points, 3, seed=3)
        assert len(np.unique(centroids.vectors, axis=0)) == 3

    def test_determinism(self):
        rng = np.random.default_rng(4)
        points = rng.standard_normal((30, 2))
        a = fit_kmeans(points, 5, seed=11)
        b = fit_kmeans(points, 5, seed=11)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rejects_insufficient_distinct_points(self):
        with pytest.raises(ValueError):
            fit_kmeans(np.array([[1.0], [1.0]]), 2)
        with pytest.raises(ValueError):
            fit_kmeans(np.empty((0, 2)), 1)
        with pytest.raises(ValueError):
            fit_kmeans(np.ones((3, 2)), 0)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            fit_kmeans(np.eye(3), 2, seed=-1)

    def test_centroids_validation(self):
        with pytest.raises(ValueError):
            Centroids(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError):
            Centroids(np.empty((0, 3)))

    _SIGNED_ZEROS = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [2.0, -0.0]])

    @pytest.mark.parametrize("points", [
        np.random.default_rng(0).standard_normal((300, 5)),
        np.repeat(np.random.default_rng(1).standard_normal((7, 3)), 50, axis=0)[::-1],
        np.random.default_rng(2).integers(0, 2, (400, 4)).astype(np.float64),
        _SIGNED_ZEROS,
        np.tile(_SIGNED_ZEROS, (3, 1)),
    ], ids=["random", "duplicate-heavy", "few-patterns", "signed-zeros", "signed-zeros-repeated"])
    def test_distinct_rows_count_as_unique_does(self, monkeypatch, points):
        want = len(np.unique(points, axis=0))
        for block in (features.KMEANS_BLOCK, 2 * points.shape[1] + 1):  # one block; 2 rows each
            monkeypatch.setattr(features, "KMEANS_BLOCK", block)
            assert features._distinct_rows(points, len(points)) == want  # limit not reached
            assert features._distinct_rows(points, want + 1) == want
            for limit in (1, max(1, want // 2), want):  # reached: stops at the limit
                assert features._distinct_rows(points, limit) == limit

    def test_blocked_reductions_keep_the_bits(self, monkeypatch):
        random = np.random.default_rng(12).standard_normal((203, 37))
        repeated = np.repeat(random[:29], 7, axis=0)  # 7 near rows a pick: 3 blocks
        for points in (random, repeated):
            whole = [_WeightRecorder(seed) for seed in range(2)]
            for rng in whole:
                features._kmeans_pp_init(points, 17, rng)
            monkeypatch.setattr(features, "KMEANS_BLOCK", 3 * 37 + 2)  # 3 rows a block, then 2
            for seed, want in enumerate(whole):
                got = _assert_seeding_matches_the_reference(points, 17, seed)
                assert [w.tobytes() for _, w in got.weights] == \
                    [w.tobytes() for _, w in want.weights]
            monkeypatch.undo()
        monkeypatch.setattr(features, "KMEANS_BLOCK", 3 * 37 + 2)
        assert fit_kmeans(random, 17, seed=4).vectors.tobytes() == \
            _loop_kmeans(random, 17, 4).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vectors(self, bad):
        points = np.random.default_rng(13).standard_normal((20, 3))
        points[7, 1] = bad
        with pytest.raises(ValueError, match="^vectors must be finite$"):
            fit_kmeans(points, 4)

    def test_a_wide_fit_makes_no_points_by_dim_array(self):
        points = np.random.default_rng(14).standard_normal((4000, 256))
        fit_kmeans(points[:50], 4)  # numpy's lazy imports are not the fit's memory
        tracemalloc.start()
        try:
            fit_kmeans(points, 8, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < points.nbytes / 4


def test_fitting_and_loading_centroids_leave_numpy_ma_unimported(tmp_path):
    """``np.unique`` imports ``numpy.ma``, which a run's peak memory would then carry."""
    script = f"""
import sys
import numpy as np
import cb2cf
from cb2cf import features
assert "numpy.ma" not in sys.modules, "imported by cb2cf itself"
centroids = features.fit_kmeans(np.random.default_rng(0).standard_normal((300, 8)), 20)
features.Centroids(centroids.vectors)
context = features.FeatureContext(features.build_tag_vocab([]), features.YearStats(0.0, 1.0),
                                  centroids=centroids)
features.save_feature_context(context, {str(tmp_path / "ctx.ckpt")!r})
features.load_feature_context({str(tmp_path / "ctx.ckpt")!r})
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(features.__file__).parents[1]), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestBowHistogram:
    def test_no_in_table_words_gives_uniform(self):
        table = _table()
        centroids = Centroids(np.eye(3, 4))
        hist = bow_histogram(["oov", "zzz"], centroids, table)
        assert np.allclose(hist, 1.0 / 3.0)

    def test_single_word_softmax_matches_hand_formula(self):
        table = EmbeddingTable(["w"], np.array([[1.0, 0.0]]))
        centroids = Centroids(np.array([[1.0, 0.0], [0.0, 1.0]]))
        hist = bow_histogram(["w"], centroids, table, temperature=0.1)
        # cosines are 1 and 0; softmax weights exp(10), exp(0).
        expected = np.exp([10.0, 0.0])
        expected /= expected.sum()
        assert np.allclose(hist, expected, atol=1e-12)

    def test_sharp_temperature_concentrates_mass(self):
        table = _table()
        centroids = Centroids(np.stack([table.get("alpha"),
                                        table.get("beta"),
                                        table.get("gamma")]))
        hist = bow_histogram(["alpha"], centroids, table, temperature=0.01)
        assert hist[0] > 0.99

    def test_zero_norm_word_spreads_uniformly(self):
        table = EmbeddingTable(["z"], np.array([[0.0, 0.0]]))
        centroids = Centroids(np.array([[1.0, 0.0], [0.0, 1.0]]))
        hist = bow_histogram(["z"], centroids, table)
        assert np.allclose(hist, 0.5)

    def test_rejects_bad_temperature(self):
        table = _table()
        for temperature in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^temperature must be positive and finite$"):
                bow_histogram(["alpha"], Centroids(np.eye(2, 4)), table,
                              temperature=temperature)

    @settings(max_examples=50)
    @given(st.lists(st.sampled_from(WORDS + ["oov"]), max_size=10),
           st.integers(min_value=1, max_value=5),
           st.floats(min_value=0.01, max_value=10.0))
    def test_histogram_lives_on_the_simplex(self, tokens, bins, temperature):
        table = _table()
        rng = np.random.default_rng(bins)
        centroids = Centroids(rng.standard_normal((bins, 4)))
        hist = bow_histogram(tokens, centroids, table, temperature=temperature)
        assert hist.shape == (bins,)
        assert np.all(hist >= 0.0)
        assert hist.sum() == pytest.approx(1.0, abs=1e-9)


    def test_context_cache_matches_the_formula_and_grows_per_word(self):
        table = _table()
        centroids = Centroids(np.random.default_rng(8).standard_normal((5, 4)))
        context = FeatureContext(build_tag_vocab([]), YearStats(0.0, 1.0), table,
                                 centroids, temperature=0.3)
        rows = {}
        for plot in ["alpha oov alpha beta", "beta gamma beta", "oov", None,
                     "gamma alpha zeta zeta"]:
            bundle = featurize_item(ContentProfile(id="p", plot=plot), context, ["bow"])
            expected = bow_histogram(text_tokens(plot), centroids, table, temperature=0.3)
            assert np.allclose(bundle.bow, expected, rtol=0, atol=1e-12)
            for word, row in rows.items():
                assert context._bow_rows[word] is row  # computed once, then reused
            rows = dict(context._bow_rows)
        assert sorted(rows) == ["alpha", "beta", "gamma", "zeta"]


def _tagged(n, field="genres", tag="x"):
    return [ContentProfile(id=f"p{i}", **{field: [tag]}) for i in range(n)]


class TestTagVocabulary:
    def test_min_count_boundary(self):
        kept = build_tag_vocab(_tagged(5), min_count=5)
        assert kept.tags["genres"] == [NA_TOKEN, "x"]
        dropped = build_tag_vocab(_tagged(4), min_count=5)
        assert dropped.tags["genres"] == [NA_TOKEN]

    def test_profiles_with_an_empty_field_count_for_no_tag(self):
        profiles = _tagged(3) + [ContentProfile(id="e1"),
                                 ContentProfile(id="e2")]
        assert build_tag_vocab(profiles, min_count=3).tags["genres"] == [NA_TOKEN, "x"]
        vocab = build_tag_vocab(profiles, min_count=4)
        assert vocab.tags["genres"] == [NA_TOKEN]
        # Fields with no data anywhere keep only the sentinel.
        assert vocab.tags["actors"] == [NA_TOKEN]
        assert build_tag_vocab(profiles, min_count=1).tags["actors"] == [NA_TOKEN]

    def test_repeated_tag_in_one_profile_counts_once(self):
        profiles = [ContentProfile(id="p", genres=["x", "x", "x"])]
        assert build_tag_vocab(profiles, min_count=1).tags["genres"] == [NA_TOKEN, "x"]
        assert build_tag_vocab(profiles, min_count=2).tags["genres"] == [NA_TOKEN]
        twice = profiles + [ContentProfile(id="q", genres=["x"])]
        assert build_tag_vocab(twice, min_count=2).tags["genres"] == [NA_TOKEN, "x"]
        assert build_tag_vocab(twice, min_count=3).tags["genres"] == [NA_TOKEN]

    def test_ordering_by_count_then_lexicographic(self):
        tags = ["zed"] * 3 + ["ant"] * 3 + ["mid"] * 5
        profiles = [ContentProfile(id=f"q{i}", genres=[t])
                    for i, t in enumerate(tags)]
        vocab = build_tag_vocab(profiles, min_count=1)
        assert vocab.tags["genres"] == [NA_TOKEN, "mid", "ant", "zed"]

    def test_explicit_na_value_is_ignored(self):
        vocab = build_tag_vocab([ContentProfile(id="p", genres=[NA_TOKEN])],
                                min_count=1)
        assert vocab.tags["genres"] == [NA_TOKEN]

    def test_rejects_min_count_below_one(self):
        with pytest.raises(ValueError):
            build_tag_vocab(_tagged(2), min_count=0)


class TestTagVector:
    def _vocab(self):
        profiles = ([ContentProfile(id=f"s{i}", genres=["a"])
                     for i in range(5)]
                    + [ContentProfile(id=f"r{i}", genres=["a", "b"])
                       for i in range(5)])
        return build_tag_vocab(profiles, min_count=5)

    def test_sets_exactly_the_retained_bits(self):
        vocab = self._vocab()
        bits = tag_vector(ContentProfile(id="t", genres=["a", "b"]),
                          "genres", vocab)
        assert bits.shape == (3,)  # sentinel + a + b
        assert bits[0] == 0.0
        assert bits.sum() == 2.0

    def test_unretained_tags_fall_back_to_sentinel(self):
        vocab = self._vocab()
        bits = tag_vector(ContentProfile(id="t", genres=["rare"]),
                          "genres", vocab)
        assert bits[0] == 1.0 and bits.sum() == 1.0

    def test_empty_field_gets_sentinel(self):
        vocab = self._vocab()
        bits = tag_vector(ContentProfile(id="t"), "genres", vocab)
        assert bits[0] == 1.0 and bits.sum() == 1.0

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            tag_vector(ContentProfile(id="t"), "studio", self._vocab())

    @given(st.lists(st.sampled_from(["a", "b", "rare", NA_TOKEN]), max_size=4))
    def test_popcount_is_always_at_least_one(self, tags):
        vocab = self._vocab()
        bits = tag_vector(ContentProfile(id="t", genres=tags), "genres", vocab)
        assert bits.sum() >= 1.0


class TestYearFeature:
    def test_standardization(self):
        stats = fit_year_stats([ContentProfile(id="a", year=1990),
                                ContentProfile(id="b", year=2000),
                                ContentProfile(id="c", year=2010)])
        assert stats.mean == pytest.approx(2000.0)
        assert stats.std == pytest.approx(math.sqrt(200.0 / 3.0))
        assert numeric_feature(2000, stats) == pytest.approx(0.0)
        assert numeric_feature(int(round(stats.mean + stats.std)), stats) == \
            pytest.approx(1.0, abs=0.05)

    def test_missing_year_maps_to_zero(self):
        stats = YearStats(1990.0, 7.0)
        assert numeric_feature(None, stats) == 0.0

    def test_degenerate_column_gets_unit_std(self):
        stats = fit_year_stats([ContentProfile(id="a", year=1999)] * 3)
        assert stats.std == 1.0
        assert numeric_feature(1999, stats) == 0.0
        assert numeric_feature(2000, stats) == 1.0

    def test_no_years_at_all(self):
        stats = fit_year_stats([ContentProfile(id="a")])
        assert (stats.mean, stats.std) == (0.0, 1.0)
        assert numeric_feature(None, stats) == 0.0


class TestFeaturizeItem:
    def _context(self, word_table, profiles):
        centroids = Centroids(word_table.vectors[:3].copy())
        return fit_feature_context(profiles, word_table=word_table,
                                   centroids=centroids, min_tag_count=1)

    def test_full_bundle(self, word_table, profiles):
        context = self._context(word_table, profiles)
        bundle = featurize_item(profiles[0], context, ALL_PARTS)
        assert bundle.item_id == "m1"
        assert bundle.text_indices is not None and len(bundle.text_indices) == 3
        assert bundle.bow is not None and bundle.bow.sum() == pytest.approx(1.0)
        assert set(bundle.tags) == set(TAG_FIELDS)
        assert bundle.year is not None

    def test_parts_selection(self, word_table, profiles):
        context = self._context(word_table, profiles)
        bundle = featurize_item(profiles[0], context, parts={"year", "genres"})
        assert bundle.text_indices is None
        assert bundle.bow is None
        assert set(bundle.tags) == {"genres"}
        with pytest.raises(ValueError):
            featurize_item(profiles[0], context, parts={"studio"})

    def test_missing_assets_are_rejected(self, profiles):
        context = fit_feature_context(profiles, min_tag_count=1)
        with pytest.raises(ValueError):
            featurize_item(profiles[0], context, parts={"text"})
        with pytest.raises(ValueError):
            featurize_item(profiles[0], context, parts={"bow"})

    def test_tag_and_year_parts_without_text_assets(self, profiles):
        context = fit_feature_context(profiles, min_tag_count=1)
        bundle = featurize_item(profiles[0], context, {"year", *TAG_FIELDS})
        assert bundle.text_indices is None and bundle.bow is None
        assert set(bundle.tags) == set(TAG_FIELDS)

    def test_sparse_profile_uses_sentinels(self, word_table, profiles):
        context = self._context(word_table, profiles)
        bundle = featurize_item(profiles[2], context, ALL_PARTS)  # no plot, tags, year
        assert len(bundle.text_indices) == 0
        assert np.allclose(bundle.bow, 1.0 / 3.0)
        for field in TAG_FIELDS:
            assert bundle.tags[field][0] == 1.0
        assert bundle.year == 0.0

    def test_fit_rejects_empty_profiles(self):
        with pytest.raises(ValueError):
            fit_feature_context([])


def test_fold_refit_cannot_leak_held_out_tags():
    profiles = [ContentProfile(id=f"m{i}", genres=["common"]) for i in range(12)]
    folds = make_folds([p.id for p in profiles], folds=3, seed=0)
    held_out = set(folds.items_in(0))
    for p in profiles:
        if p.id in held_out:
            p.genres.append("leaky")
    by_id = {p.id: p for p in profiles}
    train_profiles = [by_id[i] for i in folds.items_not_in(0)]
    context = fit_feature_context(train_profiles, min_tag_count=1)
    assert "leaky" not in context.tag_vocab.tags["genres"]
    test_profile = by_id[sorted(held_out)[0]]
    bits = tag_vector(test_profile, "genres", context.tag_vocab)
    assert bits.shape == (2,)  # sentinel + common only


def _rewrite(path, mutate):
    """Apply ``mutate(tensors, meta)`` to a saved checkpoint, in place."""
    tensors, meta = net.load_checkpoint(path)
    mutate(tensors, meta)
    net.save_checkpoint(path, tensors, meta)


class TestPersistence:
    def test_centroid_round_trip(self, tmp_path, profiles):
        rng = np.random.default_rng(5)
        centroids = Centroids(rng.standard_normal((4, 3)))
        path = tmp_path / "ctx.ckpt"
        save_feature_context(fit_feature_context(profiles, centroids=centroids,
                                                 min_tag_count=1), path)
        loaded = load_feature_context(path)
        assert np.array_equal(loaded.centroids.vectors, centroids.vectors)
        assert loaded.word_table is None

    def test_context_round_trip(self, tmp_path, word_table, profiles):
        centroids = Centroids(word_table.vectors[:2].copy())
        context = fit_feature_context(profiles, word_table=word_table,
                                      centroids=centroids, min_tag_count=1,
                                      temperature=0.25)
        path = tmp_path / "ctx.ckpt"
        save_feature_context(context, path)
        assert path.is_file()
        loaded = load_feature_context(path)
        assert loaded.temperature == 0.25
        assert loaded.year_stats == context.year_stats
        assert loaded.tag_vocab.tags == context.tag_vocab.tags
        assert loaded.word_table.ids == word_table.ids
        assert np.array_equal(loaded.word_table.vectors, word_table.vectors)
        assert np.array_equal(loaded.centroids.vectors, centroids.vectors)
        for profile in profiles:
            a = featurize_item(profile, context, ALL_PARTS)
            b = featurize_item(profile, loaded, ALL_PARTS)
            assert np.array_equal(a.text_indices, b.text_indices)
            assert np.array_equal(a.bow, b.bow)
            assert a.year == b.year
            for field in TAG_FIELDS:
                assert np.array_equal(a.tags[field], b.tags[field])

    def test_context_without_text_assets(self, tmp_path, profiles):
        context = fit_feature_context(profiles, min_tag_count=1)
        path = tmp_path / "ctx.ckpt"
        save_feature_context(context, path)
        assert net.load_checkpoint(path)[0] == {}
        loaded = load_feature_context(path)
        assert loaded.word_table is None and loaded.centroids is None
        assert loaded.year_stats == context.year_stats
        assert loaded.tag_vocab.tags == context.tag_vocab.tags
        parts = ("year",) + TAG_FIELDS
        for profile in profiles:
            a = featurize_item(profile, context, parts)
            b = featurize_item(profile, loaded, parts)
            assert a.year == b.year
            for field in TAG_FIELDS:
                assert np.array_equal(a.tags[field], b.tags[field])

    def test_unknown_version_is_rejected(self, tmp_path, profiles):
        import json
        path = tmp_path / "ctx.ckpt"
        save_feature_context(fit_feature_context(profiles, min_tag_count=1), path)
        manifest, _, payload = path.read_bytes().partition(b"\n")
        manifest = json.loads(manifest)
        manifest["version"] = 99
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="version"):
            load_feature_context(path)

    def test_other_checkpoints_are_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, {}, {"kind": "cb2cf-model"})
        with pytest.raises(ValueError, match="not a feature context"):
            load_feature_context(path)

    def test_a_context_with_max_words_still_loads(self, tmp_path, word_table, profiles):
        # Older files also store the text cap, which the model's text_length now owns.
        context = fit_feature_context(profiles, word_table=word_table, min_tag_count=1)
        path = tmp_path / "ctx.ckpt"
        save_feature_context(context, path)
        plain = path.read_bytes()
        _rewrite(path, lambda tensors, meta: meta.update(max_words=2))
        assert b'"max_words": 2' in path.read_bytes()
        loaded = load_feature_context(path)
        assert not hasattr(loaded, "max_words")
        save_feature_context(loaded, path)
        assert path.read_bytes() == plain
        long_text = featurize_item(ContentProfile(id="x", plot="alpha beta gamma delta"),
                                   loaded, ("text",))
        assert len(long_text.text_indices) == 4  # the old cap of 2 no longer applies

    def test_a_context_with_tag_counts_still_loads(self, tmp_path, word_table, profiles):
        # Older files also store each kept tag's count and the minimum count.
        context = fit_feature_context(profiles, word_table=word_table, min_tag_count=1)
        path = tmp_path / "ctx.ckpt"
        save_feature_context(context, path)
        _rewrite(path, lambda tensors, meta: meta["tag_vocab"].update(
            min_count=1, counts={f: {t: 1 for t in tags}
                                 for f, tags in meta["tag_vocab"]["tags"].items()}))
        loaded = load_feature_context(path)
        assert loaded.tag_vocab.tags == context.tag_vocab.tags
        assert not hasattr(loaded.tag_vocab, "counts")
        parts = ("text", "year") + TAG_FIELDS
        for profile in profiles:
            a = featurize_item(profile, context, parts)
            b = featurize_item(profile, loaded, parts)
            assert np.array_equal(a.text_indices, b.text_indices) and a.year == b.year
            for field in TAG_FIELDS:
                assert np.array_equal(a.tags[field], b.tags[field])

    @pytest.mark.parametrize("key", ["year_mean", "tags", "word_ids"])
    def test_missing_key_names_the_file_and_the_key(self, tmp_path, profiles, key):
        path = tmp_path / "ctx.ckpt"
        save_feature_context(fit_feature_context(profiles, min_tag_count=1), path)
        _rewrite(path, lambda tensors, meta:
                 (meta["tag_vocab"] if key == "tags" else meta).pop(key))
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: missing key '{key}'"):
            load_feature_context(path)


@pytest.mark.parametrize("mutate, message", [
    (lambda t, m: m.update(tag_vocab=5), "tag_vocab"),
    (lambda t, m: m.update(year_mean="abc"), "year_mean"),
    (lambda t, m: m.update(year_std=0.0), "year_std"),
    (lambda t, m: m.update(temperature=10 ** 400), "temperature"),
    (lambda t, m: m["tag_vocab"].update(tags=5), "tags"),
    (lambda t, m: m["tag_vocab"]["tags"].update(genres=["drama"]), "tags"),
    (lambda t, m: m["tag_vocab"]["tags"].pop("actors"), "actors"),
    (lambda t, m: m["word_ids"].pop(), "word_ids"),
    (lambda t, m: m.update(word_ids=None), "word_ids"),
    (lambda t, m: t.pop("word_vectors"), "word_ids"),
    (lambda t, m: t.update(centroids=np.eye(2, 3)), "centroids"),
    (lambda t, m: t.update(extra=np.ones(1)), "unexpected tensors"),
    (lambda t, m: m.update(year_mean=10 ** 400), "year_mean"),
    (lambda t, m: m.update(year_std=math.nan), "year_std"),
    (lambda t, m: m["tag_vocab"]["tags"]["genres"].append(7), "genres"),
], ids=["tag-vocab-number", "year-mean-string", "year-std-zero",
        "huge-temperature", "tags-number", "no-sentinel", "missing-field",
        "word-ids-short", "word-ids-null", "no-word-vectors", "centroid-dim",
        "extra-tensor", "huge-year-mean", "year-std-nan", "tag-number"])
def test_bad_context_values_name_the_file_and_the_key(tmp_path, word_table, profiles,
                                                      mutate, message):
    path = tmp_path / "ctx.ckpt"
    save_feature_context(fit_feature_context(
        profiles, word_table=word_table, centroids=Centroids(word_table.vectors[:2].copy()),
        min_tag_count=1), path)
    _rewrite(path, mutate)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*{message}"):
        load_feature_context(path)


def test_feature_context_validation():
    vocab = build_tag_vocab([ContentProfile(id="p")], min_count=1)
    stats = YearStats(0.0, 1.0)
    for temperature in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="^temperature must be positive and finite$"):
            FeatureContext(vocab, stats, temperature=temperature)
    # Each record type owns its values' rules, so no writer saves what the loader refuses.
    table = _table(dim=4)
    with pytest.raises(ValueError, match="^centroids have dim 3, the word vectors 4$"):
        FeatureContext(vocab, stats, table, Centroids(np.eye(2, 3)))
    for mean, std in [(math.nan, 1.0), (math.inf, 1.0), (10 ** 400, 1.0), (0.0, 0.0),
                      (0.0, -1.0), (0.0, math.nan), (0.0, math.inf), (0.0, 10 ** 400)]:
        with pytest.raises(ValueError, match="mean must be finite and the std positive"):
            YearStats(mean, std)
    assert YearStats(1990, 2) == YearStats(1990.0, 2.0)
    assert type(YearStats(1990, 2).mean) is float
    for tags, field in [({**vocab.tags, "genres": ["n/a", 5]}, "genres"),
                        ({**vocab.tags, "genres": ("n/a",)}, "genres"),
                        ({f: t for f, t in vocab.tags.items() if f != "actors"}, "actors")]:
        with pytest.raises(ValueError, match=f"field '{field}' must be a list of strings"):
            features.TagVocabulary(tags)
