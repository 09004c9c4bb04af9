import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cb2cf.data import ContentProfile
from cb2cf.evaluation import make_folds
from cb2cf.features import (Centroids, FeatureContext, NA_TOKEN, TAG_FIELDS,
                            YearStats, bow_histogram, build_tag_vocab,
                            featurize_item, fit_feature_context, fit_kmeans,
                            fit_year_stats, load_centroids,
                            load_feature_context, numeric_feature,
                            save_centroids, save_feature_context, tag_vector,
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


def _text_indices(text, table, max_words):
    return text_word_indices(text_tokens(text), table, max_words)


def test_text_matrix_stacks_and_zero_pads(word_table):
    out = _text_indices("alpha beta gamma", word_table, max_words=6)
    assert out.dtype == np.int64
    assert out.tolist() == [word_table.index[w] for w in ("alpha", "beta", "gamma")]


def test_text_matrix_keeps_first_in_table_words(word_table):
    # OOV words do not consume slots; the cap counts in-table words only.
    out = _text_indices("qqq alpha zzz beta gamma", word_table, max_words=2)
    assert out.tolist() == [word_table.index["alpha"], word_table.index["beta"]]


def test_text_matrix_missing_text_is_all_zero(word_table):
    assert len(_text_indices(None, word_table, max_words=4)) == 0


def test_text_matrix_sentinel_with_vector_is_used():
    table = _table(words=[NA_TOKEN, "alpha"])
    assert _text_indices(None, table, max_words=3).tolist() == [table.index[NA_TOKEN]]


@settings(max_examples=50)
@given(st.lists(st.sampled_from(WORDS + ["oov1", "oov2"]), max_size=12),
       st.integers(min_value=1, max_value=8))
def test_text_matrix_pads_with_exact_zeros(tokens, max_words):
    table = _table()
    out = _text_indices(" ".join(tokens), table, max_words=max_words)
    in_table = [t for t in tokens if t in table.index][:max_words]
    assert out.tolist() == [table.index[t] for t in in_table]


class TestKmeans:
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

    def test_inertia_never_increases_with_more_iterations(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((60, 3))

        def inertia(centroids):
            d2 = ((points[:, None, :] - centroids.vectors[None]) ** 2).sum(-1)
            return float(d2.min(axis=1).sum())

        values = [inertia(fit_kmeans(points, 4, seed=7, max_iter=i))
                  for i in range(1, 8)]
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

    def test_centroids_validation(self):
        with pytest.raises(ValueError):
            Centroids(np.array([[1.0], [1.0]]))
        with pytest.raises(ValueError):
            Centroids(np.empty((0, 3)))


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
        with pytest.raises(ValueError):
            bow_histogram(["alpha"], Centroids(np.eye(2, 4)), table,
                          temperature=0.0)

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

    def test_sentinel_counts_profiles_with_empty_field(self):
        profiles = _tagged(3) + [ContentProfile(id="e1"),
                                 ContentProfile(id="e2")]
        vocab = build_tag_vocab(profiles, min_count=1)
        assert vocab.counts["genres"][NA_TOKEN] == 2
        assert vocab.counts["genres"]["x"] == 3
        # Fields with no data anywhere keep only the sentinel.
        assert vocab.tags["actors"] == [NA_TOKEN]
        assert vocab.counts["actors"][NA_TOKEN] == 5

    def test_repeated_tag_in_one_profile_counts_once(self):
        profiles = [ContentProfile(id="p", genres=["x", "x", "x"])]
        vocab = build_tag_vocab(profiles, min_count=1)
        assert vocab.counts["genres"]["x"] == 1

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
        assert vocab.counts["genres"][NA_TOKEN] == 1

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
                                   centroids=centroids, max_words=5,
                                   min_tag_count=1)

    def test_full_bundle(self, word_table, profiles):
        context = self._context(word_table, profiles)
        bundle = featurize_item(profiles[0], context)
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

    def test_default_parts_without_text_assets(self, profiles):
        context = fit_feature_context(profiles, min_tag_count=1)
        bundle = featurize_item(profiles[0], context)
        assert bundle.text_indices is None and bundle.bow is None
        assert set(bundle.tags) == set(TAG_FIELDS)

    def test_sparse_profile_uses_sentinels(self, word_table, profiles):
        context = self._context(word_table, profiles)
        bundle = featurize_item(profiles[2], context)  # no plot, tags, year
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


class TestPersistence:
    def test_centroid_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        centroids = Centroids(rng.standard_normal((4, 3)))
        path = tmp_path / "centroids.vec"
        save_centroids(centroids, path)
        loaded = load_centroids(path)
        assert np.array_equal(loaded.vectors, centroids.vectors)

    def test_centroid_file_id_format_is_enforced(self, tmp_path):
        table = EmbeddingTable(["x0", "x1"], np.eye(2))
        path = tmp_path / "bad.vec"
        table.save(path)
        with pytest.raises(ValueError):
            load_centroids(path)

    def test_context_round_trip(self, tmp_path, word_table, profiles):
        centroids = Centroids(word_table.vectors[:2].copy())
        context = fit_feature_context(profiles, word_table=word_table,
                                      centroids=centroids, max_words=7,
                                      min_tag_count=1, temperature=0.25)
        save_feature_context(context, tmp_path / "ctx")
        loaded = load_feature_context(tmp_path / "ctx")
        assert loaded.max_words == 7
        assert loaded.temperature == 0.25
        assert loaded.year_stats == context.year_stats
        assert loaded.tag_vocab.tags == context.tag_vocab.tags
        assert loaded.tag_vocab.counts == context.tag_vocab.counts
        for profile in profiles:
            a = featurize_item(profile, context)
            b = featurize_item(profile, loaded)
            assert np.array_equal(a.text_indices, b.text_indices)
            assert np.array_equal(a.bow, b.bow)
            assert a.year == b.year
            for field in TAG_FIELDS:
                assert np.array_equal(a.tags[field], b.tags[field])

    def test_context_without_text_assets(self, tmp_path, profiles):
        context = fit_feature_context(profiles, min_tag_count=1)
        save_feature_context(context, tmp_path / "ctx")
        loaded = load_feature_context(tmp_path / "ctx")
        assert loaded.word_table is None and loaded.centroids is None

    def test_unknown_version_is_rejected(self, tmp_path, profiles):
        import json
        context = fit_feature_context(profiles, min_tag_count=1)
        save_feature_context(context, tmp_path / "ctx")
        manifest_path = tmp_path / "ctx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            load_feature_context(tmp_path / "ctx")

    @pytest.mark.parametrize("filename, key", [
        ("manifest.json", "files"), ("manifest.json", "year_mean"),
        ("tag_vocab.json", "counts")])
    def test_missing_key_names_the_file_and_the_key(self, tmp_path, profiles,
                                                    filename, key):
        import json
        save_feature_context(fit_feature_context(profiles, min_tag_count=1),
                             tmp_path / "ctx")
        path = tmp_path / "ctx" / filename
        content = json.loads(path.read_text())
        del content[key]
        path.write_text(json.dumps(content))
        with pytest.raises(ValueError, match=f"{filename}: missing key '{key}'"):
            load_feature_context(tmp_path / "ctx")


def test_feature_context_validation():
    vocab = build_tag_vocab([ContentProfile(id="p")], min_count=1)
    stats = YearStats(0.0, 1.0)
    with pytest.raises(ValueError):
        FeatureContext(vocab, stats, max_words=0)
    with pytest.raises(ValueError):
        FeatureContext(vocab, stats, temperature=0.0)
