import numpy as np
import pytest

from cb2cf.corpus import tokenize
from cb2cf.synthetic import SyntheticSpec, generate_synthetic
from synthetic_helpers import cluster_labels


def _small_spec(**overrides):
    base = dict(items=48, clusters=4, dim=8, vocab_size=40, noise=0.05,
                set_count=60, seed=3)
    base.update(overrides)
    return SyntheticSpec(**base)


def test_generation_is_deterministic():
    spec = _small_spec()
    sets_a, profiles_a, table_a = generate_synthetic(spec)
    sets_b, profiles_b, table_b = generate_synthetic(spec)
    assert sets_a.sets == sets_b.sets
    assert profiles_a == profiles_b
    assert table_a.ids == table_b.ids
    assert np.array_equal(table_a.vectors, table_b.vectors)


def test_different_seeds_differ():
    _, _, table_a = generate_synthetic(_small_spec(seed=3))
    _, _, table_b = generate_synthetic(_small_spec(seed=4))
    assert not np.array_equal(table_a.vectors, table_b.vectors)


def test_vector_table_covers_every_profile_in_order():
    spec = _small_spec()
    _, profiles, table = generate_synthetic(spec)
    assert table.ids == [p.id for p in profiles]
    assert table.vectors.shape == (spec.items, spec.dim)
    assert len(profiles) == spec.items


def test_noiseless_vectors_sit_exactly_on_orthonormal_directions():
    spec = _small_spec(noise=0.0, year_weight=0.0)
    _, _, table = generate_synthetic(spec)
    labels = cluster_labels(spec)
    by_cluster = {}
    for item_id in table.ids:
        by_cluster.setdefault(labels[item_id], []).append(table.get(item_id))
    for vectors in by_cluster.values():
        for v in vectors[1:]:
            assert np.array_equal(v, vectors[0])
    reps = [vs[0] for _, vs in sorted(by_cluster.items())]
    for i, u in enumerate(reps):
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
        for v in reps[i + 1:]:
            assert abs(np.dot(u, v)) < 1e-12


def test_year_weight_moves_vectors_along_a_shared_axis():
    spec = _small_spec(noise=0.0, year_weight=0.5)
    _, profiles, table = generate_synthetic(spec)
    flat_spec = _small_spec(noise=0.0, year_weight=0.0)
    _, _, flat = generate_synthetic(flat_spec)
    offsets = table.vectors - flat.vectors
    nonzero = offsets[np.linalg.norm(offsets, axis=1) > 1e-12]
    assert len(nonzero) > 0
    rank = np.linalg.matrix_rank(nonzero, tol=1e-8)
    assert rank == 1


def test_cluster_recovery_from_noisy_vectors():
    spec = SyntheticSpec(items=200, clusters=4, dim=16, vocab_size=40,
                         noise=0.1, set_count=0, seed=5)
    _, _, table = generate_synthetic(spec)
    labels = cluster_labels(spec)
    centers = np.zeros((4, 16))
    counts = np.zeros(4)
    for i, item_id in enumerate(table.ids):
        centers[labels[item_id]] += table.vectors[i]
        counts[labels[item_id]] += 1
    centers /= counts[:, None]
    assigned = np.argmin(
        np.linalg.norm(table.vectors[:, None, :] - centers[None, :, :],
                       axis=2), axis=1)
    truth = np.array([labels[i] for i in table.ids])
    assert np.mean(assigned == truth) >= 0.99


class TestTags:
    def test_default_tag_count_grows_with_cluster_count(self):
        assert _small_spec(clusters=2, items=8).tag_counts() == \
            {"genres": 2, "actors": 2, "directors": 2, "languages": 2}
        eight = _small_spec(clusters=8, items=32, dim=12)
        assert eight.tag_counts() == \
            {"genres": 3, "actors": 3, "directors": 3, "languages": 3}

    def test_single_tags_are_ambiguous_but_tuples_resolve_clusters(self):
        spec = _small_spec(clusters=8, items=64, dim=12)
        _, profiles, _ = generate_synthetic(spec)
        labels = cluster_labels(spec)
        tuples = {}
        genres = set()
        for p in profiles:
            genres.add(p.genres[0])
            combo = (p.genres[0], p.actors[0], p.directors[0], p.languages[0])
            existing = tuples.setdefault(labels[p.id], combo)
            assert existing == combo
        # Fewer distinct genres than clusters: genre alone cannot identify
        # the cluster, the full tuple can.
        assert len(genres) == 3 < spec.clusters
        assert len(set(tuples.values())) == spec.clusters

    def test_every_profile_has_exactly_one_tag_per_field(self):
        _, profiles, _ = generate_synthetic(_small_spec())
        for p in profiles:
            assert len(p.genres) == len(p.actors) == 1
            assert len(p.directors) == len(p.languages) == 1


def test_years_fall_in_the_planted_window():
    _, profiles, _ = generate_synthetic(_small_spec(items=96))
    years = [p.year for p in profiles]
    assert all(1950 <= y < 1995 for y in years)
    assert len(set(years)) > 1


def test_plots_pass_through_tokenize_unchanged():
    _, profiles, _ = generate_synthetic(_small_spec())
    for p in profiles[:10]:
        words = p.plot.split()
        assert len(words) == 60
        assert tokenize(p.plot) == words
        assert all(w.isalpha() and w == w.lower() for w in words)


class TestSets:
    def test_sets_stay_inside_one_cluster(self):
        spec = _small_spec()
        sets, _, _ = generate_synthetic(spec)
        labels = cluster_labels(spec)
        assert len(sets.sets) == 60
        for group in sets.sets:
            assert len({labels[i] for i in group}) == 1
            assert list(group) == sorted(group)
            assert len(set(group)) == len(group)

    def test_sizes_respect_the_configured_bounds(self):
        spec = _small_spec(min_set_size=3, max_set_size=5, set_count=200)
        sets, _, _ = generate_synthetic(spec)
        sizes = {len(g) for g in sets.sets}
        assert sizes <= {3, 4, 5}
        assert len(sizes) > 1

    def test_default_count_is_four_per_item(self):
        spec = _small_spec(set_count=None)
        sets, _, _ = generate_synthetic(spec)
        assert len(sets.sets) == 4 * spec.items

    def test_zero_count_gives_an_empty_collection(self):
        sets, profiles, table = generate_synthetic(_small_spec(set_count=0))
        assert sets.sets == []
        assert len(profiles) == len(table.ids)


class TestSpecValidation:
    def test_rejects_impossible_shapes(self):
        with pytest.raises(ValueError, match="2 items per cluster"):
            SyntheticSpec(items=7, clusters=4, dim=8, vocab_size=8)
        with pytest.raises(ValueError, match="dim must exceed"):
            SyntheticSpec(items=8, clusters=4, dim=4, vocab_size=8)
        with pytest.raises(ValueError, match="cover every cluster"):
            SyntheticSpec(items=8, clusters=4, dim=8, vocab_size=3)
        with pytest.raises(ValueError, match="at least 2"):
            SyntheticSpec(items=2, clusters=1, dim=4, vocab_size=4)

    def test_rejects_bad_knobs(self):
        good = dict(items=8, clusters=4, dim=8, vocab_size=8)
        with pytest.raises(ValueError, match="noise"):
            SyntheticSpec(noise=-0.1, **good)
        with pytest.raises(ValueError, match="year_weight"):
            SyntheticSpec(year_weight=-1.0, **good)
        with pytest.raises(ValueError, match="set_count"):
            SyntheticSpec(set_count=-1, **good)
        with pytest.raises(ValueError, match="set sizes"):
            SyntheticSpec(min_set_size=1, **good)
        with pytest.raises(ValueError, match="set sizes"):
            SyntheticSpec(min_set_size=5, max_set_size=4, **good)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            SyntheticSpec(seed=-1, **good)
        for value in (float("nan"), float("inf"), 10 ** 400):
            with pytest.raises(ValueError, match="noise"):
                SyntheticSpec(noise=value, **good)
            with pytest.raises(ValueError, match="year_weight"):
                SyntheticSpec(year_weight=value, **good)


def test_cluster_labels_match_generation_order():
    spec = _small_spec(items=10, clusters=5, dim=8, vocab_size=10)
    labels = cluster_labels(spec)
    _, profiles, _ = generate_synthetic(spec)
    assert [labels[p.id] for p in profiles] == [i % 5 for i in range(10)]
