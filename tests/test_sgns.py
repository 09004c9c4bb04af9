import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cb2cf.sgns import (CooccurrenceSets, EmbeddingTable, NoiseSampler,
                        SgnsConfig, SgnsTrainer, build_item_pairs,
                        build_word_pairs, cosine_scores, discard_probabilities,
                        sigmoid, similarity_search, subsample, train_sgns,
                        _draw_negatives)


def test_sigmoid_midpoint_and_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(-1000.0) == pytest.approx(0.0)
    out = sigmoid(np.array([-2.0, 0.0, 2.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0 - out[2])


def test_config_defaults_per_mode():
    item = SgnsConfig.item_defaults()
    word = SgnsConfig.word_defaults()
    assert (item.dim, item.subsample) == (40, 1e-4)
    assert (word.dim, word.subsample) == (100, 1e-5)
    for config in (item, word):
        assert config.epochs == 100
        assert config.negatives == 15
        assert config.window == 4
        assert config.learning_rate == 0.025


def test_config_validation():
    with pytest.raises(ValueError):
        SgnsConfig(dim=0)
    with pytest.raises(ValueError):
        SgnsConfig(subsample=0.0)
    with pytest.raises(ValueError):
        SgnsConfig(subsample=1.5)
    with pytest.raises(ValueError):
        SgnsConfig(negatives=0)
    with pytest.raises(ValueError):
        SgnsConfig(learning_rate=0.0)


def test_cooccurrence_sets_validation():
    sets = CooccurrenceSets([("a", "b"), ("b", "c", "a")])
    assert sets.item_ids() == ["a", "b", "c"]
    assert sets.dropped == 0
    with pytest.raises(ValueError):
        CooccurrenceSets([("a",)])
    with pytest.raises(ValueError):
        CooccurrenceSets([("a", "a")])


class TestEmbeddingTable:
    def test_lookup(self):
        table = EmbeddingTable(["x", "y"], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert table.dim == 2
        assert len(table) == 2
        assert "x" in table and "q" not in table
        assert np.array_equal(table.get("y"), [3.0, 4.0])

    def test_rejects_duplicates_and_bad_shapes(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a", "a"], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.zeros(3))
        with pytest.raises(ValueError):
            EmbeddingTable(["a", "b"], np.zeros((1, 3)))
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], np.array([[np.nan]]))

    def test_from_mapping_sorts_ids(self):
        table = EmbeddingTable.from_mapping(
            {"b": np.array([2.0]), "a": np.array([1.0])})
        assert table.ids == ["a", "b"]

    def test_save_load_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((5, 3)) * np.array([1e-17, 1.0, 1e12])
        vectors[0, 0] = 1.0 / 3.0
        table = EmbeddingTable([f"i{k}" for k in range(5)], vectors)
        path = tmp_path / "table.vec"
        table.save(path)
        loaded = EmbeddingTable.load(path)
        assert loaded.ids == table.ids
        assert np.array_equal(loaded.vectors, table.vectors)
        assert path.read_text().splitlines()[0] == "5 3"

    def test_save_writes_the_per_scalar_repr_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 6)) * np.array([1e-300, 1e-17, 1.0, 1e12, 1e300, 1.0])
        vectors[0, :3] = [-0.0, 5e-324, -2.2250738585072e-310]  # signed zero, subnormals
        vectors[1, :2] = [1e300, -1e300]
        table = EmbeddingTable([f"i{k}" for k in range(4)], vectors)
        path = tmp_path / "table.vec"
        table.save(path)
        expected = "4 6\n" + "".join(
            item_id + " " + " ".join(repr(float(x)) for x in row) + "\n"
            for item_id, row in zip(table.ids, table.vectors))
        assert path.read_bytes() == expected.encode("utf-8")
        loaded = EmbeddingTable.load(path)
        assert loaded.vectors.tobytes() == table.vectors.tobytes()

    def test_save_rejects_whitespace_ids(self, tmp_path):
        table = EmbeddingTable(["a b"], np.ones((1, 2)))
        with pytest.raises(ValueError):
            table.save(tmp_path / "bad.vec")

    def test_load_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("not a header\n")
        with pytest.raises(ValueError):
            EmbeddingTable.load(path)
        path.write_text("2 2\na 1.0 2.0\n")
        with pytest.raises(ValueError, match="found 1"):
            EmbeddingTable.load(path)
        path.write_text("1 2\na 1.0 2.0\nb 3.0 4.0\n")
        with pytest.raises(ValueError, match="more rows"):
            EmbeddingTable.load(path)
        path.write_text("1 2\na 1.0\n")
        with pytest.raises(ValueError, match="expected id and 2"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("row", ["a 1.0 zz", "a 1.0 nan", "a inf 2.0"])
    def test_load_reports_bad_row_components_with_their_line(self, tmp_path, row):
        path = tmp_path / "bad.vec"
        path.write_text("2 2\nb 0.5 0.5\n" + row + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")):
            EmbeddingTable.load(path)

    def test_load_checks_the_header_counts_before_reading_rows(self, tmp_path):
        path = tmp_path / "bad.vec"
        for header in ("x 3", "-2 3", "2 -3", "2.5 3", "2 0"):
            path.write_text(header + "\na 1.0 2.0 3.0\n")
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: ")):
                EmbeddingTable.load(path)

    def test_load_does_not_allocate_from_a_huge_header_count(self, tmp_path):
        path = tmp_path / "huge.vec"
        path.write_text("99999999999999 40\na " + " ".join(["0.5"] * 40) + "\n")
        with pytest.raises(ValueError, match="header declares 99999999999999 rows, found 1"):
            EmbeddingTable.load(path)


def _cos(u, v):
    """Scalar reference cosine, -1.0 for a zero-norm operand."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return -1.0
    return float(np.dot(u, v) / (nu * nv))


def test_cosine_basics():
    table = EmbeddingTable(["orthogonal", "parallel", "zero"],
                           np.array([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]]))
    scores = cosine_scores(np.array([1.0, 0.0]), table)
    assert scores.tolist() == pytest.approx([0.0, 1.0, -1.0])
    assert cosine_scores(np.zeros(2), table) is None
    assert cosine_scores(np.array([np.nan, 1.0]), table) is None
    assert cosine_scores(np.array([np.inf, 1.0]), table) is None
    with pytest.raises(ValueError, match="dimension"):
        cosine_scores(np.ones(3), table)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0.1, 50.0))
def test_cosine_scale_invariance(values, scale):
    a = np.array(values)
    b = np.roll(a, 1) + 0.5
    scores = cosine_scores(b, EmbeddingTable(["a", "scaled"], np.array([a, a * scale])))
    assume(scores is not None)  # b itself has zero norm
    assert scores[1] == pytest.approx(scores[0], abs=1e-9)


@pytest.mark.parametrize("dim", [2, 4, 40, 100])
def test_cosine_scores_equal_the_scalar_formula_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    for count in (1, 7, 300, 1200):
        vectors = rng.standard_normal((count, dim)) * rng.uniform(0.01, 100, (count, 1))
        vectors[count // 2] = 0.0
        table = EmbeddingTable([f"r{i}" for i in range(count)], vectors)
        query = rng.standard_normal(dim)
        expected = [_cos(row, query) for row in table.vectors]
        assert cosine_scores(query, table).tolist() == expected


def test_word_pairs_are_deterministic_at_window_one():
    rng = np.random.default_rng(0)
    assert build_word_pairs([5, 7], 1, rng) == [(5, 7), (7, 5)]
    assert build_word_pairs([3], 1, rng) == []
    with pytest.raises(ValueError):
        build_word_pairs([1, 2], 0, rng)


def test_word_pairs_expected_count_matches_uniform_window_draw():
    # For [a, b, c] with window 2 the per-position spans give expected
    # pair counts 1.5 + 2 + 1.5 = 5.
    rng = np.random.default_rng(42)
    totals = [len(build_word_pairs([0, 1, 2], 2, rng)) for _ in range(4000)]
    assert np.mean(totals) == pytest.approx(5.0, abs=0.15)


def test_word_pairs_stay_inside_the_window():
    rng = np.random.default_rng(1)
    sentence = list(range(10))
    for _ in range(50):
        for center, context in build_word_pairs(sentence, 3, rng):
            assert center != context
            assert abs(center - context) <= 3


def test_item_pairs_enumerate_all_ordered_pairs():
    assert build_item_pairs(["a", "b"]) == [("a", "b"), ("b", "a")]
    pairs = build_item_pairs(["a", "b", "c"])
    assert len(pairs) == 6
    assert set(pairs) == {("a", "b"), ("a", "c"), ("b", "a"),
                          ("b", "c"), ("c", "a"), ("c", "b")}
    with pytest.raises(ValueError):
        build_item_pairs(["a"])
    with pytest.raises(ValueError):
        build_item_pairs(["a", "a"])


def test_discard_probability_formula():
    # f = 0.75, t = 0.1875 = f/4 gives 1 - sqrt(1/4) = 0.5 exactly.
    probs = discard_probabilities(np.array([3.0, 1.0]), 0.1875)
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(1.0 - math.sqrt(0.1875 / 0.25))
    # At or below the threshold frequency nothing is discarded.
    assert np.all(discard_probabilities(np.array([1.0, 1.0]), 0.5) == 0.0)
    with pytest.raises(ValueError):
        discard_probabilities(np.array([0.0, 0.0]), 0.1)


def test_subsample_keep_rate_matches_closed_form():
    # f = 0.75, t = 0.03: discard 1 - sqrt(0.04) = 0.8, keep 0.2.
    counts = np.array([3.0, 1.0])
    stream = [0] * 100_000
    kept = subsample(stream, 0.03, counts, np.random.default_rng(9))
    assert len(kept) / len(stream) == pytest.approx(0.2, abs=0.01)


def test_subsample_validates_stream_ids():
    counts = np.array([2.0, 0.0])
    with pytest.raises(ValueError):
        subsample([5], 0.1, counts, np.random.default_rng(0))
    with pytest.raises(ValueError):
        subsample([1], 0.1, counts, np.random.default_rng(0))


def test_noise_sampler_matches_powered_unigram():
    counts = np.array([1.0, 2.0, 3.0, 10.0, 50.0])
    expected = counts ** 0.75
    expected /= expected.sum()
    sampler = NoiseSampler(counts)
    assert np.allclose(sampler.probabilities, expected)
    draws = sampler.draw(1_000_000, np.random.default_rng(4))
    empirical = np.bincount(draws, minlength=5) / len(draws)
    total_variation = 0.5 * np.abs(empirical - expected).sum()
    assert total_variation <= 0.01


def test_noise_sampler_single_id_and_validation():
    sampler = NoiseSampler(np.array([7.0]))
    assert np.all(sampler.draw(100, np.random.default_rng(0)) == 0)
    with pytest.raises(ValueError):
        NoiseSampler(np.array([]))
    with pytest.raises(ValueError):
        NoiseSampler(np.array([-1.0, 2.0]))


def test_negative_draws_avoid_the_context_id():
    # Heavy skew toward id 0 forces redraw rounds when 0 is forbidden.
    sampler = NoiseSampler(np.array([10.0, 1.0]))
    rng = np.random.default_rng(2)
    for _ in range(200):
        negatives = _draw_negatives(sampler, rng, 5, forbidden=0)
        assert np.all(negatives == 1)


def test_negative_draws_avoid_each_row_context():
    # Heavy skew toward id 0 forces redraw rounds in the rows that forbid it.
    sampler = NoiseSampler(np.array([20.0, 1.0, 1.0]))
    rng = np.random.default_rng(5)
    contexts = np.array([0, 1, 0, 2, 0, 0])
    for _ in range(100):
        negatives = _draw_negatives(sampler, rng, 4, contexts)
        assert negatives.shape == (6, 4)
        assert np.all(negatives != contexts[:, None])
        assert np.any(negatives[contexts != 0] == 0)


def _reference_pair_update(input_vecs, output_vecs, center, context,
                           negatives, lr):
    """Plain-loop recomputation of one SGNS step. All scores come from the
    pre-update tables; duplicate negative ids accumulate their updates."""
    inp = input_vecs.copy()
    out = output_vecs.copy()
    u = inp[center].copy()
    targets = [context] + list(negatives)
    labels = [1.0] + [0.0] * len(negatives)
    grad_u = np.zeros_like(u)
    updates = np.zeros_like(out)
    for t, label in zip(targets, labels):
        score = 1.0 / (1.0 + math.exp(-float(np.dot(out[t], u))))
        g = lr * (label - score)
        grad_u += g * out[t]
        updates[t] += g * u
    out += updates
    inp[center] = u + grad_u
    return inp, out


@pytest.mark.parametrize("negatives", [[2, 3], [2, 2], [3, 4, 3]])
def test_train_pair_matches_reference_update(negatives):
    rng = np.random.default_rng(11)
    trainer = SgnsTrainer(5, 4, rng)
    trainer.output = rng.standard_normal((5, 4)) * 0.3
    expected_in, expected_out = _reference_pair_update(
        trainer.input, trainer.output, 0, 1, negatives, lr=0.1)
    trainer.train_pair(0, 1, np.array(negatives), lr=0.1)
    assert np.allclose(trainer.input, expected_in, atol=1e-12)
    assert np.allclose(trainer.output, expected_out, atol=1e-12)


def test_train_pairs_is_one_simultaneous_step_over_the_block():
    # Center 0 repeats, context 2 of pair 0 is a negative of pairs 1 and 3,
    # and pair 2 draws negative 4 twice.
    centers = [0, 1, 0, 3]
    contexts = [2, 0, 1, 4]
    negatives = np.array([[3, 4], [2, 5], [4, 4], [2, 0]])
    rng = np.random.default_rng(12)
    trainer = SgnsTrainer(6, 5, rng)
    trainer.output = rng.standard_normal((6, 5)) * 0.3
    # The block's step is the sum of each pair's step taken from the
    # pre-step tables.
    expected_in, expected_out = trainer.input.copy(), trainer.output.copy()
    for center, context, negs in zip(centers, contexts, negatives):
        pair_in, pair_out = _reference_pair_update(
            trainer.input, trainer.output, center, context, negs, lr=0.1)
        expected_in += pair_in - trainer.input
        expected_out += pair_out - trainer.output
    trainer.train_pairs(np.array(centers), np.array(contexts), negatives, lr=0.1)
    assert np.allclose(trainer.input, expected_in, rtol=0, atol=1e-12)
    assert np.allclose(trainer.output, expected_out, rtol=0, atol=1e-12)


def test_train_pair_zero_tables_are_a_fixed_point():
    trainer = SgnsTrainer(4, 3, np.random.default_rng(0))
    trainer.input[:] = 0.0
    trainer.train_pair(0, 1, np.array([2, 3]), lr=0.5)
    assert np.all(trainer.input == 0.0)
    assert np.all(trainer.output == 0.0)


def test_repeated_pair_training_reduces_its_loss_monotonically():
    rng = np.random.default_rng(7)
    trainer = SgnsTrainer(6, 8, rng)
    trainer.output = (rng.random((6, 8)) - 0.5) * 0.1
    negatives = np.array([2, 3, 4])
    losses = []
    for _ in range(100):
        losses.append(trainer.pair_loss(0, 1, negatives))
        trainer.train_pair(0, 1, negatives, lr=0.05)
    losses.append(trainer.pair_loss(0, 1, negatives))
    assert all(b < a for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 0.25 * losses[0]


def _clustered_sets(seed=0):
    rng = np.random.default_rng(seed)
    groups = [["a1", "a2", "a3"], ["b1", "b2", "b3"]]
    sets = []
    for _ in range(60):
        group = groups[int(rng.integers(2))]
        picked = rng.choice(3, size=2, replace=False)
        sets.append(tuple(sorted(group[j] for j in picked)))
    return CooccurrenceSets(sets)


def test_train_sgns_is_deterministic_per_seed():
    sets = _clustered_sets()
    config = SgnsConfig(dim=6, epochs=5, negatives=3, subsample=1.0, seed=13)
    first = train_sgns(sets, config)
    second = train_sgns(sets, config)
    assert first.ids == second.ids
    assert np.array_equal(first.vectors, second.vectors)
    other = train_sgns(sets, SgnsConfig(dim=6, epochs=5, negatives=3,
                                        subsample=1.0, seed=14))
    assert not np.array_equal(first.vectors, other.vectors)


def test_train_sgns_separates_disjoint_clusters():
    table = train_sgns(_clustered_sets(),
                       SgnsConfig(dim=8, epochs=30, negatives=5,
                                  subsample=1.0, seed=5))
    intra, inter = [], []
    for i, a in enumerate(table.ids):
        for b in table.ids[i + 1:]:
            sim = _cos(table.get(a), table.get(b))
            (intra if a[0] == b[0] else inter).append(sim)
    assert np.mean(intra) > np.mean(inter)


def test_train_sgns_accepts_word_sequences():
    sentences = [["the", "cat", "sat"], ["the", "dog", "sat"]] * 10
    table = train_sgns(sentences, SgnsConfig(dim=4, epochs=2, negatives=2,
                                             subsample=1.0, window=2, seed=0))
    assert set(table.ids) == {"the", "cat", "dog", "sat"}
    assert table.ids[0] in ("sat", "the")  # highest count first


def test_train_sgns_rejects_empty_data():
    with pytest.raises(ValueError):
        train_sgns([], SgnsConfig())
    with pytest.raises(ValueError):
        train_sgns([[]], SgnsConfig())


class TestSimilaritySearch:
    def _table(self):
        rng = np.random.default_rng(8)
        return EmbeddingTable([f"i{k}" for k in range(6)],
                              rng.standard_normal((6, 4)))

    def test_matches_brute_force(self):
        table = self._table()
        query = np.random.default_rng(1).standard_normal(4)
        expected = sorted(table.ids,
                          key=lambda i: (-_cos(query, table.get(i)), i))
        got = [i for i, _ in similarity_search(query, table, 6)]
        assert got == expected

    def test_excludes_and_clamps_topk(self):
        table = self._table()
        results = similarity_search(table.get("i0"), table, 100,
                                    exclude={"i0"})
        assert len(results) == 5
        assert "i0" not in [i for i, _ in results]

    def test_self_similarity_ranks_first(self):
        table = self._table()
        top_id, top_score = similarity_search(table.get("i3"), table, 1)[0]
        assert top_id == "i3"
        assert top_score == pytest.approx(1.0)

    def test_ties_break_on_ascending_id(self):
        table = EmbeddingTable(["b", "a", "c"],
                               np.array([[1.0, 0.0]] * 3))
        got = [i for i, _ in similarity_search(np.array([1.0, 0.0]), table, 3)]
        assert got == ["a", "b", "c"]

    def test_exact_ties_at_the_cut_keep_ascending_ids(self):
        # e, b, d, a score exactly alike and straddle the top-3 cut.
        table = EmbeddingTable(["e", "b", "f", "d", "a", "c"],
                               np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 0.0],
                                         [1.0, 1.0], [1.0, 1.0], [0.0, 1.0]]))
        results = similarity_search(np.array([1.0, 0.2]), table, 3,
                                    exclude={"b"})
        assert [i for i, _ in results] == ["f", "a", "d"]
        assert results[1][1] == results[2][1]

    def test_zero_norm_rows_rank_last(self):
        table = EmbeddingTable(["far", "zero"],
                               np.array([[-1.0, 0.0], [0.0, 0.0]]))
        results = similarity_search(np.array([1.0, 0.0]), table, 2)
        assert results[-1] == ("zero", -1.0)

    def test_rejects_bad_queries(self):
        table = self._table()
        for degenerate in (np.zeros(4), np.full(4, np.nan),
                           np.array([np.inf, 0.0, 0.0, 1.0])):
            with pytest.raises(ValueError, match="non-finite"):
                similarity_search(degenerate, table, 1)
        with pytest.raises(ValueError):
            similarity_search(np.ones(3), table, 1)
        with pytest.raises(ValueError):
            similarity_search(np.ones(4), table, 0)
