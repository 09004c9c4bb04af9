import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from cb2cf import net, sgns
from cb2cf.cli import build_parser
from cb2cf.sgns import (CooccurrenceSets, EmbeddingTable, NoiseSampler,
                        SgnsConfig, SgnsTrainer, cosine_scores, discard_probabilities,
                        pack_blocks, sigmoid, similarity_search, train_sgns)


def test_sigmoid_midpoint_and_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(-1000.0) == pytest.approx(0.0)
    out = sigmoid(np.array([-2.0, 0.0, 2.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0 - out[2])


def test_config_defaults_per_mode():
    """The per-mode SGNS defaults are those of the two training commands."""
    parser, _ = build_parser()
    item = parser.parse_args(["train-item2vec"])
    word = parser.parse_args(["train-word2vec"])
    assert (item.dim, item.subsample) == (40, 1e-4)
    assert (word.dim, word.subsample, word.window) == (100, 1e-5, 4)
    for args in (item, word):
        assert (args.epochs, args.neg, args.lr) == (100, 15, 0.025)


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
        SgnsConfig(window=0)
    with pytest.raises(ValueError):
        SgnsConfig(learning_rate=0.0)
    for rate in (math.nan, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(ValueError, match="^learning rate must be positive and finite$"):
            SgnsConfig(learning_rate=rate)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        SgnsConfig(seed=-1)


def test_cooccurrence_sets_validation():
    sets = CooccurrenceSets([("a", "b"), ("b", "c", "a")])
    assert sets.sets == [("a", "b"), ("b", "c", "a")]
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

    @staticmethod
    def _extreme_table():
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((4, 6)) * np.array([1e-300, 1e-17, 1.0, 1e12, 1e300, 1.0])
        vectors[0, :3] = [-0.0, 5e-324, -2.2250738585072e-310]  # signed zero, subnormals
        vectors[1, :2] = [1e300, -1e300]
        return EmbeddingTable([f"i{k}" for k in range(4)], vectors)

    def test_checkpoint_round_trip_of_extreme_values_is_bit_exact(self, tmp_path):
        table = self._extreme_table()
        path = tmp_path / "table.vec"
        table.save(path)
        assert path.read_bytes()[:1] == b"{"
        loaded = EmbeddingTable.load(path)
        assert loaded.ids == table.ids
        assert loaded.vectors.tobytes() == table.vectors.tobytes()

    def test_word2vec_text_of_extreme_value_reprs_loads_bit_exact(self, tmp_path):
        table = self._extreme_table()
        path = tmp_path / "table.txt"
        path.write_text("4 6\n" + "".join(
            item_id + " " + " ".join(repr(float(x)) for x in row) + "\n"
            for item_id, row in zip(table.ids, table.vectors)))
        loaded = EmbeddingTable.load(path)
        assert loaded.ids == table.ids
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

    def test_load_names_the_file_of_a_repeated_id(self, tmp_path):
        path = tmp_path / "dup.vec"
        path.write_text("2 2\na 1.0 2.0\na 3.0 4.0\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: duplicate id")):
            EmbeddingTable.load(path)

    def test_load_does_not_allocate_from_a_huge_header_count(self, tmp_path):
        path = tmp_path / "huge.vec"
        path.write_text("99999999999999 40\na " + " ".join(["0.5"] * 40) + "\n")
        with pytest.raises(ValueError, match="header declares 99999999999999 rows, found 1"):
            EmbeddingTable.load(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda t, m: m["ids"].__setitem__(1, 7), "not a cb2cf-vectors file"),
        (lambda t, m: m.__setitem__("ids", "a b c"), "not a cb2cf-vectors file"),
        (lambda t, m: m.__delitem__("ids"), "not a cb2cf-vectors file"),
        (lambda t, m: m["ids"].pop(), "ids and vectors differ in length"),
        (lambda t, m: m["ids"].__setitem__(1, "a"), "duplicate id"),
        (lambda t, m: m["ids"].__setitem__(1, "a\tb"), "not a cb2cf-vectors file"),
        (lambda t, m: m["ids"].__setitem__(2, ""), "not a cb2cf-vectors file"),
        (lambda t, m: m.__delitem__("kind"), "not a cb2cf-vectors file"),
        (lambda t, m: m.__setitem__("kind", "cb2cf-model"), "not a cb2cf-vectors file"),
        (lambda t, m: t.__setitem__("extra", np.zeros(2)), "not a cb2cf-vectors file"),
        (lambda t, m: t.__setitem__("vectors", np.zeros(3)), "vectors must be a 2-D array"),
        (lambda t, m: t.__setitem__("vectors", np.zeros((3, 0))), "dimension must be >= 1"),
        (lambda t, m: t["vectors"].__setitem__((0, 1), np.inf), "vectors must be finite"),
    ], ids=["int-id", "ids-string", "no-ids", "short-ids", "repeated-id", "tab-id", "empty-id",
         "no-kind",
            "model-kind", "extra-tensor", "1-d", "0-dim", "infinite"])
    def test_load_rejects_a_checkpoint_that_is_not_a_table(self, tmp_path, edit, message):
        path = tmp_path / "table.vec"
        EmbeddingTable(["a", "b", "c"], np.arange(6.0).reshape(3, 2)).save(path)
        tensors, meta = net.load_checkpoint(path)
        edit(tensors, meta)
        net.save_checkpoint(path, tensors, meta)
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ") + ".*" + message):
            EmbeddingTable.load(path)

    def test_load_reads_the_format_from_the_first_byte(self, tmp_path):
        table = EmbeddingTable(["a", "b"], np.array([[0.5, -1.0], [2.0, 1e-300]]))
        binary, text = tmp_path / "table.vec", tmp_path / "table.txt"
        table.save(binary)
        text.write_text("2 2\na 0.5 -1.0\nb 2.0 1e-300\n")
        for path in (binary, text):
            loaded = EmbeddingTable.load(path)
            assert loaded.ids == table.ids
            assert loaded.vectors.tobytes() == table.vectors.tobytes()
        text.write_text("{2 2\na 0.5 -1.0\n")  # a brace opens a manifest, not a header
        with pytest.raises(ValueError, match="^" + re.escape(f"checkpoint {text}: unreadable")):
            EmbeddingTable.load(text)


def _cos(u, v):
    """Scalar reference cosine, -1.0 for a zero-norm operand."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return -1.0
    return float(np.dot(u, v) / (nu * nv))


def _exact_cos(u, v):
    """Cosine in exact rational arithmetic, rounded once at the end; -1.0
    for a zero operand."""
    u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
    dot = sum(x * y for x, y in zip(u, v))
    squares = sum(x * x for x in u) * sum(y * y for y in v)
    if squares == 0:
        return -1.0
    return math.copysign(math.sqrt(dot * dot / squares), dot)


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


def test_cosine_scores_rescale_norms_that_underflow_or_overflow():
    # Squares of these components underflow to subnormals or zero, or
    # overflow to inf; every cosine is still that of the plain direction.
    rows = np.array([[3.0, 4.0], [3e-170, 4e-170], [3e-310, 4e-310],
                     [3e200, 4e200], [1e300, 0.0], [0.0, 0.0]])
    table = EmbeddingTable(["plain", "tiny", "subnormal", "huge", "axis", "zero"], rows)
    for query in (np.array([1.0, 0.0]), np.array([1e200, 0.0]), np.array([1e-200, 0.0])):
        scores = cosine_scores(query, table)
        assert scores is not None
        # The subnormal row holds its components to about 1e-14.
        assert scores[:4] == pytest.approx([0.6] * 4, rel=1e-12, abs=0)
        assert scores[4:].tolist() == [1.0, -1.0]
    huge = cosine_scores(np.array([1e200, 1e200]), table)
    assert huge[0] == pytest.approx(7 / (5 * math.sqrt(2)), rel=1e-15)
    with pytest.raises(ValueError, match="non-finite"):
        similarity_search(np.array([np.inf, 1e200]), table, 1)


@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6),
       st.floats(0.1, 50.0))
@example(values=[0.0, 9.247568681504214e-160], scale=0.5)
@example(values=[0.0, 5e-324], scale=0.5)
def test_cosine_scale_invariance(values, scale):
    a = np.array(values)
    b = np.roll(a, 1) + 0.5
    rows = np.array([a, a * scale])
    scores = cosine_scores(b, EmbeddingTable(["a", "scaled"], rows))
    assume(scores is not None)  # b itself has zero norm
    for score, row in zip(scores, rows):
        assert score == pytest.approx(_exact_cos(row, b), abs=1e-9)
    # Scaling rounds a subnormal component to a few bits, or to zero, so
    # the scaled row points elsewhere; it is a multiple of a otherwise.
    if not np.any((rows != 0) & (np.abs(rows) < np.finfo(np.float64).tiny)):
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


def test_cached_row_norms_serve_every_query_of_a_read_only_table():
    rng = np.random.default_rng(11)
    vectors = rng.standard_normal((40, 5))
    vectors[[3, 7]] *= [[1e-170], [1e200]]  # rows that cosine_scores rescales
    vectors[9] = 0.0
    table = EmbeddingTable([f"r{i}" for i in range(40)], vectors)
    for _ in range(4):
        query = rng.standard_normal(5)
        fresh = EmbeddingTable(table.ids, vectors.copy())
        assert cosine_scores(query, table).tolist() == cosine_scores(query, fresh).tolist()
    assert np.array_equal(table.vectors, vectors)
    with pytest.raises(ValueError, match="read-only"):
        table.vectors[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        table.get("r1")[:] = 0.0
    assert vectors.flags.writeable  # the caller's array is left as it was


def _reference_word_pairs(sentence, spans):
    """(center, context) pairs of every position within its own span."""
    return [(sentence[i], sentence[j]) for i in range(len(sentence))
            for j in range(max(0, i - spans[i]), min(len(sentence), i + spans[i] + 1))
            if j != i]


def _packed_pairs(sequences, spans, size):
    """The (center, context) pairs that ``pack_blocks`` masks in over the
    concatenated ``sequences`` (``spans`` per stream position), with
    multiplicity, block after block. Checks that no block holds more than
    ``size`` centers and that no pair crosses a sequence."""
    stream = np.concatenate([np.asarray(s, dtype=np.int64) for s in sequences])
    seqs = np.repeat(np.arange(len(sequences)), [len(s) for s in sequences])
    pairs = []
    for centers, contexts, mask in pack_blocks(seqs, np.asarray(spans), size):
        assert 0 < centers.stop - centers.start <= size
        assert mask.shape == (len(stream[centers]), len(stream[contexts]))
        assert set(np.unique(mask)) <= {0.0, 1.0}
        rows, cols = np.nonzero(mask)
        assert np.array_equal(seqs[centers][rows], seqs[contexts][cols])
        pairs += list(zip(stream[centers][rows].tolist(), stream[contexts][cols].tolist()))
    return pairs


def _block_pairs(sentence, spans, size):
    return _packed_pairs([sentence], spans, size)


def test_word_pairs_are_deterministic_at_window_one():
    assert _block_pairs([5, 7], [1, 1], 256) == [(5, 7), (7, 5)]
    assert _block_pairs([3], [1], 256) == []
    assert _packed_pairs([[5, 7], [3], [8, 9]], [1] * 5, 256) == [(5, 7), (7, 5), (8, 9), (9, 8)]


def test_word_pairs_expected_count_matches_uniform_window_draw():
    # For [a, b, c] with window 2 the per-position spans give expected
    # pair counts 1.5 + 2 + 1.5 = 5.
    rng = np.random.default_rng(42)
    totals = [len(_block_pairs([0, 1, 2], rng.integers(1, 3, 3), 256))
              for _ in range(4000)]
    assert np.mean(totals) == pytest.approx(5.0, abs=0.15)


def test_word_pairs_stay_inside_the_window():
    rng = np.random.default_rng(1)
    sentence = list(range(10))
    for size in (1, 4, 256):
        for _ in range(50):
            for center, context in _block_pairs(sentence, rng.integers(1, 4, 10), size):
                assert center != context
                assert abs(center - context) <= 3


@pytest.mark.parametrize("size", [1, 2, 3, 7, 256])
def test_window_block_masks_equal_the_per_position_window_pairs(size):
    """Blocks cut across sequence boundaries; their masks still give each
    sequence's own window pairs, and only those."""
    rng = np.random.default_rng(size)
    for lengths in ([1], [2], [5], [12], [3, 1, 4], [2, 12, 2, 5]):
        # Disjoint id ranges per sequence, word ids repeating within one.
        sequences = [(rng.integers(0, 4, n) + 10 * k).tolist() for k, n in enumerate(lengths)]
        for _ in range(20):
            spans = [rng.integers(1, 5, n).tolist() for n in lengths]
            expected = [pair for seq, sp in zip(sequences, spans)
                        for pair in _reference_word_pairs(seq, sp)]
            assert sorted(_packed_pairs(sequences, sum(spans, []), size)) == sorted(expected)


def _recorded_blocks(monkeypatch, data, config):
    """Every (centers, contexts, mask, negatives, lr) that ``train_sgns``
    passes to ``train_pairs``, the first three as id arrays of the trained
    table."""
    calls = []
    original = SgnsTrainer.train_pairs

    def record(self, centers, contexts, mask, negatives, lr):
        calls.append((np.array(centers), np.array(contexts), np.array(mask), np.array(negatives),
                      np.array(lr)))
        original(self, centers, contexts, mask, negatives, lr)

    monkeypatch.setattr(SgnsTrainer, "train_pairs", record)
    table = train_sgns(data, config)
    return table, calls


def _recorded_pairs(table, calls):
    pairs = []
    for centers, contexts, mask, _, _ in calls:
        rows, cols = np.nonzero(mask)
        assert mask.sum() == len(rows)
        pairs += [(table.ids[centers[i]], table.ids[contexts[j]]) for i, j in zip(rows, cols)]
    return pairs


def test_item_pairs_enumerate_all_ordered_pairs(monkeypatch):
    """One epoch's blocks mask in every ordered pair of every set exactly
    once, pair no two sets, and hold at most ``block_centers`` centers; a
    set longer than a block still pairs with all of its members."""
    monkeypatch.setattr(sgns, "block_centers", lambda vocab_size: 3)
    # Set ids are disjoint, so a pair across two sets would show as an
    # unexpected pair; the last set is longer than a block.
    sets = CooccurrenceSets([("a", "b"), ("c", "d", "e"), ("f", "g"),
                             ("h", "i", "j", "k", "l", "m", "n")])
    config = SgnsConfig(dim=3, epochs=1, negatives=4, subsample=1.0, seed=0)
    table, calls = _recorded_blocks(monkeypatch, sets, config)
    assert [len(c[0]) for c in calls] == [3, 3, 3, 3, 2]
    assert all(c[3].shape == (4,) for c in calls)
    expected = [(a, b) for items in sets.sets for a in items for b in items if a != b]
    assert sorted(_recorded_pairs(table, calls)) == sorted(expected)
    # Blocks share sets: the first block's contexts reach into the second
    # set; the long set's blocks each see its whole membership.
    assert [table.ids[i] for i in calls[0][1]] == list("abcde")
    for centers, contexts, _, _, _ in calls[3:]:
        assert sorted(table.ids[i] for i in contexts) == list("hijklmn")


def test_word_blocks_of_a_long_sentence_cover_its_window_pairs(monkeypatch):
    monkeypatch.setattr(sgns, "block_centers", lambda vocab_size: 3)
    sentences = [[f"w{i}" for i in range(8)], ["x", "y"], ["z"]]
    config = SgnsConfig(dim=3, epochs=2, negatives=2, subsample=1.0, window=1, seed=0)
    table, calls = _recorded_blocks(monkeypatch, sentences, config)
    # Window 1 fixes every span at 1: each epoch pairs neighbours only.
    # The 10 kept centers (["z"] has no pair) make blocks of 3, 3, 3 and 1,
    # the third one crossing from the long sentence into ["x", "y"].
    assert [len(c[0]) for c in calls] == [3, 3, 3, 1] * 2
    expected = []
    for sentence in sentences:
        expected += _reference_word_pairs(sentence, [1] * len(sentence))
    assert sorted(_recorded_pairs(table, calls[:4])) == sorted(expected)
    # Each block draws its own negatives.
    assert len({c[3].tobytes() for c in calls}) > 1


def test_train_sgns_passes_each_center_its_sequence_learning_rate(monkeypatch):
    """Each center's rate is max(floor, lr0 (1 - units / total units)) at
    its sequence's first stream position, whatever block it falls in."""
    monkeypatch.setattr(sgns, "block_centers", lambda vocab_size: 4)
    sentences = [["a", "b", "c"], ["d"], ["e", "f", "g", "h", "i"], ["j", "k"]] * 3
    config = SgnsConfig(dim=3, epochs=3, negatives=2, subsample=1.0, window=2,
                        learning_rate=0.5, seed=4)
    table, calls = _recorded_blocks(monkeypatch, sentences, config)
    offsets = np.cumsum([0] + [len(s) for s in sentences])
    position = int(offsets[-1])
    total_units = config.epochs * position
    floor = sgns.LR_FLOOR_FRACTION * config.learning_rate
    seen = 0
    for epoch in range(config.epochs):
        expected = [max(floor, config.learning_rate
                        * (1.0 - (epoch * position + int(offsets[k])) / total_units))
                    for k, sentence in enumerate(sentences) if len(sentence) > 1
                    for _ in sentence]
        got = []
        while len(got) < len(expected):
            centers, _, _, _, lr = calls[seen]
            assert lr.shape == (len(centers), 1)
            got += lr[:, 0].tolist()
            seen += 1
        assert got == expected
    assert seen == len(calls)


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
    # f = 0.75, t = 0.03: discard 1 - sqrt(0.04) = 0.8, keep 0.2; drawn as
    # train_sgns draws its keep mask.
    stream = np.zeros(100_000, dtype=np.int64)
    discard = discard_probabilities(np.array([3.0, 1.0]), 0.03)[stream]
    kept = np.random.default_rng(9).random(len(stream)) >= discard
    assert kept.mean() == pytest.approx(0.2, abs=0.01)


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


def _train_pair(trainer, center, context, negatives, lr):
    trainer.train_pairs([center], [context], np.ones((1, 1)), negatives, lr)


def _pair_loss(trainer, center, context, negatives):
    u = trainer.input[center]
    pos = sigmoid(float(trainer.output[context] @ u))
    neg = sigmoid(-(trainer.output[np.asarray(negatives)] @ u))
    return float(-(math.log(pos + 1e-12) + np.log(neg + 1e-12).sum()))


@pytest.mark.parametrize("negatives", [[2, 3], [2, 2], [3, 4, 3]])
def test_train_pair_matches_reference_update(negatives):
    rng = np.random.default_rng(11)
    trainer = SgnsTrainer(5, 4, rng)
    trainer.output = rng.standard_normal((5, 4)) * 0.3
    expected_in, expected_out = _reference_pair_update(
        trainer.input, trainer.output, 0, 1, negatives, lr=0.1)
    _train_pair(trainer, 0, 1, np.array(negatives), lr=0.1)
    assert np.allclose(trainer.input, expected_in, atol=1e-12)
    assert np.allclose(trainer.output, expected_out, atol=1e-12)


def _reference_block_update(trainer, centers, contexts, mask, negatives, lr):
    """The sum of each masked pair's reference step from the pre-step
    tables, every pair with the shared negatives minus those equal to its
    context."""
    expected_in, expected_out = trainer.input.copy(), trainer.output.copy()
    for i, j in zip(*np.nonzero(mask)):
        center, context = int(centers[i]), int(contexts[j])
        negs = [n for n in negatives if n != context]
        pair_in, pair_out = _reference_pair_update(
            trainer.input, trainer.output, center, context, negs, lr)
        expected_in += mask[i, j] * (pair_in - trainer.input)
        expected_out += mask[i, j] * (pair_out - trainer.output)
    return expected_in, expected_out


def _check_block_step(centers, contexts, mask, negatives, seed, vocab=7, lr=0.1):
    mask = np.asarray(mask, dtype=float)
    rng = np.random.default_rng(seed)
    trainer = SgnsTrainer(vocab, 5, rng)
    trainer.output = rng.standard_normal((vocab, 5)) * 0.3
    expected_in, expected_out = _reference_block_update(
        trainer, centers, contexts, mask, negatives, lr)
    trainer.train_pairs(np.array(centers), np.array(contexts), mask, np.array(negatives), lr)
    assert np.allclose(trainer.input, expected_in, rtol=0, atol=1e-12)
    assert np.allclose(trainer.output, expected_out, rtol=0, atol=1e-12)


def test_train_pairs_is_one_simultaneous_step_over_the_block():
    # A sentence in which word 0 repeats, with its window mask; negative 2
    # is the context of some pairs, and negative 4 is drawn twice.
    sentence = [0, 2, 0, 3, 1]
    (_, _, mask), = pack_blocks(np.zeros(5, dtype=np.int64), np.array([1, 2, 1, 2, 1]), 256)
    _check_block_step(sentence, sentence, mask, [4, 2, 4, 5], seed=12)


@pytest.mark.parametrize("case", [
    # item set: every ordered pair, negatives clear of the set
    ([1, 3, 5], [1, 3, 5], 1.0 - np.eye(3), [0, 2, 6]),
    # item set: a negative equal to one member, the context of two pairs
    ([1, 3, 5], [1, 3, 5], 1.0 - np.eye(3), [3, 0, 6]),
    # duplicated negative, one of them equal to a context
    ([1, 3], [1, 3], 1.0 - np.eye(2), [3, 3, 6, 6]),
    # repeated word id among centers and contexts of a sentence
    ([2, 4, 2, 2], [2, 4, 2, 2], [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]],
     [2, 6, 0]),
    # a block of a long sentence: contexts reach past its centers
    ([4, 1], [0, 4, 1, 3], [[1, 0, 1, 1], [0, 1, 0, 1]], [1, 1, 5]),
    # a weighted pair counts its weight times
    ([0], [1], [[2.0]], [3, 1]),
], ids=["item", "negative-is-a-member", "duplicate-negative", "repeated-word",
        "contexts-beyond-centers", "weighted-pair"])
def test_block_step_equals_the_sum_of_its_pair_updates(case):
    _check_block_step(*case, seed=len(case[0]))


def test_a_block_past_the_dense_scatter_limit_sums_repeated_targets_alike():
    """More targets than ``DENSE_SCATTER_MAX`` (a long set's contexts) take
    the ``np.add.at`` scatter, with the same step as the sum of pair updates."""
    rng = np.random.default_rng(8)
    width = sgns.DENSE_SCATTER_MAX + 12
    contexts = rng.integers(0, 7, width).tolist()  # ids repeat many times
    mask = (rng.random((3, width)) < 0.3).astype(float)
    _check_block_step([1, 3, 1], contexts, mask, [2, 6, 2, 0], seed=8)


def test_train_pair_zero_tables_are_a_fixed_point():
    trainer = SgnsTrainer(4, 3, np.random.default_rng(0))
    trainer.input[:] = 0.0
    _train_pair(trainer, 0, 1, np.array([2, 3]), lr=0.5)
    assert np.all(trainer.input == 0.0)
    assert np.all(trainer.output == 0.0)


def test_repeated_pair_training_reduces_its_loss_monotonically():
    rng = np.random.default_rng(7)
    trainer = SgnsTrainer(6, 8, rng)
    trainer.output = (rng.random((6, 8)) - 0.5) * 0.1
    negatives = np.array([2, 3, 4])
    losses = []
    for _ in range(100):
        losses.append(_pair_loss(trainer, 0, 1, negatives))
        _train_pair(trainer, 0, 1, negatives, lr=0.05)
    losses.append(_pair_loss(trainer, 0, 1, negatives))
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


def test_train_sgns_separates_disjoint_topic_sentences():
    """Word mode: sentences drawn from one of two disjoint topic
    vocabularies give vectors whose nearest neighbours share the topic. The
    512-word vocabulary trains in blocks of the largest size, 64 centers."""
    rng = np.random.default_rng(2)
    topics = [[f"{name}{k}" for k in range(256)] for name in ("a", "b")]
    sentences = [rng.choice(topics[int(rng.integers(2))], size=8).tolist() for _ in range(2000)]
    assert sgns.block_centers(2 * 256) == 64
    table = train_sgns(sentences, SgnsConfig(dim=10, epochs=10, negatives=5, subsample=1.0,
                                             window=3, seed=1))
    assert len(table) == 2 * 256
    unit = table.vectors / np.linalg.norm(table.vectors, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.fill_diagonal(sims, np.nan)
    topic = np.array([t[0] for t in table.ids])
    same = topic[:, None] == topic
    purity = np.mean(topic[np.nanargmax(sims, axis=1)] == topic)
    assert purity >= 0.9
    assert np.nanmean(sims[same]) > np.nanmean(sims[~same])


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
