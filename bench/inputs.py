"""Seeded input generators for the benchmark workloads.

Every input is drawn from `numpy.random.default_rng(seed)`, so one seed
always gives the same files. The program only ever sees the generated
files and objects, never the seed.

Items belong to planted clusters. A cluster owns a direction in the
collaborative-filtering (CF) space, a slice of topic words whose word
vectors share a direction, and signature tags. Plots mix the cluster's
topic words with common words, capitals, punctuation and numbers, so the
tokenizer has real work to do.
"""

from __future__ import annotations

import csv
import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cb2cf import ContentProfile, EmbeddingTable, tokenize
from cb2cf.data import save_metadata

_LETTERS = string.ascii_lowercase


def letter_word(index: int, prefix: str = "") -> str:
    """A token made of letters only, so tokenization leaves it unchanged."""
    letters = ""
    for _ in range(3):
        index, digit = divmod(index, len(_LETTERS))
        letters = _LETTERS[digit] + letters
    return prefix + letters


@dataclass
class Vocabulary:
    topic_words: list[list[str]]  # per cluster
    common_words: list[str]

    @classmethod
    def make(cls, clusters: int, per_topic: int, common: int) -> "Vocabulary":
        topics = [[letter_word(c * per_topic + i, "t") for i in range(per_topic)]
                  for c in range(clusters)]
        return cls(topics, [letter_word(i, "c") for i in range(common)])

    def all_words(self) -> list[str]:
        return [w for topic in self.topic_words for w in topic] + self.common_words


def plot_text(rng, vocab: Vocabulary, cluster: int, n_words: int) -> str:
    """Plot of `n_words` whitespace tokens: mostly topic words of the
    cluster, some common words, with capitals, punctuation and years."""
    topic = vocab.topic_words[cluster]
    picks_topic = rng.random(n_words) < 0.7
    topic_idx = rng.integers(0, len(topic), n_words)
    common_idx = rng.integers(0, len(vocab.common_words), n_words)
    out = []
    for i in range(n_words):
        word = topic[topic_idx[i]] if picks_topic[i] else vocab.common_words[common_idx[i]]
        roll = rng.random()
        if roll < 0.02:
            word = str(int(rng.integers(1900, 2020)))
        elif roll < 0.12:
            word = word.capitalize()
        if rng.random() < 0.08:
            word += "," if rng.random() < 0.6 else "."
        out.append(word)
    return " ".join(out)


def log_uniform_lengths(rng, count: int, low: int, high: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(low), np.log(high), count)).astype(int)


def word_table(rng, vocab: Vocabulary, dim: int) -> EmbeddingTable:
    """A fixed random word table: topic words share their cluster's
    direction, common words are pure noise."""
    clusters = len(vocab.topic_words)
    directions = rng.standard_normal((clusters, dim))
    rows = []
    for c, topic in enumerate(vocab.topic_words):
        rows.append(directions[c] + 0.6 * rng.standard_normal((len(topic), dim)))
    rows.append(rng.standard_normal((len(vocab.common_words), dim)))
    return EmbeddingTable(vocab.all_words(), np.vstack(rows))


def cf_vectors(rng, clusters: np.ndarray, dim: int, noise: float) -> np.ndarray:
    """Unit cluster directions plus isotropic noise of norm about `noise`."""
    basis, _ = np.linalg.qr(rng.standard_normal((dim, int(clusters.max()) + 1)))
    return basis.T[clusters] + noise * rng.standard_normal((len(clusters), dim)) / np.sqrt(dim)


def profile(rng, item_id: str, cluster: int, vocab: Vocabulary, n_words: int,
            tag_missing: float) -> ContentProfile:
    """Item metadata. With probability `tag_missing` the item has no tags."""
    tagged = rng.random() >= tag_missing
    return ContentProfile(
        id=item_id,
        plot=plot_text(rng, vocab, cluster, n_words),
        genres=[f"genre_{letter_word(cluster % 4)}"] if tagged else [],
        actors=[f"actor_{letter_word(cluster // 4)}",
                f"actor_{letter_word(100 + int(rng.integers(0, 40)))}"] if tagged else [],
        directors=[f"director_{letter_word(cluster % 3)}"] if tagged else [],
        languages=[f"language_{letter_word(cluster // 3)}"] if tagged else [],
        year=int(rng.integers(1950, 2015)),
    )


# -- embed ------------------------------------------------------------------

@dataclass
class EmbedInputs:
    ratings: Path
    corpus: Path
    planted_sets: list[tuple[str, ...]]  # sorted
    clusters: dict[str, int]
    corpus_vocabulary: int
    descriptors: dict


def long_tail_sizes(users: int, largest: int) -> np.ndarray:
    """Deterministic Pareto quantiles: most users like 2-3 items, a few
    like dozens. The same for every seed, so the pair count is too."""
    q = (np.arange(users) + 0.5) / users
    return np.minimum(largest, np.floor(2 * q ** -0.8)).astype(int)


def size_histogram(sizes) -> dict[str, int]:
    edges = [2, 3, 5, 9, 17, 33, 65, 129, 257]
    labels = ["2", "3-4", "5-8", "9-16", "17-32", "33-64", "65-128", "129-256", "257+"]
    hist = dict.fromkeys(labels, 0)
    for n in sizes:
        for label, lo, hi in zip(labels, edges, edges[1:] + [10 ** 9]):
            if lo <= n < hi:
                hist[label] += 1
    return hist


def generate_embed(seed: int, directory: Path, *, items: int, clusters: int,
                   users: int, largest_set: int, sentences: int) -> EmbedInputs:
    """Ratings whose liked sets sit mostly (95%) inside one cluster, and a
    plot corpus.

    The ratings also hold rows at or below the like threshold (3.5) and
    duplicate (user, item) rows whose later timestamp, or on a timestamp
    tie later file position, decides the rating.
    """
    rng = np.random.default_rng([seed, 1])
    item_cluster = np.arange(items) % clusters
    members = [np.flatnonzero(item_cluster == c) for c in range(clusters)]
    item_ids = [f"i{i:05d}" for i in range(items)]

    # Sizes come largest first; dealing them round-robin gives every
    # cluster the same share of large sets, so no cluster is left short of
    # training pairs.
    offset = int(rng.integers(clusters))
    liked_sets: list[np.ndarray] = []
    for j, n in enumerate(long_tail_sizes(users, largest_set)):
        c = (j + offset) % clusters
        outside_n = int(round(0.05 * n))
        inside = rng.choice(members[c], min(len(members[c]), n - outside_n), replace=False)
        others = np.setdiff1d(np.arange(items), inside)
        liked_sets.append(np.concatenate(
            [inside, rng.choice(others, n - len(inside), replace=False)]))
    # Users left with one liked item: their set is dropped by the loader.
    liked_sets += [rng.choice(items, 1) for _ in range(users // 20)]

    rows: list[list] = []
    planted: list[tuple[str, ...]] = []
    order = rng.permutation(len(liked_sets))
    for user_number, set_index in enumerate(order):
        liked = liked_sets[set_index]
        user = f"u{user_number:05d}"
        pool = np.setdiff1d(np.arange(items), liked)
        disliked = rng.choice(pool, min(len(pool), max(1, len(liked) // 3)), replace=False)
        final = [(int(i), float(rng.choice([4.0, 4.5, 5.0]))) for i in liked]
        final += [(int(i), float(rng.choice([0.5, 1.0, 2.0, 3.0, 3.5]))) for i in disliked]
        user_rows = []
        for item, rating in final:
            ts = int(rng.integers(1_000_000, 2_000_000))
            user_rows.append([user, item_ids[item], rating, ts])
        user_rows = [user_rows[i] for i in rng.permutation(len(user_rows))]
        out: list[list] = []
        for row in user_rows:
            flipped = 1.0 if row[2] > 3.5 else 5.0
            roll = rng.random()
            if roll < 0.1:  # stale earlier rating, superseded by timestamp
                out.insert(int(rng.integers(0, len(out) + 1)),
                           [row[0], row[1], flipped, row[3] - int(rng.integers(1, 10_000))])
            elif roll < 0.15:  # same timestamp, superseded by file position
                out.append([row[0], row[1], flipped, row[3]])
            out.append(row)
        rows += out
        if len(liked) >= 2:
            planted.append(tuple(sorted(item_ids[i] for i in liked)))

    ratings = directory / "ratings.csv"
    with open(ratings, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["userId", "movieId", "rating", "timestamp"])
        for user, item, rating, ts in rows:
            writer.writerow([user, item, repr(rating), ts])

    vocab = Vocabulary.make(clusters=8, per_topic=150, common=300)
    lengths = rng.integers(5, 40, sentences)
    corpus = directory / "corpus.txt"
    tokens = 0
    distinct: set[str] = set()
    with open(corpus, "w", encoding="utf-8") as fh:
        for n in lengths:
            line = plot_text(rng, vocab, int(rng.integers(8)), int(n))
            words = tokenize(line)
            tokens += len(words)
            distinct.update(words)
            fh.write(line + "\n")

    sizes = np.array([len(s) for s in planted])
    pairs = sizes * (sizes - 1)
    top = max(1, len(sizes) // 100)
    descriptors = {
        "rating_rows": len(rows),
        "users": len(liked_sets),
        "planted_sets": len(planted),
        "set_size_histogram": size_histogram(sizes),
        "set_size_max": int(sizes.max()),
        "pairs_per_epoch": int(pairs.sum()),
        "pairs_share_largest_1pct_sets": float(np.sort(pairs)[::-1][:top].sum() / pairs.sum()),
        "corpus_sentences": int(sentences),
        "corpus_tokens": tokens,
    }
    return EmbedInputs(ratings, corpus, sorted(planted),
                       {item_ids[i]: int(item_cluster[i]) for i in range(items)},
                       len(distinct), descriptors)


# -- crossval ----------------------------------------------------------------

def text_fill(profiles, table: EmbeddingTable, text_length: int) -> float:
    """Mean share of the model's text rows that hold a real word."""
    fills = []
    for p in profiles:
        in_table = sum(1 for t in tokenize(p.plot or "") if t in table.index)
        fills.append(min(in_table, text_length) / text_length)
    return float(np.mean(fills))


@dataclass
class CrossvalInputs:
    config: Path
    report: Path
    profiles: list[ContentProfile]
    targets: EmbeddingTable
    descriptors: dict


def generate_crossval(seed: int, directory: Path, *, catalog: int, items: int,
                      clusters: int, word_dim: int, settings: dict) -> CrossvalInputs:
    """A CF catalog, metadata for a subset of it, a fixed random word
    table, and the `cb2cf evaluate` config that ties them together."""
    rng = np.random.default_rng([seed, 2])
    vocab = Vocabulary.make(clusters, per_topic=60, common=200)
    cluster_of = rng.integers(0, clusters, catalog)
    ids = [f"m{i:05d}" for i in range(catalog)]
    targets = EmbeddingTable(ids, cf_vectors(rng, cluster_of, 40, 0.25))
    chosen = np.sort(rng.choice(catalog, items, replace=False))
    lengths = log_uniform_lengths(rng, items, 3, 800)
    profiles = [profile(rng, ids[i], int(cluster_of[i]), vocab, int(n), tag_missing=0.4)
                for i, n in zip(chosen, lengths)]
    words = word_table(rng, vocab, word_dim)

    save_metadata(profiles, directory / "metadata.jsonl")
    targets.save(directory / "targets.vec")
    words.save(directory / "words.vec")
    report = directory / "report.json"
    config = {
        "metadata": str(directory / "metadata.jsonl"),
        "targets": str(directory / "targets.vec"),
        "word_vectors": str(directory / "words.vec"),
        "report": str(directory / "report.tsv"),
        "report_json": str(report),
        "seed": seed,
        **settings,
    }
    config_path = directory / "evaluate.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    descriptors = {
        "catalog_items": catalog,
        "metadata_items": items,
        "word_vocabulary": len(words),
        "word_dim": word_dim,
        "model.text_fill": text_fill(profiles, words, 500),
    }
    return CrossvalInputs(config_path, report, profiles, targets, descriptors)


# -- coldstart ---------------------------------------------------------------

@dataclass
class ColdstartInputs:
    catalog: EmbeddingTable
    word_table: EmbeddingTable
    train_profiles: list[ContentProfile]
    queries: list[ContentProfile]
    descriptors: dict


def generate_coldstart(seed: int, *, catalog: int, clusters: int, train_items: int,
                       queries: int, word_dim: int) -> ColdstartInputs:
    """A large CF catalog (with some exact duplicate rows, so ranking ties
    happen), a small training set drawn from it, and cold query items that
    are not in the catalog."""
    rng = np.random.default_rng([seed, 3])
    vocab = Vocabulary.make(clusters, per_topic=60, common=200)
    cluster_of = rng.integers(0, clusters, catalog)
    vectors = cf_vectors(rng, cluster_of, 40, 0.5)
    duplicates = rng.choice(catalog, catalog // 100, replace=False)
    vectors[duplicates] = vectors[rng.choice(catalog, len(duplicates))]
    ids = [f"m{i:05d}" for i in range(catalog)]
    table = EmbeddingTable(ids, vectors)
    train_rows = rng.choice(catalog, train_items, replace=False)
    train_profiles = [profile(rng, ids[i], int(cluster_of[i]), vocab,
                              int(rng.integers(20, 200)), tag_missing=0.3)
                      for i in train_rows]
    lengths = log_uniform_lengths(rng, queries, 3, 800)
    query_profiles = [profile(rng, f"q{i:05d}", int(rng.integers(clusters)), vocab,
                              int(n), tag_missing=0.3)
                      for i, n in enumerate(lengths)]
    words = word_table(rng, vocab, word_dim)
    descriptors = {
        "catalog_items": catalog,
        "catalog_mib": vectors.nbytes / 2 ** 20,
        "query_items": queries,
        "query_words_min": int(lengths.min()),
        "query_words_max": int(lengths.max()),
        "model.text_fill": text_fill(query_profiles, words, 500),
    }
    return ColdstartInputs(table, words, train_profiles, query_profiles, descriptors)
