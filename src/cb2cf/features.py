"""Content featurization: text word indices, clustered bag-of-words
histograms, binary tag vectors, and a standardized release-year scalar.

A FeatureContext bundles every fitted statistic (tag vocabulary, year
mean/std, word vectors, centroids). In cross-validation the item-dependent
statistics must be fitted on training items only; the word table and its
centroids depend on no item and may be shared across folds. A context caches
each word's BOW row on first use: it grows with the words seen, not the table.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .corpus import tokenize
from .sgns import EmbeddingTable

if TYPE_CHECKING:
    from .data import ContentProfile

NA_TOKEN = "n/a"
TAG_FIELDS = ("genres", "actors", "directors", "languages")
DEFAULT_MAX_WORDS = 500
DEFAULT_TEMPERATURE = 0.1
DEFAULT_MIN_TAG_COUNT = 5
ALL_PARTS = ("text", "bow", "year") + TAG_FIELDS

MANIFEST_NAME = "manifest.json"
CONTEXT_VERSION = 1


def text_tokens(text: str | None) -> list[str]:
    """Tokenized text, or the literal 'n/a' sentinel when nothing survives."""
    tokens = tokenize(text) if text else []
    return tokens if tokens else [NA_TOKEN]


def text_word_indices(tokens: Sequence[str], table: EmbeddingTable,
                      max_words: int) -> np.ndarray:
    """Row indices of the first ``max_words`` tokens that have a vector."""
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    index = table.index
    out: list[int] = []
    for token in tokens:
        if token in index:
            out.append(index[token])
            if len(out) == max_words:
                break
    return np.array(out, dtype=np.int64)


@dataclass
class Centroids:
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError("centroids must be a nonempty 2-D array")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("centroids must be finite")
        if len(np.unique(self.vectors, axis=0)) != len(self.vectors):
            raise ValueError("centroids must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.vectors)


def _kmeans_pp_init(points: np.ndarray, clusters: int, rng) -> np.ndarray:
    n = len(points)
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, clusters):
        total = d2.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        chosen.append(pick)
        d2 = np.minimum(d2, ((points - points[pick]) ** 2).sum(axis=1))
    return points[chosen].copy()


def fit_kmeans(vectors: np.ndarray, clusters: int, seed: int = 0, *,
               tol: float = 1e-6, max_iter: int = 100) -> Centroids:
    """Lloyd iterations from a k-means++ seeding.

    Stops when the largest centroid shift falls below ``tol`` or after
    ``max_iter`` rounds. A cluster left empty is reseeded to the point
    farthest from its assigned centroid. Requires at least ``clusters``
    distinct input vectors.
    """
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("vectors must be a nonempty 2-D array")
    if clusters < 1:
        raise ValueError("clusters must be >= 1")
    if len(np.unique(points, axis=0)) < clusters:
        raise ValueError("fewer distinct vectors than requested clusters")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, clusters, rng)
    sq = (points ** 2).sum(axis=1)
    for _ in range(max_iter):
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
                point_d2[pick] = -np.inf  # a second empty cluster takes the next-farthest
        shift = float(np.max(np.linalg.norm(updated - centroids, axis=1)))
        centroids = updated
        if shift < tol:
            break
    return Centroids(centroids)


def bow_histogram(tokens: Iterable[str], centroids: Centroids, table: EmbeddingTable,
                  temperature: float = DEFAULT_TEMPERATURE) -> np.ndarray:
    """Soft-assignment histogram over centroids, normalized to sum to one.

    Each in-table word distributes one unit of mass by a softmax over its
    cosine similarities to the centroids, divided by the temperature. Texts
    with no in-table words fall back to the uniform histogram. A
    ``FeatureContext`` keeps each word's softmax row and sums those rows.
    """
    return _cached_bow(tokens, centroids, table, temperature, {})


def _cached_bow(tokens, centroids, table, temperature: float, cache: dict) -> np.ndarray:
    """``bow_histogram`` reading word rows from ``cache``, adding the missing ones."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    bins = len(centroids)
    known = [t for t in tokens if t in table.index]
    if not known:
        return np.full(bins, 1.0 / bins)
    new = [t for t in dict.fromkeys(known) if t not in cache]
    if new:
        words = table.vectors[[table.index[t] for t in new]]
        wnorm = np.linalg.norm(words, axis=1)
        cnorm = np.linalg.norm(centroids.vectors, axis=1)
        denom = np.where(wnorm[:, None] * cnorm[None, :] > 0, wnorm[:, None] * cnorm[None, :], 1.0)
        cos = np.where((wnorm[:, None] > 0) & (cnorm[None, :] > 0),
                       words @ centroids.vectors.T / denom, 0.0)
        logits = cos / temperature
        logits -= logits.max(axis=1, keepdims=True)
        weights = np.exp(logits)
        weights /= weights.sum(axis=1, keepdims=True)
        cache.update(zip(new, weights))
    histogram = np.array([cache[t] for t in known]).sum(axis=0)
    return histogram / histogram.sum()


@dataclass
class TagVocabulary:
    """Per-field ordered tag lists. Index 0 of every field is the 'n/a'
    sentinel; real tags follow by descending count, ties lexicographic."""

    tags: dict[str, list[str]]
    counts: dict[str, dict[str, int]]
    min_count: int = DEFAULT_MIN_TAG_COUNT

    def __post_init__(self) -> None:
        self.index: dict[str, dict[str, int]] = {}
        for field_name, ordered in self.tags.items():
            if not ordered or ordered[0] != NA_TOKEN:
                raise ValueError(f"field {field_name!r} must start with the 'n/a' sentinel")
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"duplicate tag in field {field_name!r}")
            self.index[field_name] = {t: i for i, t in enumerate(ordered)}

    def size(self, field_name: str) -> int:
        return len(self.tags[field_name])


def build_tag_vocab(profiles: Sequence["ContentProfile"],
                    min_count: int = DEFAULT_MIN_TAG_COUNT) -> TagVocabulary:
    """Keep tags appearing in at least ``min_count`` profiles per field.

    A tag repeated inside one profile counts once. The sentinel's stored
    count is the number of profiles with no data in that field.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    tags: dict[str, list[str]] = {}
    counts: dict[str, dict[str, int]] = {}
    for field_name in TAG_FIELDS:
        counter: Counter[str] = Counter()
        empty = 0
        for profile in profiles:
            values = set(getattr(profile, field_name) or ())
            values.discard(NA_TOKEN)
            if not values:
                empty += 1
            counter.update(values)
        retained = sorted((t for t, c in counter.items() if c >= min_count),
                          key=lambda t: (-counter[t], t))
        tags[field_name] = [NA_TOKEN] + retained
        counts[field_name] = {NA_TOKEN: empty, **{t: counter[t] for t in retained}}
    return TagVocabulary(tags, counts, min_count)


def tag_vector(profile: "ContentProfile", field_name: str,
               vocab: TagVocabulary) -> np.ndarray:
    """Binary indicator vector over the field's vocabulary. Items with no
    retained tag get the sentinel bit instead, so popcount is always >= 1."""
    if field_name not in vocab.tags:
        raise ValueError(f"unknown tag field {field_name!r}")
    index = vocab.index[field_name]
    bits = np.zeros(len(index), dtype=np.float64)
    for tag in set(getattr(profile, field_name) or ()):
        if tag in index and tag != NA_TOKEN:
            bits[index[tag]] = 1.0
    if bits.sum() == 0:
        bits[index[NA_TOKEN]] = 1.0
    return bits


@dataclass
class YearStats:
    mean: float
    std: float


def fit_year_stats(profiles: Sequence["ContentProfile"]) -> YearStats:
    """Mean and population std over the years present in the profiles.
    A degenerate (all-equal) year column gets std 1; with no years at all
    the stats fall back to mean 0, std 1 and every item standardizes to 0.
    """
    years = [p.year for p in profiles if p.year is not None]
    if not years:
        return YearStats(0.0, 1.0)
    mean = float(np.mean(years))
    std = float(np.std(years))
    return YearStats(mean, std if std > 0 else 1.0)


def numeric_feature(year: int | None, stats: YearStats) -> float:
    """Z-score the year; missing years fill with the mean and map to 0."""
    value = stats.mean if year is None else float(year)
    return (value - stats.mean) / stats.std


@dataclass
class FeatureContext:
    tag_vocab: TagVocabulary
    year_stats: YearStats
    word_table: EmbeddingTable | None = None
    centroids: Centroids | None = None
    max_words: int = DEFAULT_MAX_WORDS
    temperature: float = DEFAULT_TEMPERATURE
    # Word -> its BOW row; valid while table, centroids and temperature stay.
    _bow_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_words < 1:
            raise ValueError("max_words must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def fit_feature_context(profiles: Sequence["ContentProfile"], *,
                        word_table: EmbeddingTable | None = None,
                        centroids: Centroids | None = None,
                        max_words: int = DEFAULT_MAX_WORDS,
                        min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
                        temperature: float = DEFAULT_TEMPERATURE) -> FeatureContext:
    """Fit the item-dependent statistics (tag vocabulary, year stats) on the
    given profiles. Word vectors and centroids are supplied, not fitted: they
    come from a text corpus and carry no per-item leakage."""
    if not profiles:
        raise ValueError("no profiles to fit on")
    return FeatureContext(
        tag_vocab=build_tag_vocab(profiles, min_count=min_tag_count),
        year_stats=fit_year_stats(profiles),
        word_table=word_table,
        centroids=centroids,
        max_words=max_words,
        temperature=temperature,
    )


@dataclass
class FeatureBundle:
    """The mapped inputs of one item, holding only the requested parts."""

    item_id: str
    text_indices: np.ndarray | None = None
    bow: np.ndarray | None = None
    tags: dict[str, np.ndarray] = field(default_factory=dict)
    year: float | None = None


def featurize_item(profile: "ContentProfile", context: FeatureContext,
                   parts: Iterable[str] | None = None) -> FeatureBundle:
    """Build the feature bundle for one item. ``parts`` selects from
    'text', 'bow', 'year', and the tag field names; None takes everything
    the context supports. Deterministic for a fixed context."""
    if parts is None:
        selected = set(TAG_FIELDS) | {"year"}
        if context.word_table is not None:
            selected.add("text")
            if context.centroids is not None:
                selected.add("bow")
    else:
        selected = set(parts)
        unknown = selected - set(ALL_PARTS)
        if unknown:
            raise ValueError(f"unknown feature parts: {sorted(unknown)}")

    bundle = FeatureBundle(item_id=profile.id)
    if "text" in selected or "bow" in selected:
        if context.word_table is None:
            raise ValueError("text features requested but the context has no word table")
        tokens = text_tokens(profile.plot)
    if "text" in selected:
        bundle.text_indices = text_word_indices(tokens, context.word_table, context.max_words)
    if "bow" in selected:
        if context.centroids is None:
            raise ValueError("bow features requested but the context has no centroids")
        bundle.bow = _cached_bow(tokens, context.centroids, context.word_table,
                                 context.temperature, context._bow_rows)
    for field_name in TAG_FIELDS:
        if field_name in selected:
            bundle.tags[field_name] = tag_vector(profile, field_name, context.tag_vocab)
    if "year" in selected:
        bundle.year = numeric_feature(profile.year, context.year_stats)
    return bundle


def save_centroids(centroids: Centroids, path: str | Path) -> None:
    ids = [f"c{i}" for i in range(len(centroids))]
    EmbeddingTable(ids, centroids.vectors).save(path)


def load_centroids(path: str | Path) -> Centroids:
    table = EmbeddingTable.load(path)
    expected = [f"c{i}" for i in range(len(table))]
    if table.ids != expected:
        raise ValueError("centroid file ids must be c0..c{count-1} in order")
    return Centroids(table.vectors)


def save_feature_context(context: FeatureContext, dirpath: str | Path) -> None:
    """Persist the context as a manifest plus referenced sidecar files."""
    directory = Path(dirpath)
    directory.mkdir(parents=True, exist_ok=True)
    files: dict[str, str | None] = {"word_vectors": None, "centroids": None}
    if context.word_table is not None:
        files["word_vectors"] = "word_vectors.vec"
        context.word_table.save(directory / "word_vectors.vec")
    if context.centroids is not None:
        files["centroids"] = "centroids.vec"
        save_centroids(context.centroids, directory / "centroids.vec")
    with open(directory / "tag_vocab.json", "w", encoding="utf-8") as fh:
        json.dump({"min_count": context.tag_vocab.min_count,
                   "tags": context.tag_vocab.tags,
                   "counts": context.tag_vocab.counts},
                  fh, sort_keys=True, indent=2)
    files["tag_vocab"] = "tag_vocab.json"
    manifest = {
        "version": CONTEXT_VERSION,
        "max_words": context.max_words,
        "temperature": context.temperature,
        "year_mean": context.year_stats.mean,
        "year_std": context.year_stats.std,
        "files": files,
    }
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _field(mapping, key: str, path: Path):
    """``mapping[key]``, or a ValueError naming the file and the key."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{path}: missing key {key!r}")
    return mapping[key]


def load_feature_context(dirpath: str | Path) -> FeatureContext:
    directory = Path(dirpath)
    manifest_path = directory / MANIFEST_NAME
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if _field(manifest, "version", manifest_path) != CONTEXT_VERSION:
        raise ValueError(f"{manifest_path}: unsupported version {manifest['version']!r}")
    files = _field(manifest, "files", manifest_path)
    vocab_path = directory / _field(files, "tag_vocab", manifest_path)
    with open(vocab_path, encoding="utf-8") as fh:
        raw = json.load(fh)
    vocab = TagVocabulary(*(_field(raw, k, vocab_path) for k in ("tags", "counts", "min_count")))
    word_table = None
    if files.get("word_vectors"):
        word_table = EmbeddingTable.load(directory / files["word_vectors"])
    centroids = None
    if files.get("centroids"):
        centroids = load_centroids(directory / files["centroids"])
    return FeatureContext(
        tag_vocab=vocab,
        year_stats=YearStats(*(float(_field(manifest, k, manifest_path))
                               for k in ("year_mean", "year_std"))),
        word_table=word_table,
        centroids=centroids,
        max_words=int(_field(manifest, "max_words", manifest_path)),
        temperature=float(_field(manifest, "temperature", manifest_path)),
    )
