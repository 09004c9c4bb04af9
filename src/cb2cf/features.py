"""Content featurization: text word indices, clustered bag-of-words
histograms, binary tag vectors, and a standardized release-year scalar.

A FeatureContext bundles every fitted statistic (tag vocabulary, year
mean/std, word vectors, centroids). In cross-validation the item-dependent
statistics must be fitted on training items only; the word table and its
centroids depend on no item and may be shared across folds. A context caches
each word's BOW row on first use: it grows with the words seen, not the table.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import net
from .corpus import tokenize
from .data import TAG_FIELDS
from .sgns import EmbeddingTable

if TYPE_CHECKING:
    from .data import ContentProfile

NA_TOKEN = "n/a"
DEFAULT_TEMPERATURE = 0.1
DEFAULT_MIN_TAG_COUNT = 5
KMEANS_TOL = 1e-6  # Lloyd rounds stop once no centroid moves this far
KMEANS_MAX_ITER = 100
KMEANS_BLOCK = 1 << 15  # elements of sq + cc per block of distance rows: 256 KiB of float64
ALL_PARTS = ("text", "bow", "year") + TAG_FIELDS

CONTEXT_KIND = "cb2cf-feature-context"  # the ``kind`` meta of a context checkpoint


def text_tokens(text: str | None) -> list[str]:
    """Tokenized text, or the literal 'n/a' sentinel when nothing survives."""
    tokens = tokenize(text) if text else []
    return tokens if tokens else [NA_TOKEN]


def text_word_indices(tokens: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """Row indices of every token that has a vector, in text order; the model
    reads the first ``SystemSpec.text_length`` of them."""
    index = table.index
    return np.array([index[t] for t in tokens if t in index], dtype=np.int64)


@dataclass
class Centroids:
    vectors: np.ndarray

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValueError("centroids must be a nonempty 2-D array")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("centroids must be finite")
        if _distinct_rows(self.vectors, len(self.vectors)) != len(self.vectors):
            raise ValueError("centroids must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.vectors)


def _distinct_rows(points: np.ndarray, limit: int) -> int:
    """How many distinct rows the nonempty ``points`` holds, counted up to ``limit``;
    -0.0 equals 0.0. Reads a block of rows at a time and never copies the table."""
    seen: set[bytes] = set()
    step = max(1, KMEANS_BLOCK // max(1, points.shape[1]))
    for lo in range(0, len(points), step):
        for row in points[lo:lo + step] + 0.0:  # -0.0 + 0.0 is 0.0
            seen.add(row.tobytes())
            if len(seen) >= limit:
                return len(seen)
    return len(seen)


def _sq_dists(points: np.ndarray, origin, rows: np.ndarray) -> np.ndarray:
    """``((points[rows] - origin) ** 2).sum(axis=1)``, a block of at most ``KMEANS_BLOCK``
    elements at a time: the same per-row sums, without a (rows × dim) temporary."""
    step, out = max(1, KMEANS_BLOCK // max(1, points.shape[1])), np.empty(len(rows))
    for lo in range(0, len(rows), step):
        diff = points[rows[lo:lo + step]]  # a copy: the block is differenced and squared in place
        np.sum(np.square(np.subtract(diff, origin, out=diff), out=diff), 1, out=out[lo:lo + step])
    return out


def _kmeans_pp_init(points: np.ndarray, clusters: int, rng) -> np.ndarray:
    """k-means++ picks, weighing rows by ``sq + sq[pick] - 2 * points @ points[pick]``.
    Where that is within its rounding bound of 0 (a duplicate or near row), the exact
    ``((x - c) ** 2).sum()`` replaces it: a duplicate of a chosen row weighs exactly 0."""
    n, dim = points.shape
    sq, d2 = _sq_dists(points, 0.0, np.arange(n)), np.full(n, np.inf)
    chosen = [int(rng.integers(n))]
    for _ in range(1, clusters):
        scale = sq + sq[chosen[-1]]
        dist = scale - 2.0 * (points @ points[chosen[-1]])
        near = np.flatnonzero(dist <= (dim + 2) * np.finfo(np.float64).eps * scale)
        dist[near] = _sq_dists(points, points[chosen[-1]], near)
        np.minimum(d2, dist, out=d2)
        total = d2.sum()
        chosen.append(int(rng.integers(n)) if total <= 0 else int(rng.choice(n, p=d2 / total)))
    return points[chosen].copy()


def fit_kmeans(vectors: np.ndarray, clusters: int, seed: int = 0) -> Centroids:
    """Lloyd iterations from a k-means++ seeding.

    Stops when the largest centroid shift falls below ``KMEANS_TOL`` or after
    ``KMEANS_MAX_ITER`` rounds. A cluster left empty is reseeded to the point
    farthest from its assigned centroid. Requires finite input and at least
    ``clusters`` distinct input vectors.

    Memory: one (points × clusters) distance matrix for the whole fit, and
    blocks of at most ``KMEANS_BLOCK`` elements besides; no (points × dim)
    temporary. The squared distances are ``sq + cc - 2 * points @ centroids.T``
    element for element; the seeding's are the same identity, one pick at a time.
    """
    points = np.asarray(vectors, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("vectors must be a nonempty 2-D array")
    if clusters < 1:
        raise ValueError("clusters must be >= 1")
    net.check_seed(seed)
    # min and max are finite exactly when every entry is, and need no (points × dim) mask
    if not np.all(np.isfinite([points.min(initial=0.0), points.max(initial=0.0)])):
        raise ValueError("vectors must be finite")
    if _distinct_rows(points, clusters) < clusters:
        raise ValueError("fewer distinct vectors than requested clusters")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, clusters, rng)
    sq = _sq_dists(points, 0.0, np.arange(len(points)))  # (points ** 2).sum(1)
    d2, step = np.empty((len(points), clusters)), max(1, KMEANS_BLOCK // clusters)
    block = np.empty((min(step, len(points)), clusters))
    for _ in range(KMEANS_MAX_ITER):
        cc = (centroids ** 2).sum(axis=1)
        np.multiply(np.matmul(points, centroids.T, out=d2), 2.0, out=d2)
        for lo in range(0, len(points), step):  # d2 = (sq + cc) - 2 * points @ centroids.T
            rows = d2[lo:lo + step]
            np.subtract(np.add(sq[lo:lo + step, None], cc, out=block[:len(rows)]), rows, out=rows)
        assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(len(points)), assign]
        sizes = np.bincount(assign, minlength=clusters)
        sums = np.empty_like(centroids)
        for j in range(points.shape[1]):  # adds each cluster's rows in order, as a mean's sum
            sums[:, j] = np.bincount(assign, points[:, j], clusters)
        updated = sums / np.maximum(sizes, 1)[:, None]
        for c in np.flatnonzero(sizes == 0):
            pick = int(np.argmax(point_d2))
            updated[c] = points[pick]
            point_d2[pick] = -np.inf  # a second empty cluster takes the next-farthest
        shift = float(np.max(np.linalg.norm(updated - centroids, axis=1)))
        centroids = updated
        if shift < KMEANS_TOL:
            break
    return Centroids(centroids)


def check_temperature(temperature: float) -> None:
    """The BOW softmax temperature rule, the context loader's too: 0 < t <= max float."""
    if not 0 < temperature <= sys.float_info.max:
        raise ValueError("temperature must be positive and finite")


def bow_histogram(tokens: Iterable[str], centroids: Centroids, table: EmbeddingTable,
                  temperature: float = DEFAULT_TEMPERATURE,
                  cache: dict | None = None) -> np.ndarray:
    """Soft-assignment histogram over centroids, normalized to sum to one.

    Each in-table word distributes one unit of mass by a softmax over its
    cosine similarities to the centroids, divided by the temperature. Texts
    with no in-table words fall back to the uniform histogram. Word rows are
    read from ``cache``, adding the missing ones: a context passes its own.
    """
    check_temperature(temperature)
    bins = len(centroids)
    known = [t for t in tokens if t in table.index]
    if not known:
        return np.full(bins, 1.0 / bins)
    cache = {} if cache is None else cache
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
    """Per-field ordered lists of string tags, TAG_FIELDS among them. Index 0 of every
    field is the 'n/a' sentinel; real tags follow by descending count, ties lexicographic."""

    tags: dict[str, list[str]]

    def __post_init__(self) -> None:
        self.index: dict[str, dict[str, int]] = {}
        for field_name, ordered in {**dict.fromkeys(TAG_FIELDS), **self.tags}.items():
            if not isinstance(ordered, list) or not all(isinstance(t, str) for t in ordered):
                raise ValueError(f"field {field_name!r} must be a list of strings")
            if not ordered or ordered[0] != NA_TOKEN:
                raise ValueError(f"field {field_name!r} must start with the 'n/a' sentinel")
            if len(set(ordered)) != len(ordered):
                raise ValueError(f"duplicate tag in field {field_name!r}")
            self.index[field_name] = {t: i for i, t in enumerate(ordered)}

    def size(self, field_name: str) -> int:
        return len(self.tags[field_name])


def check_min_tag_count(min_count: int) -> None:
    if min_count < 1:
        raise ValueError("min_count must be >= 1")


def build_tag_vocab(profiles: Sequence["ContentProfile"],
                    min_count: int = DEFAULT_MIN_TAG_COUNT) -> TagVocabulary:
    """Keep tags appearing in at least ``min_count`` profiles per field.

    A tag repeated inside one profile counts once.
    """
    check_min_tag_count(min_count)
    tags: dict[str, list[str]] = {}
    for field_name in TAG_FIELDS:
        counter: Counter[str] = Counter()
        for profile in profiles:
            counter.update(set(getattr(profile, field_name)) - {NA_TOKEN})
        retained = sorted((t for t, c in counter.items() if c >= min_count),
                          key=lambda t: (-counter[t], t))
        tags[field_name] = [NA_TOKEN] + retained
    return TagVocabulary(tags)


def tag_vector(profile: "ContentProfile", field_name: str,
               vocab: TagVocabulary) -> np.ndarray:
    """Binary indicator vector over the field's vocabulary. Items with no
    retained tag get the sentinel bit instead, so popcount is always >= 1."""
    if field_name not in vocab.tags:
        raise ValueError(f"unknown tag field {field_name!r}")
    index = vocab.index[field_name]
    bits = np.zeros(len(index), dtype=np.float64)
    for tag in set(getattr(profile, field_name)):
        if tag in index and tag != NA_TOKEN:
            bits[index[tag]] = 1.0
    if bits.sum() == 0:
        bits[index[NA_TOKEN]] = 1.0
    return bits


@dataclass
class YearStats:
    """Year standardization: a finite mean and a positive, finite std, as floats."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        # Compared before float(), which would overflow on an int such as 10**400.
        if not (abs(self.mean) <= sys.float_info.max and 0 < self.std <= sys.float_info.max):
            raise ValueError("the mean must be finite and the std positive and finite")
        self.mean, self.std = float(self.mean), float(self.std)


def fit_year_stats(profiles: Sequence["ContentProfile"]) -> YearStats:
    """Mean and population std over the years present in the profiles.
    A degenerate (all-equal) year column gets std 1; with no years at all
    the stats fall back to mean 0, std 1 and every item standardizes to 0.
    """
    years = [p.year for p in profiles if p.year is not None]
    if not years:
        return YearStats(0.0, 1.0)
    mean, std = float(np.mean(years)), float(np.std(years))
    return YearStats(mean, std if std > 0 else 1.0)


def numeric_feature(year: int | None, stats: YearStats) -> float:
    """Z-score the year; missing years fill with the mean and map to 0."""
    value = stats.mean if year is None else float(year)
    return (value - stats.mean) / stats.std


@dataclass
class FeatureContext:
    """Fitted featurization statistics; centroids have the word vectors' dim. Texts
    keep every in-table word; the model reads the first ``SystemSpec.text_length``."""

    tag_vocab: TagVocabulary
    year_stats: YearStats
    word_table: EmbeddingTable | None = None
    centroids: Centroids | None = None
    temperature: float = DEFAULT_TEMPERATURE
    # Word -> its BOW row; valid while table, centroids and temperature stay.
    _bow_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_temperature(self.temperature)
        if self.centroids is not None and self.word_table is not None \
                and self.centroids.vectors.shape[1] != self.word_table.dim:
            raise ValueError(f"centroids have dim {self.centroids.vectors.shape[1]}, "
                             f"the word vectors {self.word_table.dim}")


def fit_feature_context(profiles: Sequence["ContentProfile"], *,
                        word_table: EmbeddingTable | None = None,
                        centroids: Centroids | None = None,
                        min_tag_count: int = DEFAULT_MIN_TAG_COUNT,
                        temperature: float = DEFAULT_TEMPERATURE) -> FeatureContext:
    """Fit the item-dependent statistics (tag vocabulary, year stats) on the
    given profiles. Word vectors and centroids are supplied, not fitted: they
    come from a text corpus and carry no per-item leakage."""
    if not profiles:
        raise ValueError("no profiles to fit on")
    return FeatureContext(build_tag_vocab(profiles, min_count=min_tag_count),
                          fit_year_stats(profiles), word_table=word_table,
                          centroids=centroids, temperature=temperature)


@dataclass
class FeatureBundle:
    """The mapped inputs of one item, holding only the requested parts."""

    item_id: str
    text_indices: np.ndarray | None = None
    bow: np.ndarray | None = None
    tags: dict[str, np.ndarray] = field(default_factory=dict)
    year: float | None = None


def featurize_item(profile: "ContentProfile", context: FeatureContext,
                   parts: Iterable[str]) -> FeatureBundle:
    """Build the feature bundle for one item. ``parts`` selects from
    'text', 'bow', 'year', and the tag field names. Deterministic for a
    fixed context."""
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
        bundle.text_indices = text_word_indices(tokens, context.word_table)
    if "bow" in selected:
        if context.centroids is None:
            raise ValueError("bow features requested but the context has no centroids")
        bundle.bow = bow_histogram(tokens, context.centroids, context.word_table,
                                   context.temperature, context._bow_rows)
    for field_name in TAG_FIELDS:
        if field_name in selected:
            bundle.tags[field_name] = tag_vector(profile, field_name, context.tag_vocab)
    if "year" in selected:
        bundle.year = numeric_feature(profile.year, context.year_stats)
    return bundle


def save_feature_context(context: FeatureContext, path: str | Path) -> None:
    """Persist the context as one ``net`` checkpoint: the word vectors and the
    centroids are tensors, each written only when present; the rest is meta."""
    tensors = {}
    if context.word_table is not None:
        tensors["word_vectors"] = context.word_table.vectors
    if context.centroids is not None:
        tensors["centroids"] = context.centroids.vectors
    net.save_checkpoint(path, tensors, {
        "kind": CONTEXT_KIND,
        "temperature": context.temperature,
        "year_mean": context.year_stats.mean,
        "year_std": context.year_stats.std,
        "word_ids": None if context.word_table is None else context.word_table.ids,
        "tag_vocab": {"tags": context.tag_vocab.tags},
    })


def _field(mapping, key: str, path: Path, kinds):
    """``mapping[key]``, or a ValueError naming the file and the key unless the
    value is one of ``kinds`` and no bool."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{path}: missing key {key!r}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{path}: bad value {value!r} for key {key!r}")
    return value


def _build(path: Path, key: str, make, *args):
    """``make(*args)``, with its ValueError prefixed by the file and the key."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: key {key!r}: {exc}") from None


def load_feature_context(path: str | Path) -> FeatureContext:
    """Read a context written by ``save_feature_context``, checking its format; each
    record type checks its values. Errors name the file and, for a meta value, the key."""
    tensors, meta = net.load_checkpoint(path)
    if meta.get("kind") != CONTEXT_KIND:
        raise ValueError(f"{path}: not a feature context")
    unexpected = sorted(tensors.keys() - {"word_vectors", "centroids"})
    if unexpected:
        raise ValueError(f"{path}: unexpected tensors {unexpected}")
    tags = _field(_field(meta, "tag_vocab", path, dict), "tags", path, dict)
    vocab = _build(path, "tags", TagVocabulary, tags)
    ids = _field(meta, "word_ids", path, (list, type(None)))
    if (ids is None) != ("word_vectors" not in tensors) \
            or not all(isinstance(i, str) for i in ids or ()):
        raise ValueError(f"{path}: key 'word_ids' must list string ids exactly when "
                         "there are word vectors")
    word_table = None if ids is None else \
        _build(path, "word_ids", EmbeddingTable, ids, tensors["word_vectors"])
    centroids = _build(path, "centroids", Centroids, tensors["centroids"]) \
        if "centroids" in tensors else None
    mean, std, temperature = (_field(meta, key, path, (int, float))
                              for key in ("year_mean", "year_std", "temperature"))
    year_stats = _build(path, "year_mean/year_std", YearStats, mean, std)
    _build(path, "temperature", check_temperature, temperature)
    return _build(path, "centroids", FeatureContext, vocab, year_stats, word_table,
                  centroids, float(temperature))
