"""Seeded synthetic dataset generator.

Items are partitioned into clusters. Each cluster owns an orthonormal
latent direction, a disjoint slice of an invented vocabulary, and a
signature tag per field; plots sample the cluster's words, years are drawn
from a cluster-shifted range, and co-occurrence sets are sampled within
clusters. Planted vectors are the cluster direction plus (optionally) a
year-proportional component along one extra orthogonal direction, plus
Gaussian noise.

Tag signatures are deliberately ambiguous one field at a time: genres and
directors encode the cluster index modulo a base, actors and languages
encode the quotient. Any single field narrows the cluster down to roughly
sqrt(clusters) candidates; the four fields together pin it exactly.
"""

from __future__ import annotations

import math
import string
import sys
from dataclasses import dataclass

import numpy as np

from .data import TAG_FIELDS, ContentProfile
from .net import check_seed
from .sgns import CooccurrenceSets, EmbeddingTable

_LETTERS = string.ascii_lowercase
_MAX_WORDS = len(_LETTERS) ** 3
_WORDS_PER_PLOT = 60

# Year layout: cluster shifts are small next to the in-cluster spread, so
# tags alone reveal little about an item's year.
_YEAR_BASE = 1950
_YEAR_SPAN = 40
_YEAR_CENTER = 1970.0
_YEAR_SCALE = 12.0


def _letter_word(index: int) -> str:
    """Letter-only token (stable under corpus tokenization)."""
    a, rest = divmod(index, len(_LETTERS) ** 2)
    b, c = divmod(rest, len(_LETTERS))
    return "w" + _LETTERS[a] + _LETTERS[b] + _LETTERS[c]


def _tag_name(prefix: str, index: int) -> str:
    return f"{prefix}_{_letter_word(index)[1:]}"


@dataclass(frozen=True)
class SyntheticSpec:
    items: int = 500
    clusters: int = 8
    dim: int = 40
    vocab_size: int = 200
    noise: float = 0.05
    year_weight: float = 0.0
    set_count: int | None = None
    min_set_size: int = 2
    max_set_size: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.items < 2 or self.clusters < 2:
            raise ValueError("need at least 2 items and 2 clusters")
        if self.items < 2 * self.clusters:
            raise ValueError("need at least 2 items per cluster")
        if self.clusters + 1 > self.dim:
            raise ValueError("dim must exceed clusters (one spare direction for year)")
        if not 1 <= self.vocab_size <= _MAX_WORDS:
            raise ValueError(f"vocab_size must be in 1..{_MAX_WORDS}")
        if self.vocab_size < self.clusters:
            raise ValueError("vocab_size must cover every cluster")
        if not 0 <= self.noise <= sys.float_info.max:
            raise ValueError("noise must be >= 0 and finite")
        if not 0 <= self.year_weight <= sys.float_info.max:
            raise ValueError("year_weight must be >= 0 and finite")
        if self.set_count is not None and self.set_count < 0:
            raise ValueError("set_count must be >= 0")
        if not 2 <= self.min_set_size <= self.max_set_size:
            raise ValueError("set sizes must satisfy 2 <= min <= max")
        check_seed(self.seed)

    def tag_counts(self) -> dict[str, int]:
        """Tags per field: the least base >= 2 whose square covers the clusters."""
        base = max(2, math.isqrt(self.clusters - 1) + 1)
        return dict.fromkeys(TAG_FIELDS, base)


def _cluster_tags(cluster: int, counts: dict[str, int]) -> dict[str, str]:
    low, high = cluster % counts["genres"], cluster // counts["genres"]
    return {
        "genres": _tag_name("genre", low),
        "actors": _tag_name("actor", high % counts["actors"]),
        "directors": _tag_name("director", cluster % counts["directors"]),
        "languages": _tag_name("language", (cluster // counts["directors"]) % counts["languages"]),
    }


def generate_synthetic(spec: SyntheticSpec) -> tuple[CooccurrenceSets, list[ContentProfile], EmbeddingTable]:
    rng = np.random.default_rng(spec.seed)

    # Orthonormal directions: one per cluster plus one for the year axis.
    basis, _ = np.linalg.qr(rng.standard_normal((spec.dim, spec.clusters + 1)))
    directions = basis[:, : spec.clusters].T
    year_direction = basis[:, spec.clusters]

    words = [_letter_word(i) for i in range(spec.vocab_size)]
    per_cluster = spec.vocab_size // spec.clusters
    counts = spec.tag_counts()

    ids = [f"m{i:05d}" for i in range(spec.items)]
    members = [ids[c::spec.clusters] for c in range(spec.clusters)]

    profiles: list[ContentProfile] = []
    vectors = np.empty((spec.items, spec.dim))
    for i, item_id in enumerate(ids):
        c = i % spec.clusters
        slice_words = words[c * per_cluster: (c + 1) * per_cluster] or [words[c % spec.vocab_size]]
        plot = " ".join(rng.choice(slice_words, size=_WORDS_PER_PLOT, replace=True))
        year = _YEAR_BASE + (c % 5) + int(rng.integers(0, _YEAR_SPAN))
        profiles.append(ContentProfile(id=item_id, plot=plot, year=year, **{
            field: [tag] for field, tag in _cluster_tags(c, counts).items()}))
        vector = directions[c].copy()
        if spec.year_weight:
            vector += spec.year_weight * ((year - _YEAR_CENTER) / _YEAR_SCALE) * year_direction
        if spec.noise:
            vector += spec.noise * rng.standard_normal(spec.dim)
        vectors[i] = vector

    set_count = 4 * spec.items if spec.set_count is None else spec.set_count
    sets: list[tuple[str, ...]] = []
    for _ in range(set_count):
        c = int(rng.integers(0, spec.clusters))
        pool = members[c]
        upper = min(spec.max_set_size, len(pool))
        lower = min(spec.min_set_size, upper)
        size = int(rng.integers(lower, upper + 1))
        chosen = rng.choice(len(pool), size=size, replace=False)
        sets.append(tuple(sorted(pool[j] for j in chosen)))

    return CooccurrenceSets(sets, 0), profiles, EmbeddingTable(ids, vectors)
