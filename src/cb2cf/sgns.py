"""Skip-gram with negative sampling over word sequences and item sets.

One trainer serves both modes. Word sequences draw a context span per
position, uniform in 1..window; item co-occurrence sets treat the whole set
as the window and pair every two distinct positions. Positive pairs maximize
log(sigmoid(u.v)) while sampled negatives maximize log(sigmoid(-u.v')), with
negatives drawn from the unigram distribution raised to the 3/4 power.

Training follows the shared-negative blocking of Ji et al., "Parallelizing
Word2Vec in Shared and Distributed Memory" (arXiv:1604.04661). A block is a
kept co-occurrence set, or up to ``WORD_BLOCK`` consecutive centers of a
sentence. All pairs of a block share one draw of K negatives and take one
simultaneous SGD step: one product scores the block's centers against its
contexts and negatives, read from the tables as they were before the step,
a pair mask weights the scores, and two more products give the updates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import open_text

LR_FLOOR_FRACTION = 1e-4
NOISE_POWER = 0.75
# Most centers in one word-mode block: bounds a block's score matrix at
# WORD_BLOCK x (WORD_BLOCK + 2 * window + negatives) cells on long lines.
WORD_BLOCK = 256


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Logistic function as 0.5 + 0.5 tanh(x / 2): it cannot overflow."""
    y = np.tanh(np.multiply(x, 0.5))
    y *= 0.5
    y += 0.5
    return y


@dataclass
class SgnsConfig:
    dim: int = 40
    epochs: int = 100
    negatives: int = 15
    subsample: float = 1e-4
    window: int = 4
    learning_rate: float = 0.025
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample threshold must be in (0, 1]")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")

    @classmethod
    def item_defaults(cls, **overrides) -> "SgnsConfig":
        return replace(cls(dim=40, subsample=1e-4), **overrides)

    @classmethod
    def word_defaults(cls, **overrides) -> "SgnsConfig":
        return replace(cls(dim=100, subsample=1e-5), **overrides)


@dataclass
class CooccurrenceSets:
    """Item sets in which co-occurrence counts as a positive signal.

    Every set holds at least two distinct ids. ``dropped`` records how many
    undersized candidate sets a loader discarded on the way here.
    """

    sets: list[tuple[str, ...]]
    dropped: int = 0

    def __post_init__(self) -> None:
        normalized = []
        for s in self.sets:
            items = tuple(str(i) for i in s)
            if len(items) < 2:
                raise ValueError("co-occurrence sets need at least 2 items")
            if len(set(items)) != len(items):
                raise ValueError(f"duplicate item in set: {items}")
            normalized.append(items)
        self.sets = normalized

    def __len__(self) -> int:
        return len(self.sets)

    def item_ids(self) -> list[str]:
        seen: set[str] = set()
        for s in self.sets:
            seen.update(s)
        return sorted(seen)


class EmbeddingTable:
    """Ids mapped one-to-one onto rows of a dense float64 vector matrix."""

    def __init__(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-D array")
        if vectors.shape[1] < 1:
            raise ValueError("vector dimension must be >= 1")
        if len(ids) != vectors.shape[0]:
            raise ValueError("ids and vectors differ in length")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("vectors must be finite")
        self.ids = [str(i) for i in ids]
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            raise ValueError("duplicate id")
        self.vectors = vectors

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: object) -> bool:
        return item_id in self.index

    def get(self, item_id: str) -> np.ndarray:
        return self.vectors[self.index[item_id]]

    @classmethod
    def from_mapping(cls, mapping: dict[str, np.ndarray]) -> "EmbeddingTable":
        ids = sorted(mapping)
        return cls(ids, np.array([mapping[i] for i in ids], dtype=np.float64))

    def save(self, path: str | Path) -> None:
        """Vector file: a ``count dim`` header line, then one id per line
        followed by its components. Floats are written with repr so a read
        back returns bit-identical values.
        """
        for item_id in self.ids:
            if not item_id or any(c.isspace() for c in item_id):
                raise ValueError(f"id not writable to a vector file: {item_id!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{len(self.ids)} {self.dim}\n")
            for item_id, row in zip(self.ids, self.vectors):
                fh.write(item_id + " " + " ".join(map(repr, row.tolist())) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        """Read a vector file written by ``save``. Nothing is sized by the
        header: rows are collected as they are read and stacked at the end,
        so a corrupt count fails on the row check instead of allocating."""
        with open_text(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError(f"{path}:1: expected 'count dim' header")
            count = _header_int(path, "count", header[0], 0)
            dim = _header_int(path, "dim", header[1], 1)
            ids: list[str] = []
            rows: list[np.ndarray] = []
            for lineno, line in enumerate(fh, 2):
                parts = line.split()
                if not parts:
                    continue
                if len(parts) != dim + 1:
                    raise ValueError(f"{path}:{lineno}: expected id and {dim} floats")
                if len(ids) >= count:
                    raise ValueError(f"{path}:{lineno}: more rows than the header declares")
                try:
                    row = np.array([float(x) for x in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not np.isfinite(row).all():
                    raise ValueError(f"{path}:{lineno}: vector components must be finite")
                rows.append(row)
                ids.append(parts[0])
        if len(ids) != count:
            raise ValueError(f"{path}: header declares {count} rows, found {len(ids)}")
        return cls(ids, np.array(rows, dtype=np.float64).reshape(count, dim))

    @cached_property
    def _id_rank(self) -> np.ndarray:
        """Each row's position in ascending id order: the tie break of every
        ranking. Built on first use, so unsearched tables never pay for it."""
        return np.argsort(np.argsort(np.array(self.ids, dtype=object)))


def _header_int(path: str | Path, name: str, token: str, minimum: int) -> int:
    if not (token.isascii() and token.isdigit()) or int(token) < minimum:
        raise ValueError(f"{path}:1: header {name} must be an integer >= {minimum}, got {token!r}")
    return int(token)


def cosine_scores(query: np.ndarray, table: EmbeddingTable) -> np.ndarray | None:
    """Cosine of ``query`` to every row of ``table``; zero-norm rows score
    -1.0. A degenerate query (zero norm or a non-finite component) returns
    None.

    Dots and row norms are both stacked 1-D dot products, so every score is
    bit-identical to the scalar ``np.dot(u, v) / (norm(u) * norm(v))``; a
    plain ``V @ q`` can differ in the last bit and reorder near-ties. A row
    or query whose norm lies outside [2**-500, 2**500], where squares lose
    precision to underflow or overflow to inf, is first divided exactly by
    a power of two near its largest component; cosines ignore the scale.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (table.dim,):
        raise ValueError(f"query shape {query.shape} does not match table dimension {table.dim}")
    if not np.isfinite(query).all():
        return None
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        qnorm = float(np.linalg.norm(query))
        norms = _row_norms(table.vectors)
    if not _SAFE_NORMS[0] <= qnorm <= _SAFE_NORMS[1]:
        query = _power_of_two_scaled(query)
        qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        return None
    rows = table.vectors
    unsafe = (norms < _SAFE_NORMS[0]) | (norms > _SAFE_NORMS[1])
    if unsafe.any():
        rows = rows.copy()
        rows[unsafe] = _power_of_two_scaled(rows[unsafe])
        norms[unsafe] = _row_norms(rows[unsafe])
    dots = np.matmul(rows[:, None, :], query[:, None])[:, 0, 0]
    zero = norms == 0.0
    return np.where(zero, -1.0, dots / np.where(zero, 1.0, norms * qnorm))


_SAFE_NORMS = (2.0 ** -500, 2.0 ** 500)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    stacked = rows[:, None, :]
    return np.sqrt(np.matmul(stacked, stacked.transpose(0, 2, 1))[:, 0, 0])


def _power_of_two_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` (each row of ``x``) divided by the power of two that brings its
    largest magnitude into [0.5, 1); exact, and zero stays zero."""
    _, exponent = np.frexp(np.abs(x).max(axis=-1, keepdims=True))
    return np.ldexp(x, -exponent)


def top_rows(scores: np.ndarray, table: EmbeddingTable, topk: int,
              exclude: Iterable[str] = ()) -> list[int]:
    """Up to ``topk`` row indices by descending score, ties broken by
    ascending id, skipping the rows of the ``exclude`` ids."""
    skip = {table.index[i] for i in exclude if i in table}
    order = np.lexsort((table._id_rank, -scores))[: topk + len(skip)]
    return [r for r in order.tolist() if r not in skip][:topk]


def window_blocks(spans: np.ndarray, size: int):
    """Split a sequence whose position i pairs with every other position
    within ``spans[i]`` into blocks of at most ``size`` consecutive centers.

    Yields ``(centers, contexts, mask)``: two slices of positions and the
    (centers x contexts) float mask whose cell (i, j) is 1.0 when the pair
    of center ``centers.start + i`` and context ``contexts.start + j`` is
    in the window.
    """
    n = len(spans)
    for start in range(0, n, size):
        stop = min(n, start + size)
        reach = int(spans[start:stop].max())
        lo, hi = max(0, start - reach), min(n, stop + reach)
        gap = np.abs(np.arange(start, stop)[:, None] - np.arange(lo, hi))
        mask = (gap > 0) & (gap <= spans[start:stop, None])
        yield slice(start, stop), slice(lo, hi), mask.astype(np.float64)


def discard_probabilities(counts: np.ndarray, threshold: float) -> np.ndarray:
    """Per-id discard probability max(0, 1 - sqrt(t/f)) for frequency f."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts are all zero")
    freqs = np.where(counts > 0, counts / total, 1.0)
    return np.where(counts > 0, np.maximum(0.0, 1.0 - np.sqrt(threshold / freqs)), 0.0)


def subsample(ids: Sequence[int], threshold: float, counts: np.ndarray, rng) -> list[int]:
    """Randomly drop frequent ids. Ids at or below the threshold frequency
    are never dropped. One uniform draw is consumed per element."""
    ids_arr = np.asarray(ids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.float64)
    if ids_arr.size and (ids_arr.min() < 0 or ids_arr.max() >= len(counts)):
        raise ValueError("stream id outside the counts table")
    if ids_arr.size and np.any(counts[ids_arr] <= 0):
        raise ValueError("stream contains an id with zero count")
    probs = discard_probabilities(counts, threshold)
    keep = rng.random(ids_arr.size) >= probs[ids_arr]
    return [int(i) for i in ids_arr[keep]]


class NoiseSampler:
    """Draws ids proportionally to count**0.75 via inverse-CDF lookup."""

    def __init__(self, counts: np.ndarray, power: float = NOISE_POWER) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a nonempty 1-D array")
        if np.any(counts < 0) or counts.sum() <= 0:
            raise ValueError("counts must be non-negative with positive total")
        weights = counts ** power
        self.probabilities = weights / weights.sum()
        self._cdf = np.cumsum(self.probabilities)
        self._cdf[-1] = 1.0

    def draw(self, k: int, rng) -> np.ndarray:
        idx = np.searchsorted(self._cdf, rng.random(k), side="right")
        return np.minimum(idx, len(self._cdf) - 1).astype(np.int64)


class SgnsTrainer:
    """Input and output vector tables plus the SGNS SGD step.

    Input vectors start uniform in [-0.5/dim, 0.5/dim]; output vectors start
    at zero, so the very first update on a pair moves only the output side.
    The published embedding is the input table.
    """

    def __init__(self, vocab_size: int, dim: int, rng) -> None:
        if vocab_size < 1 or dim < 1:
            raise ValueError("vocab_size and dim must be >= 1")
        self.input = (rng.random((vocab_size, dim)) - 0.5) / dim
        self.output = np.zeros((vocab_size, dim), dtype=np.float64)

    def train_pair(self, center: int, context: int, negatives: np.ndarray, lr: float) -> None:
        self.train_pairs([center], [context], np.ones((1, 1)), negatives, lr)

    def train_pairs(self, centers, contexts, mask: np.ndarray, negatives, lr: float) -> None:
        """One simultaneous SGD step on a block of pairs sharing the K
        ``negatives``: pair (``centers[i]``, ``contexts[j]``) has weight
        ``mask[i, j]``.

        Center i scores every context and negative in one product. A
        positive pair weighs in by its mask cell, a negative by the count
        of i's pairs whose context it does not equal (word2vec's rule of
        skipping a negative that hits the context). Every score and
        gradient reads the pre-step tables, and updates to a repeated id
        accumulate: the rows of one id are summed before the scatter, so
        each of them writes the id's whole update.
        """
        centers = np.asarray(centers, dtype=np.int64)
        mask = np.asarray(mask, dtype=np.float64)
        targets = np.concatenate((np.asarray(contexts, dtype=np.int64),
                                  np.asarray(negatives, dtype=np.int64)))
        n = mask.shape[1]
        u = self.input[centers]  # copies: both updates must see pre-step values
        v = self.output[targets]
        weights = np.concatenate((mask, mask @ (targets[:n, None] != targets[n:])), axis=1)
        coef = sigmoid(u @ v.T)
        coef[:, :n] -= 1.0
        coef *= weights
        coef *= -lr
        self.input[centers] += (centers[:, None] == centers) @ (coef @ v)
        self.output[targets] += (targets[:, None] == targets) @ (coef.T @ u)

    def pair_loss(self, center: int, context: int, negatives: np.ndarray) -> float:
        u = self.input[center]
        pos = sigmoid(float(self.output[context] @ u))
        neg = sigmoid(-(self.output[np.asarray(negatives, dtype=np.int64)] @ u))
        return float(-(math.log(pos + 1e-12) + np.log(neg + 1e-12).sum()))


def train_sgns(data, config: SgnsConfig) -> EmbeddingTable:
    """Train embeddings over word sequences or a CooccurrenceSets instance.

    Each block (a kept co-occurrence set, or up to ``WORD_BLOCK`` centers
    of a kept sentence) draws K shared negatives and takes one
    simultaneous SGD step over all of its pairs. The learning rate decays
    linearly with stream position, once per sequence, down to a floor of
    1e-4 times its initial value. A fixed seed gives bit-identical tables
    on repeated runs; training is single-threaded by construction.
    """
    if isinstance(data, CooccurrenceSets):
        sequences: list[Sequence[str]] = list(data.sets)
        item_mode = True
    else:
        sequences = [list(s) for s in data]
        item_mode = False
    sequences = [s for s in sequences if len(s) > 0]
    if not sequences:
        raise ValueError("empty training data")

    counter: Counter[str] = Counter()
    for seq in sequences:
        counter.update(str(t) for t in seq)
    ids = sorted(counter, key=lambda t: (-counter[t], t))
    id_index = {t: i for i, t in enumerate(ids)}
    encoded = [np.array([id_index[str(t)] for t in seq], dtype=np.int64) for seq in sequences]
    counts = np.array([counter[t] for t in ids], dtype=np.float64)

    offsets = np.cumsum([0] + [len(s) for s in encoded]).tolist()
    total_positions = offsets[-1]
    total_units = config.epochs * total_positions
    discard = discard_probabilities(counts, config.subsample)[np.concatenate(encoded)]
    noise = NoiseSampler(counts)
    rng = np.random.default_rng(config.seed)
    trainer = SgnsTrainer(len(ids), config.dim, rng)
    floor = LR_FLOOR_FRACTION * config.learning_rate

    for epoch in range(config.epochs):
        keep = rng.random(total_positions) >= discard
        spans = None if item_mode else rng.integers(1, config.window + 1, total_positions)
        for seq, start, stop in zip(encoded, offsets, offsets[1:]):
            units = epoch * total_positions + start
            lr = max(floor, config.learning_rate * (1.0 - units / total_units))
            kept = keep[start:stop]
            n = np.count_nonzero(kept)
            if n < 2:
                continue
            if item_mode:
                blocks = [(slice(None), slice(None), 1.0 - np.eye(n))]
            else:
                blocks = window_blocks(spans[start:stop][kept], WORD_BLOCK)
            block_ids = seq[kept]
            for centers, contexts, mask in blocks:
                trainer.train_pairs(block_ids[centers], block_ids[contexts], mask,
                                    noise.draw(config.negatives, rng), lr)
    return EmbeddingTable(ids, trainer.input)


def similarity_search(query: np.ndarray, table: EmbeddingTable, topk: int,
                      exclude: Iterable[str] = ()) -> list[tuple[str, float]]:
    """Top-k ids by cosine similarity, descending, ties broken by ascending
    id. Zero-norm table entries score -1.0 and rank last; a zero-norm or
    non-finite query is rejected."""
    if topk < 1:
        raise ValueError("topk must be >= 1")
    scores = cosine_scores(query, table)
    if scores is None:
        raise ValueError("zero-norm or non-finite query")
    return [(table.ids[r], float(scores[r])) for r in top_rows(scores, table, topk, exclude)]
