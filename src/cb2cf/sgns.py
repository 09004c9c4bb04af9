"""Skip-gram with negative sampling over word sequences and item sets.

One trainer serves both modes. Word sequences draw a context span per
position, uniform in 1..window; item co-occurrence sets treat the whole set
as the window and pair every two distinct positions. Positive pairs maximize
log(sigmoid(u.v)) while sampled negatives maximize log(sigmoid(-u.v')), with
negatives drawn from the unigram distribution raised to the 3/4 power.

Training follows the shared-negative blocking of Ji et al., "Parallelizing
Word2Vec in Shared and Distributed Memory" (arXiv:1604.04661): an epoch's
kept positions form one stream, cut into blocks of consecutive centers
across sets and sentences. A block's pairs share one draw of K negatives
and take one simultaneous SGD step: one product scores its centers against
its contexts and negatives from the pre-step tables, a pair mask weights
the scores, and two more products give the updates.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import net
from .corpus import open_text, writable_id

LR_FLOOR_FRACTION = 1e-4
NOISE_POWER = 0.75
# Most targets summed per id by an equality-matrix product (targets^2 cells);
# past it np.add.at is faster at dims 40 and 100.
DENSE_SCATTER_MAX = 128
TABLE_KIND = "cb2cf-vectors"  # the ``kind`` meta of a vector-table checkpoint


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
        for name in ("dim", "epochs", "negatives", "window"):
            net.check_count(getattr(self, name), name)
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample threshold must be in (0, 1]")
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError("learning rate must be positive and finite")
        net.check_seed(self.seed)


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


class EmbeddingTable:
    """Ids mapped one-to-one onto rows of a float64 matrix, kept as a checkpoint."""

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
        self.vectors = vectors.view()
        self.vectors.flags.writeable = False  # keeps the cached ranks and norms valid

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: object) -> bool:
        return item_id in self.index

    def get(self, item_id: str) -> np.ndarray:
        return self.vectors[self.index[item_id]]

    def save(self, path: str | Path) -> None:
        """One ``net`` checkpoint: a ``vectors`` tensor, the kind and the ids as
        meta. Each id must pass ``writable_id``, as in word2vec text."""
        for item_id in self.ids:
            if not writable_id(item_id):
                raise ValueError(f"id not writable to a vector file: {item_id!r}")
        net.save_checkpoint(path, {"vectors": self.vectors}, {"kind": TABLE_KIND, "ids": self.ids})

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        """A checkpoint written by ``save`` if the first byte is ``{``, else
        word2vec text: a ``count dim`` header line, then an id and its floats
        per line. Rows are stacked at the end: a bad count allocates nothing."""
        with open(path, "rb") as fh:
            checkpoint = fh.read(1) == b"{"
        if checkpoint:
            tensors, meta = net.load_checkpoint(path)
            ids, vectors = meta.get("ids"), tensors.get("vectors")
            if meta.get("kind") != TABLE_KIND or tensors.keys() != {"vectors"} \
                    or not isinstance(ids, list) or not all(map(writable_id, ids)):
                raise ValueError(f"{path}: not a {TABLE_KIND} file of 'vectors' and writable 'ids'")
        else:
            with open_text(path) as fh:
                header = fh.readline().split()
                if len(header) != 2:
                    raise ValueError(f"{path}:1: expected 'count dim' header")
                count = _header_int(path, "count", header[0], 0)
                dim = _header_int(path, "dim", header[1], 1)
                ids, rows = [], []
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
            vectors = np.array(rows, dtype=np.float64).reshape(count, dim)
        try:
            return cls(ids, vectors)
        except ValueError as exc:  # e.g. a repeated id
            raise ValueError(f"{path}: {exc}") from None

    @cached_property
    def _id_rank(self) -> np.ndarray:
        """Each row's position in ascending id order: the tie break of every
        ranking. Built on first use, so unsearched tables never pay for it."""
        return np.argsort(np.argsort(np.array(self.ids, dtype=object)))

    @cached_property
    def _cosine_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows ``cosine_scores`` multiplies, each row of extreme norm scaled
        by a power of two, and their norms."""
        rows = self.vectors
        with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
            norms = _row_norms(rows)
        unsafe = (norms < _SAFE_NORMS[0]) | (norms > _SAFE_NORMS[1])
        if unsafe.any():
            rows = rows.copy()
            rows[unsafe] = _power_of_two_scaled(rows[unsafe])
            norms[unsafe] = _row_norms(rows[unsafe])
        return rows, norms


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
    Each table scales and measures its rows once (``_cosine_rows``).
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (table.dim,):
        raise ValueError(f"query shape {query.shape} does not match table dimension {table.dim}")
    if not np.isfinite(query).all():
        return None
    with np.errstate(over="ignore"):  # an overflowing norm is rescaled below
        qnorm = float(np.linalg.norm(query))
    if not _SAFE_NORMS[0] <= qnorm <= _SAFE_NORMS[1]:
        query = _power_of_two_scaled(query)
        qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        return None
    rows, norms = table._cosine_rows
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


def block_centers(vocab_size: int) -> int:
    """Most centers of one block: an eighth of the vocabulary, within [16, 64].
    A block reads stale tables, so an id in many of its centers overshoots;
    past 64 centers the products outgrow the per-call cost they save."""
    return min(64, max(16, vocab_size // 8))


def pack_blocks(seqs: np.ndarray, spans: np.ndarray, size: int):
    """Cut a stream of positions into blocks of at most ``size`` consecutive
    centers. Position i pairs with each position j of its own sequence
    (``seqs`` labels, ascending) with 0 < |i - j| <= ``spans[i]``.

    Yields ``(centers, contexts, mask)``: two slices of stream positions and
    the float mask whose cell (i, j) is 1.0 when center ``centers.start + i``
    pairs with context ``contexts.start + j``.
    """
    position = np.arange(len(seqs))
    lo = np.maximum(np.searchsorted(seqs, seqs, "left"), position - spans)
    hi = np.minimum(np.searchsorted(seqs, seqs, "right"), position + spans + 1)
    cuts = np.arange(0, len(seqs), size)
    for start, low, high in zip(cuts.tolist(), np.minimum.reduceat(lo, cuts).tolist(),
                                np.maximum.reduceat(hi, cuts).tolist()):
        block, window = slice(start, min(len(seqs), start + size)), slice(low, high)
        gap = np.abs(position[block, None] - position[window])
        mask = (gap > 0) & (gap <= spans[block, None]) & (seqs[block, None] == seqs[window])
        yield block, window, mask.astype(np.float64)


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


class NoiseSampler:
    """Draws ids proportionally to count**0.75 via inverse-CDF lookup."""

    def __init__(self, counts: np.ndarray) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a nonempty 1-D array")
        if np.any(counts < 0) or counts.sum() <= 0:
            raise ValueError("counts must be non-negative with positive total")
        weights = counts ** NOISE_POWER
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

    def train_pairs(self, centers, contexts, mask: np.ndarray, negatives, lr) -> None:
        """One simultaneous SGD step on a block of pairs sharing the K
        ``negatives``: pair (``centers[i]``, ``contexts[j]``) has weight
        ``mask[i, j]``. ``lr`` is one rate, or a (centers, 1) column of
        per-center rates.

        Center i scores every context and negative in one product. A
        positive pair weighs in by its mask cell, a negative by the count
        of i's pairs whose context it does not equal (word2vec's rule of
        skipping a negative that hits the context). Every score and
        gradient reads the pre-step tables, and updates to a repeated id
        accumulate.
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
        grad = coef.T @ u
        if len(targets) <= DENSE_SCATTER_MAX:
            self.output[targets] += (targets[:, None] == targets) @ grad
        else:  # a long set's contexts
            np.add.at(self.output, targets, grad)


def train_sgns(data, config: SgnsConfig) -> EmbeddingTable:
    """Train embeddings over word sequences or a CooccurrenceSets instance.

    Each epoch drops the sequences with under two kept positions and cuts
    the rest into ``pack_blocks`` blocks (an item's span is its set's
    length), with K negatives per block from one draw. A center's learning
    rate decays linearly with its sequence's start in the stream, down to
    1e-4 times its initial value. A fixed seed gives bit-identical tables
    on repeated runs; training is single-threaded by construction.
    """
    item_mode = isinstance(data, CooccurrenceSets)
    sequences = [s for s in map(list, data.sets if item_mode else data) if s]
    if not sequences:
        raise ValueError("empty training data")

    counter = Counter(str(t) for seq in sequences for t in seq)
    ids = sorted(counter, key=lambda t: (-counter[t], t))
    id_index = {t: i for i, t in enumerate(ids)}
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    stream = np.fromiter((id_index[str(t)] for seq in sequences for t in seq), np.int64)
    counts = np.array([counter[t] for t in ids], dtype=np.float64)

    seq_of = np.repeat(np.arange(len(sequences)), lengths)
    seq_start = np.cumsum(lengths) - lengths
    total_positions = len(stream)
    total_units = config.epochs * total_positions
    discard = discard_probabilities(counts, config.subsample)[stream]
    noise = NoiseSampler(counts)
    rng = np.random.default_rng(config.seed)
    trainer = SgnsTrainer(len(ids), config.dim, rng)
    floor = LR_FLOOR_FRACTION * config.learning_rate
    size = block_centers(len(ids))

    for epoch in range(config.epochs):
        keep = rng.random(total_positions) >= discard
        spans = None if item_mode else rng.integers(1, config.window + 1, total_positions)
        keep &= (np.bincount(seq_of[keep], minlength=len(lengths)) >= 2)[seq_of]
        kept = np.flatnonzero(keep)
        seqs = seq_of[kept]
        units = epoch * total_positions + seq_start[seqs]
        lr = np.maximum(floor, config.learning_rate * (1.0 - units / total_units))[:, None]
        negatives = noise.draw(config.negatives * -(-len(kept) // size), rng)
        blocks = pack_blocks(seqs, lengths[seqs] if item_mode else spans[kept], size)
        for (centers, contexts, mask), negs in zip(blocks, negatives.reshape(-1, config.negatives)):
            trainer.train_pairs(stream[kept[centers]], stream[kept[contexts]], mask, negs,
                                lr[centers])
    return EmbeddingTable(ids, trainer.input)


def check_topk(topk: int) -> None:
    net.check_count(topk, "topk")


def similarity_search(query: np.ndarray, table: EmbeddingTable, topk: int,
                      exclude: Iterable[str] = ()) -> list[tuple[str, float]]:
    """Top-k ids by cosine similarity, descending, ties broken by ascending
    id. Zero-norm table entries score -1.0 and rank last; a zero-norm or
    non-finite query is rejected."""
    check_topk(topk)
    scores = cosine_scores(query, table)
    if scores is None:
        raise ValueError("zero-norm or non-finite query")
    return [(table.ids[r], float(scores[r])) for r in top_rows(scores, table, topk, exclude)]
