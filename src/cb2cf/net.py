"""Minimal dense/convolutional network core with hand-derived gradients.

Each layer computes in the dtype of its inputs. Dense, ReLU, dropout and MSE
are batch-first: a dense layer maps a (batch, features) matrix with one
GEMM and sums its parameter gradients over the batch. The convolution takes
a batch's texts as segments of one stacked (rows, dim) matrix, with one GEMM
and max per segment; its input gradient is one ``np.bincount`` per segment,
bit for bit ``np.add.at``. Adam takes Kingma & Ba's efficient form
(arXiv:1412.6980, section 2) on a flat parameter vector and embedding rows
alike. Every backward function is checked against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

CHECKPOINT_VERSION = 1
ADAM_BLOCK = 1 << 18  # bytes per array in a block, any dtype: a step's 5 arrays stay in L2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """y = x @ W.T + b for a batch x of shape (batch, in). Returns (y, cache)."""
    if x.ndim != 2 or weight.ndim != 2 or weight.shape[1] != x.shape[1]:
        raise ValueError(f"dense shape mismatch: W {weight.shape}, x {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"dense bias shape {bias.shape} != ({weight.shape[0]},)")
    return x @ weight.T + bias, (x, weight)


def dense_backward(cache, grad_out: np.ndarray, out=(None, None)):
    """Returns (grad_in, grad_weight, grad_bias); the parameter gradients are
    summed over the batch, into ``out = (grad_weight, grad_bias)`` if given."""
    x, weight = cache
    if grad_out.shape != (len(x), len(weight)):
        raise ValueError("dense grad shape mismatch")
    return (grad_out @ weight, np.matmul(grad_out.T, x, out=out[0]),
            np.sum(grad_out, axis=0, out=out[1]))


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(cache, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient 0 at the kink.
    return grad_out * (cache > 0)


def conv1d_maxpool_forward(matrix: np.ndarray, filters: np.ndarray, bias: np.ndarray,
                           offsets: np.ndarray):
    """Valid 1-D convolution over the time axis, then a global max per filter.

    matrix is (rows, dim), one text per segment: segment i is rows
    ``offsets[i]:offsets[i + 1]``. filters are (count, width, dim), bias
    (count,). One GEMM per segment scores its windows; the first window wins
    ties. Returns pooled, (segments, count), and a cache holding the start row
    of each maximum's window."""
    matrix = np.ascontiguousarray(matrix)
    count, width, dim = filters.shape
    bounds = np.asarray(offsets)
    if matrix.shape[1] != dim or bias.shape != (count,) or (np.diff(bounds) < width).any():
        raise ValueError(f"conv shape mismatch: input {matrix.shape}, segment lengths "
                         f"{np.diff(bounds).tolist()}, filters {filters.shape}, bias {bias.shape}")
    pooled = np.empty((len(bounds) - 1, count), np.result_type(matrix, filters, bias))
    best = np.empty(pooled.shape, np.int64)
    for i, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        windows = as_strided(matrix[lo:], (hi - lo - width + 1, width * dim), matrix.strides,
                             writeable=False)  # row p: the width*dim values from row lo+p on
        activations = filters.reshape(count, width * dim) @ windows.T + bias[:, None]
        best[i] = np.argmax(activations, axis=1)  # first occurrence on ties
        pooled[i] = activations[np.arange(count), best[i]]
    best += bounds[:-1, None]
    return pooled, (matrix, filters, best)


def scatter_rows(rows: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """``np.add.at(zeros((count, dim)), rows, values)``: one bincount, same order, same bits."""
    dim = values.shape[1]
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(cells, values.ravel(), minlength=count * dim).reshape(count, dim)


def conv1d_maxpool_backward(cache, grad_pooled: np.ndarray, input_grad: bool = True,
                            out=(None, None)):
    """(grad_matrix, grad_filters, grad_bias); the parameter gradients are summed
    over the segments in order, into ``out = (grad_filters, grad_bias)`` if given.
    grad_matrix only if ``input_grad``."""
    matrix, filters, best = cache
    count, width, dim = filters.shape
    if grad_pooled.shape != best.shape:
        raise ValueError("pooled grad shape mismatch")
    grad_filters = np.zeros_like(filters) if out[0] is None else out[0]
    grad_filters[...] = 0.0
    grad_matrix = np.zeros(matrix.shape, np.result_type(matrix, filters)) if input_grad else None
    for grad_row, starts in zip(grad_pooled, best):  # one segment at a time, in order
        rows = starts[:, None] + np.arange(width)  # (count, width) input rows
        grad_filters += grad_row[:, None, None] * matrix[rows]
        if input_grad:  # segments are disjoint: each row sums its own terms in order
            first, last = int(starts.min()), int(starts.max()) + width
            terms = (grad_row[:, None, None] * filters).reshape(-1, dim)
            grad_matrix[first:last] = scatter_rows(rows.ravel() - first, terms, last - first)
    return grad_matrix, grad_filters, np.sum(grad_pooled, axis=0, out=out[1])


def dropout_mask(uniform: np.ndarray, p: float, dtype=np.float64) -> np.ndarray:
    """Inverted-dropout mask in ``dtype`` from uniform [0, 1) draws: 0 with
    probability p, else 1/(1-p)."""
    return ((uniform >= p) / (1.0 - p)).astype(dtype, copy=False)


def mse_loss(prediction: np.ndarray, target: np.ndarray):
    """Mean squared error over coordinates, one loss per row, and its gradient
    w.r.t. prediction."""
    if prediction.shape != target.shape:
        raise ValueError(f"prediction {prediction.shape} vs target {target.shape}")
    diff = prediction - target
    n = diff.shape[-1]
    return np.sum(diff * diff, axis=-1) / n, (2.0 / n) * diff


def check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError("seed must be >= 0")


def check_count(value: int, label: str, minimum: int = 1) -> None:
    """Refuse a ``value`` below ``minimum`` or not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{label} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{label} must be >= {minimum}")


def _adam_rates(lr: float, t: int) -> tuple[float, float]:
    """``(lr_t, eps_t)`` at step ``t``, in Python floats."""
    c = math.sqrt(1.0 - ADAM_BETA2 ** t)
    return lr * c / (1.0 - ADAM_BETA1 ** t), ADAM_EPS * c


def _adam_block(p, g, m, v, s, lr_t, eps_t) -> None:
    """Kingma & Ba's efficient form on one block, in place, with ``s`` as scratch:
    ``param -= lr_t * m / (sqrt(v) + eps_t)``, ``c = sqrt(1 - ADAM_BETA2**t)``,
    ``lr_t = lr * c / (1 - ADAM_BETA1**t)``, ``eps_t = ADAM_EPS * c``. ``m`` and
    ``v`` keep the bits of ``lr * m_hat / (sqrt(v_hat) + eps)``; ``param`` differs
    from that by a few ulps."""
    np.add(np.multiply(m, ADAM_BETA1, out=m), np.multiply(g, 1.0 - ADAM_BETA1, out=s), out=m)
    np.multiply(np.multiply(g, 1.0 - ADAM_BETA2, out=s), g, out=s)
    np.add(np.multiply(v, ADAM_BETA2, out=v), s, out=v)
    np.add(np.sqrt(v, out=s), eps_t, out=s)
    p -= np.multiply(np.divide(m, s, out=s), lr_t, out=s)


class Adam:
    """Kingma & Ba's Adam over one flat parameter vector (elementwise: bit for bit
    a step per tensor packed into it), plus a row-sparse path for one embedding
    table's touched rows, each row with its own step count and the rates of that
    step from ``row_rates``, a table filled by ``_adam_rates``."""

    def __init__(self, lr: float = 1e-3) -> None:
        self.lr = lr
        self.m = self.v = self.scratch = None  # the flat vector's moments and block scratch
        self.t = 0  # the flat vector's steps
        self.row_m = self.row_v = self.row_t = None  # the table's moments and steps per row
        self.row_rates = np.empty((0, 2))  # row t - 1: _adam_rates(lr, t), grown on demand

    def step(self, param: np.ndarray, grad: np.ndarray) -> None:
        """One bias-corrected step, in place, per block of whole rows of at most
        ``ADAM_BLOCK`` bytes (or one row) through one scratch buffer."""
        if param.shape != grad.shape:
            raise ValueError("param and grad shape mismatch")
        rows = max(1, ADAM_BLOCK // param.itemsize * len(param) // max(param.size, 1))
        if self.m is None:
            self.m, self.v, self.scratch = (
                np.zeros_like(param), np.zeros_like(param), np.empty_like(param[:rows]))
        self.t += 1
        lr_t, eps_t = _adam_rates(self.lr, self.t)
        for lo in range(0, len(param), rows):
            p, g, m, v = (a[lo:lo + rows] for a in (param, grad, self.m, self.v))
            _adam_block(p, g, m, v, self.scratch[:len(p)], lr_t, eps_t)

    def step_rows(self, param: np.ndarray, rows: np.ndarray, grads: np.ndarray) -> None:
        """A step on the given distinct ``rows`` of ``param`` only, with one
        gradient row each; every row keeps its own timestep."""
        if len(rows) == 0:
            return
        if self.row_m is None:
            self.row_m, self.row_v = np.zeros_like(param), np.zeros_like(param)
            self.row_t = np.zeros(len(param), dtype=np.int64)
        steps = self.row_t[rows] = self.row_t[rows] + 1
        top = int(steps.max())
        if top > len(self.row_rates):  # to twice the top step: O(steps) rates built in all
            self.row_rates = np.array([_adam_rates(self.lr, t) for t in range(1, 2 * top + 1)])
        rates = self.row_rates[steps - 1]
        p, m, v = param[rows], self.row_m[rows], self.row_v[rows]
        _adam_block(p, grads, m, v, np.empty_like(p), rates[:, :1], rates[:, 1:])
        param[rows], self.row_m[rows], self.row_v[rows] = p, m, v


def save_checkpoint(path: str | Path, tensors: Mapping[str, np.ndarray],
                    meta: dict | None = None) -> None:
    """Single-file container: one JSON manifest line, then the tensors as
    raw little-endian float64 in manifest order. Round trips bit-exactly."""
    manifest = {
        "version": CHECKPOINT_VERSION,
        "tensors": [{"name": name, "shape": list(np.asarray(t).shape)}
                    for name, t in tensors.items()],
        "meta": meta or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n")
        for t in tensors.values():
            fh.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path):
    """Returns (tensors, meta). Every manifest field is checked, and the
    declared tensor bytes must match the bytes after the manifest, before
    any tensor is read; a bad file raises ValueError naming the path."""
    def bad(reason: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {reason}")

    with open(path, "rb") as fh:
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise bad(f"unreadable manifest line ({exc})") from None
        if not isinstance(manifest, dict):
            raise bad("manifest is not a JSON object")
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise bad(f"unsupported checkpoint version {manifest.get('version')!r}")
        entries, meta = manifest.get("tensors"), manifest.get("meta", {})
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise bad("'tensors' must be a list and 'meta' an object")
        shapes: list[tuple[str, tuple[int, ...]]] = []
        for entry in entries:
            name = entry.get("name") if isinstance(entry, dict) else None
            if not isinstance(name, str):
                raise bad(f"tensor entry {entry!r} has no string 'name'")
            shape = entry.get("shape")
            if not (isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)):
                raise bad(f"tensor {name!r} has invalid shape {shape!r}: "
                          "expected a list of non-negative integers")
            shapes.append((name, tuple(shape)))
        declared = sum(8 * math.prod(shape) for _, shape in shapes)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if declared != left:
            kind = "truncated" if declared > left else "has trailing bytes"
            raise bad(f"{kind}: the manifest declares {declared} tensor bytes, "
                      f"{left} follow it")
        tensors = {}
        for name, shape in shapes:  # read straight into each array: no second copy
            tensor = tensors[name] = np.empty(shape, dtype="<f8")
            if fh.readinto(tensor) != tensor.nbytes:
                raise bad(f"truncated: tensor {name!r} ends before its "
                          f"{tensor.nbytes} declared bytes")
    return tensors, meta
