"""Minimal dense/convolutional network core with hand-derived gradients.

Everything operates on float64 numpy arrays. Dense, ReLU, dropout and MSE
are batch-first: a dense layer maps a (batch, features) matrix (or one
example's vector) with one GEMM and sums its parameter gradients over the
batch. The convolution takes one example's (length, dim) text matrix; its
input gradient is one ``np.bincount``, bit for bit ``np.add.at``. Adam takes
Kingma & Ba's efficient form (arXiv:1412.6980, section 2). Every backward
function is checked against central finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

CHECKPOINT_VERSION = 1
ADAM_BLOCK = 16384  # elements: a block's ~4 arrays of <= 128 KiB stay in L2 across its passes


def glorot_uniform(rng, fan_in: int, fan_out: int, shape: tuple[int, ...]) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def dense_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray):
    """y = x @ W.T + b for a batch x of shape (batch, in), or one example
    of shape (in,). Returns (y, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or weight.ndim != 2 or weight.shape[1] != x.shape[-1]:
        raise ValueError(f"dense shape mismatch: W {weight.shape}, x {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"dense bias shape {bias.shape} != ({weight.shape[0]},)")
    return x @ weight.T + bias, (x, weight)


def dense_backward(cache, grad_out: np.ndarray):
    """Returns (grad_in, grad_weight, grad_bias); the parameter gradients
    are summed over the batch."""
    x, weight = cache
    out_dim, in_dim = weight.shape
    if grad_out.shape != x.shape[:-1] + (out_dim,):
        raise ValueError("dense grad shape mismatch")
    rows = grad_out.reshape(-1, out_dim)
    return grad_out @ weight, rows.T @ x.reshape(-1, in_dim), rows.sum(axis=0)


def relu_forward(x: np.ndarray):
    return np.maximum(x, 0.0), x


def relu_backward(cache, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient 0 at the kink.
    return grad_out * (cache > 0)


def conv1d_maxpool_forward(matrix: np.ndarray, filters: np.ndarray, bias: np.ndarray):
    """Valid 1-D convolution over the time axis followed by a global max.

    matrix is (length, dim), filters (count, width, dim), bias (count,).
    Each filter slides over length-width+1 positions; the output keeps only
    the per-filter maximum, with the first position winning ties.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    length, dim = matrix.shape
    count, width, fdim = filters.shape
    if fdim != dim:
        raise ValueError(f"filter dim {fdim} != input dim {dim}")
    if width > length:
        raise ValueError(f"filter width {width} exceeds input length {length}")
    if bias.shape != (count,):
        raise ValueError("conv bias shape mismatch")
    windows = as_strided(matrix, (length - width + 1, width * dim), matrix.strides,
                         writeable=False)  # row p: the width*dim values from row p on
    activations = filters.reshape(count, width * dim) @ windows.T + bias[:, None]
    best = np.argmax(activations, axis=1)  # first occurrence on ties
    pooled = activations[np.arange(count), best]
    return pooled, (matrix, filters, best)


def scatter_rows(rows: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """``np.add.at(zeros((count, dim)), rows, values)``: one bincount, same order, same bits."""
    dim = values.shape[1]
    cells = (rows[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(cells, values.ravel(), minlength=count * dim).reshape(count, dim)


def conv1d_maxpool_backward(cache, grad_pooled: np.ndarray, input_grad: bool = True):
    """(grad_matrix, grad_filters, grad_bias); grad_matrix only if ``input_grad``."""
    matrix, filters, best = cache
    count, width, dim = filters.shape
    if grad_pooled.shape != (count,):
        raise ValueError("pooled grad shape mismatch")
    offsets = best[:, None] + np.arange(width)[None, :]          # (count, width)
    grad_filters = grad_pooled[:, None, None] * matrix[offsets]  # (count, width, dim)
    if not input_grad:
        return None, grad_filters, grad_pooled.copy()
    contributions = grad_pooled[:, None, None] * filters
    grad_matrix = scatter_rows(offsets.reshape(-1), contributions.reshape(-1, dim), len(matrix))
    return grad_matrix, grad_filters, grad_pooled.copy()


def dropout_mask(rng, shape, p: float) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability p, else 1/(1-p)."""
    return (rng.random(shape) >= p) / (1.0 - p)


def dropout_backward(mask, grad_out: np.ndarray) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask


def mse_loss(prediction: np.ndarray, target: np.ndarray):
    """Mean squared error over coordinates and its gradient w.r.t. prediction.
    A (batch, dim) prediction gives one loss per row."""
    prediction = np.asarray(prediction, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if prediction.shape != target.shape:
        raise ValueError(f"prediction {prediction.shape} vs target {target.shape}")
    diff = prediction - target
    n = diff.shape[-1]
    loss = np.sum(diff * diff, axis=-1) / n
    return (float(loss) if diff.ndim == 1 else loss), (2.0 / n) * diff


def l2_penalty(weights: Mapping[str, np.ndarray], lam: float):
    """lam * sum of squared entries over the given weight tensors, with
    gradient 2*lam*W each. Biases and embeddings are never passed here."""
    if lam < 0:
        raise ValueError("l2 strength must be non-negative")
    penalty = 0.0
    grads = {}
    for name, w in weights.items():
        penalty += float(np.sum(w * w))
        grads[name] = 2.0 * lam * w
    return lam * penalty, grads


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param), np.zeros_like(param))


def adam_update(param: np.ndarray, grad: np.ndarray, state: AdamState,
                lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> None:
    """One bias-corrected Adam step, in place, per block of whole rows of at most
    ``ADAM_BLOCK`` elements (or one row) through one scratch buffer kept on the state:
    ``param -= lr_t * m / (sqrt(v) + eps_t)``, ``c = sqrt(1 - beta2**t)``,
    ``lr_t = lr * c / (1 - beta1**t)``, ``eps_t = eps * c``. ``m`` and ``v`` keep the bits
    of ``lr * m_hat / (sqrt(v_hat) + eps)``; ``param`` differs by a few ulps per step."""
    if param.shape != grad.shape:
        raise ValueError("param and grad shape mismatch")
    state.t += 1
    c = math.sqrt(1.0 - beta2 ** state.t)
    lr_t, eps_t = lr * c / (1.0 - beta1 ** state.t), eps * c
    rows = max(1, ADAM_BLOCK * len(param) // max(param.size, 1))
    if state.scratch is None:
        state.scratch = np.empty_like(param[:rows])
    for lo in range(0, len(param), rows):
        p, g, m, v = (a[lo:lo + rows] for a in (param, grad, state.m, state.v))
        s = state.scratch[:len(p)]
        np.add(np.multiply(m, beta1, out=m), np.multiply(g, 1.0 - beta1, out=s), out=m)
        np.multiply(np.multiply(g, 1.0 - beta2, out=s), g, out=s)
        np.add(np.multiply(v, beta2, out=v), s, out=v)
        np.add(np.sqrt(v, out=s), eps_t, out=s)
        p -= np.multiply(np.divide(m, s, out=s), lr_t, out=s)


@dataclass
class AdamRowState:
    m: np.ndarray
    v: np.ndarray
    t: np.ndarray  # per-row timestep


class Adam:
    """Adam over a dict of named tensors, plus a row-sparse path for
    embedding tables where only rows touched by the batch may move."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.states: dict[str, AdamState] = {}
        self.row_states: dict[str, AdamRowState] = {}

    def step(self, params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray]) -> None:
        for name, grad in grads.items():
            if name not in params:
                raise KeyError(f"gradient for unknown parameter {name!r}")
            state = self.states.get(name)
            if state is None:
                state = self.states[name] = AdamState.zeros_like(params[name])
            adam_update(params[name], grad, state, self.lr, self.beta1, self.beta2, self.eps)

    def step_rows(self, name: str, param: np.ndarray, rows: np.ndarray,
                  grads: np.ndarray) -> None:
        """Adam on the given distinct ``rows`` of ``param`` only, with one
        gradient row each; every row keeps its own timestep."""
        if len(rows) == 0:
            return
        state = self.row_states.get(name)
        if state is None:
            state = self.row_states[name] = AdamRowState(
                np.zeros_like(param), np.zeros_like(param),
                np.zeros(param.shape[0], dtype=np.int64))
        state.t[rows] += 1
        t = state.t[rows][:, None].astype(np.float64)
        state.m[rows] = self.beta1 * state.m[rows] + (1.0 - self.beta1) * grads
        state.v[rows] = self.beta2 * state.v[rows] + (1.0 - self.beta2) * grads * grads
        m_hat = state.m[rows] / (1.0 - self.beta1 ** t)
        v_hat = state.v[rows] / (1.0 - self.beta2 ** t)
        param[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


LossFn = Callable[[dict[str, np.ndarray]], tuple[float, dict[str, np.ndarray]]]


def grad_check(loss_fn: LossFn, tensors: dict[str, np.ndarray],
               eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences.

    loss_fn must be deterministic and return (loss, grads) with one gradient
    per input tensor.
    """
    _, analytic = loss_fn(tensors)
    worst = 0.0
    for name, tensor in tensors.items():
        if name not in analytic:
            raise KeyError(f"loss_fn returned no gradient for {name!r}")
        grad = analytic[name]
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            up, _ = loss_fn(tensors)
            flat[i] = original - eps
            down, _ = loss_fn(tensors)
            flat[i] = original
            numeric = (up - down) / (2.0 * eps)
            a = float(grad.reshape(-1)[i])
            err = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


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
        tensors = {name: np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8")
                   .reshape(shape).copy() for name, shape in shapes}
    return tensors, meta
