"""Minimal dense/convolutional network core with hand-derived gradients.

Everything operates on float64 numpy arrays. Dense, ReLU, dropout and MSE
are batch-first: a dense layer maps a (batch, features) matrix (or one
example's vector) with one GEMM and sums its parameter gradients over the
batch. The convolution takes one example's (length, dim) text matrix. Every
backward function is checked against central finite differences in the
test suite.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

CHECKPOINT_VERSION = 1


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
    matrix = np.asarray(matrix, dtype=np.float64)
    length, dim = matrix.shape
    count, width, fdim = filters.shape
    if fdim != dim:
        raise ValueError(f"filter dim {fdim} != input dim {dim}")
    if width > length:
        raise ValueError(f"filter width {width} exceeds input length {length}")
    if bias.shape != (count,):
        raise ValueError("conv bias shape mismatch")
    windows = sliding_window_view(matrix, (width, dim)).reshape(length - width + 1, width * dim)
    activations = windows @ filters.reshape(count, width * dim).T + bias
    best = np.argmax(activations, axis=0)  # first occurrence on ties
    pooled = activations[best, np.arange(count)]
    return pooled, (matrix, filters, best)


def conv1d_maxpool_backward(cache, grad_pooled: np.ndarray):
    matrix, filters, best = cache
    count, width, dim = filters.shape
    if grad_pooled.shape != (count,):
        raise ValueError("pooled grad shape mismatch")
    offsets = best[:, None] + np.arange(width)[None, :]          # (count, width)
    picked = matrix[offsets]                                     # (count, width, dim)
    grad_filters = grad_pooled[:, None, None] * picked
    grad_bias = grad_pooled.copy()
    grad_matrix = np.zeros_like(matrix)
    contributions = grad_pooled[:, None, None] * filters         # (count, width, dim)
    np.add.at(grad_matrix, offsets.reshape(-1), contributions.reshape(count * width, dim))
    return grad_matrix, grad_filters, grad_bias


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

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(np.zeros_like(param), np.zeros_like(param))


def adam_update(param: np.ndarray, grad: np.ndarray, state: AdamState,
                lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> None:
    """One bias-corrected Adam step, in place. Two scratch buffers replace
    the temporaries of ``param -= lr * m_hat / (sqrt(v_hat) + eps)``; the
    operation order, and so every bit, is that formula's."""
    if param.shape != grad.shape:
        raise ValueError("param and grad shape mismatch")
    state.t += 1
    scratch = np.multiply(grad, 1.0 - beta1)
    np.add(np.multiply(state.m, beta1, out=state.m), scratch, out=state.m)
    np.multiply(np.multiply(grad, 1.0 - beta2, out=scratch), grad, out=scratch)
    np.add(np.multiply(state.v, beta2, out=state.v), scratch, out=state.v)
    v_hat = np.divide(state.v, 1.0 - beta2 ** state.t, out=scratch)
    denominator = np.add(np.sqrt(v_hat, out=scratch), eps, out=scratch)
    step = np.divide(state.m, 1.0 - beta1 ** state.t)  # m_hat
    step *= lr
    param -= np.divide(step, denominator, out=step)


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
