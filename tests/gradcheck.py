"""Central finite-difference check of hand-derived gradients, and the L2
penalty that training adds to the loss, as the reference for its gradient."""

from typing import Callable, Mapping

import numpy as np

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


def l2_penalty(weights: Mapping[str, np.ndarray], lam: float):
    """lam * sum of squared entries over the given weight tensors, with
    gradient 2*lam*W each. Biases and embeddings are never passed here."""
    if lam < 0:
        raise ValueError("l2 strength must be non-negative")
    penalty = sum(float(np.vdot(w, w)) for w in weights.values())
    return lam * penalty, {name: 2.0 * lam * w for name, w in weights.items()}
