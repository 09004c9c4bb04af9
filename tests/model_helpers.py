"""One-example passes through the batched model, for tests that check a
single example or compare a batch against its examples, one tag's hidden
representation, and a float64 copy of a model."""

import numpy as np

from cb2cf.model import Cb2cfModel, _tag_reps, backward_batch, forward_batch, stack_bundles


def float64_model(model):
    """A copy of ``model`` with float64 parameters, built through the constructor,
    so every layer computes in float64: for finite differences and bit-level
    comparisons. The (float64) embedding is copied unchanged."""
    embedding = None if model.embedding is None else model.embedding.copy()
    return Cb2cfModel(model.spec, {name: p.astype(np.float64) for name, p in model.params.items()},
                      model.features, embedding)


def forward(model, bundle, **kwargs):
    """A batch of one through ``forward_batch``; returns (prediction, cache)."""
    predictions, cache = forward_batch(model, stack_bundles(model.spec, [bundle]), **kwargs)
    return predictions[0], cache


def backward(model, cache, grad_prediction):
    """Gradients of a cached ``forward``. Returns (grads, embedding_rows):
    embedding_rows maps each touched word-table row to its gradient, with
    repeated words accumulated."""
    grads, (rows, row_grads) = backward_batch(model, cache, grad_prediction[None, :])
    return grads, dict(zip(rows.tolist(), row_grads))


def tag_representation(model, field_name, tag):
    """Hidden activation of the field's component for the tag's one-hot
    input: relu(W[:, tag] + b)."""
    _, reps, (row,) = _tag_reps(model, field_name, [tag])
    return reps[row]
