"""One-example passes through the batched model, for tests that check a
single example or compare a batch against its examples."""

from cb2cf.model import backward_batch, forward_batch


def forward(model, bundle, **kwargs):
    """A batch of one through ``forward_batch``; returns (prediction, cache)."""
    predictions, cache = forward_batch(model, [bundle], **kwargs)
    return predictions[0], cache


def backward(model, cache, grad_prediction):
    """Gradients of a cached ``forward``. Returns (grads, embedding_rows):
    embedding_rows maps each touched word-table row to its gradient, with
    repeated words accumulated."""
    grads, (rows, row_grads) = backward_batch(model, cache, grad_prediction[None, :])
    return grads, dict(zip(rows.tolist(), row_grads))
