"""Multiple-input regression network that maps content features onto
collaborative-filtering item vectors.

Each enabled component (text CNN, clustered bag-of-words, one binary input
per tag field, release year) feeds its feature-bundle part through a small
stack of dense ReLU layers; the combiner concatenates the stacks' outputs,
applies one more hidden layer, and a linear output layer emits the predicted
CF vector. ``COMPONENTS`` is the one table of what each component reads and
which dense layers it owns; the forward and backward passes run every stack
through the same loop, and only the CNN adds a front (its convolution and
max-pool over the word rows) below its stack. The loss is mean squared error
with L2 on the conv filters, the tag hidden weights, and the combiner hidden
weights.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import net
from .features import FeatureBundle, FeatureContext, TAG_FIELDS, load_feature_context
from .sgns import EmbeddingTable, similarity_search

# Component -> (the feature-bundle part it reads, its dense layers bottom
# first), in canonical order. Layer "x" owns parameters "x.weight" and
# "x.bias"; BOW's unit dropout masks the input of its second layer.
COMPONENTS = {
    "CNN": ("text", ("cnn.fc",)),
    "BOW": ("bow", ("bow.fc1", "bow.fc2")),
    "Genres": ("genres", ("genres",)),
    "Actors": ("actors", ("actors",)),
    "Director": ("directors", ("director",)),
    "Language": ("languages", ("language",)),
    "Year": ("year", ("year",)),
}
COMPONENT_ORDER = tuple(COMPONENTS)
TAG_COMPONENT_FIELDS = {c: part for c, (part, _) in COMPONENTS.items() if part in TAG_FIELDS}
CNN_VARIANTS = ("non-static", "static", "random-init")
_GROUPS = {"Tags": tuple(TAG_COMPONENT_FIELDS)}
MODEL_KIND = "cb2cf-model"
PREDICT_CHUNK = 256  # bundles per forward pass in ``predict``
PARAM_DTYPE = np.float32  # of built and loaded dense parameters; the embedding copy stays float64


def parse_system(name: str) -> tuple[str, ...]:
    """Expand a system name like 'CNN+Tags+Year' into component names in
    canonical order. 'Tags' covers the four tag fields."""
    expanded: set[str] = set()
    for part in name.split("+"):
        part = part.strip()
        if part in _GROUPS:
            expanded.update(_GROUPS[part])
        elif part in COMPONENT_ORDER:
            expanded.add(part)
        else:
            raise ValueError(f"unknown system component {part!r}")
    return tuple(c for c in COMPONENT_ORDER if c in expanded)


def _default_tag_hidden() -> dict[str, int]:
    return {"Genres": 100, "Actors": 100, "Director": 40, "Language": 20}


@dataclass
class SystemSpec:
    """Which components are enabled and how wide each hidden layer is."""

    components: tuple[str, ...]
    output_dim: int = 40
    tag_hidden: dict[str, int] = field(default_factory=_default_tag_hidden)
    bow_hidden: int = 256
    cnn_hidden: int = 256
    year_hidden: int = 8
    combiner_hidden: int = 256
    cnn_filters: int = 300
    cnn_width: int = 3
    cnn_variant: str = "non-static"
    text_length: int = 500  # in-table words the CNN reads from the start of a text
    name: str | None = None

    def __post_init__(self) -> None:
        self.components = tuple(self.components)
        if not self.components:
            raise ValueError("a system needs at least one component")
        unknown = set(self.components) - set(COMPONENT_ORDER)
        if unknown:
            raise ValueError(f"unknown components: {sorted(unknown)}")
        if len(set(self.components)) != len(self.components):
            raise ValueError("duplicate component")
        self.components = tuple(c for c in COMPONENT_ORDER if c in self.components)
        if self.cnn_variant not in CNN_VARIANTS:
            raise ValueError(f"cnn_variant must be one of {CNN_VARIANTS}")
        for value, label in [(self.output_dim, "output_dim"), (self.bow_hidden, "bow_hidden"),
                             (self.cnn_hidden, "cnn_hidden"), (self.year_hidden, "year_hidden"),
                             (self.combiner_hidden, "combiner_hidden"),
                             (self.cnn_filters, "cnn_filters"), (self.cnn_width, "cnn_width"),
                             (self.text_length, "text_length")]:
            if type(value) is not int or value < 1:
                raise ValueError(f"{label} must be an integer >= 1")
        if not isinstance(self.tag_hidden, dict) or self.tag_hidden.keys() - TAG_COMPONENT_FIELDS:
            raise ValueError(f"tag_hidden must map tag components {list(TAG_COMPONENT_FIELDS)} "
                             f"to widths, not {self.tag_hidden!r}")
        for comp in TAG_COMPONENT_FIELDS:
            width = self.tag_hidden.get(comp)
            if type(width) is not int or width < 1:
                raise ValueError(f"tag_hidden[{comp!r}] must be an integer >= 1")
        if self.cnn_width > self.text_length:
            raise ValueError("cnn_width exceeds text_length")
        if self.name is None:
            self.name = "+".join(self.components)

    @classmethod
    def named(cls, system: str, output_dim: int = 40, **overrides) -> "SystemSpec":
        return cls(components=parse_system(system), output_dim=output_dim,
                   name=system, **overrides)


def bundle_parts(spec: SystemSpec) -> set[str]:
    return {COMPONENTS[comp][0] for comp in spec.components}


def component_output_dims(spec: SystemSpec) -> dict[str, int]:
    widths = {"CNN": spec.cnn_hidden, "BOW": spec.bow_hidden,
              "Year": spec.year_hidden, **spec.tag_hidden}
    return {comp: widths[comp] for comp in spec.components}


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Named views into ``flat``, back to back in the order and shapes of ``like``."""
    views, offset = {}, 0
    for name, tensor in like.items():
        views[name] = flat[offset:offset + tensor.size].reshape(tensor.shape)
        offset += tensor.size
    return views


class Cb2cfModel:
    """Parameters plus the feature context they were built against.

    The constructor packs the given tensors, in order, into one vector ``flat``
    of their dtype, and ``params`` maps each name to a view into it. Write
    through ``params[name]``, never rebind it: a rebound tensor is no longer in
    ``flat``, which is what Adam steps and training snapshots, restores and checks.

    ``embedding`` is the model's private copy of the word table, present only
    when the CNN component is enabled; it is trainable unless the variant is
    'static'.
    """

    def __init__(self, spec: SystemSpec, params: dict[str, np.ndarray],
                 features: FeatureContext, embedding: np.ndarray | None) -> None:
        self.spec = spec
        self.flat = np.concatenate([np.ravel(t) for t in params.values()])
        self.params = _views(self.flat, params)
        self.features = features
        self.embedding = embedding

    @property
    def embedding_trainable(self) -> bool:
        return self.embedding is not None and self.spec.cnn_variant != "static"

    def l2_weight_names(self) -> list[str]:
        comps = self.spec.components
        names = ["cnn.filters"] if "CNN" in comps else []
        names += [f"{COMPONENTS[c][1][0]}.weight" for c in comps if c in TAG_COMPONENT_FIELDS]
        return names + ["combiner.weight"]


def parameter_shapes(spec: SystemSpec, features: FeatureContext) -> dict[str, tuple[int, ...]]:
    """Every parameter's shape, in table order; component input sizes come
    from the fitted feature context. Layer "x" has "x.weight" (out, in) and
    "x.bias" (out,); the CNN adds "cnn.filters" and "cnn.conv_bias"."""
    shapes: dict[str, tuple[int, ...]] = {}
    dims = component_output_dims(spec)
    for comp in spec.components:
        part, layers = COMPONENTS[comp]
        if part == "text":
            if features.word_table is None:
                raise ValueError("CNN component needs a word table in the feature context")
            shapes["cnn.filters"] = (spec.cnn_filters, spec.cnn_width, features.word_table.dim)
            shapes["cnn.conv_bias"] = (spec.cnn_filters,)
            width = spec.cnn_filters
        elif part == "bow":
            if features.centroids is None:
                raise ValueError("BOW component needs centroids in the feature context")
            width = len(features.centroids)
        else:
            width = 1 if part == "year" else features.tag_vocab.size(part)
        for name in layers:
            shapes[f"{name}.weight"], shapes[f"{name}.bias"] = (dims[comp], width), (dims[comp],)
            width = dims[comp]
    shapes["combiner.weight"] = (spec.combiner_hidden, sum(dims.values()))
    shapes["combiner.bias"] = (spec.combiner_hidden,)
    shapes["output.weight"] = (spec.output_dim, spec.combiner_hidden)
    shapes["output.bias"] = (spec.output_dim,)
    return shapes


def build_model(spec: SystemSpec, features: FeatureContext, seed: int = 0) -> Cb2cfModel:
    """Allocate the ``parameter_shapes`` tensors in table order, in ``PARAM_DTYPE``.
    Weights and filters are uniform in +-sqrt(6/(fan_in+fan_out)), biases zero;
    a 'random-init' (float64) embedding is drawn just before the filters."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    embedding = None
    for name, shape in parameter_shapes(spec, features).items():
        if name == "cnn.filters":
            table = features.word_table
            embedding = (rng.uniform(-0.5 / table.dim, 0.5 / table.dim, size=table.vectors.shape)
                         if spec.cnn_variant == "random-init" else table.vectors.copy())
        limit = np.sqrt(6.0 / (shape[0] + math.prod(shape[1:])))  # fan_out + fan_in
        params[name] = (np.zeros(shape) if len(shape) == 1
                        else rng.uniform(-limit, limit, size=shape)).astype(PARAM_DTYPE)
    return Cb2cfModel(spec, params, features, embedding)


def stack_bundles(spec: SystemSpec, bundles: Sequence[FeatureBundle]) -> dict:
    """Every bundle's input to each enabled component, which must be present,
    checked and stacked once: a (bundles, width) matrix, or for the CNN each
    text's first ``spec.text_length`` word indices, back to back with their
    (bundles + 1,) offsets."""
    stack = {}
    for comp in spec.components:
        part = COMPONENTS[comp][0]
        values = [b.text_indices if part == "text" else
                  b.tags.get(part) if part in TAG_FIELDS else getattr(b, part)
                  for b in bundles]
        if any(v is None for v in values):
            raise ValueError(f"bundle has no {part} input for the enabled {comp} component")
        if part == "text":
            values = [v[:spec.text_length] for v in values]
        stack[comp] = np.vstack(values) if part != "text" else \
            (np.concatenate(values).astype(np.int64, copy=False), np.cumsum([0, *map(len, values)]))
    return stack


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] + j`` for each ``j < lengths[i]``, example by example."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def _text_forward(model: Cb2cfModel, indices: np.ndarray, lengths: np.ndarray,
                  word_mask: np.ndarray | None) -> tuple:
    """Convolution and max-pool over each text's words, as segments of one
    stacked matrix. A segment stops one padding window past its words: every
    later window is all padding and scores exactly the conv bias, so keeping
    one leaves the first-occurrence max where the full-length matrix has it."""
    offsets = np.cumsum([0, *np.minimum(model.spec.text_length, lengths + model.spec.cnn_width)])
    word_rows = _spans(offsets[:-1], lengths)
    matrix = np.zeros((offsets[-1], model.embedding.shape[1]), model.flat.dtype)
    matrix[word_rows] = (model.embedding[indices] if word_mask is None
                         else model.embedding[indices] * word_mask[:, None])
    pooled, conv_cache = net.conv1d_maxpool_forward(
        matrix, model.params["cnn.filters"], model.params["cnn.conv_bias"], offsets)
    return indices, word_mask, word_rows, conv_cache, pooled


def _text_backward(model: Cb2cfModel, text_cache: tuple, grad_act: np.ndarray,
                   grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``_text_forward`` given the gradient of relu(pooled),
    written into ``grads``; returns the touched word-table rows and their
    summed gradients, built only for a trainable embedding."""
    indices, mask, word_rows, conv_cache, pooled = text_cache
    trainable = model.embedding_trainable and len(indices) > 0
    grad_matrix, _, _ = net.conv1d_maxpool_backward(
        conv_cache, net.relu_backward(pooled, grad_act), trainable,
        out=(grads["cnn.filters"], grads["cnn.conv_bias"]))
    if not trainable:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    text_rows = grad_matrix[word_rows]
    if mask is not None:
        text_rows = text_rows * mask[:, None]
    rows, inverse = np.unique(indices, return_inverse=True)
    return rows, net.scatter_rows(inverse, text_rows, len(rows))


def forward_batch(model: Cb2cfModel, stack: dict, rows: np.ndarray | slice = slice(None), *,
                  train: bool = False, rng=None, word_dropout: float = 0.0,
                  unit_dropout: float = 0.0):
    """Forward pass over the minibatch ``rows`` (all by default) of a ``stack_bundles``
    stack, in the parameters' dtype. Returns (predictions, cache) with one prediction
    row per example. Every layer runs once over the batch. Dropout draws happen
    only in train mode; evaluation is deterministic and rng-free."""
    spec, params, dtype = model.spec, model.params, model.flat.dtype
    if train and (word_dropout > 0 or unit_dropout > 0) and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    inputs = {comp: stack[comp][rows].astype(dtype) for comp in spec.components if comp != "CNN"}
    if "CNN" in spec.components:
        words, offsets = stack["CNN"]
        lengths = np.diff(offsets)[rows]
        inputs["CNN"] = words[_spans(offsets[:-1][rows], lengths)]
    word_p = word_dropout if train and "CNN" in inputs else 0.0
    unit_p = unit_dropout if train and "BOW" in inputs else 0.0
    word_mask = unit_mask = None
    if word_p > 0 or unit_p > 0:
        # One draw: the stream of each example's word mask, then its unit mask, in turn.
        n = len(lengths) if "CNN" in inputs else len(inputs["BOW"])
        sizes = np.column_stack([lengths if word_p > 0 else np.zeros(n, dtype=np.int64),
                                 np.full(n, spec.bow_hidden if unit_p > 0 else 0)])
        is_word = np.repeat(np.tile([True, False], n), sizes.ravel())
        draws = rng.random(len(is_word))
        word_mask = net.dropout_mask(draws[is_word], word_p, dtype) if word_p else None
        unit_mask = net.dropout_mask(draws[~is_word], unit_p, dtype).reshape(n, -1) if unit_p else None
    cache: dict = {"components": {}, "unit_mask": unit_mask}
    outputs: list[np.ndarray] = []

    for comp in spec.components:
        x = inputs[comp]
        if comp == "CNN":
            cache["text"] = _text_forward(model, x, lengths, word_mask)
            x = net.relu_forward(cache["text"][-1])
        layer_caches = []
        for j, name in enumerate(COMPONENTS[comp][1]):
            if j and unit_mask is not None:
                x = x * unit_mask
            pre, dense_cache = net.dense_forward(x, params[f"{name}.weight"],
                                                 params[f"{name}.bias"])
            x = net.relu_forward(pre)
            layer_caches.append((dense_cache, pre))
        cache["components"][comp] = layer_caches
        outputs.append(x)

    concat = np.concatenate(outputs, axis=1)
    cache["pre_comb"], cache["comb_cache"] = net.dense_forward(
        concat, params["combiner.weight"], params["combiner.bias"])
    combined = net.relu_forward(cache["pre_comb"])
    predictions, cache["out_cache"] = net.dense_forward(
        combined, params["output.weight"], params["output.bias"])
    return predictions, cache


def backward_batch(model: Cb2cfModel, cache: dict, grad_predictions: np.ndarray,
                   grad: np.ndarray | None = None):
    """Gradients of a cached ``forward_batch``, summed over the batch into
    ``grad`` (laid out like ``model.flat``; a new vector by default).
    Returns (grads, (rows, row_grads)): the named views into ``grad``, and
    the distinct touched word-table rows in ascending order with their summed
    gradients (both empty unless the embedding is trainable; repeated words
    accumulate)."""
    grads = _views(np.zeros_like(model.flat) if grad is None else grad, model.params)
    grad_combined, _, _ = net.dense_backward(
        cache["out_cache"], grad_predictions, (grads["output.weight"], grads["output.bias"]))
    grad_pre_comb = net.relu_backward(cache["pre_comb"], grad_combined)
    grad_concat, _, _ = net.dense_backward(
        cache["comb_cache"], grad_pre_comb, (grads["combiner.weight"], grads["combiner.bias"]))

    rows, row_grads = np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    offset = 0
    for comp, width in component_output_dims(model.spec).items():
        grad = grad_concat[:, offset:offset + width]
        offset += width
        layers = COMPONENTS[comp][1]
        for j in reversed(range(len(layers))):
            dense_cache, pre = cache["components"][comp][j]
            grad, _, _ = net.dense_backward(dense_cache, net.relu_backward(pre, grad),
                                            (grads[f"{layers[j]}.weight"],
                                             grads[f"{layers[j]}.bias"]))
            if j and cache["unit_mask"] is not None:
                grad = grad * cache["unit_mask"]
        if comp == "CNN":
            rows, row_grads = _text_backward(model, cache["text"], grad, grads)
    return grads, (rows, row_grads)


@dataclass
class TrainConfig:
    batch_size: int = 32
    word_dropout: float = 0.2
    dropout: float = 0.2
    l2: float = 1e-4
    learning_rate: float = 1e-3
    max_epochs: int = 100
    patience: int = 5
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.word_dropout < 1.0 or not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout probabilities must be in [0, 1)")
        if not 0 <= self.l2 <= sys.float_info.max:
            raise ValueError("l2 must be non-negative and finite")
        if not 0 < self.learning_rate <= sys.float_info.max:
            raise ValueError("learning_rate must be positive and finite")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        net.check_seed(self.seed)


@dataclass
class TrainReport:
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int | None
    stop_reason: str
    val_item_ids: list[str]

    @property
    def epochs(self) -> int:
        return len(self.train_losses)

    def log_lines(self) -> list[str]:
        """One ``epoch<TAB>train<TAB>val`` line per epoch."""
        lines = []
        for e, train in enumerate(self.train_losses):
            val = repr(self.val_losses[e]) if e < len(self.val_losses) else ""
            lines.append(f"{e}\t{train!r}\t{val}")
        return lines


def _target_vector(targets, item_id: str, shape: tuple[int, ...]) -> np.ndarray:
    """The item's vector from a table or mapping, checked to have ``shape``."""
    if item_id not in targets:
        raise ValueError(f"no target vector for item {item_id!r}")
    vec = (targets.get(item_id) if isinstance(targets, EmbeddingTable)
           else np.asarray(targets[item_id], dtype=np.float64))
    if vec.shape != shape:
        raise ValueError(f"target for {item_id!r} has shape {vec.shape}, expected {shape}")
    return vec


def _snapshot(model: Cb2cfModel) -> tuple:
    return model.flat.copy(), None if model.embedding is None else model.embedding.copy()


# Overflow and NaN show up as divergence below instead of as warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(model: Cb2cfModel, bundles: Sequence[FeatureBundle], targets,
          config: TrainConfig) -> TrainReport:
    """Minibatch Adam with early stopping on a held-out validation split.

    The bundles are stacked once; each minibatch is one
    ``forward_batch``/``backward_batch`` pass over its rows' batch-mean
    loss, and each epoch's validation rows are predicted from the same
    stack. The split, batch order, and dropout draws all come from one
    generator seeded by the config, so a fixed seed reproduces training
    exactly. Stops once validation loss has not improved for ``patience``
    epochs and restores the best epoch's parameters. A non-finite batch
    loss, validation loss or parameter stops training with
    ``stop_reason="diverged"`` before the next update; the model then gets
    the best epoch's parameters back, or its pre-training parameters if no
    epoch had a finite validation loss.
    """
    if not bundles:
        raise ValueError("no training items")
    shape = (model.spec.output_dim,)
    target_rows = np.stack([_target_vector(targets, b.item_id, shape) for b in bundles])
    stack = stack_bundles(model.spec, bundles)
    l2_names = model.l2_weight_names() if config.l2 > 0 else []

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(bundles))
    n_val = 0
    if config.val_fraction > 0 and len(bundles) >= 2:
        n_val = min(len(bundles) - 1, max(1, int(round(config.val_fraction * len(bundles)))))
    val_idx = order[:n_val]
    train_idx = order[n_val:]

    adam = net.Adam(lr=config.learning_rate)
    grad = np.zeros_like(model.flat)
    best = np.inf
    best_epoch: int | None = None
    snapshot = _snapshot(model)
    bad_epochs = 0
    stop_reason = "max_epochs"
    train_losses: list[float] = []
    val_losses: list[float] = []

    for epoch in range(config.max_epochs):
        perm = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start:start + config.batch_size]
            preds, cache = forward_batch(model, stack, batch, train=True, rng=rng,
                                         word_dropout=config.word_dropout,
                                         unit_dropout=config.dropout)
            losses, grad_preds = net.mse_loss(preds, target_rows[batch].astype(preds.dtype))
            epoch_loss = sum(losses.tolist(), epoch_loss)
            if not np.isfinite(epoch_loss):
                break  # diverged; no update from a non-finite loss
            grads, (rows, row_grads) = backward_batch(model, cache, grad_preds / len(batch), grad)
            for name in l2_names:  # the L2 penalty's gradient, 2 * l2 * W, one tensor at a time
                grads[name] += (2.0 * config.l2) * model.params[name]
            adam.step(model.flat, grad)
            adam.step_rows(model.embedding, rows, row_grads)
        train_losses.append(epoch_loss / len(train_idx))
        if n_val:
            losses, _ = net.mse_loss(_predict_rows(model, stack, val_idx), target_rows[val_idx])
            val_losses.append(sum(losses.tolist()) / n_val)
        if not (np.isfinite(epoch_loss) and np.isfinite(model.flat).all()
                and (model.embedding is None or np.isfinite(model.embedding).all())
                and (not n_val or np.isfinite(val_losses[-1]))):
            stop_reason = "diverged"
            break

        if n_val:
            if val_losses[-1] < best:
                best = val_losses[-1]
                best_epoch = epoch
                snapshot = _snapshot(model)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    stop_reason = "early_stop"
                    break

    if best_epoch is not None or stop_reason == "diverged":
        model.flat[:], model.embedding = snapshot  # in place: the views stay valid
    return TrainReport(train_losses, val_losses, best_epoch, stop_reason,
                       [bundles[int(i)].item_id for i in val_idx])


def _predict_rows(model: Cb2cfModel, stack: dict, rows: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for the ``rows`` of a ``stack_bundles`` stack, in
    order: one ``forward_batch`` per ``PREDICT_CHUNK`` rows."""
    out = np.zeros((len(rows), model.spec.output_dim))
    for start in range(0, len(rows), PREDICT_CHUNK):
        out[start:start + PREDICT_CHUNK], _ = forward_batch(
            model, stack, rows[start:start + PREDICT_CHUNK])
    return out


def predict(model: Cb2cfModel, bundles: Sequence[FeatureBundle]) -> np.ndarray:
    """Eval-mode predictions, one row per bundle, order preserved; the
    bundles are stacked once."""
    stack = stack_bundles(model.spec, bundles) if len(bundles) else {}
    return _predict_rows(model, stack, np.arange(len(bundles)))


def _tag_reps(model: Cb2cfModel, field_name: str, tags: Sequence[str]):
    """(field, relu(W + b) with one row per tag of the field, the rows of
    ``tags``) for the tag component named by its field or component name."""
    for comp, fname in TAG_COMPONENT_FIELDS.items():
        if fname == field_name or comp == field_name:
            if comp not in model.spec.components:
                raise ValueError(f"component {comp} is not enabled in this model")
            index = model.features.tag_vocab.index[fname]
            for tag in tags:
                if tag not in index:
                    raise ValueError(f"unknown {fname} tag {tag!r}")
            layer = COMPONENTS[comp][1][0]
            weight, bias = model.params[f"{layer}.weight"], model.params[f"{layer}.bias"]
            return fname, np.maximum(weight + bias[:, None], 0.0).T, [index[t] for t in tags]
    raise ValueError(f"unknown tag field {field_name!r}")


def analogy(model: Cb2cfModel, field_name: str, a: str, b: str, c: str,
            topk: int = 1) -> list[tuple[str, float]]:
    """Rank tags by cosine to repr(c) + repr(a) - repr(b), excluding the
    three query tags. Ties break on ascending tag id."""
    fname, reps, (row_a, row_b, row_c) = _tag_reps(model, field_name, [a, b, c])
    table = EmbeddingTable(model.features.tag_vocab.tags[fname], reps)
    return similarity_search(reps[row_c] + reps[row_a] - reps[row_b], table, topk,
                             exclude={a, b, c})


def save_model(model: Cb2cfModel, path: str | Path,
               features_ref: str | None = None) -> None:
    """Checkpoint the parameters (embedding included) with the system spec
    and a reference to the persisted feature context file."""
    tensors = dict(model.params)
    if model.embedding is not None:
        tensors["embedding"] = model.embedding
    meta = {
        "kind": MODEL_KIND,
        "system": asdict(model.spec),
        "features_ref": features_ref,
    }
    net.save_checkpoint(path, tensors, meta)


def load_model(path: str | Path,
               features: FeatureContext | None = None) -> Cb2cfModel:
    """Restore a checkpoint, its dense tensors as ``PARAM_DTYPE``. The feature context
    comes from ``features`` or, failing that, from the checkpoint's stored reference
    resolved relative to the checkpoint file. The tensors must have the names and
    shapes that the stored system spec gives over that context."""
    def bad(reason: str) -> ValueError:
        return ValueError(f"checkpoint {path}: {reason}")

    tensors, meta = net.load_checkpoint(path)
    if meta.get("kind") != MODEL_KIND:
        raise bad("not a model checkpoint")
    system = meta.get("system")
    if not isinstance(system, dict):
        raise bad("meta has no 'system' object")
    try:
        spec = SystemSpec(**system)
    except (TypeError, ValueError) as exc:
        raise bad(f"bad system spec: {exc}") from None
    if features is None:
        ref = meta.get("features_ref")
        if not ref or not isinstance(ref, str):
            raise bad("no feature context reference; pass the context explicitly")
        ref_path = Path(ref)
        if not ref_path.is_absolute():
            ref_path = Path(path).parent / ref_path
        features = load_feature_context(ref_path)
    try:
        expected = parameter_shapes(spec, features)
    except ValueError as exc:
        raise bad(str(exc)) from None
    if "CNN" in spec.components:
        expected["embedding"] = features.word_table.vectors.shape
    wrong = sorted(n for n in expected.keys() | tensors.keys()
                   if n not in tensors or tensors[n].shape != expected.get(n))
    if wrong:
        raise bad(f"tensors missing, unexpected or misshapen for the system spec: {wrong}")
    params = {name: t.astype(PARAM_DTYPE) for name, t in tensors.items() if name != "embedding"}
    return Cb2cfModel(spec, params, features, tensors.get("embedding"))
