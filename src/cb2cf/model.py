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

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import net
from .features import (FeatureBundle, FeatureContext, TAG_FIELDS,
                       load_feature_context)
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
    if not expanded:
        raise ValueError("empty system name")
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
    text_length: int = 500
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
            if value < 1:
                raise ValueError(f"{label} must be >= 1")
        for comp in TAG_COMPONENT_FIELDS:
            if self.tag_hidden.get(comp, 0) < 1:
                raise ValueError(f"tag_hidden[{comp!r}] must be >= 1")
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


class Cb2cfModel:
    """Parameters plus the feature context they were built against.

    ``embedding`` is the model's private copy of the word table, present only
    when the CNN component is enabled; it is trainable unless the variant is
    'static'.
    """

    def __init__(self, spec: SystemSpec, params: dict[str, np.ndarray],
                 features: FeatureContext, embedding: np.ndarray | None,
                 embedding_trainable: bool) -> None:
        self.spec = spec
        self.params = params
        self.features = features
        self.embedding = embedding
        self.embedding_trainable = embedding_trainable

    def l2_weight_names(self) -> list[str]:
        comps = self.spec.components
        names = ["cnn.filters"] if "CNN" in comps else []
        names += [f"{COMPONENTS[c][1][0]}.weight" for c in comps if c in TAG_COMPONENT_FIELDS]
        return names + ["combiner.weight"]

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))


def _init_dense(params: dict, rng, name: str, fan_in: int, fan_out: int) -> None:
    params[f"{name}.weight"] = net.glorot_uniform(rng, fan_in, fan_out, (fan_out, fan_in))
    params[f"{name}.bias"] = np.zeros(fan_out)


def build_model(spec: SystemSpec, features: FeatureContext, seed: int = 0) -> Cb2cfModel:
    """Allocate parameters for the enabled components, in table order.
    Weights are uniform in +-sqrt(6/(fan_in+fan_out)), biases zero.
    Component input sizes come from the fitted feature context."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    embedding = None
    dims = component_output_dims(spec)

    for comp in spec.components:
        part, layers = COMPONENTS[comp]
        if part == "text":
            table = features.word_table
            if table is None:
                raise ValueError("CNN component needs a word table in the feature context")
            embedding = (rng.uniform(-0.5 / table.dim, 0.5 / table.dim, size=table.vectors.shape)
                         if spec.cnn_variant == "random-init" else table.vectors.copy())
            params["cnn.filters"] = net.glorot_uniform(
                rng, spec.cnn_width * table.dim, spec.cnn_filters,
                (spec.cnn_filters, spec.cnn_width, table.dim))
            params["cnn.conv_bias"] = np.zeros(spec.cnn_filters)
            width = spec.cnn_filters
        elif part == "bow":
            if features.centroids is None:
                raise ValueError("BOW component needs centroids in the feature context")
            width = len(features.centroids)
        else:
            width = 1 if part == "year" else features.tag_vocab.size(part)
        for name in layers:
            _init_dense(params, rng, name, width, dims[comp])
            width = dims[comp]

    _init_dense(params, rng, "combiner", sum(dims.values()), spec.combiner_hidden)
    _init_dense(params, rng, "output", spec.combiner_hidden, spec.output_dim)
    return Cb2cfModel(spec, params, features, embedding,
                      embedding is not None and spec.cnn_variant != "static")


def _batch_input(bundles: Sequence[FeatureBundle], comp: str):
    """Each bundle's input to the component, which must be present: the
    word-index arrays for the CNN, else one row per bundle."""
    part = COMPONENTS[comp][0]
    values = [b.text_indices if part == "text" else
              b.tags.get(part) if part in TAG_FIELDS else getattr(b, part)
              for b in bundles]
    if any(v is None for v in values):
        raise ValueError(f"bundle has no {part} input for the enabled {comp} component")
    return values if part == "text" else np.vstack(values)


def _text_forward(model: Cb2cfModel, texts: list, word_masks: list) -> tuple:
    """Convolution and max-pool over each text's word rows. The rows stop
    one padding window past the words: every later window is all padding
    and scores exactly the conv bias, so keeping one of them leaves the
    first-occurrence max where the full-length matrix has it."""
    spec = model.spec
    pooled = np.empty((len(texts), spec.cnn_filters))
    conv_caches = []
    for i, indices in enumerate(texts):
        k = len(indices)
        matrix = np.zeros((min(spec.text_length, k + spec.cnn_width),
                           model.embedding.shape[1]))
        if k:
            matrix[:k] = model.embedding[indices]
        if word_masks:
            matrix[:k] *= word_masks[i][:, None]
        pooled[i], conv_cache = net.conv1d_maxpool_forward(
            matrix, model.params["cnn.filters"], model.params["cnn.conv_bias"])
        conv_caches.append((k, conv_cache))
    indices = np.concatenate([np.asarray(t, dtype=np.int64) for t in texts])
    mask = np.concatenate(word_masks) if word_masks else None
    return indices, mask, conv_caches, pooled


def _text_backward(model: Cb2cfModel, text_cache: tuple, grad_act: np.ndarray,
                   grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``_text_forward`` given the gradient of relu(pooled);
    returns the touched word-table rows and their summed gradients, built
    only for a trainable embedding."""
    indices, mask, conv_caches, pooled = text_cache
    grad_pooled = net.relu_backward(pooled, grad_act)
    trainable = model.embedding_trainable and len(indices) > 0
    grad_filters = np.zeros_like(model.params["cnn.filters"])
    text_grads = []
    for (k, conv_cache), grad_row in zip(conv_caches, grad_pooled):
        grad_matrix, grad_f, _ = net.conv1d_maxpool_backward(conv_cache, grad_row, trainable)
        grad_filters += grad_f
        if trainable:
            text_grads.append(grad_matrix[:k])
    grads["cnn.filters"] = grad_filters
    grads["cnn.conv_bias"] = grad_pooled.sum(axis=0)
    if not trainable:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    text_rows = np.concatenate(text_grads)
    if mask is not None:
        text_rows = text_rows * mask[:, None]
    rows, inverse = np.unique(indices, return_inverse=True)
    return rows, net.scatter_rows(inverse, text_rows, len(rows))


def forward_batch(model: Cb2cfModel, bundles: Sequence[FeatureBundle], *,
                  train: bool = False, rng=None, word_dropout: float = 0.0,
                  unit_dropout: float = 0.0):
    """Forward pass over a minibatch. Returns (predictions, cache) with one
    prediction row per bundle. Every dense layer is one GEMM over the batch;
    the text convolution runs per example. Dropout draws happen only in
    train mode; evaluation is deterministic and rng-free."""
    spec = model.spec
    params = model.params
    if train and (word_dropout > 0 or unit_dropout > 0) and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    inputs = {comp: _batch_input(bundles, comp) for comp in spec.components}
    texts = inputs.get("CNN", [])
    if any(len(indices) > spec.text_length for indices in texts):
        raise ValueError("bundle text exceeds the model's text length")
    # For each example in batch order: its word mask, then its BOW unit mask.
    # Kept units scale by 1/(1-p), so evaluation needs no compensation.
    word_masks, unit_masks = [], []
    for i in range(len(bundles) if train else 0):
        if texts and word_dropout > 0:
            word_masks.append(net.dropout_mask(rng, len(texts[i]), word_dropout))
        if "BOW" in inputs and unit_dropout > 0:
            unit_masks.append(net.dropout_mask(rng, spec.bow_hidden, unit_dropout))
    unit_mask = np.stack(unit_masks) if unit_masks else None
    cache: dict = {"components": {}, "unit_mask": unit_mask}
    outputs: list[np.ndarray] = []

    for comp in spec.components:
        x = inputs[comp]
        if comp == "CNN":
            cache["text"] = _text_forward(model, x, word_masks)
            x, _ = net.relu_forward(cache["text"][3])
        layer_caches = []
        for j, name in enumerate(COMPONENTS[comp][1]):
            if j and unit_mask is not None:
                x = x * unit_mask
            pre, dense_cache = net.dense_forward(x, params[f"{name}.weight"],
                                                 params[f"{name}.bias"])
            x, _ = net.relu_forward(pre)
            layer_caches.append((dense_cache, pre))
        cache["components"][comp] = layer_caches
        outputs.append(x)

    concat = np.concatenate(outputs, axis=1)
    cache["pre_comb"], cache["comb_cache"] = net.dense_forward(
        concat, params["combiner.weight"], params["combiner.bias"])
    combined, _ = net.relu_forward(cache["pre_comb"])
    predictions, cache["out_cache"] = net.dense_forward(
        combined, params["output.weight"], params["output.bias"])
    return predictions, cache


def backward_batch(model: Cb2cfModel, cache: dict, grad_predictions: np.ndarray):
    """Gradients of a cached ``forward_batch``, summed over the batch.
    Returns (grads, (rows, row_grads)): the distinct touched word-table rows
    in ascending order with their summed gradients (both empty unless the
    embedding is trainable); repeated words accumulate."""
    grads: dict[str, np.ndarray] = {}
    grad_combined, grads["output.weight"], grads["output.bias"] = \
        net.dense_backward(cache["out_cache"], grad_predictions)
    grad_pre_comb = net.relu_backward(cache["pre_comb"], grad_combined)
    grad_concat, grads["combiner.weight"], grads["combiner.bias"] = \
        net.dense_backward(cache["comb_cache"], grad_pre_comb)

    rows, row_grads = np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    offset = 0
    for comp, width in component_output_dims(model.spec).items():
        grad = grad_concat[:, offset:offset + width]
        offset += width
        layers = COMPONENTS[comp][1]
        for j in reversed(range(len(layers))):
            dense_cache, pre = cache["components"][comp][j]
            grad, grads[f"{layers[j]}.weight"], grads[f"{layers[j]}.bias"] = \
                net.dense_backward(dense_cache, net.relu_backward(pre, grad))
            if j:
                grad = net.dropout_backward(cache["unit_mask"], grad)
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
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")


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


def _all_finite(model: Cb2cfModel) -> bool:
    tensors = [*model.params.values(), model.embedding]
    return all(np.isfinite(t).all() for t in tensors if t is not None)


# Overflow and NaN show up as divergence below instead of as warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(model: Cb2cfModel, bundles: Sequence[FeatureBundle], targets,
          config: TrainConfig) -> TrainReport:
    """Minibatch Adam with early stopping on a held-out validation split.

    Each minibatch is one ``forward_batch``/``backward_batch`` pass over the
    batch-mean loss. The split, batch order, and dropout draws all come from
    one generator seeded by the config, so a fixed seed reproduces training
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

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(bundles))
    n_val = 0
    if config.val_fraction > 0 and len(bundles) >= 2:
        n_val = min(len(bundles) - 1, max(1, int(round(config.val_fraction * len(bundles)))))
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    val_bundles = [bundles[i] for i in val_idx]

    adam = net.Adam(lr=config.learning_rate)
    best = np.inf
    best_epoch: int | None = None
    snapshot = ({k: v.copy() for k, v in model.params.items()},
                None if model.embedding is None else model.embedding.copy())
    bad_epochs = 0
    stop_reason = "max_epochs"
    train_losses: list[float] = []
    val_losses: list[float] = []

    for epoch in range(config.max_epochs):
        perm = rng.permutation(train_idx)
        epoch_loss = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start:start + config.batch_size]
            preds, cache = forward_batch(model, [bundles[int(i)] for i in batch],
                                         train=True, rng=rng,
                                         word_dropout=config.word_dropout,
                                         unit_dropout=config.dropout)
            losses, grad_preds = net.mse_loss(preds, target_rows[batch])
            epoch_loss = sum(losses.tolist(), epoch_loss)
            if not np.isfinite(epoch_loss):
                break  # diverged; no update from a non-finite loss
            grads, (rows, row_grads) = backward_batch(model, cache, grad_preds / len(batch))
            if config.l2 > 0:
                for name in model.l2_weight_names():
                    grads[name] += 2.0 * config.l2 * model.params[name]
            adam.step(model.params, grads)
            if model.embedding_trainable and len(rows):
                adam.step_rows("embedding", model.embedding, rows, row_grads)
        train_losses.append(epoch_loss / len(train_idx))
        if n_val:
            losses, _ = net.mse_loss(predict(model, val_bundles), target_rows[val_idx])
            val_losses.append(sum(losses.tolist()) / n_val)
        if not (np.isfinite(epoch_loss) and _all_finite(model)
                and (not n_val or np.isfinite(val_losses[-1]))):
            stop_reason = "diverged"
            break

        if n_val:
            if val_losses[-1] < best:
                best = val_losses[-1]
                best_epoch = epoch
                snapshot = ({k: v.copy() for k, v in model.params.items()},
                            None if model.embedding is None else model.embedding.copy())
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    stop_reason = "early_stop"
                    break

    if best_epoch is not None or stop_reason == "diverged":
        model.params = snapshot[0]
        if snapshot[1] is not None:
            model.embedding = snapshot[1]
    return TrainReport(train_losses, val_losses, best_epoch, stop_reason,
                       [bundles[int(i)].item_id for i in val_idx])


def predict(model: Cb2cfModel, bundles: Sequence[FeatureBundle]) -> np.ndarray:
    """Eval-mode predictions, one row per bundle, order preserved; one
    ``forward_batch`` per ``PREDICT_CHUNK`` bundles."""
    out = np.zeros((len(bundles), model.spec.output_dim))
    for start in range(0, len(bundles), PREDICT_CHUNK):
        out[start:start + PREDICT_CHUNK], _ = forward_batch(
            model, bundles[start:start + PREDICT_CHUNK])
    return out


def _tag_layer(model: Cb2cfModel, field_name: str):
    """(field, weight, bias) of the tag component named by its field or
    component name."""
    for comp, fname in TAG_COMPONENT_FIELDS.items():
        if fname == field_name or comp == field_name:
            if comp not in model.spec.components:
                raise ValueError(f"component {comp} is not enabled in this model")
            layer = COMPONENTS[comp][1][0]
            return fname, model.params[f"{layer}.weight"], model.params[f"{layer}.bias"]
    raise ValueError(f"unknown tag field {field_name!r}")


def tag_representation(model: Cb2cfModel, field_name: str, tag: str) -> np.ndarray:
    """Hidden activation of the field's component for the tag's one-hot
    input: relu(W[:, tag] + b)."""
    fname, weight, bias = _tag_layer(model, field_name)
    index = model.features.tag_vocab.index[fname]
    if tag not in index:
        raise ValueError(f"unknown {fname} tag {tag!r}")
    return np.maximum(weight[:, index[tag]] + bias, 0.0)


def analogy(model: Cb2cfModel, field_name: str, a: str, b: str, c: str,
            topk: int = 1) -> list[tuple[str, float]]:
    """Rank tags by cosine to repr(c) + repr(a) - repr(b), excluding the
    three query tags. Ties break on ascending tag id."""
    fname, weight, bias = _tag_layer(model, field_name)
    tags = model.features.tag_vocab.tags[fname]
    reps = np.maximum(weight + bias[:, None], 0.0).T  # (tags, hidden)
    rep = {}
    for name in (a, b, c):
        if name not in model.features.tag_vocab.index[fname]:
            raise ValueError(f"unknown {fname} tag {name!r}")
        rep[name] = reps[model.features.tag_vocab.index[fname][name]]
    query = rep[c] + rep[a] - rep[b]
    table = EmbeddingTable(tags, reps)
    return similarity_search(query, table, topk, exclude={a, b, c})


def _spec_from_meta(meta: dict) -> SystemSpec:
    meta = dict(meta)
    meta["components"] = tuple(meta["components"])
    return SystemSpec(**meta)


def save_model(model: Cb2cfModel, path: str | Path,
               features_ref: str | None = None) -> None:
    """Checkpoint the parameters (embedding included) with the system spec
    and a reference to the persisted feature context directory."""
    tensors = dict(model.params)
    if model.embedding is not None:
        tensors["embedding"] = model.embedding
    meta = {
        "kind": MODEL_KIND,
        "system": asdict(model.spec),
        "features_ref": features_ref,
        "embedding_trainable": model.embedding_trainable,
    }
    net.save_checkpoint(path, tensors, meta)


def load_model(path: str | Path,
               features: FeatureContext | None = None) -> Cb2cfModel:
    """Restore a checkpoint. The feature context comes from ``features`` or,
    failing that, from the checkpoint's stored reference resolved relative
    to the checkpoint file."""
    tensors, meta = net.load_checkpoint(path)
    if meta.get("kind") != MODEL_KIND:
        raise ValueError("not a model checkpoint")
    if features is None:
        ref = meta.get("features_ref")
        if not ref:
            raise ValueError("checkpoint stores no feature context reference; "
                             "pass the context explicitly")
        ref_path = Path(ref)
        if not ref_path.is_absolute():
            ref_path = Path(path).parent / ref_path
        features = load_feature_context(ref_path)
    spec = _spec_from_meta(meta["system"])
    embedding = tensors.pop("embedding", None)
    return Cb2cfModel(spec, tensors, features, embedding,
                      bool(meta.get("embedding_trainable", False)))
