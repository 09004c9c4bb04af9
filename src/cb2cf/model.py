"""Multiple-input regression network that maps content features onto
collaborative-filtering item vectors.

Each enabled component (text CNN, clustered bag-of-words, one binary input
per tag field, release year) produces a hidden activation; the combiner
concatenates them, applies one more hidden layer, and a linear output layer
emits the predicted CF vector. All hidden activations are ReLU; the loss is
mean squared error with L2 on the conv filters, the tag hidden weights, and
the combiner hidden weights.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import net
from .features import (FeatureBundle, FeatureContext, TAG_FIELDS,
                       load_feature_context)
from .sgns import EmbeddingTable, similarity_search

COMPONENT_ORDER = ("CNN", "BOW", "Genres", "Actors", "Director", "Language", "Year")
TAG_COMPONENT_FIELDS = {"Genres": "genres", "Actors": "actors",
                        "Director": "directors", "Language": "languages"}
CNN_VARIANTS = ("non-static", "static", "random-init")
_GROUPS = {"Tags": ("Genres", "Actors", "Director", "Language")}
# The feature-bundle part each component reads.
_COMPONENT_PARTS = {"CNN": "text", "BOW": "bow", "Year": "year", **TAG_COMPONENT_FIELDS}
MODEL_KIND = "cb2cf-model"


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
    return {_COMPONENT_PARTS[comp] for comp in spec.components}


def component_output_dims(spec: SystemSpec) -> dict[str, int]:
    widths = {"CNN": spec.cnn_hidden, "BOW": spec.bow_hidden,
              "Year": spec.year_hidden, **spec.tag_hidden}
    return {comp: widths[comp] for comp in spec.components}


def _key(component: str) -> str:
    return component.lower()


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
        names = []
        if "CNN" in self.spec.components:
            names.append("cnn.filters")
        for comp in self.spec.components:
            if comp in TAG_COMPONENT_FIELDS:
                names.append(f"{_key(comp)}.weight")
        names.append("combiner.weight")
        return names

    def parameter_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))


def build_model(spec: SystemSpec, features: FeatureContext, seed: int = 0) -> Cb2cfModel:
    """Allocate parameters for the enabled components. Weights are uniform
    in +-sqrt(6/(fan_in+fan_out)), biases zero. Component input sizes come
    from the fitted feature context."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    embedding = None
    embedding_trainable = False

    for comp in spec.components:
        if comp == "CNN":
            if features.word_table is None:
                raise ValueError("CNN component needs a word table in the feature context")
            table = features.word_table
            word_dim = table.dim
            if spec.cnn_variant == "random-init":
                embedding = rng.uniform(-0.5 / word_dim, 0.5 / word_dim,
                                        size=table.vectors.shape)
            else:
                embedding = table.vectors.copy()
            embedding_trainable = spec.cnn_variant != "static"
            fan_in = spec.cnn_width * word_dim
            params["cnn.filters"] = net.glorot_uniform(
                rng, fan_in, spec.cnn_filters, (spec.cnn_filters, spec.cnn_width, word_dim))
            params["cnn.conv_bias"] = np.zeros(spec.cnn_filters)
            params["cnn.fc.weight"] = net.glorot_uniform(
                rng, spec.cnn_filters, spec.cnn_hidden, (spec.cnn_hidden, spec.cnn_filters))
            params["cnn.fc.bias"] = np.zeros(spec.cnn_hidden)
        elif comp == "BOW":
            if features.centroids is None:
                raise ValueError("BOW component needs centroids in the feature context")
            bins = len(features.centroids)
            params["bow.fc1.weight"] = net.glorot_uniform(
                rng, bins, spec.bow_hidden, (spec.bow_hidden, bins))
            params["bow.fc1.bias"] = np.zeros(spec.bow_hidden)
            params["bow.fc2.weight"] = net.glorot_uniform(
                rng, spec.bow_hidden, spec.bow_hidden, (spec.bow_hidden, spec.bow_hidden))
            params["bow.fc2.bias"] = np.zeros(spec.bow_hidden)
        elif comp == "Year":
            params["year.weight"] = net.glorot_uniform(rng, 1, spec.year_hidden,
                                                       (spec.year_hidden, 1))
            params["year.bias"] = np.zeros(spec.year_hidden)
        else:
            field_name = TAG_COMPONENT_FIELDS[comp]
            size = spec.tag_hidden[comp]
            width = features.tag_vocab.size(field_name)
            params[f"{_key(comp)}.weight"] = net.glorot_uniform(rng, width, size, (size, width))
            params[f"{_key(comp)}.bias"] = np.zeros(size)

    dims = component_output_dims(spec)
    concat_dim = sum(dims[c] for c in spec.components)
    params["combiner.weight"] = net.glorot_uniform(
        rng, concat_dim, spec.combiner_hidden, (spec.combiner_hidden, concat_dim))
    params["combiner.bias"] = np.zeros(spec.combiner_hidden)
    params["output.weight"] = net.glorot_uniform(
        rng, spec.combiner_hidden, spec.output_dim, (spec.output_dim, spec.combiner_hidden))
    params["output.bias"] = np.zeros(spec.output_dim)
    return Cb2cfModel(spec, params, features, embedding, embedding_trainable)


def _batch_input(bundles: Sequence[FeatureBundle], comp: str) -> list:
    """Each bundle's input to the component, which must be present."""
    part = _COMPONENT_PARTS[comp]
    if part == "text":
        values = [b.text_indices for b in bundles]
    elif part == "bow":
        values = [b.bow for b in bundles]
    elif part == "year":
        values = [None if b.year is None else [b.year] for b in bundles]
    else:
        values = [b.tags.get(part) for b in bundles]
    if any(v is None for v in values):
        raise ValueError(f"bundle has no {part} input for the enabled {comp} component")
    return values


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
    caches: dict[str, tuple] = {}
    outputs: list[np.ndarray] = []

    for comp in spec.components:
        if comp == "CNN":
            pooled = np.empty((len(bundles), spec.cnn_filters))
            conv_caches = []
            for i, indices in enumerate(texts):
                # Every window from row k on is all padding and scores
                # exactly the conv bias; keeping one of them leaves the
                # first-occurrence max where the full-length matrix has it.
                k = len(indices)
                matrix = np.zeros((min(spec.text_length, k + spec.cnn_width),
                                   model.embedding.shape[1]))
                if k:
                    matrix[:k] = model.embedding[indices]
                if word_masks:
                    matrix[:k] *= word_masks[i][:, None]
                pooled[i], conv_cache = net.conv1d_maxpool_forward(
                    matrix, params["cnn.filters"], params["cnn.conv_bias"])
                conv_caches.append((k, conv_cache))
            act, _ = net.relu_forward(pooled)
            pre, fc_cache = net.dense_forward(act, params["cnn.fc.weight"],
                                              params["cnn.fc.bias"])
            hidden, _ = net.relu_forward(pre)
            indices = np.concatenate([np.asarray(t, dtype=np.int64) for t in texts])
            mask = np.concatenate(word_masks) if word_masks else None
            caches[comp] = (indices, mask, conv_caches, pooled, fc_cache, pre)
        elif comp == "BOW":
            pre1, c1 = net.dense_forward(np.array(inputs[comp], dtype=np.float64),
                                         params["bow.fc1.weight"], params["bow.fc1.bias"])
            act1, _ = net.relu_forward(pre1)
            mask = np.stack(unit_masks) if unit_masks else None
            pre2, c2 = net.dense_forward(act1 if mask is None else act1 * mask,
                                         params["bow.fc2.weight"], params["bow.fc2.bias"])
            hidden, _ = net.relu_forward(pre2)
            caches[comp] = (c1, pre1, mask, c2, pre2)
        else:
            pre, c = net.dense_forward(np.array(inputs[comp], dtype=np.float64),
                                       params[f"{_key(comp)}.weight"],
                                       params[f"{_key(comp)}.bias"])
            hidden, _ = net.relu_forward(pre)
            caches[comp] = (c, pre)
        outputs.append(hidden)

    concat = np.concatenate(outputs, axis=1)
    pre_comb, comb_cache = net.dense_forward(concat, params["combiner.weight"],
                                             params["combiner.bias"])
    combined, _ = net.relu_forward(pre_comb)
    predictions, out_cache = net.dense_forward(combined, params["output.weight"],
                                               params["output.bias"])
    cache = {"components": caches, "pre_comb": pre_comb, "comb_cache": comb_cache,
             "out_cache": out_cache}
    return predictions, cache


def backward_batch(model: Cb2cfModel, cache: dict, grad_predictions: np.ndarray):
    """Gradients of a cached ``forward_batch``, summed over the batch.
    Returns (grads, (rows, row_grads)): the distinct touched word-table rows
    in ascending order with their summed gradients (both empty unless the
    embedding is trainable); repeated words accumulate."""
    spec = model.spec
    grads: dict[str, np.ndarray] = {}
    grad_combined, grads["output.weight"], grads["output.bias"] = \
        net.dense_backward(cache["out_cache"], grad_predictions)
    grad_pre_comb = net.relu_backward(cache["pre_comb"], grad_combined)
    grad_concat, grads["combiner.weight"], grads["combiner.bias"] = \
        net.dense_backward(cache["comb_cache"], grad_pre_comb)

    dims = component_output_dims(spec)
    rows, row_grads = np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    offset = 0
    for comp in spec.components:
        width = dims[comp]
        grad_hidden = grad_concat[:, offset:offset + width]
        offset += width
        comp_cache = cache["components"][comp]
        if comp == "CNN":
            indices, mask, conv_caches, pooled, fc_cache, pre = comp_cache
            grad_pre = net.relu_backward(pre, grad_hidden)
            grad_act, grads["cnn.fc.weight"], grads["cnn.fc.bias"] = \
                net.dense_backward(fc_cache, grad_pre)
            grad_pooled = net.relu_backward(pooled, grad_act)
            grad_filters = np.zeros_like(model.params["cnn.filters"])
            text_grads = []
            for (k, conv_cache), grad_row in zip(conv_caches, grad_pooled):
                grad_matrix, grad_f, _ = net.conv1d_maxpool_backward(conv_cache, grad_row)
                grad_filters += grad_f
                text_grads.append(grad_matrix[:k])
            grads["cnn.filters"] = grad_filters
            grads["cnn.conv_bias"] = grad_pooled.sum(axis=0)
            if model.embedding_trainable and len(indices):
                text_rows = np.concatenate(text_grads)
                if mask is not None:
                    text_rows = text_rows * mask[:, None]
                rows, inverse = np.unique(indices, return_inverse=True)
                row_grads = np.zeros((len(rows), text_rows.shape[1]))
                np.add.at(row_grads, inverse, text_rows)
        elif comp == "BOW":
            c1, pre1, mask, c2, pre2 = comp_cache
            grad_pre2 = net.relu_backward(pre2, grad_hidden)
            grad_dropped, grads["bow.fc2.weight"], grads["bow.fc2.bias"] = \
                net.dense_backward(c2, grad_pre2)
            grad_act1 = net.dropout_backward(mask, grad_dropped)
            grad_pre1 = net.relu_backward(pre1, grad_act1)
            _, grads["bow.fc1.weight"], grads["bow.fc1.bias"] = \
                net.dense_backward(c1, grad_pre1)
        else:
            c, pre = comp_cache
            grad_pre = net.relu_backward(pre, grad_hidden)
            _, grads[f"{_key(comp)}.weight"], grads[f"{_key(comp)}.bias"] = \
                net.dense_backward(c, grad_pre)
    return grads, (rows, row_grads)


def forward(model: Cb2cfModel, bundle: FeatureBundle, *, train: bool = False,
            rng=None, word_dropout: float = 0.0, unit_dropout: float = 0.0):
    """One example forward pass, a batch of one through ``forward_batch``.
    Returns (prediction, cache)."""
    predictions, cache = forward_batch(model, [bundle], train=train, rng=rng,
                                       word_dropout=word_dropout,
                                       unit_dropout=unit_dropout)
    return predictions[0], cache


def backward(model: Cb2cfModel, cache: dict, grad_prediction: np.ndarray):
    """Gradients of the cached one-example forward pass. Returns (grads,
    embedding_rows) where embedding_rows maps touched word-table rows to
    their gradients; duplicate words in the text accumulate."""
    grads, (rows, row_grads) = backward_batch(model, cache, grad_prediction[None, :])
    return grads, dict(zip(rows.tolist(), row_grads))


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


def _target_vector(targets, item_id: str, dim: int) -> np.ndarray:
    """The item's vector from a table or mapping, checked to have ``dim``
    coordinates."""
    if item_id not in targets:
        raise ValueError(f"no target vector for item {item_id!r}")
    vec = (targets.get(item_id) if isinstance(targets, EmbeddingTable)
           else np.asarray(targets[item_id], dtype=np.float64))
    if vec.shape != (dim,):
        raise ValueError(f"target for {item_id!r} has shape {vec.shape}, expected ({dim},)")
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
    dim = model.spec.output_dim
    target_rows = np.stack([_target_vector(targets, b.item_id, dim) for b in bundles])

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
    """Eval-mode predictions, one row per bundle, order preserved."""
    out = np.zeros((len(bundles), model.spec.output_dim))
    for i, bundle in enumerate(bundles):
        out[i], _ = forward(model, bundle)
    return out


def _tag_component(model: Cb2cfModel, field_name: str) -> str:
    for comp, fname in TAG_COMPONENT_FIELDS.items():
        if fname == field_name or comp == field_name:
            if comp not in model.spec.components:
                raise ValueError(f"component {comp} is not enabled in this model")
            return comp
    raise ValueError(f"unknown tag field {field_name!r}")


def tag_representation(model: Cb2cfModel, field_name: str, tag: str) -> np.ndarray:
    """Hidden activation of the field's component for the tag's one-hot
    input: relu(W[:, tag] + b)."""
    comp = _tag_component(model, field_name)
    fname = TAG_COMPONENT_FIELDS[comp]
    index = model.features.tag_vocab.index[fname]
    if tag not in index:
        raise ValueError(f"unknown {fname} tag {tag!r}")
    weight = model.params[f"{_key(comp)}.weight"]
    bias = model.params[f"{_key(comp)}.bias"]
    return np.maximum(weight[:, index[tag]] + bias, 0.0)


def analogy(model: Cb2cfModel, field_name: str, a: str, b: str, c: str,
            topk: int = 1) -> list[tuple[str, float]]:
    """Rank tags by cosine to repr(c) + repr(a) - repr(b), excluding the
    three query tags. Ties break on ascending tag id."""
    comp = _tag_component(model, field_name)
    fname = TAG_COMPONENT_FIELDS[comp]
    tags = model.features.tag_vocab.tags[fname]
    weight = model.params[f"{_key(comp)}.weight"]
    bias = model.params[f"{_key(comp)}.bias"]
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
