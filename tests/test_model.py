import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cb2cf import model as model_module
from cb2cf import net
from cb2cf.data import ContentProfile
from cb2cf.features import (Centroids, fit_feature_context, featurize_item,
                            save_feature_context, tag_vector)
from cb2cf.model import (COMPONENT_ORDER, Cb2cfModel, SystemSpec, TrainConfig,
                         analogy, backward_batch, build_model,
                         bundle_parts, component_output_dims,
                         forward_batch, load_model,
                         parse_system, predict, save_model, stack_bundles, train)
from cb2cf.sgns import EmbeddingTable
from gradcheck import grad_check, l2_penalty
from model_helpers import backward, float64_model, forward, tag_representation


class TestParseSystem:
    def test_singles(self):
        for name in COMPONENT_ORDER:
            assert parse_system(name) == (name,)

    def test_tags_group_expands(self):
        assert parse_system("Tags") == ("Genres", "Actors", "Director",
                                        "Language")

    def test_combinations_come_out_in_canonical_order(self):
        assert parse_system("Year+CNN") == ("CNN", "Year")
        assert parse_system("CNN+Tags+Year") == \
            ("CNN", "Genres", "Actors", "Director", "Language", "Year")
        assert parse_system("CNN+BOW+Tags+Year") == COMPONENT_ORDER

    def test_duplicates_collapse(self):
        assert parse_system("CNN+CNN") == ("CNN",)
        assert parse_system("Tags+Genres") == parse_system("Tags")

    def test_rejects_unknown_and_empty(self):
        with pytest.raises(ValueError):
            parse_system("CNN+Plot")
        with pytest.raises(ValueError):
            parse_system("")


class TestSystemSpec:
    def test_defaults(self):
        spec = SystemSpec.named("CNN+BOW+Tags+Year")
        assert spec.output_dim == 40
        assert spec.tag_hidden == {"Genres": 100, "Actors": 100,
                                   "Director": 40, "Language": 20}
        assert spec.bow_hidden == 256
        assert spec.cnn_hidden == 256
        assert spec.year_hidden == 8
        assert spec.combiner_hidden == 256
        assert spec.cnn_filters == 300
        assert spec.cnn_width == 3
        assert spec.cnn_variant == "non-static"
        assert spec.text_length == 500
        assert spec.name == "CNN+BOW+Tags+Year"

    def test_component_order_is_normalized(self):
        spec = SystemSpec(components=("Year", "CNN"))
        assert spec.components == ("CNN", "Year")
        assert spec.name == "CNN+Year"

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemSpec(components=())
        with pytest.raises(ValueError):
            SystemSpec(components=("CNN", "CNN"))
        with pytest.raises(ValueError):
            SystemSpec(components=("Plot",))
        with pytest.raises(ValueError):
            SystemSpec(components=("CNN",), cnn_variant="frozen")
        with pytest.raises(ValueError):
            SystemSpec(components=("CNN",), cnn_width=9, text_length=8)
        with pytest.raises(ValueError, match="text_length must be an integer >= 1"):
            SystemSpec(components=("CNN",), text_length=0)
        with pytest.raises(ValueError):
            SystemSpec(components=("Genres",), tag_hidden={"Genres": 0})
        with pytest.raises(ValueError, match="tag_hidden must map tag components"):
            SystemSpec.named("CNN+Genres", tag_hidden={"Genres": 4, "Actors": 4, "Director": 3,
                                                       "Language": 3, "CNN": 7})

    def test_bundle_parts(self):
        spec = SystemSpec.named("CNN+BOW+Genres+Year")
        assert bundle_parts(spec) == {"text", "bow", "genres", "year"}


def _tag_year_profiles(n=12):
    genres = ["action", "drama", "horror"]
    return [ContentProfile(id=f"m{i:03d}", genres=[genres[i % 3]],
                           actors=["a1" if i % 2 else "a2"],
                           directors=["d1"], languages=["en"],
                           year=1980 + i)
            for i in range(n)]


def _context(profiles, **kwargs):
    kwargs.setdefault("min_tag_count", 1)
    return fit_feature_context(profiles, **kwargs)


def test_year_only_parameter_count():
    context = _context(_tag_year_profiles())
    model = build_model(SystemSpec(components=("Year",)), context)
    # 1*8+8 year, 256*8+256 combiner, 40*256+40 output.
    assert sum(p.size for p in model.params.values()) == 16 + 2304 + 10280 == 12600


def test_build_model_is_deterministic_per_seed():
    context = _context(_tag_year_profiles())
    spec = SystemSpec.named("Tags+Year", output_dim=6)
    a = build_model(spec, context, seed=4)
    b = build_model(spec, context, seed=4)
    assert set(a.params) == set(b.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    c = build_model(spec, context, seed=5)
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_build_model_stores_its_float64_draws_rounded_to_float32(word_table):
    model, _ = _full_system(word_table)
    rng = np.random.default_rng(5)  # _full_system builds with seed 5
    for name, shape in model_module.parameter_shapes(model.spec, model.features).items():
        limit = np.sqrt(6.0 / (shape[0] + np.prod(shape[1:])))
        drawn = np.zeros(shape) if len(shape) == 1 else rng.uniform(-limit, limit, size=shape)
        assert model.params[name].tobytes() == drawn.astype(np.float32).tobytes(), name
    assert model.flat.dtype == np.float32
    assert model.embedding.dtype == np.float64
    assert model.embedding.tobytes() == word_table.vectors.tobytes()


def test_build_model_biases_start_at_zero():
    context = _context(_tag_year_profiles())
    model = build_model(SystemSpec.named("Tags+Year", output_dim=6), context)
    for name, value in model.params.items():
        if name.endswith(".bias") or name.endswith("_bias"):
            assert np.all(value == 0.0)


def test_cnn_component_requires_word_table():
    context = _context(_tag_year_profiles())
    with pytest.raises(ValueError):
        build_model(SystemSpec.named("CNN", text_length=4), context)


def test_bow_component_requires_centroids(word_table):
    context = _context(_tag_year_profiles(), word_table=word_table)
    with pytest.raises(ValueError):
        build_model(SystemSpec.named("BOW"), context)


class TestCnnVariants:
    def _setup(self, word_table, variant):
        profiles = [ContentProfile(id=f"m{i}", plot="alpha beta gamma delta",
                                   year=1990 + i) for i in range(6)]
        context = _context(profiles, word_table=word_table)
        spec = SystemSpec.named("CNN", output_dim=3, cnn_variant=variant,
                                cnn_filters=3, cnn_width=2, cnn_hidden=4,
                                combiner_hidden=5, text_length=6)
        model = build_model(spec, context, seed=0)
        bundles = [featurize_item(p, context, bundle_parts(spec))
                   for p in profiles]
        targets = {p.id: np.arange(3, dtype=np.float64) for p in profiles}
        return model, bundles, targets

    def test_static_keeps_word_vectors_bit_identical(self, word_table):
        model, bundles, targets = self._setup(word_table, "static")
        assert not model.embedding_trainable
        config = TrainConfig(batch_size=2, word_dropout=0.0, dropout=0.0,
                             l2=0.0, learning_rate=0.01, max_epochs=1,
                             patience=1, val_fraction=0.0, seed=1)
        train(model, bundles, targets, config)
        assert np.array_equal(model.embedding, word_table.vectors)

    def test_non_static_updates_at_least_one_row(self, word_table):
        model, bundles, targets = self._setup(word_table, "non-static")
        assert model.embedding_trainable
        before = model.embedding.copy()
        config = TrainConfig(batch_size=2, word_dropout=0.0, dropout=0.0,
                             l2=0.0, learning_rate=0.01, max_epochs=1,
                             patience=1, val_fraction=0.0, seed=1)
        train(model, bundles, targets, config)
        changed = np.any(model.embedding != before, axis=1)
        assert changed.any()

    def test_random_init_starts_away_from_the_table(self, word_table):
        model, _, _ = self._setup(word_table, "random-init")
        assert model.embedding_trainable
        assert not np.allclose(model.embedding, word_table.vectors)
        assert np.max(np.abs(model.embedding)) <= 0.5 / word_table.dim


def test_forward_tags_and_year_matches_hand_computation():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Year", output_dim=4)
    model = build_model(spec, context, seed=9)
    bundle = featurize_item(profiles[0], context, bundle_parts(spec))
    prediction, _ = forward(model, bundle)

    p = model.params
    g = np.maximum(p["genres.weight"] @ bundle.tags["genres"]
                   + p["genres.bias"], 0.0)
    y = np.maximum(p["year.weight"] @ np.array([bundle.year])
                   + p["year.bias"], 0.0)
    comb = np.maximum(p["combiner.weight"] @ np.concatenate([g, y])
                      + p["combiner.bias"], 0.0)
    expected = p["output.weight"] @ comb + p["output.bias"]
    assert np.allclose(prediction, expected, atol=1e-12)


def test_forward_zero_parameters_emit_the_output_bias():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres", output_dim=4)
    model = build_model(spec, context, seed=0)
    for value in model.params.values():
        value[:] = 0.0
    model.params["output.bias"][:] = np.array([1.0, -2.0, 0.0, 4.0])
    bundle = featurize_item(profiles[0], context, bundle_parts(spec))
    prediction, _ = forward(model, bundle)
    assert np.array_equal(prediction, [1.0, -2.0, 0.0, 4.0])


def test_forward_eval_is_deterministic_and_ignores_dropout_probs():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Tags+Year", output_dim=5)
    model = build_model(spec, context, seed=2)
    bundle = featurize_item(profiles[3], context, bundle_parts(spec))
    first, _ = forward(model, bundle)
    second, _ = forward(model, bundle, word_dropout=0.5, unit_dropout=0.5)
    assert np.array_equal(first, second)


def test_forward_train_mode_dropout_requires_rng():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Year", output_dim=2)
    model = build_model(spec, context, seed=0)
    bundle = featurize_item(profiles[0], context, bundle_parts(spec))
    with pytest.raises(ValueError):
        forward(model, bundle, train=True, word_dropout=0.2)


def test_forward_rejects_incomplete_bundles():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Year", output_dim=3)
    model = build_model(spec, context, seed=0)
    bundle = featurize_item(profiles[0], context, parts={"genres"})
    with pytest.raises(ValueError, match="year"):
        forward(model, bundle)


def test_backward_gradients_match_finite_differences():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Language+Year", output_dim=3,
                            tag_hidden={"Genres": 5, "Actors": 4,
                                        "Director": 4, "Language": 3},
                            year_hidden=3, combiner_hidden=6)
    model = float64_model(build_model(spec, context, seed=7))
    bundle = featurize_item(profiles[1], context, bundle_parts(spec))
    target = np.random.default_rng(0).standard_normal(3)

    def loss_fn(tensors):
        model.params = tensors
        pred, cache = forward(model, bundle)
        loss, grad_pred = net.mse_loss(pred, target)
        grads, _ = backward(model, cache, grad_pred)
        return loss, grads

    assert grad_check(loss_fn, dict(model.params)) < 1e-5


def test_word_dropout_masks_have_unit_mean(word_table):
    profiles = [ContentProfile(id="m0", plot="alpha beta gamma delta epsilon")]
    context = _context(profiles, word_table=word_table)
    spec = SystemSpec.named("CNN", output_dim=2, cnn_filters=2, cnn_width=2,
                            cnn_hidden=3, combiner_hidden=3, text_length=5)
    model = build_model(spec, context, seed=0)
    bundle = featurize_item(profiles[0], context, bundle_parts(spec))
    k = len(bundle.text_indices)
    assert k == 5

    rng = np.random.default_rng(123)
    draws = 10_000
    mask_sum = np.zeros(k)
    for _ in range(draws):
        _, cache = forward(model, bundle, train=True, rng=rng,
                           word_dropout=0.2)
        mask = cache["text"][1]
        assert set(np.round(np.unique(mask), 12)) <= {0.0, round(1.25, 12)}
        mask_sum += mask
    mean_mask = mask_sum / draws
    # Inverted scaling: a linear readout of the masked rows matches the
    # unscaled eval-mode input in expectation.
    assert np.allclose(mean_mask, 1.0, atol=0.02)
    unscaled = model.embedding[bundle.text_indices]
    averaged = unscaled * mean_mask[:, None]
    assert np.allclose(averaged, unscaled, atol=0.02 * np.abs(unscaled).max())


def test_train_fits_a_linear_tag_task():
    profiles = [ContentProfile(id=f"i{j:02d}", genres=[f"g{j % 6}"])
                for j in range(48)]
    context = fit_feature_context(profiles, min_tag_count=5)
    assert context.tag_vocab.size("genres") == 7
    mapping = 0.7 * np.random.default_rng(0).standard_normal((5, 7))
    targets = {p.id: mapping @ tag_vector(p, "genres", context.tag_vocab)
               for p in profiles}
    spec = SystemSpec(components=("Genres",), output_dim=5)
    model = build_model(spec, context, seed=1)
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    config = TrainConfig(batch_size=8, word_dropout=0.0, dropout=0.0, l2=0.0,
                         learning_rate=0.01, max_epochs=300, patience=300,
                         val_fraction=0.0, seed=2)
    report = train(model, bundles, targets, config)
    assert report.stop_reason == "max_epochs"
    assert report.train_losses[-1] < 1e-2


def test_train_zero_epoch_budget_changes_nothing():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres", output_dim=3)
    model = build_model(spec, context, seed=3)
    before = {k: v.copy() for k, v in model.params.items()}
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    targets = {p.id: np.zeros(3) for p in profiles}
    report = train(model, bundles, targets,
                   TrainConfig(max_epochs=0, seed=0))
    assert report.epochs == 0
    assert report.stop_reason == "max_epochs"
    for name in before:
        assert np.array_equal(model.params[name], before[name])


def test_train_is_deterministic_per_seed():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Tags+Year", output_dim=4)
    rng = np.random.default_rng(5)
    targets = {p.id: rng.standard_normal(4) for p in profiles}
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    config = TrainConfig(batch_size=4, learning_rate=0.01, max_epochs=4,
                         patience=10, val_fraction=0.25, seed=21)

    outputs = []
    for _ in range(2):
        model = build_model(spec, context, seed=6)
        report = train(model, bundles, targets, config)
        outputs.append((predict(model, bundles), report.train_losses,
                        report.val_item_ids))
    assert np.array_equal(outputs[0][0], outputs[1][0])
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]


def test_train_restores_the_best_validation_epoch():
    profiles = _tag_year_profiles(20)
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Year", output_dim=4)
    rng = np.random.default_rng(8)
    targets = {p.id: rng.standard_normal(4) for p in profiles}
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    model = float64_model(build_model(spec, context, seed=1))
    config = TrainConfig(batch_size=4, word_dropout=0.0, dropout=0.0, l2=0.0,
                         learning_rate=0.05, max_epochs=60, patience=3,
                         val_fraction=0.3, seed=4)
    report = train(model, bundles, targets, config)

    assert report.val_losses
    assert report.best_epoch == int(np.argmin(report.val_losses))
    by_id = {b.item_id: b for b in bundles}
    val_bundles = [by_id[i] for i in report.val_item_ids]
    restored = np.mean([net.mse_loss(forward(model, b)[0], targets[b.item_id])[0]
                        for b in val_bundles])
    assert restored == pytest.approx(min(report.val_losses), abs=1e-12)
    if report.stop_reason == "early_stop":
        assert report.epochs < config.max_epochs


@pytest.mark.parametrize("target_scale, stop_reason", [(1.0, "early_stop"),
                                                      (1e200, "diverged")])
def test_restored_parameters_stay_views_into_the_flat_vector(target_scale, stop_reason):
    profiles = _tag_year_profiles(20)
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Year", output_dim=4)
    rng = np.random.default_rng(8)
    targets = {p.id: target_scale * rng.standard_normal(4) for p in profiles}
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    model = build_model(spec, context, seed=1)
    flat = model.flat
    report = train(model, bundles, targets,
                   TrainConfig(batch_size=4, learning_rate=0.05, max_epochs=60, patience=2,
                               val_fraction=0.3, seed=2))
    assert report.stop_reason == stop_reason and report.epochs < 60
    assert model.flat is flat
    for name, param in model.params.items():
        assert np.shares_memory(param, model.flat), name


def test_train_rejects_missing_or_misshaped_targets():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres", output_dim=3)
    model = build_model(spec, context, seed=0)
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    with pytest.raises(ValueError, match="no target"):
        train(model, bundles, {}, TrainConfig(max_epochs=1))
    bad = {p.id: np.zeros(2) for p in profiles}
    with pytest.raises(ValueError, match="shape"):
        train(model, bundles, bad, TrainConfig(max_epochs=1))
    with pytest.raises(ValueError, match="no training items"):
        train(model, [], {}, TrainConfig(max_epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(word_dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)
    for rate in (float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(ValueError, match="^learning_rate must be positive and finite$"):
            TrainConfig(learning_rate=rate)
    for l2 in (-1e-4, float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(ValueError, match="^l2 must be non-negative and finite$"):
            TrainConfig(l2=l2)
    with pytest.raises(ValueError, match="^seed must be >= 0$"):
        TrainConfig(seed=-1)
    TrainConfig(learning_rate=1e300, l2=0.0)


def test_predict_matches_single_forwards_and_handles_empty():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Tags", output_dim=3)
    model = float64_model(build_model(spec, context, seed=2))
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    batch = predict(model, bundles)
    assert batch.shape == (len(bundles), 3)
    for i, bundle in enumerate(bundles):
        single, _ = forward(model, bundle)
        # One GEMM over the batch may round differently from one GEMV.
        assert np.allclose(batch[i], single, rtol=0, atol=1e-12)
    assert predict(model, []).shape == (0, 3)


class TestModelPersistence:
    def _trained(self, word_table):
        profiles = _tag_year_profiles()
        for p in profiles:
            p.plot = "alpha beta gamma"
        context = _context(profiles, word_table=word_table)
        spec = SystemSpec.named("CNN+Genres+Year", output_dim=3,
                                cnn_filters=2, cnn_width=2, cnn_hidden=3,
                                combiner_hidden=4, text_length=4)
        model = build_model(spec, context, seed=11)
        bundles = [featurize_item(p, context, bundle_parts(spec))
                   for p in profiles]
        rng = np.random.default_rng(1)
        targets = {p.id: rng.standard_normal(3) for p in profiles}
        train(model, bundles, targets,
              TrainConfig(batch_size=4, max_epochs=2, patience=5,
                          learning_rate=0.01, val_fraction=0.0, seed=3))
        return model, context, bundles

    def test_round_trip_with_explicit_context(self, tmp_path, word_table):
        model, context, bundles = self._trained(word_table)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path, features=context)
        assert loaded.spec == model.spec
        assert loaded.embedding_trainable == model.embedding_trainable
        assert (loaded.flat.dtype, loaded.embedding.dtype) == (np.float32, np.float64)
        assert predict(loaded, bundles).tobytes() == predict(model, bundles).tobytes()

    def test_a_save_load_round_trip_keeps_the_checkpoint_bytes(self, tmp_path, word_table):
        model, context, _ = self._trained(word_table)
        save_model(model, tmp_path / "a.ckpt")
        loaded = load_model(tmp_path / "a.ckpt", features=context)
        save_model(loaded, tmp_path / "b.ckpt")
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()
        assert loaded.flat.tobytes() == model.flat.tobytes()
        for name, param in loaded.params.items():
            assert np.shares_memory(param, loaded.flat), name

    def test_a_float64_checkpoint_loads_rounded_to_float32(self, tmp_path, word_table):
        # A checkpoint of float64 values that float32 cannot hold, as a float64 model writes.
        model, context, bundles = self._trained(word_table)
        written = float64_model(model)
        written.flat[:] = np.random.default_rng(2).uniform(-0.5, 0.5, written.flat.shape)
        save_model(written, tmp_path / "model.ckpt")
        loaded = load_model(tmp_path / "model.ckpt", features=context)
        assert loaded.flat.tobytes() == written.flat.astype(np.float32).tobytes()
        assert loaded.embedding.tobytes() == written.embedding.tobytes()
        assert np.allclose(predict(loaded, bundles), predict(written, bundles), rtol=0, atol=1e-5)

    def test_round_trip_via_stored_reference(self, tmp_path, word_table):
        model, context, bundles = self._trained(word_table)
        save_feature_context(context, tmp_path / "ctx")
        path = tmp_path / "model.ckpt"
        save_model(model, path, features_ref="ctx")
        loaded = load_model(path)
        assert predict(loaded, bundles).tobytes() == predict(model, bundles).tobytes()

    def test_missing_reference_is_an_error(self, tmp_path, word_table):
        model, _, _ = self._trained(word_table)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        with pytest.raises(ValueError, match="feature context"):
            load_model(path)

    @pytest.mark.parametrize("mutate, message", [
        (lambda tensors, meta: meta.pop("system"), "no 'system' object"),
        (lambda tensors, meta: meta["system"].update(colour="red"), "bad system spec"),
        (lambda tensors, meta: meta["system"].update(cnn_filters=2.5), "bad system spec"),
        (lambda tensors, meta: meta["system"]["tag_hidden"].update(CNN=5), "bad system spec"),
        (lambda tensors, meta: tensors.pop("output.bias"), "output.bias"),
        (lambda tensors, meta: tensors.pop("embedding"), "embedding"),
        (lambda tensors, meta: tensors.update({"genres.weight": np.ones((2, 2))}),
         "genres.weight"),
        (lambda tensors, meta: tensors.update(extra=np.ones(1)), "extra"),
    ], ids=["no-system", "unknown-spec-key", "float-width", "cnn-width-in-tag-hidden",
            "missing-tensor", "missing-embedding", "wrong-shape", "extra-tensor"])
    def test_bad_checkpoints_name_the_path(self, tmp_path, word_table, mutate, message):
        model, context, _ = self._trained(word_table)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        tensors, meta = net.load_checkpoint(path)
        mutate(tensors, meta)
        net.save_checkpoint(path, tensors, meta)
        with pytest.raises(ValueError, match=f"checkpoint {re.escape(str(path))}: .*{message}"):
            load_model(path, features=context)

    def test_the_spec_variant_decides_whether_a_loaded_embedding_trains(self, tmp_path,
                                                                        word_table):
        model, context, _ = self._trained(word_table)
        model.spec.cnn_variant = "static"
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        tensors, meta = net.load_checkpoint(path)
        meta["embedding_trainable"] = True
        net.save_checkpoint(path, tensors, meta)
        assert not load_model(path, features=context).embedding_trainable

    def test_foreign_checkpoints_are_rejected(self, tmp_path):
        path = tmp_path / "other.ckpt"
        net.save_checkpoint(path, {"w": np.ones(2)}, {"kind": "something"})
        with pytest.raises(ValueError, match="not a model"):
            load_model(path)


class TestTagRepresentation:
    def _model(self):
        profiles = _tag_year_profiles()
        context = _context(profiles)
        spec = SystemSpec.named("Genres", output_dim=3,
                                tag_hidden={"Genres": 4, "Actors": 4,
                                            "Director": 4, "Language": 4})
        return build_model(spec, context, seed=0), context

    def test_matches_relu_of_weight_column(self):
        model, context = self._model()
        index = context.tag_vocab.index["genres"]["drama"]
        weight = model.params["genres.weight"]
        bias = model.params["genres.bias"]
        expected = np.maximum(weight[:, index] + bias, 0.0)
        assert np.array_equal(tag_representation(model, "genres", "drama"),
                              expected)
        # The component name is accepted as a field alias.
        assert np.array_equal(tag_representation(model, "Genres", "drama"),
                              expected)

    def test_zero_parameters_give_zero_representation(self):
        model, _ = self._model()
        model.params["genres.weight"][:] = 0.0
        model.params["genres.bias"][:] = 0.0
        assert np.all(tag_representation(model, "genres", "action") == 0.0)

    def test_unknown_tag_and_disabled_component(self):
        model, context = self._model()
        with pytest.raises(ValueError, match="unknown"):
            tag_representation(model, "genres", "nope")
        year_model = build_model(SystemSpec.named("Year", output_dim=2),
                                 context, seed=0)
        with pytest.raises(ValueError, match="not enabled"):
            tag_representation(year_model, "genres", "drama")


class TestAnalogy:
    def _planted_model(self):
        tags = ["north", "south", "east", "west"]
        profiles = [ContentProfile(id=f"m{i}", genres=[tags[i % 4]])
                    for i in range(8)]
        context = _context(profiles)
        spec = SystemSpec.named("Genres", output_dim=2,
                                tag_hidden={"Genres": 3, "Actors": 3,
                                            "Director": 3, "Language": 3})
        model = build_model(spec, context, seed=0)
        rng = np.random.default_rng(17)
        model.params["genres.weight"] = rng.random((3, 5)) + 0.5
        model.params["genres.bias"][:] = 0.0
        return model, context

    def test_degenerate_query_returns_nearest_to_c(self):
        model, context = self._planted_model()
        reps = {t: tag_representation(model, "genres", t)
                for t in context.tag_vocab.tags["genres"]}
        query = reps["east"]
        candidates = {t: r for t, r in reps.items()
                      if t not in {"north", "east"}}
        expected = max(sorted(candidates),
                       key=lambda t: np.dot(candidates[t], query)
                       / (np.linalg.norm(candidates[t]) * np.linalg.norm(query)))
        # b == a collapses the offset: query is exactly rep(c).
        results = analogy(model, "genres", "north", "north", "east", topk=3)
        assert results[0][0] == expected
        assert {t for t, _ in results} & {"north", "east"} == set()

    def test_unknown_tag_is_rejected(self):
        model, _ = self._planted_model()
        with pytest.raises(ValueError):
            analogy(model, "genres", "north", "south", "nope")


def test_component_output_dims_follow_the_spec():
    spec = SystemSpec.named("CNN+BOW+Tags+Year", cnn_hidden=7, bow_hidden=9,
                            year_hidden=2,
                            tag_hidden={"Genres": 3, "Actors": 4,
                                        "Director": 5, "Language": 6})
    dims = component_output_dims(spec)
    assert dims == {"CNN": 7, "BOW": 9, "Genres": 3, "Actors": 4,
                    "Director": 5, "Language": 6, "Year": 2}


def _full_system(word_table, cnn_variant="non-static"):
    """A small CNN+BOW+Tags+Year model over texts with repeated words, a
    one-word text and one item without text."""
    plots = ["alpha beta alpha gamma alpha", None, "delta beta",
             "zeta epsilon zeta gamma beta delta alpha", "gamma"]
    profiles = [ContentProfile(id=f"m{i}", plot=plot, genres=[f"g{i % 2}"],
                               actors=[f"a{i % 3}"], directors=["d0"],
                               languages=["en" if i % 2 else "fr"],
                               year=1990 + 3 * i)
                for i, plot in enumerate(plots)]
    centroids = Centroids(np.random.default_rng(4).standard_normal((3, 4)))
    context = _context(profiles, word_table=word_table, centroids=centroids)
    spec = SystemSpec.named("CNN+BOW+Tags+Year", output_dim=3, cnn_filters=4,
                            cnn_width=3, cnn_hidden=5, bow_hidden=6,
                            year_hidden=2, combiner_hidden=7, text_length=8,
                            cnn_variant=cnn_variant,
                            tag_hidden={"Genres": 3, "Actors": 3,
                                        "Director": 2, "Language": 2})
    model = build_model(spec, context, seed=5)
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    return model, bundles


def test_full_system_parameters_and_l2_names(word_table):
    model, _ = _full_system(word_table)
    # Word dim 4, 3 centroids; tag vocabularies (with 'n/a') of 3, 4, 2, 3.
    assert [(name, p.shape) for name, p in model.params.items()] == [
        ("cnn.filters", (4, 3, 4)), ("cnn.conv_bias", (4,)),
        ("cnn.fc.weight", (5, 4)), ("cnn.fc.bias", (5,)),
        ("bow.fc1.weight", (6, 3)), ("bow.fc1.bias", (6,)),
        ("bow.fc2.weight", (6, 6)), ("bow.fc2.bias", (6,)),
        ("genres.weight", (3, 3)), ("genres.bias", (3,)),
        ("actors.weight", (3, 4)), ("actors.bias", (3,)),
        ("director.weight", (2, 2)), ("director.bias", (2,)),
        ("language.weight", (2, 3)), ("language.bias", (2,)),
        ("year.weight", (2, 1)), ("year.bias", (2,)),
        ("combiner.weight", (7, 23)), ("combiner.bias", (7,)),
        ("output.weight", (3, 7)), ("output.bias", (3,)),
    ]
    assert model.l2_weight_names() == [
        "cnn.filters", "genres.weight", "actors.weight", "director.weight",
        "language.weight", "combiner.weight"]


def test_predict_in_chunks_matches_one_forward_batch(word_table, monkeypatch):
    model, bundles = _full_system(word_table)
    model = float64_model(model)
    assert len(bundles) == 5
    whole, _ = forward_batch(model, stack_bundles(model.spec, bundles))
    monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2)
    assert np.allclose(predict(model, bundles), whole, rtol=0, atol=1e-12)


def test_batched_step_sums_the_per_example_gradients(word_table):
    model, bundles = _full_system(word_table)
    model = float64_model(model)
    batch = bundles[:4]
    assert len(batch[1].text_indices) == 0
    assert len(set(batch[0].text_indices.tolist())) < len(batch[0].text_indices)
    targets = np.random.default_rng(1).standard_normal((4, 3))
    dropout = {"train": True, "word_dropout": 0.3, "unit_dropout": 0.3}

    preds, cache = forward_batch(model, stack_bundles(model.spec, batch),
                                 rng=np.random.default_rng(7), **dropout)
    _, grad_preds = net.mse_loss(preds, targets)
    grads, (rows, row_grads) = backward_batch(model, cache, grad_preds)

    # Per-example passes drawing from one generator in the same order.
    rng = np.random.default_rng(7)
    ref = {name: np.zeros_like(p) for name, p in model.params.items()}
    ref_rows: dict[int, np.ndarray] = {}
    for i, bundle in enumerate(batch):
        pred, single_cache = forward(model, bundle, rng=rng, **dropout)
        assert np.allclose(pred, preds[i], rtol=0, atol=1e-12)
        _, grad_pred = net.mse_loss(pred, targets[i])
        single, single_rows = backward(model, single_cache, grad_pred)
        for name, g in single.items():
            ref[name] += g
        for row, g in single_rows.items():
            ref_rows[row] = ref_rows.get(row, 0.0) + g
    assert set(grads) == set(ref)
    for name in ref:
        assert np.allclose(grads[name], ref[name], rtol=0, atol=1e-12), name
    assert rows.tolist() == sorted(ref_rows)
    for row, g in zip(rows.tolist(), row_grads):
        assert np.allclose(g, ref_rows[row], rtol=0, atol=1e-12)


def test_batch_gradients_with_dropout_on_match_finite_differences(word_table):
    model, bundles = _full_system(word_table)
    model = float64_model(model)
    stack = stack_bundles(model.spec, bundles)
    targets = np.random.default_rng(4).standard_normal((5, 3))
    words = np.unique(stack["CNN"][0])
    model.flat[:] += np.random.default_rng(5).uniform(-0.1, 0.1, model.flat.shape)  # off the kinks
    tensors = {**model.params, "embedding": model.embedding[words].copy()}
    masks = []

    def loss_fn(tensors):
        model.embedding[words] = tensors["embedding"]
        preds, cache = forward_batch(model, stack, train=True, rng=np.random.default_rng(7),
                                     word_dropout=0.4, unit_dropout=0.4)
        masks.append((cache["text"][1], cache["unit_mask"]))
        losses, grad_preds = net.mse_loss(preds, targets)
        grads, (rows, row_grads) = backward_batch(model, cache, grad_preds)
        assert np.array_equal(rows, words)
        return float(losses.sum()), {**grads, "embedding": row_grads}

    assert grad_check(loss_fn, tensors) < 1e-5
    word_mask, unit_mask = masks[0]
    assert 0.0 in word_mask and 0.0 in unit_mask  # both masks drop something


@pytest.mark.parametrize("bad, message", [
    (dict(bow=None), "bundle has no bow input for the enabled BOW component"),
], ids=["no-bow"])
def test_every_bundle_is_checked_once_before_any_pass(word_table, monkeypatch, bad, message):
    model, bundles = _full_system(word_table)
    bundles.append(replace(bundles[0], item_id="bad", **bad))
    targets = {b.item_id: np.zeros(3) for b in bundles}
    monkeypatch.setattr(model_module, "forward_batch",
                        lambda *args, **kwargs: pytest.fail("a pass ran"))
    for call in (lambda: stack_bundles(model.spec, bundles), lambda: predict(model, bundles),
                 lambda: train(model, bundles, targets, TrainConfig(max_epochs=1))):
        with pytest.raises(ValueError, match=message):
            call()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["alpha", "beta", "gamma", "oov1", "oov2"]),
                         max_size=12), min_size=1, max_size=4),
       st.integers(min_value=1, max_value=8))
@example([["qqq", "alpha", "zzz", "beta", "gamma"]], 2)
def test_the_stack_keeps_each_text_first_text_length_in_table_words(texts, text_length):
    # Featurization keeps every in-table word; OOV words take no slot of the model's cap.
    table = EmbeddingTable(["alpha", "beta", "gamma"], np.eye(3))
    context = fit_feature_context([ContentProfile(id="m")], word_table=table)
    spec = SystemSpec.named("CNN", cnn_width=1, text_length=text_length)
    bundles = [featurize_item(ContentProfile(id=f"m{i}", plot=" ".join(tokens)), context,
                              ("text",)) for i, tokens in enumerate(texts)]
    kept = [[table.index[t] for t in tokens if t in table.index][:text_length]
            for tokens in texts]
    words, offsets = stack_bundles(spec, bundles)["CNN"]
    assert words.dtype == np.int64 and words.tolist() == sum(kept, [])
    assert offsets.tolist() == np.cumsum([0, *map(len, kept)]).tolist()


def test_a_long_text_stacks_predicts_and_trains_like_its_cut_copy(word_table):
    extra = np.array([0, 5, 1, 1, 4, 2], dtype=np.int64)
    runs = []
    for cut in (False, True):
        model, bundles = _full_system(word_table)  # text_length 8
        texts = [np.concatenate([b.text_indices, extra[:i + 4]]) for i, b in enumerate(bundles)]
        bundles = [replace(b, text_indices=t[:8] if cut else t) for b, t in zip(bundles, texts)]
        targets = {b.item_id: np.full(3, 0.5) for b in bundles}
        stack = stack_bundles(model.spec, bundles)
        before = predict(model, bundles)
        report = train(model, bundles, targets, TrainConfig(batch_size=2, max_epochs=3, seed=4))
        runs.append((stack, before, report, model))
    (stack, before, report, model), (cut_stack, cut_before, cut_report, cut_model) = runs
    assert max(map(len, texts)) > 8 and any(8 > len(t) for t in texts)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stack["CNN"], cut_stack["CNN"]))
    assert before.tobytes() == cut_before.tobytes()
    assert (report.train_losses, report.val_losses) == (cut_report.train_losses,
                                                        cut_report.val_losses)
    assert model.flat.tobytes() == cut_model.flat.tobytes()
    assert model.embedding.tobytes() == cut_model.embedding.tobytes()


@pytest.mark.parametrize("word_p, unit_p", [(0.3, 0.4), (0.3, 0.0), (0.0, 0.4)])
def test_batch_dropout_masks_are_the_per_example_draws_in_order(word_table, word_p, unit_p):
    model, bundles = _full_system(word_table)
    model = float64_model(model)
    stack = stack_bundles(model.spec, bundles)
    rows = np.array([3, 1, 0, 4, 1])  # the textless item, twice
    for seed in range(5):
        rng = np.random.default_rng(seed)
        _, cache = forward_batch(model, stack, rows, train=True, rng=rng,
                                 word_dropout=word_p, unit_dropout=unit_p)
        # The old per-example draws: each example's word mask, then its unit mask.
        ref_rng = np.random.default_rng(seed)
        words, units = [], []
        for i in rows:
            if word_p:
                words.append(net.dropout_mask(ref_rng.random(len(bundles[i].text_indices)),
                                              word_p))
            if unit_p:
                units.append(net.dropout_mask(ref_rng.random(model.spec.bow_hidden), unit_p))
        assert rng.random() == ref_rng.random()  # the same number of draws

        indices, word_mask, word_rows, (matrix, _, _), _ = cache["text"]
        assert np.array_equal(indices, np.concatenate([bundles[i].text_indices for i in rows]))
        embedded = model.embedding[indices]
        if word_p:
            assert word_mask.tobytes() == np.concatenate(words).tobytes()
            embedded = embedded * word_mask[:, None]
        else:
            assert word_mask is None
        assert matrix[word_rows].tobytes() == embedded.tobytes()
        # BOW layer caches: ((x, W), pre) of bow.fc1, then of bow.fc2.
        (_, below), ((masked_units, _), _) = cache["components"]["BOW"]
        if unit_p:
            assert cache["unit_mask"].tobytes() == np.stack(units).tobytes()
            assert masked_units.tobytes() == (np.maximum(below, 0.0)
                                              * cache["unit_mask"]).tobytes()
        else:
            assert cache["unit_mask"] is None
            assert masked_units.tobytes() == np.maximum(below, 0.0).tobytes()


def test_a_train_step_adds_the_gradient_of_l2_penalty_bit_for_bit(word_table, monkeypatch):
    steps = []
    step = net.Adam.step
    monkeypatch.setattr(net.Adam, "step", lambda self, param, grad: (
        steps.append((param.copy(), grad.copy())), step(self, param, grad)))
    targets = np.random.default_rng(2).standard_normal((5, 3))
    for l2 in (0.0, 0.01):  # one step over all five items, dropout on
        model, bundles = _full_system(word_table)
        train(model, bundles, {b.item_id: t for b, t in zip(bundles, targets)},
              TrainConfig(batch_size=5, max_epochs=1, val_fraction=0.0, l2=l2, seed=3))
    (params, data_grad), (same_params, grad) = steps
    assert params.tobytes() == same_params.tobytes()
    params, data_grad, grad = (model_module._views(v, model.params)
                               for v in (params, data_grad, grad))
    names = model.l2_weight_names()
    _, l2_grads = l2_penalty({name: params[name] for name in names}, 0.01)
    for name in model.params:
        expected = data_grad[name] + l2_grads[name] if name in names else data_grad[name]
        assert grad[name].tobytes() == expected.tobytes(), name


def _add_at_scatter(rows, values, count):
    out = np.zeros((count, values.shape[1]))
    np.add.at(out, rows, values)
    return out


def test_word_row_gradients_match_add_at_bit_for_bit(word_table, monkeypatch):
    model, bundles = _full_system(word_table)
    assert sorted(len(b.text_indices) for b in bundles)[:2] == [0, 1]
    preds, cache = forward_batch(model, stack_bundles(model.spec, bundles), train=True,
                                 rng=np.random.default_rng(7), word_dropout=0.3,
                                 unit_dropout=0.3)
    assert 0.0 in cache["text"][1]  # a dropped word
    grad_preds = np.random.default_rng(1).standard_normal(preds.shape)
    grads, (rows, row_grads) = backward_batch(model, cache, grad_preds)
    monkeypatch.setattr(net, "scatter_rows", _add_at_scatter)
    ref_grads, (ref_rows, ref_row_grads) = backward_batch(model, cache, grad_preds)
    assert len(rows) < len(cache["text"][0])  # repeated words share a row
    assert np.array_equal(rows, ref_rows)
    assert np.array_equal(row_grads, ref_row_grads)
    for name in ref_grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("variant", ["static", "non-static"])
def test_word_gradient_is_built_only_for_a_trainable_embedding(word_table, monkeypatch,
                                                               variant):
    model, bundles = _full_system(word_table, cnn_variant=variant)
    calls = []
    scatter = net.scatter_rows
    monkeypatch.setattr(net, "scatter_rows",
                        lambda *args: calls.append(args) or scatter(*args))
    preds, cache = forward_batch(model, stack_bundles(model.spec, bundles))
    grads, (rows, _) = backward_batch(model, cache, np.ones_like(preds))
    assert np.any(grads["cnn.filters"] != 0.0)
    if variant == "static":
        assert calls == [] and len(rows) == 0
    else:
        assert calls and len(rows) > 0


def _reference_train(model, bundles, targets, config):
    """Per-example minibatch loop: forward/backward one example at a time,
    gradients summed into dicts, then the same Adam steps as ``train``: one
    over the flat parameter vector, one over the touched embedding rows."""
    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(bundles))
    n_val = min(len(bundles) - 1, max(1, int(round(config.val_fraction * len(bundles)))))
    val, train_idx = [bundles[i] for i in order[:n_val]], order[n_val:]
    adam = net.Adam(lr=config.learning_rate)
    best, snapshot = np.inf, None
    for _ in range(config.max_epochs):
        perm = rng.permutation(train_idx)
        for start in range(0, len(perm), config.batch_size):
            batch = perm[start:start + config.batch_size]
            acc = {name: np.zeros_like(p) for name, p in model.params.items()}
            emb: dict[int, np.ndarray] = {}
            for i in batch:
                pred, cache = forward(model, bundles[i], train=True, rng=rng,
                                      word_dropout=config.word_dropout,
                                      unit_dropout=config.dropout)
                _, grad_pred = net.mse_loss(pred, targets[bundles[i].item_id])
                grads, rows = backward(model, cache, grad_pred)
                for name, g in grads.items():
                    acc[name] += g
                for row, g in rows.items():
                    emb[row] = emb.get(row, 0.0) + g
            for name in acc:
                acc[name] /= len(batch)
                if name in model.l2_weight_names():
                    acc[name] += 2.0 * config.l2 * model.params[name]
            adam.step(model.flat, np.concatenate([acc[name].ravel() for name in model.params]))
            keys = sorted(emb)
            adam.step_rows(model.embedding, np.array(keys, dtype=np.int64),
                           np.array([emb[r] / len(batch) for r in keys]))
        val_loss = np.mean([net.mse_loss(forward(model, b)[0], targets[b.item_id])[0]
                            for b in val])
        if val_loss < best:
            best = val_loss
            snapshot = model.flat.copy(), model.embedding.copy()
    model.flat[:], model.embedding = snapshot


def test_train_matches_a_per_example_reference_loop(word_table):
    model, bundles = _full_system(word_table)
    model = float64_model(model)
    # Ten items, with texts repeated across batches.
    bundles = [replace(b, item_id=f"x{i}") for i, b in enumerate(bundles * 2)]
    rng = np.random.default_rng(3)
    targets = {b.item_id: rng.standard_normal(3) for b in bundles}
    config = TrainConfig(batch_size=3, word_dropout=0.25, dropout=0.25, l2=1e-3,
                         learning_rate=0.01, max_epochs=4, patience=10,
                         val_fraction=0.2, seed=11)
    reference = float64_model(build_model(model.spec, model.features, seed=5))
    report = train(model, bundles, targets, config)
    _reference_train(reference, bundles, targets, config)
    assert report.stop_reason == "max_epochs"
    for name in model.params:
        assert np.allclose(model.params[name], reference.params[name],
                           rtol=0, atol=1e-9), name
    assert np.allclose(model.embedding, reference.embedding, rtol=0, atol=1e-9)
    assert not np.array_equal(model.embedding, word_table.vectors)


def test_a_float32_pass_stays_float32_within_rounding_of_float64(word_table):
    model, bundles = _full_system(word_table)
    stack = stack_bundles(model.spec, bundles)

    def one_pass(m):
        preds, cache = forward_batch(m, stack, train=True, rng=np.random.default_rng(7),
                                     word_dropout=0.3, unit_dropout=0.3)
        grad_preds = np.random.default_rng(1).standard_normal(preds.shape).astype(preds.dtype)
        grads, (rows, row_grads) = backward_batch(m, cache, grad_preds)
        return preds, (cache["text"][1], cache["unit_mask"]), grads, rows, row_grads

    preds, masks, grads, rows, row_grads = one_pass(model)
    preds64, masks64, grads64, rows64, row_grads64 = one_pass(float64_model(model))
    assert preds.dtype == masks[0].dtype == masks[1].dtype == np.float32
    assert all(g.dtype == np.float32 for g in grads.values())
    assert row_grads.dtype == np.float64  # it steps the float64 embedding copy
    for mask, mask64 in zip(masks, masks64):  # the same draws, rounded
        assert mask.tobytes() == mask64.astype(np.float32).tobytes()
    # Measured over ten dropout seeds: predictions 4.5e-8, gradients 2.2e-7 apart at most.
    assert np.allclose(preds, preds64, rtol=0, atol=2e-6)
    for name in grads:
        assert np.allclose(grads[name], grads64[name], rtol=0, atol=2e-6), name
    assert np.array_equal(rows, rows64)
    assert np.allclose(row_grads, row_grads64, rtol=0, atol=2e-6)


def test_float32_training_tracks_float64_training(word_table):
    model, bundles = _full_system(word_table)
    bundles = [replace(b, item_id=f"x{i}") for i, b in enumerate(bundles * 2)]
    rng = np.random.default_rng(3)
    targets = {b.item_id: 0.5 + 0.1 * rng.standard_normal(3) for b in bundles}
    config = TrainConfig(batch_size=3, l2=1e-3, learning_rate=0.002, max_epochs=8,
                         patience=10, val_fraction=0.2, seed=5)
    copy = float64_model(model)
    report, report64 = (train(m, bundles, targets, config) for m in (model, copy))
    assert (model.flat.dtype, copy.flat.dtype) == (np.float32, np.float64)
    assert report.best_epoch == report64.best_epoch == config.max_epochs - 1
    # Measured at training seeds 0-7: parameters at most 3.1e-7 apart, embedding
    # rows 2.3e-8, train and validation losses 4.1e-8.
    assert np.allclose(model.flat, copy.flat, rtol=0, atol=2e-6)
    assert np.allclose(model.embedding, copy.embedding, rtol=0, atol=2e-7)
    assert not np.array_equal(model.embedding, word_table.vectors)
    assert np.allclose(report.val_losses, report64.val_losses, rtol=0, atol=3e-7)
    assert np.allclose(report.train_losses, report64.train_losses, rtol=0, atol=3e-7)


@pytest.mark.parametrize("text_length, cnn_width, plot", [
    (8, 3, None),                                   # k = 0
    (8, 3, "alpha"),                                # k < width
    (8, 3, "alpha beta gamma delta epsilon zeta"),  # k + width > text_length
    (12, 3, "beta gamma alpha"),                    # trimmed to k + width rows
])
def test_trimmed_text_matrix_pools_like_the_full_one(word_table, text_length,
                                                     cnn_width, plot):
    profiles = [ContentProfile(id="m0", plot=plot), ContentProfile(id="m1", plot="alpha")]
    context = _context(profiles, word_table=word_table)
    spec = SystemSpec.named("CNN", output_dim=2, cnn_filters=5, cnn_width=cnn_width,
                            cnn_hidden=3, combiner_hidden=3, text_length=text_length)
    model = float64_model(build_model(spec, context, seed=2))
    model.params["cnn.conv_bias"][:] = np.random.default_rng(0).standard_normal(5)
    # Filter 0 scores every real window below its bias: its max is the bias.
    model.embedding = np.abs(model.embedding) + 0.1
    model.params["cnn.filters"][0] = -np.abs(model.params["cnn.filters"][0]) - 0.1
    # m1 comes first, so m0's segment starts past m1's one word and its window.
    other, bundle = [featurize_item(p, context, bundle_parts(spec)) for p in profiles[::-1]]
    k = len(bundle.text_indices)
    start = min(text_length, len(other.text_indices) + cnn_width)

    _, cache = forward_batch(model, stack_bundles(spec, [other, bundle]))
    indices, _, word_rows, (matrix, _, best), pooled = cache["text"]
    assert np.array_equal(indices[len(other.text_indices):], bundle.text_indices)
    assert np.array_equal(word_rows[len(other.text_indices):], start + np.arange(k))
    assert len(matrix) - start == min(text_length, k + cnn_width)
    assert np.all(matrix[start + k:] == 0.0)
    pooled, best = pooled[1], best[1] - start

    full = np.zeros((text_length, model.embedding.shape[1]))
    full[:k] = model.embedding[bundle.text_indices]
    full_pooled, (_, _, full_best) = net.conv1d_maxpool_forward(
        full, model.params["cnn.filters"], model.params["cnn.conv_bias"], [0, text_length])
    assert np.allclose(pooled, full_pooled[0], rtol=0, atol=1e-12)
    assert np.array_equal(best, full_best[0])
    if k + cnn_width <= text_length:  # an all-padding window exists
        assert pooled[0] == model.params["cnn.conv_bias"][0]
        assert best[0] == k


def test_train_stops_on_divergence_and_keeps_the_initial_parameters():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Year", output_dim=3)
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    targets = {p.id: np.full(3, 1e200) for p in profiles}  # the MSE overflows
    for val_fraction in (0.0, 0.25):
        model = build_model(spec, context, seed=3)
        before = {k: v.copy() for k, v in model.params.items()}
        report = train(model, bundles, targets,
                       TrainConfig(batch_size=4, max_epochs=5, val_fraction=val_fraction))
        assert report.stop_reason == "diverged"
        assert report.epochs == 1 and not np.isfinite(report.train_losses[0])
        assert report.best_epoch is None
        for name in before:
            assert np.array_equal(model.params[name], before[name])


def test_train_divergence_after_a_finite_epoch_restores_the_best_epoch(monkeypatch):
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Genres+Year", output_dim=3)
    bundles = [featurize_item(p, context, bundle_parts(spec)) for p in profiles]
    targets = {p.id: np.zeros(3) for p in profiles}
    config = TrainConfig(batch_size=4, max_epochs=5, val_fraction=0.25, seed=1)
    finite = build_model(spec, context, seed=3)
    first = train(finite, bundles, targets, replace(config, max_epochs=1))

    model = build_model(spec, context, seed=3)
    real_step = net.Adam.step
    calls = []

    def poisoning_step(self, param, grad):
        real_step(self, param, grad)
        calls.append(1)
        if len(calls) == 6:  # 9 training items, batch 4: last step of epoch 1
            model.params["combiner.bias"][0] = np.nan  # through the view into model.flat

    monkeypatch.setattr(net.Adam, "step", poisoning_step)
    report = train(model, bundles, targets, config)
    assert report.stop_reason == "diverged"
    assert report.epochs == 2 and report.best_epoch == 0
    assert report.val_losses[0] == first.val_losses[0]
    assert not np.isfinite(report.val_losses[1])
    for name in model.params:
        assert np.array_equal(model.params[name], finite.params[name])
