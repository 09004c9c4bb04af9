from dataclasses import replace

import numpy as np
import pytest

from cb2cf import model as model_module
from cb2cf import net
from cb2cf.data import ContentProfile
from cb2cf.features import (Centroids, fit_feature_context, featurize_item,
                            save_feature_context, tag_vector)
from cb2cf.model import (COMPONENT_ORDER, Cb2cfModel, SystemSpec, TrainConfig,
                         analogy, backward_batch, build_model,
                         bundle_parts, component_output_dims,
                         forward_batch, load_model,
                         parse_system, predict, save_model, tag_representation,
                         train)
from model_helpers import backward, forward


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
        with pytest.raises(ValueError):
            SystemSpec(components=("Genres",), tag_hidden={"Genres": 0})

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
    assert model.parameter_count() == 16 + 2304 + 10280 == 12600


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
        context = _context(profiles, word_table=word_table, max_words=6)
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
    model = build_model(spec, context, seed=7)
    bundle = featurize_item(profiles[1], context, bundle_parts(spec))
    target = np.random.default_rng(0).standard_normal(3)

    def loss_fn(tensors):
        model.params = tensors
        pred, cache = forward(model, bundle)
        loss, grad_pred = net.mse_loss(pred, target)
        grads, _ = backward(model, cache, grad_pred)
        return loss, grads

    assert net.grad_check(loss_fn, dict(model.params)) < 1e-5


def test_word_dropout_masks_have_unit_mean(word_table):
    profiles = [ContentProfile(id="m0", plot="alpha beta gamma delta epsilon")]
    context = _context(profiles, word_table=word_table, max_words=5)
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
    model = build_model(spec, context, seed=1)
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


def test_predict_matches_single_forwards_and_handles_empty():
    profiles = _tag_year_profiles()
    context = _context(profiles)
    spec = SystemSpec.named("Tags", output_dim=3)
    model = build_model(spec, context, seed=2)
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
        context = _context(profiles, word_table=word_table, max_words=4)
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
        assert np.array_equal(predict(loaded, bundles), predict(model, bundles))

    def test_round_trip_via_stored_reference(self, tmp_path, word_table):
        model, context, bundles = self._trained(word_table)
        save_feature_context(context, tmp_path / "ctx")
        path = tmp_path / "model.ckpt"
        save_model(model, path, features_ref="ctx")
        loaded = load_model(path)
        assert np.array_equal(predict(loaded, bundles), predict(model, bundles))

    def test_missing_reference_is_an_error(self, tmp_path, word_table):
        model, _, _ = self._trained(word_table)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        with pytest.raises(ValueError, match="feature context"):
            load_model(path)

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
    context = _context(profiles, word_table=word_table, centroids=centroids,
                       max_words=8)
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
    assert len(bundles) == 5
    whole, _ = forward_batch(model, bundles)
    monkeypatch.setattr(model_module, "PREDICT_CHUNK", 2)
    assert np.allclose(predict(model, bundles), whole, rtol=0, atol=1e-12)


def test_batched_step_sums_the_per_example_gradients(word_table):
    model, bundles = _full_system(word_table)
    batch = bundles[:4]
    assert len(batch[1].text_indices) == 0
    assert len(set(batch[0].text_indices.tolist())) < len(batch[0].text_indices)
    targets = np.random.default_rng(1).standard_normal((4, 3))
    dropout = {"train": True, "word_dropout": 0.3, "unit_dropout": 0.3}

    preds, cache = forward_batch(model, batch, rng=np.random.default_rng(7), **dropout)
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


def _add_at_scatter(rows, values, count):
    out = np.zeros((count, values.shape[1]))
    np.add.at(out, rows, values)
    return out


def test_word_row_gradients_match_add_at_bit_for_bit(word_table, monkeypatch):
    model, bundles = _full_system(word_table)
    assert sorted(len(b.text_indices) for b in bundles)[:2] == [0, 1]
    preds, cache = forward_batch(model, bundles, train=True, rng=np.random.default_rng(7),
                                 word_dropout=0.3, unit_dropout=0.3)
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
    preds, cache = forward_batch(model, bundles)
    grads, (rows, _) = backward_batch(model, cache, np.ones_like(preds))
    assert np.any(grads["cnn.filters"] != 0.0)
    if variant == "static":
        assert calls == [] and len(rows) == 0
    else:
        assert calls and len(rows) > 0


def _reference_train(model, bundles, targets, config):
    """Per-example minibatch loop: forward/backward one example at a time,
    gradients summed into dicts, then the same Adam steps as ``train``."""
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
            adam.step(model.params, acc)
            keys = sorted(emb)
            adam.step_rows("embedding", model.embedding, np.array(keys, dtype=np.int64),
                           np.array([emb[r] / len(batch) for r in keys]))
        val_loss = np.mean([net.mse_loss(forward(model, b)[0], targets[b.item_id])[0]
                            for b in val])
        if val_loss < best:
            best = val_loss
            snapshot = ({k: v.copy() for k, v in model.params.items()},
                        model.embedding.copy())
    model.params, model.embedding = snapshot


def test_train_matches_a_per_example_reference_loop(word_table):
    model, bundles = _full_system(word_table)
    # Ten items, with texts repeated across batches.
    bundles = [replace(b, item_id=f"x{i}") for i, b in enumerate(bundles * 2)]
    rng = np.random.default_rng(3)
    targets = {b.item_id: rng.standard_normal(3) for b in bundles}
    config = TrainConfig(batch_size=3, word_dropout=0.25, dropout=0.25, l2=1e-3,
                         learning_rate=0.01, max_epochs=4, patience=10,
                         val_fraction=0.2, seed=11)
    reference = build_model(model.spec, model.features, seed=5)
    report = train(model, bundles, targets, config)
    _reference_train(reference, bundles, targets, config)
    assert report.stop_reason == "max_epochs"
    for name in model.params:
        assert np.allclose(model.params[name], reference.params[name],
                           rtol=0, atol=1e-9), name
    assert np.allclose(model.embedding, reference.embedding, rtol=0, atol=1e-9)
    assert not np.array_equal(model.embedding, word_table.vectors)


@pytest.mark.parametrize("text_length, cnn_width, plot", [
    (8, 3, None),                                   # k = 0
    (8, 3, "alpha"),                                # k < width
    (8, 3, "alpha beta gamma delta epsilon zeta"),  # k + width > text_length
    (12, 3, "beta gamma alpha"),                    # trimmed to k + width rows
])
def test_trimmed_text_matrix_pools_like_the_full_one(word_table, text_length,
                                                     cnn_width, plot):
    profiles = [ContentProfile(id="m0", plot=plot), ContentProfile(id="m1", plot="alpha")]
    context = _context(profiles, word_table=word_table, max_words=text_length)
    spec = SystemSpec.named("CNN", output_dim=2, cnn_filters=5, cnn_width=cnn_width,
                            cnn_hidden=3, combiner_hidden=3, text_length=text_length)
    model = build_model(spec, context, seed=2)
    model.params["cnn.conv_bias"][:] = np.random.default_rng(0).standard_normal(5)
    # Filter 0 scores every real window below its bias: its max is the bias.
    model.embedding = np.abs(model.embedding) + 0.1
    model.params["cnn.filters"][0] = -np.abs(model.params["cnn.filters"][0]) - 0.1
    bundle = featurize_item(profiles[0], context, bundle_parts(spec))
    k = len(bundle.text_indices)

    _, cache = forward(model, bundle)
    (cached_k, (matrix, _, best)), = cache["text"][2]
    pooled = cache["text"][3][0]
    assert cached_k == k
    assert len(matrix) == min(text_length, k + cnn_width)

    full = np.zeros((text_length, model.embedding.shape[1]))
    full[:k] = model.embedding[bundle.text_indices]
    full_pooled, (_, _, full_best) = net.conv1d_maxpool_forward(
        full, model.params["cnn.filters"], model.params["cnn.conv_bias"])
    assert np.allclose(pooled, full_pooled, rtol=0, atol=1e-12)
    assert np.array_equal(best, full_best)
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

    def poisoning_step(self, params, grads):
        real_step(self, params, grads)
        calls.append(1)
        if len(calls) == 6:  # 9 training items, batch 4: last step of epoch 1
            params["combiner.bias"][0] = np.nan

    monkeypatch.setattr(net.Adam, "step", poisoning_step)
    report = train(model, bundles, targets, config)
    assert report.stop_reason == "diverged"
    assert report.epochs == 2 and report.best_epoch == 0
    assert report.val_losses[0] == first.val_losses[0]
    assert not np.isfinite(report.val_losses[1])
    for name in model.params:
        assert np.array_equal(model.params[name], finite.params[name])
