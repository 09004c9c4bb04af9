import json
import re

import numpy as np
import pytest

from cb2cf import net


def test_dense_forward_values_and_shape_checks():
    weight = np.array([[1.0, 2.0], [0.0, -1.0]])
    bias = np.array([0.5, 0.0])
    y, _ = net.dense_forward(np.array([3.0, 4.0]), weight, bias)
    assert np.allclose(y, [11.5, -4.0])
    with pytest.raises(ValueError):
        net.dense_forward(np.ones(3), weight, bias)
    with pytest.raises(ValueError):
        net.dense_forward(np.ones(2), weight, np.ones(3))


def test_dense_gradients_against_finite_differences():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(3)
    target = rng.standard_normal(4)

    def loss_fn(tensors):
        y, cache = net.dense_forward(tensors["x"], tensors["w"], tensors["b"])
        loss, grad_y = net.mse_loss(y, target)
        grad_x, grad_w, grad_b = net.dense_backward(cache, grad_y)
        return loss, {"x": grad_x, "w": grad_w, "b": grad_b}

    tensors = {"x": x0, "w": rng.standard_normal((4, 3)),
               "b": rng.standard_normal(4)}
    assert net.grad_check(loss_fn, tensors) < 1e-6


def test_batched_dense_gradients_against_finite_differences():
    rng = np.random.default_rng(1)
    target = rng.standard_normal((5, 4))

    def loss_fn(tensors):
        y, cache = net.dense_forward(tensors["x"], tensors["w"], tensors["b"])
        losses, grad_y = net.mse_loss(y, target)
        grad_x, grad_w, grad_b = net.dense_backward(cache, grad_y)
        return float(losses.sum()), {"x": grad_x, "w": grad_w, "b": grad_b}

    tensors = {"x": rng.standard_normal((5, 3)), "w": rng.standard_normal((4, 3)),
               "b": rng.standard_normal(4)}
    assert net.grad_check(loss_fn, tensors) < 1e-6
    # A batch row is the one-example layer; parameter gradients add up.
    y, cache = net.dense_forward(tensors["x"], tensors["w"], tensors["b"])
    grad_y = rng.standard_normal((5, 4))
    _, grad_w, grad_b = net.dense_backward(cache, grad_y)
    singles = [net.dense_backward(net.dense_forward(x, tensors["w"], tensors["b"])[1], g)
               for x, g in zip(tensors["x"], grad_y)]
    assert np.allclose(grad_w, sum(s[1] for s in singles), rtol=0, atol=1e-12)
    assert np.allclose(grad_b, sum(s[2] for s in singles), rtol=0, atol=1e-12)


def test_relu_values_and_subgradient():
    y, cache = net.relu_forward(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(y, [0.0, 0.0, 2.0])
    grad = net.relu_backward(cache, np.array([5.0, 5.0, 5.0]))
    assert np.array_equal(grad, [0.0, 0.0, 5.0])  # zero at the kink


def _reference_conv(matrix, filters, bias):
    """Nested-loop convolution + global max with first-index ties."""
    length, dim = matrix.shape
    count, width, _ = filters.shape
    pooled = np.empty(count)
    argmax = np.empty(count, dtype=int)
    for f in range(count):
        best_val, best_pos = -np.inf, 0
        for pos in range(length - width + 1):
            acc = bias[f]
            for w in range(width):
                for d in range(dim):
                    acc += matrix[pos + w, d] * filters[f, w, d]
            if acc > best_val:
                best_val, best_pos = acc, pos
        pooled[f] = best_val
        argmax[f] = best_pos
    return pooled, argmax


def test_conv_matches_nested_loop_reference():
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((7, 2))
    filters = rng.standard_normal((4, 3, 2))
    bias = rng.standard_normal(4)
    pooled, (_, _, best) = net.conv1d_maxpool_forward(matrix, filters, bias)
    ref_pooled, ref_best = _reference_conv(matrix, filters, bias)
    assert np.allclose(pooled, ref_pooled, atol=1e-12)
    assert np.array_equal(best, ref_best)


def test_conv_filter_equal_to_window_scores_its_squared_norm():
    matrix = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    filters = matrix[:2][None, :, :].copy()  # one filter = first window
    pooled, _ = net.conv1d_maxpool_forward(matrix, filters, np.zeros(1))
    # Window 0 scores 1 + 4 = 5; window 1 scores 0*1 + 0 + 3*0 + 0 = 0.
    assert pooled[0] == pytest.approx(5.0)


def test_conv_tie_routes_gradient_to_first_window():
    # All-zero input: every window activation equals the bias, a full tie.
    matrix = np.zeros((6, 3))
    filters = np.ones((2, 2, 3))
    pooled, cache = net.conv1d_maxpool_forward(matrix, filters, np.array([1.0, 2.0]))
    assert np.array_equal(pooled, [1.0, 2.0])
    grad_matrix, _, grad_bias = net.conv1d_maxpool_backward(cache, np.ones(2))
    assert np.array_equal(grad_bias, [1.0, 1.0])
    assert np.any(grad_matrix[:2] != 0.0)
    assert np.all(grad_matrix[2:] == 0.0)


def _add_at_input_grad(cache, grad_pooled):
    """The conv input gradient as per-window ``np.add.at`` accumulation."""
    matrix, filters, best = cache
    count, width, dim = filters.shape
    offsets = best[:, None] + np.arange(width)[None, :]
    grad = np.zeros_like(matrix)
    np.add.at(grad, offsets.reshape(-1),
              (grad_pooled[:, None, None] * filters).reshape(count * width, dim))
    return grad


@pytest.mark.parametrize("length, width, zero_input", [
    (9, 3, False),  # overlapping windows, many filters per position
    (6, 2, True),   # full tie: every filter picks window 0
    (3, 3, False),  # one window: the text is shorter than the width plus one
])
def test_conv_input_gradient_matches_add_at_bit_for_bit(length, width, zero_input):
    rng = np.random.default_rng(length)
    matrix = np.zeros((length, 4)) if zero_input else rng.standard_normal((length, 4))
    filters = rng.standard_normal((24, width, 4))
    _, cache = net.conv1d_maxpool_forward(matrix, filters, rng.standard_normal(24))
    grad_pooled = rng.standard_normal(24) * 10.0 ** rng.integers(-6, 3, 24)
    grad_matrix, grad_filters, grad_bias = net.conv1d_maxpool_backward(cache, grad_pooled)
    assert np.array_equal(grad_matrix, _add_at_input_grad(cache, grad_pooled))
    skipped, same_filters, same_bias = net.conv1d_maxpool_backward(
        cache, grad_pooled, input_grad=False)
    assert skipped is None
    assert np.array_equal(same_filters, grad_filters) and np.array_equal(same_bias, grad_bias)


def test_conv_shape_validation():
    with pytest.raises(ValueError):
        net.conv1d_maxpool_forward(np.zeros((2, 3)), np.zeros((1, 4, 3)),
                                   np.zeros(1))
    with pytest.raises(ValueError):
        net.conv1d_maxpool_forward(np.zeros((4, 3)), np.zeros((1, 2, 2)),
                                   np.zeros(1))


def test_conv_stack_gradients_against_finite_differences():
    rng = np.random.default_rng(3)
    target = rng.standard_normal(3)
    x0 = rng.standard_normal((6, 2))

    def loss_fn(tensors):
        pooled, conv_cache = net.conv1d_maxpool_forward(
            tensors["m"], tensors["f"], tensors["cb"])
        act, relu_cache = net.relu_forward(pooled)
        y, dense_cache = net.dense_forward(act, tensors["w"], tensors["b"])
        loss, grad_y = net.mse_loss(y, target)
        grad_act, grad_w, grad_b = net.dense_backward(dense_cache, grad_y)
        grad_pooled = net.relu_backward(relu_cache, grad_act)
        grad_m, grad_f, grad_cb = net.conv1d_maxpool_backward(conv_cache,
                                                              grad_pooled)
        return loss, {"m": grad_m, "f": grad_f, "cb": grad_cb,
                      "w": grad_w, "b": grad_b}

    tensors = {"m": x0, "f": rng.standard_normal((4, 3, 2)),
               "cb": rng.standard_normal(4),
               "w": rng.standard_normal((3, 4)), "b": rng.standard_normal(3)}
    assert net.grad_check(loss_fn, tensors) < 1e-6


def test_dropout_scales_kept_units_and_masks_gradient():
    rng = np.random.default_rng(0)
    x = np.ones(100_000)
    mask = net.dropout_mask(rng, x.shape, 0.3)
    y = x * mask
    kept = y > 0
    assert np.all(np.isin(np.round(y[kept], 12), np.round(1.0 / 0.7, 12)))
    assert np.mean(kept) == pytest.approx(0.7, abs=0.01)
    assert np.mean(y) == pytest.approx(1.0, abs=0.02)
    grad = net.dropout_backward(mask, np.ones_like(x))
    assert np.array_equal(grad, mask)
    assert net.dropout_backward(None, x) is x


def test_mse_loss_value_and_gradient():
    loss, grad = net.mse_loss(np.ones(40), np.zeros(40))
    assert loss == pytest.approx(1.0)
    assert np.allclose(grad, 2.0 / 40)
    pred = np.array([1.0, -2.0])
    target = np.array([0.5, 0.0])
    loss, grad = net.mse_loss(pred, target)
    assert loss == pytest.approx((0.25 + 4.0) / 2)
    assert np.allclose(grad, (pred - target))  # 2/n with n=2
    with pytest.raises(ValueError):
        net.mse_loss(np.ones(2), np.ones(3))


def test_l2_penalty_value_and_gradient():
    penalty, grads = net.l2_penalty({"w": np.array([[2.0]])}, 1.0)
    assert penalty == pytest.approx(4.0)
    assert grads["w"][0, 0] == pytest.approx(4.0)
    penalty, grads = net.l2_penalty({"w": np.ones((2, 2))}, 0.0)
    assert penalty == 0.0
    assert np.all(grads["w"] == 0.0)
    with pytest.raises(ValueError):
        net.l2_penalty({}, -0.1)


def test_adam_first_step_closed_form():
    param = np.array([1.0, -2.0])
    grad = np.array([0.5, -0.25])
    state = net.AdamState.zeros_like(param)
    net.adam_update(param, grad, state, lr=1e-3)
    m_hat = grad  # bias correction cancels the (1 - beta) factor at t=1
    v_hat = grad * grad
    expected = np.array([1.0, -2.0]) - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(param, expected, atol=1e-15)
    assert state.t == 1


def _reference_adam_update(param, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as the plain out-of-place formula."""
    state.t += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * grad * grad
    m_hat = state.m / (1.0 - beta1 ** state.t)
    v_hat = state.v / (1.0 - beta2 ** state.t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def _assert_close_relative(actual, expected, rtol=1e-12):
    assert np.all(np.abs(actual - expected) <= rtol * np.abs(expected))


def test_in_place_adam_matches_the_formula():
    rng = np.random.default_rng(12)
    param = rng.standard_normal((30, 7))
    reference = param.copy()
    state = net.AdamState.zeros_like(param)
    ref_state = net.AdamState.zeros_like(param)
    m_before = state.m
    for _ in range(5):
        grad = rng.standard_normal(param.shape) * 10.0 ** rng.integers(-6, 3, param.shape)
        net.adam_update(param, grad, state, lr=3e-3)
        _reference_adam_update(reference, grad, ref_state, lr=3e-3)
        _assert_close_relative(param, reference)
        _assert_close_relative(state.m, ref_state.m)
        _assert_close_relative(state.v, ref_state.v)
    assert state.m is m_before and state.t == 5


def test_adam_walks_a_tensor_larger_than_one_block():
    rng = np.random.default_rng(13)
    shape = (7, 3000)  # five rows fill a block; two rows are left
    param = rng.standard_normal(shape)
    reference = param.copy()
    state = net.AdamState.zeros_like(param)
    ref_state = net.AdamState.zeros_like(param)
    for _ in range(3):
        grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
        net.adam_update(param, grad, state, lr=3e-3)
        _reference_adam_update(reference, grad, ref_state, lr=3e-3)
    assert param.size % net.ADAM_BLOCK and param.size > net.ADAM_BLOCK
    _assert_close_relative(param, reference)
    _assert_close_relative(state.m, ref_state.m)
    _assert_close_relative(state.v, ref_state.v)
    assert state.scratch.shape == (5, 3000)


def test_adam_zero_gradient_leaves_parameters_unchanged():
    param = np.array([3.0])
    state = net.AdamState.zeros_like(param)
    net.adam_update(param, np.zeros(1), state)
    assert param[0] == 3.0
    assert state.t == 1


def test_adam_drives_a_quadratic_near_zero():
    param = np.array([3.0, -2.0])
    state = net.AdamState.zeros_like(param)
    for _ in range(200):
        net.adam_update(param, 2.0 * param, state, lr=0.05)
    assert float(np.linalg.norm(param)) < 1e-3


def test_adam_optimizer_rejects_unknown_params():
    adam = net.Adam()
    with pytest.raises(KeyError):
        adam.step({"a": np.zeros(2)}, {"b": np.zeros(2)})


def test_adam_row_steps_match_dense_updates_when_all_rows_move():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((4, 3))
    sparse = dense.copy()
    dense_state = net.AdamState.zeros_like(dense)
    adam = net.Adam(lr=0.01)
    for step in range(5):
        grad = rng.standard_normal((4, 3))
        net.adam_update(dense, grad, dense_state, lr=0.01)
        adam.step_rows("emb", sparse, np.arange(4), grad)
    assert np.allclose(dense, sparse, atol=1e-12)


def test_adam_row_steps_touch_only_given_rows():
    param = np.zeros((3, 2))
    adam = net.Adam(lr=0.1)
    adam.step_rows("emb", param, np.array([1]), np.array([[1.0, -1.0]]))
    assert np.all(param[0] == 0.0) and np.all(param[2] == 0.0)
    assert np.all(param[1] != 0.0)
    before = param.copy()
    adam.step_rows("emb", param, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    assert np.array_equal(param, before)


def test_grad_check_accepts_exact_gradients():
    def loss_fn(tensors):
        w = tensors["w"]
        return float(np.sum(w * w)), {"w": 2.0 * w}

    err = net.grad_check(loss_fn, {"w": np.array([1.0, -2.0, 0.5])})
    assert err < 1e-9


def test_grad_check_requires_every_gradient():
    with pytest.raises(KeyError):
        net.grad_check(lambda t: (0.0, {}), {"w": np.zeros(2)})


def _manifest(tensors) -> bytes:
    return json.dumps({"version": net.CHECKPOINT_VERSION, "meta": {},
                       "tensors": tensors}).encode() + b"\n"


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {"a": rng.standard_normal((3, 4)),
                   "b": rng.standard_normal(7),
                   "scalar": np.array(3.5)}
        meta = {"kind": "test", "note": "x"}
        path = tmp_path / "model.ckpt"
        net.save_checkpoint(path, tensors, meta)
        loaded, loaded_meta = net.load_checkpoint(path)
        assert loaded_meta == meta
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert loaded[name].shape == np.asarray(tensors[name]).shape
            assert np.array_equal(loaded[name], tensors[name])

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        manifest = {"version": 999, "tensors": [], "meta": {}}
        path.write_bytes(json.dumps(manifest).encode() + b"\n")
        with pytest.raises(ValueError, match="version"):
            net.load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        net.save_checkpoint(path, {"a": np.ones(4)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="truncated"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-2, 3], [2.0, 3], 6, "6", [True, 2]],
                             ids=["negative", "float", "int", "string", "bool"])
    def test_rejects_a_manifest_shape_that_is_not_a_list_of_counts(self, tmp_path, shape):
        path = tmp_path / "shape.ckpt"
        net.save_checkpoint(path, {"w": np.ones(6)})
        _, payload = path.read_bytes().split(b"\n", 1)
        manifest = {"version": net.CHECKPOINT_VERSION, "meta": {},
                    "tensors": [{"name": "w", "shape": shape}]}
        path.write_bytes(json.dumps(manifest).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="tensor 'w' has invalid shape"):
            net.load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        path = tmp_path / "extra.ckpt"
        net.save_checkpoint(path, {"a": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            net.load_checkpoint(path)

    @pytest.mark.parametrize("content", [
        _manifest([{"name": "w", "shape": [2 ** 40]}]) + bytes(16),
        _manifest([{"shape": [2]}]) + bytes(16),
        json.dumps([net.CHECKPOINT_VERSION]).encode() + b"\n",
        _manifest(5),
        b'{"version": 1, "tensors": [], "meta": {"x": "\xff"}}\n',
    ], ids=["shape-larger-than-the-file", "entry-without-name", "list-manifest",
            "tensors-not-a-list", "not-utf8"])
    def test_rejects_a_bad_manifest_naming_the_path(self, tmp_path, content):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: ")):
            net.load_checkpoint(path)
