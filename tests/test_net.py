import json
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cb2cf import net
from cb2cf.evaluation import EvalSettings
from cb2cf.model import TrainConfig
from cb2cf.sgns import EmbeddingTable, SgnsConfig, similarity_search
from gradcheck import grad_check, l2_penalty


def test_dense_forward_values_and_shape_checks():
    weight = np.array([[1.0, 2.0], [0.0, -1.0]])
    bias = np.array([0.5, 0.0])
    y, _ = net.dense_forward(np.array([[3.0, 4.0]]), weight, bias)
    assert np.allclose(y, [11.5, -4.0])
    with pytest.raises(ValueError):
        net.dense_forward(np.ones((1, 3)), weight, bias)
    with pytest.raises(ValueError):
        net.dense_forward(np.ones((1, 2)), weight, np.ones(3))
    with pytest.raises(ValueError, match="dense shape mismatch"):  # no batch axis
        net.dense_forward(np.array([3.0, 4.0]), weight, bias)
    _, cache = net.dense_forward(np.ones((3, 2)), weight, bias)
    with pytest.raises(ValueError, match="dense grad shape mismatch"):
        net.dense_backward(cache, np.ones(2))


def test_dense_gradients_against_finite_differences():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((1, 3))
    target = rng.standard_normal((1, 4))

    def loss_fn(tensors):
        y, cache = net.dense_forward(tensors["x"], tensors["w"], tensors["b"])
        loss, grad_y = net.mse_loss(y, target)
        grad_x, grad_w, grad_b = net.dense_backward(cache, grad_y)
        return loss[0], {"x": grad_x, "w": grad_w, "b": grad_b}

    tensors = {"x": x0, "w": rng.standard_normal((4, 3)),
               "b": rng.standard_normal(4)}
    assert grad_check(loss_fn, tensors) < 1e-6


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
    assert grad_check(loss_fn, tensors) < 1e-6
    # A batch row is the one-example layer; parameter gradients add up.
    y, cache = net.dense_forward(tensors["x"], tensors["w"], tensors["b"])
    grad_y = rng.standard_normal((5, 4))
    _, grad_w, grad_b = net.dense_backward(cache, grad_y)
    singles = [net.dense_backward(net.dense_forward(x[None], tensors["w"], tensors["b"])[1],
                                  g[None]) for x, g in zip(tensors["x"], grad_y)]
    assert np.allclose(grad_w, sum(s[1] for s in singles), rtol=0, atol=1e-12)
    assert np.allclose(grad_b, sum(s[2] for s in singles), rtol=0, atol=1e-12)


def test_relu_values_and_subgradient():
    x = np.array([-1.0, 0.0, 2.0])
    y = net.relu_forward(x)
    assert np.array_equal(y, [0.0, 0.0, 2.0])
    grad = net.relu_backward(x, np.array([5.0, 5.0, 5.0]))
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
    pooled, (_, _, best) = net.conv1d_maxpool_forward(matrix, filters, bias, [0, len(matrix)])
    ref_pooled, ref_best = _reference_conv(matrix, filters, bias)
    assert np.allclose(pooled[0], ref_pooled, atol=1e-12)
    assert np.array_equal(best[0], ref_best)


def test_conv_filter_equal_to_window_scores_its_squared_norm():
    matrix = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
    filters = matrix[:2][None, :, :].copy()  # one filter = first window
    pooled, _ = net.conv1d_maxpool_forward(matrix, filters, np.zeros(1), [0, len(matrix)])
    # Window 0 scores 1 + 4 = 5; window 1 scores 0*1 + 0 + 3*0 + 0 = 0.
    assert pooled[0][0] == pytest.approx(5.0)


def test_conv_tie_routes_gradient_to_first_window():
    # All-zero input: every window activation equals the bias, a full tie.
    matrix = np.zeros((6, 3))
    filters = np.ones((2, 2, 3))
    pooled, cache = net.conv1d_maxpool_forward(matrix, filters, np.array([1.0, 2.0]),
                                               [0, len(matrix)])
    assert np.array_equal(pooled[0], [1.0, 2.0])
    grad_matrix, _, grad_bias = net.conv1d_maxpool_backward(cache, np.ones((1, 2)))
    assert np.array_equal(grad_bias, [1.0, 1.0])
    assert np.any(grad_matrix[:2] != 0.0)
    assert np.all(grad_matrix[2:] == 0.0)


def _add_at_input_grad(cache, grad_pooled):
    """One text's conv input gradient as per-window ``np.add.at`` accumulation."""
    matrix, filters, (best,) = cache
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
    _, cache = net.conv1d_maxpool_forward(matrix, filters, rng.standard_normal(24), [0, length])
    grad_pooled = (rng.standard_normal(24) * 10.0 ** rng.integers(-6, 3, 24))[None]
    grad_matrix, grad_filters, grad_bias = net.conv1d_maxpool_backward(cache, grad_pooled)
    assert np.array_equal(grad_matrix, _add_at_input_grad(cache, grad_pooled[0]))
    skipped, same_filters, same_bias = net.conv1d_maxpool_backward(
        cache, grad_pooled, input_grad=False)
    assert skipped is None
    assert np.array_equal(same_filters, grad_filters) and np.array_equal(same_bias, grad_bias)


def test_stacked_conv_is_bit_for_bit_one_call_per_segment():
    rng = np.random.default_rng(11)
    dim, width, text_length = 4, 3, 8
    padding = np.zeros((width, dim))
    segments = [
        rng.standard_normal((text_length, dim)),  # a text at the length cap: no padding
        padding,                                  # no words: one all-padding window
        np.vstack([np.full((4, dim), 5.0), padding]),  # its first two windows tie
        np.vstack([rng.standard_normal((2, dim)), padding]),
    ]
    offsets = np.cumsum([0] + [len(segment) for segment in segments])
    filters = rng.standard_normal((6, width, dim))
    filters[:3] = np.abs(filters[:3])  # these score the tied windows highest
    bias = rng.standard_normal(6)
    pooled, cache = net.conv1d_maxpool_forward(np.vstack(segments), filters, bias, offsets)
    grad_pooled = rng.standard_normal(pooled.shape) * 10.0 ** rng.integers(-6, 3, pooled.shape)
    grad_matrix, grad_filters, grad_bias = net.conv1d_maxpool_backward(cache, grad_pooled)
    best = cache[2]
    assert best[1].tolist() == [offsets[1]] * 6  # the padding window scores the bias
    assert best[2, :3].tolist() == [offsets[2]] * 3  # the first tied window wins

    ref_filters = np.zeros_like(filters)
    for i, segment in enumerate(segments):
        one_pooled, one_cache = net.conv1d_maxpool_forward(segment, filters, bias,
                                                           [0, len(segment)])
        assert pooled[i].tobytes() == one_pooled[0].tobytes()
        assert np.array_equal(best[i], one_cache[2][0] + offsets[i])
        one_matrix, one_filters, one_bias = net.conv1d_maxpool_backward(
            one_cache, grad_pooled[i:i + 1])
        assert grad_matrix[offsets[i]:offsets[i + 1]].tobytes() == one_matrix.tobytes()
        assert one_bias.tobytes() == grad_pooled[i].tobytes()
        ref_filters += one_filters
    assert grad_filters.tobytes() == ref_filters.tobytes()
    assert grad_bias.tobytes() == np.sum(grad_pooled, axis=0).tobytes()

    out = (np.full_like(filters, np.nan), np.full(6, np.nan))
    skipped, into_filters, into_bias = net.conv1d_maxpool_backward(
        cache, grad_pooled, input_grad=False, out=out)
    assert skipped is None and into_filters is out[0] and into_bias is out[1]
    assert into_filters.tobytes() == grad_filters.tobytes()
    assert into_bias.tobytes() == grad_bias.tobytes()


@pytest.mark.parametrize("budget", [1, 72 * 2, 72 * 3])  # 1, 2 and 3 segments of 6 * 3 * 4
def test_a_chunked_input_gradient_scatter_is_the_one_shot_scatter(budget):
    rng = np.random.default_rng(13)
    offsets = np.cumsum([0, 8, 3, 7, 4, 5])
    matrix = rng.standard_normal((offsets[-1], 4))
    matrix[8:11] = 0.0  # a text with no words: one all-padding window
    filters = rng.standard_normal((6, 3, 4))
    pooled, cache = net.conv1d_maxpool_forward(matrix, filters, rng.standard_normal(6), offsets)
    grad_pooled = rng.standard_normal(pooled.shape) * 10.0 ** rng.integers(-6, 3, pooled.shape)
    rows = cache[2][:, :, None] + np.arange(3)
    terms = grad_pooled[:, :, None, None] * filters
    one_shot = net.scatter_rows(rows.reshape(-1), terms.reshape(-1, 4), len(matrix))
    # Runs of whole segments under a budget of terms: segments are disjoint, so
    # any such chunking, the backward's one segment at a time included, keeps the bytes.
    step = max(1, budget // filters.size)
    chunked = np.zeros_like(one_shot)
    for lo in range(0, len(rows), step):
        run = rows[lo:lo + step]
        first, last = int(run.min()), int(run.max()) + 1
        chunked[first:last] = net.scatter_rows(run.reshape(-1) - first,
                                               terms[lo:lo + step].reshape(-1, 4), last - first)
    assert chunked.tobytes() == one_shot.tobytes()
    grad_matrix, _, _ = net.conv1d_maxpool_backward(cache, grad_pooled)
    assert grad_matrix.tobytes() == one_shot.tobytes()


def test_conv_backward_temporaries_hold_about_one_segments_terms():
    rng = np.random.default_rng(17)
    count, width, dim, segments = 50, 3, 16, 64
    matrix = rng.standard_normal((segments * 40, dim)).astype(np.float32)
    filters = rng.standard_normal((count, width, dim)).astype(np.float32)
    pooled, cache = net.conv1d_maxpool_forward(
        matrix, filters, np.zeros(count, np.float32), np.arange(0, len(matrix) + 1, 40))
    grad_pooled = rng.standard_normal(pooled.shape).astype(np.float32)
    out = (np.empty_like(filters), np.empty(count, np.float32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        grad_matrix, _, _ = net.conv1d_maxpool_backward(cache, grad_pooled, out=out)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # One segment's terms as float64: the scatter's cell indices and weights.
    assert peak - grad_matrix.nbytes < 6 * count * width * dim * 8  # 3.8x measured


def test_conv_shape_validation():
    with pytest.raises(ValueError):
        net.conv1d_maxpool_forward(np.zeros((2, 3)), np.zeros((1, 4, 3)),
                                   np.zeros(1), [0, 2])
    with pytest.raises(ValueError):
        net.conv1d_maxpool_forward(np.zeros((4, 3)), np.zeros((1, 2, 2)),
                                   np.zeros(1), [0, 4])
    with pytest.raises(ValueError, match=r"segment lengths \[4, 1\]"):
        net.conv1d_maxpool_forward(np.zeros((5, 2)), np.zeros((1, 2, 2)),
                                   np.zeros(1), np.array([0, 4, 5]))
    _, cache = net.conv1d_maxpool_forward(np.zeros((5, 2)), np.zeros((1, 2, 2)),
                                          np.zeros(1), np.array([0, 2, 5]))
    with pytest.raises(ValueError, match="pooled grad shape"):
        net.conv1d_maxpool_backward(cache, np.zeros(1))


@pytest.mark.parametrize("offsets", [np.array([0, 6]), np.array([0, 3, 9, 13])],
                         ids=["one-text", "three-segments"])
def test_conv_stack_gradients_against_finite_differences(offsets):
    rng = np.random.default_rng(3)
    target = rng.standard_normal((len(offsets) - 1, 3))
    x0 = rng.standard_normal((offsets[-1], 2))

    def loss_fn(tensors):
        pooled, conv_cache = net.conv1d_maxpool_forward(
            tensors["m"], tensors["f"], tensors["cb"], offsets)
        act = net.relu_forward(pooled)
        y, dense_cache = net.dense_forward(act, tensors["w"], tensors["b"])
        loss, grad_y = net.mse_loss(y, target)
        grad_act, grad_w, grad_b = net.dense_backward(dense_cache, grad_y)
        grad_pooled = net.relu_backward(pooled, grad_act)
        grad_m, grad_f, grad_cb = net.conv1d_maxpool_backward(conv_cache,
                                                              grad_pooled)
        return float(np.sum(loss)), {"m": grad_m, "f": grad_f, "cb": grad_cb,
                                     "w": grad_w, "b": grad_b}

    tensors = {"m": x0, "f": rng.standard_normal((4, 3, 2)),
               "cb": rng.standard_normal(4),
               "w": rng.standard_normal((3, 4)), "b": rng.standard_normal(3)}
    assert grad_check(loss_fn, tensors) < 1e-6


def test_layers_keep_float32_inputs_float32_within_rounding_of_float64():
    rng = np.random.default_rng(6)
    tensors = {"x": rng.standard_normal((4, 7)), "w": rng.standard_normal((5, 7)),
               "b": rng.standard_normal(5), "target": rng.standard_normal((4, 5)),
               "m": rng.standard_normal((9, 3)), "f": rng.standard_normal((4, 3, 3)),
               "cb": rng.standard_normal(4), "grad_pooled": rng.standard_normal((2, 4)),
               "uniform": rng.random(50)}

    def layers(t):
        y, dense_cache = net.dense_forward(t["x"], t["w"], t["b"])
        losses, grad_y = net.mse_loss(y, t["target"])
        pooled, conv_cache = net.conv1d_maxpool_forward(t["m"], t["f"], t["cb"],
                                                        np.array([0, 4, 9]))
        return ([y, losses, grad_y, *net.dense_backward(dense_cache, grad_y), pooled,
                 *net.conv1d_maxpool_backward(conv_cache, t["grad_pooled"]),
                 net.dropout_mask(t["uniform"], 0.3, t["x"].dtype)], conv_cache[2])

    single, single_best = layers({k: v.astype(np.float32) for k, v in tensors.items()})
    double, double_best = layers(tensors)
    assert np.array_equal(single_best, double_best)
    for i, (a, b) in enumerate(zip(single, double)):
        assert a.dtype == np.float32 and b.dtype == np.float64, i
        # Measured over 50 such draws: at most 5.4e-6 apart.
        assert np.allclose(a, b, rtol=1e-5, atol=1e-5), i


def test_dropout_mask_scales_kept_units():
    rng = np.random.default_rng(0)
    x = np.ones(100_000)
    mask = net.dropout_mask(rng.random(x.shape), 0.3)
    y = x * mask
    kept = y > 0
    assert np.all(np.isin(np.round(y[kept], 12), np.round(1.0 / 0.7, 12)))
    assert np.mean(kept) == pytest.approx(0.7, abs=0.01)
    assert np.mean(y) == pytest.approx(1.0, abs=0.02)


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
    penalty, grads = l2_penalty({"w": np.array([[2.0]])}, 1.0)
    assert penalty == pytest.approx(4.0)
    assert grads["w"][0, 0] == pytest.approx(4.0)
    penalty, grads = l2_penalty({"w": np.ones((2, 2))}, 0.0)
    assert penalty == 0.0
    assert np.all(grads["w"] == 0.0)
    with pytest.raises(ValueError):
        l2_penalty({}, -0.1)


def test_adam_first_step_closed_form():
    param = np.array([1.0, -2.0])
    grad = np.array([0.5, -0.25])
    adam = net.Adam(lr=1e-3)
    adam.step(param, grad)
    m_hat = grad  # bias correction cancels the (1 - beta) factor at t=1
    v_hat = grad * grad
    expected = np.array([1.0, -2.0]) - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert np.allclose(param, expected, atol=1e-15)
    assert adam.t == 1


def _zero_state(param):
    """The moments and step count of ``_reference_adam_update``, before any step."""
    return SimpleNamespace(m=np.zeros_like(param), v=np.zeros_like(param), t=0)


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
    adam = net.Adam(lr=3e-3)
    ref_state = _zero_state(param)
    moments = []
    for _ in range(5):
        grad = rng.standard_normal(param.shape) * 10.0 ** rng.integers(-6, 3, param.shape)
        adam.step(param, grad)
        _reference_adam_update(reference, grad, ref_state, lr=3e-3)
        _assert_close_relative(param, reference)
        _assert_close_relative(adam.m, ref_state.m)
        _assert_close_relative(adam.v, ref_state.v)
        moments.append(adam.m)
    assert all(m is moments[0] for m in moments) and adam.t == 5


def test_adam_walks_a_tensor_larger_than_one_block():
    rng = np.random.default_rng(13)
    per_block = net.ADAM_BLOCK // 8  # float64 elements per block
    shape = (7, per_block * 2 // 11)  # five rows fill a block; two rows are left
    param = rng.standard_normal(shape)
    reference = param.copy()
    adam = net.Adam(lr=3e-3)
    ref_state = _zero_state(param)
    for _ in range(3):
        grad = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3, shape)
        adam.step(param, grad)
        _reference_adam_update(reference, grad, ref_state, lr=3e-3)
    assert param.size % per_block and param.size > per_block
    _assert_close_relative(param, reference)
    _assert_close_relative(adam.m, ref_state.m)
    _assert_close_relative(adam.v, ref_state.v)
    assert adam.scratch.shape == (5, shape[1])


def _full_system_shapes(word_dim):
    """The bench crossval full system's parameter shapes (CNN+BOW+Tags+Year over
    ``word_dim``-dim words, 32 there, and 250 centroids), in ``parameter_shapes`` order."""
    return [(300, 3, word_dim), (300,), (256, 300), (256,), (256, 250), (256,), (256, 256),
            (256,), (100, 3), (100,), (100, 3), (100,), (40, 3), (40,), (20, 2), (20,),
            (8, 1), (8,), (256, 780), (256,), (40, 256), (40,)]


def test_one_step_over_the_flat_vector_is_bit_for_bit_one_step_per_tensor():
    rng = np.random.default_rng(14)
    per_block = net.ADAM_BLOCK // 8  # float64 elements per block
    # The word dim that makes the (300, 3, dim) filters fill 1.75 blocks, rounded
    # up: 32, the bench's own, at 16,384 elements a block.
    tensors = [rng.standard_normal(shape)
               for shape in _full_system_shapes(-(-7 * per_block // (4 * 900)))]
    ends = np.cumsum([t.size for t in tensors])
    # The first tensor outgrows a block, and the second block ends it, holds
    # all of the next one and starts the third.
    assert per_block < ends[0] < ends[1] < 2 * per_block < ends[2]

    def packed(arrays):
        return np.concatenate([a.ravel() for a in arrays])

    flat = packed(tensors)
    per_tensor = [net.Adam(lr=3e-3) for _ in tensors]
    adam = net.Adam(lr=3e-3)
    for _ in range(6):
        grads = [rng.standard_normal(t.shape) * 10.0 ** rng.integers(-6, 3, t.shape)
                 for t in tensors]
        for tensor, grad, one in zip(tensors, grads, per_tensor):
            one.step(tensor, grad)
        adam.step(flat, packed(grads))
    assert flat.tobytes() == packed(tensors).tobytes()
    assert adam.m.tobytes() == packed(one.m for one in per_tensor).tobytes()
    assert adam.v.tobytes() == packed(one.v for one in per_tensor).tobytes()
    assert adam.t == 6


def test_adam_zero_gradient_leaves_parameters_unchanged():
    param = np.array([3.0])
    adam = net.Adam()
    adam.step(param, np.zeros(1))
    assert param[0] == 3.0
    assert adam.t == 1


def test_adam_drives_a_quadratic_near_zero():
    param = np.array([3.0, -2.0])
    adam = net.Adam(lr=0.05)
    for _ in range(200):
        adam.step(param, 2.0 * param)
    assert float(np.linalg.norm(param)) < 1e-3


def test_adam_step_rejects_a_gradient_of_another_shape():
    adam = net.Adam()
    with pytest.raises(ValueError, match="shape mismatch"):
        adam.step(np.zeros(3), np.zeros(2))


def test_adam_row_steps_match_dense_updates_when_all_rows_move():
    rng = np.random.default_rng(6)
    dense = rng.standard_normal((4, 3))
    sparse = dense.copy()
    dense_adam = net.Adam(lr=0.01)
    adam = net.Adam(lr=0.01)
    for step in range(5):
        grad = rng.standard_normal((4, 3))
        dense_adam.step(dense, grad)
        adam.step_rows(sparse, np.arange(4), grad)
    assert np.array_equal(dense, sparse)
    assert np.array_equal(adam.row_m, dense_adam.m)
    assert np.array_equal(adam.row_v, dense_adam.v)
    assert np.array_equal(adam.row_t, np.full(4, 5))


def test_adam_rows_at_staggered_steps_match_the_formula_per_row():
    rng = np.random.default_rng(14)
    param = rng.standard_normal((6, 3))
    references = [param[r].copy() for r in range(6)]
    ref_states = [_zero_state(param[r]) for r in range(6)]
    # The moments of the per-row textbook formula, updated on the touched rows.
    m, v = np.zeros_like(param), np.zeros_like(param)
    adam = net.Adam(lr=3e-3)
    for _ in range(12):
        rows = np.flatnonzero(rng.random(6) < 0.5)
        grads = rng.standard_normal((len(rows), 3)) * 10.0 ** rng.integers(-6, 3, (len(rows), 3))
        adam.step_rows(param, rows, grads)
        m[rows] = 0.9 * m[rows] + (1.0 - 0.9) * grads
        v[rows] = 0.999 * v[rows] + (1.0 - 0.999) * grads * grads
        for row, grad in zip(rows, grads):
            _reference_adam_update(references[row], grad, ref_states[row], lr=3e-3)
    assert len(set(adam.row_t.tolist())) > 3  # the rows really are at different steps
    assert adam.row_t.tolist() == [s.t for s in ref_states]
    _assert_close_relative(param, np.array(references))
    assert np.array_equal(adam.row_m, m) and np.array_equal(adam.row_v, v)


def test_the_row_rate_table_is_the_scalar_formula_and_grows_past_its_end():
    param, adam = np.zeros((3, 2)), net.Adam(lr=3e-3)
    adam.step_rows(param, np.arange(3), np.ones((3, 2)))
    size = len(adam.row_rates)
    for _ in range(size):  # row 1 steps one past the table's end
        adam.step_rows(param, np.array([1]), np.ones((1, 2)))
    assert adam.row_t.tolist() == [1, size + 1, 1] and len(adam.row_rates) > size + 1
    want = [net._adam_rates(3e-3, t) for t in range(1, len(adam.row_rates) + 1)]
    assert adam.row_rates.tobytes() == np.array(want).tobytes()


def test_adam_row_steps_touch_only_given_rows():
    param = np.zeros((3, 2))
    adam = net.Adam(lr=0.1)
    adam.step_rows(param, np.array([1]), np.array([[1.0, -1.0]]))
    assert np.all(param[0] == 0.0) and np.all(param[2] == 0.0)
    assert np.all(param[1] != 0.0)
    before = param.copy()
    adam.step_rows(param, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    assert np.array_equal(param, before)


def test_grad_check_accepts_exact_gradients():
    def loss_fn(tensors):
        w = tensors["w"]
        return float(np.sum(w * w)), {"w": 2.0 * w}

    err = grad_check(loss_fn, {"w": np.array([1.0, -2.0, 0.5])})
    assert err < 1e-9


def test_grad_check_requires_every_gradient():
    with pytest.raises(KeyError):
        grad_check(lambda t: (0.0, {}), {"w": np.zeros(2)})


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

    def test_a_read_that_ends_early_names_the_path(self, tmp_path, monkeypatch):
        # The size check passes, then the file is shorter than it said.
        path = tmp_path / "shrunk.ckpt"
        net.save_checkpoint(path, {"a": np.ones(2), "b": np.ones(3)})
        size = path.stat().st_size
        path.write_bytes(path.read_bytes()[:-8])
        real_fstat = os.fstat
        monkeypatch.setattr(net.os, "fstat", lambda fd: os.stat_result(
            real_fstat(fd)[:6] + (size,) + real_fstat(fd)[7:]))
        with pytest.raises(ValueError, match=re.escape(f"checkpoint {path}: truncated: "
                                                       "tensor 'b'")):
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


# A count's field -> a call that checks it.
_COUNT_CHECKS = {
    "batch_size": lambda v: TrainConfig(batch_size=v),
    "max_epochs": lambda v: TrainConfig(max_epochs=v),
    "patience": lambda v: TrainConfig(patience=v),
    **{name: lambda v, name=name: SgnsConfig(**{name: v})
       for name in ("dim", "epochs", "negatives", "window")},
    "folds": lambda v: EvalSettings(TrainConfig(), folds=v),
    "topk": lambda v: similarity_search(np.ones(2), EmbeddingTable(["a", "b"], np.eye(2)), v),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True)], ids=repr)
@pytest.mark.parametrize("field", _COUNT_CHECKS)
def test_counts_refuse_floats_and_bools(field, value):
    message = f"{field} must be an integer, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _COUNT_CHECKS[field](value)
    _COUNT_CHECKS[field](np.int64(2))  # NumPy integers stay counts
