import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairprep.mlcore import (
    LinearModel,
    Mlp,
    SingularSystemError,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    adam_init,
    adam_step,
    auc,
    derive_rng,
    fit_linear,
    fit_logistic,
    mlp_backward,
    mlp_forward,
    mlp_init,
    predict,
    r_squared,
    sigmoid,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
    squared_error,
    _col_sum,
    _row_max,
    _row_sum,
)

import oracles


# ---------------------------------------------------------------------------
# rng


def test_derive_rng_reproducible_and_label_separated():
    a = derive_rng(7, "x").standard_normal(5)
    b = derive_rng(7, "x").standard_normal(5)
    c = derive_rng(7, "y").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# forward pass


def test_mlp_init_shapes_and_param_count():
    net = mlp_init([3, 1], rng=derive_rng(0, "t"))
    assert net.weights[0].shape == (3, 1) and net.biases[0].shape == (1,)
    net = mlp_init([4, 8, 2], rng=derive_rng(0, "t"))
    assert net.params.size == 4 * 8 + 8 + 8 * 2 + 2  # 58
    # one vector in layer order; weights and biases are views into it
    layout = [net.weights[0], net.biases[0], net.weights[1], net.biases[1]]
    assert np.array_equal(net.params, np.concatenate([a.ravel() for a in layout]))
    net.params[:] = np.arange(58.0)
    assert net.weights[1][0, 0] == 40.0 and net.biases[1][1] == 57.0


def test_mlp_rejects_arrays_that_do_not_fit_its_dims():
    w0, b0, w1, b1 = np.ones((4, 8)), np.zeros(8), np.ones((8, 2)), np.zeros(2)
    with pytest.raises(ValueError, match=r"biases\[0\] has shape \(1,\)"):
        Mlp((4, 8, 2), [w0, w1], [np.array([0.5]), b1])
    with pytest.raises(ValueError, match=r"weights\[1\] has shape \(2, 8\)"):
        Mlp((4, 8, 2), [w0, w1.T], [b0, b1])
    with pytest.raises(ValueError, match="need 2 weight and bias arrays"):
        Mlp((4, 8, 2), [w0], [b0])


def test_mlp_init_same_seed_identical():
    a = mlp_init([4, 5, 2], rng=derive_rng(3, "init"))
    b = mlp_init([4, 5, 2], rng=derive_rng(3, "init"))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_mlp_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        mlp_init([4])
    with pytest.raises(ValueError):
        mlp_init([4, 0])


def test_forward_single_identity_layer_is_affine():
    net = mlp_init([2, 3], rng=derive_rng(1, "t"))
    X = derive_rng(2, "t").standard_normal((5, 2))
    _, out = mlp_forward(net, X)
    assert np.allclose(out, X @ net.weights[0] + net.biases[0])


def test_forward_matches_hand_computation():
    rng = derive_rng(5, "hand")
    net = mlp_init([3, 4, 2], rng=rng)
    X = rng.standard_normal((3, 3))
    _, out = mlp_forward(net, X)
    # independent re-derivation with explicit numpy ops
    hidden = np.tanh(X @ net.weights[0] + net.biases[0])
    expected = hidden @ net.weights[1] + net.biases[1]
    assert np.allclose(out, expected, atol=1e-12)


def test_forward_cache_keeps_one_array_per_tanh_layer():
    net = mlp_init([3, 4, 5, 2], rng=derive_rng(6, "cache"))
    X = derive_rng(7, "cache").standard_normal((6, 3))
    cache, out = mlp_forward(net, X)
    # the input, each hidden layer's tanh and the output; no pre-activation is kept
    assert isinstance(cache, list) and len(cache) == 4
    assert cache[0] is X and cache[3] is out
    assert np.array_equal(cache[1], np.tanh(X @ net.weights[0] + net.biases[0]))
    assert np.array_equal(cache[2], np.tanh(cache[1] @ net.weights[1] + net.biases[1]))


def test_forward_rejects_bad_input():
    net = mlp_init([3, 2], rng=derive_rng(0, "t"))
    with pytest.raises(ValueError):
        mlp_forward(net, np.ones((2, 4)))
    with pytest.raises(ValueError):
        mlp_forward(net, np.array([[1.0, 2.0, float("inf")]]))


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 12),
    n=st.integers(1, 40),
    log_scale=st.floats(-8, 8),
    seed=st.integers(0, 2**32 - 1),
    signed_zeros=st.booleans(),
    column_slice=st.booleans(),
)
def test_property_row_reductions_and_softmax_gradient_are_bit_exact(
    k, n, log_scale, seed, signed_zeros, column_slice
):
    rng = derive_rng(seed, "row-reductions")
    wide = rng.standard_normal((n, k + 2)) * 10.0**log_scale
    if signed_zeros:
        wide[rng.random(wide.shape) < 0.3] = 0.0
        wide[rng.random(wide.shape) < 0.3] = -0.0
    # a column slice is a strided view, as when a loss takes one head's logits
    z = wide[:, 1 : k + 1] if column_slice else np.ascontiguousarray(wide[:, :k])
    onehot = np.eye(k)[rng.integers(0, k, n)]

    def bits(a):
        return a.view(np.int64)

    assert np.array_equal(bits(_row_max(z)), bits(z.max(axis=1, keepdims=True)))
    assert np.array_equal(bits(_row_sum(z)), bits(z.sum(axis=1, keepdims=True)))
    _, grad = softmax_cross_entropy(z, onehot)
    assert np.array_equal(bits((oracles.softmax(z) - onehot) / n), bits(grad))


# widths 2 and 7 sum rows column by column, 8 and 12 with numpy's pairwise axis=1 sum
# (_NARROW_ROW is 8); each is the first head of one pair and the second of another
@pytest.mark.parametrize("widths", [(2, 7), (7, 8), (8, 12), (12, 2)], ids=str)
def test_softmax_gradient_alone_is_the_fused_gradient_bit_for_bit(widths):
    rng = derive_rng(sum(widths), "softmax-grad")
    n, k = 37, sum(widths)
    logits = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    logits[rng.random(logits.shape) < 0.1] = -0.0
    onehot = np.hstack([np.eye(w)[rng.integers(0, w, n)] for w in widths])
    # two heads written as column-slice views of one gradient array, as the adversary phase does
    grad = np.full_like(logits, np.nan)
    heads = [slice(0, widths[0]), slice(widths[0], k)]
    for cols in heads:
        softmax_cross_entropy_grad(logits[:, cols], onehot[:, cols], grad[:, cols])
    for cols in heads:
        _, want = softmax_cross_entropy(logits[:, cols], onehot[:, cols])
        assert np.array_equal(grad[:, cols].view(np.int64), want.view(np.int64))
        reference = (oracles.softmax(logits[:, cols]) - onehot[:, cols]) / n
        assert np.array_equal(want.view(np.int64), reference.view(np.int64))
        # and on a contiguous copy of the head, into a contiguous array
        z = np.ascontiguousarray(logits[:, cols])
        alone = np.empty_like(z)
        softmax_cross_entropy_grad(z, onehot[:, cols], alone)
        assert np.array_equal(alone.view(np.int64), want.view(np.int64))


# signed zeros, subnormals, the smallest normal, infinities, NaNs and magnitudes near the top
COL_SUM_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                 math.inf, -math.inf, math.nan, -math.nan, 1e300, -1e300, 1.0, -1.0]


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 40),
    n=st.integers(1, 5000),
    layout=st.sampled_from(["C", "F", "row-strided", "column-sliced"]),
    log_scale=st.floats(-300, 300),
    edge_share=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
# numpy sums one column, or an F-ordered array, pairwise: einsum's running sum gives other bits
@example(k=1, n=4096, layout="C", log_scale=0.0, edge_share=0.0, seed=0)
@example(k=16, n=4096, layout="F", log_scale=0.0, edge_share=0.0, seed=0)
# NaNs of both signs: einsum and numpy keep different ones
@example(k=8, n=13, layout="C", log_scale=0.0, edge_share=0.3, seed=0)
def test_property_col_sum_matches_numpy_sum_bit_for_bit(k, n, layout, log_scale, edge_share, seed):
    rng = derive_rng(seed, "col-sum")
    x = rng.standard_normal((n, k)) * 10.0**log_scale
    edges = rng.random(x.shape) < edge_share
    x[edges] = rng.choice(COL_SUM_EDGES, size=int(edges.sum()))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "row-strided":
        x = np.repeat(x, 2, axis=0)[::2]
    elif layout == "column-sliced":
        x = np.hstack([x, x])[:, 1 : k + 1]
    assert np.array_equal(_col_sum(x).view(np.int64), x.sum(axis=0).view(np.int64))


def test_sigmoid_extreme_inputs_stay_in_bounds():
    out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert 0.0 <= out[0] < 1e-12 and out[1] == 0.5 and 1.0 - 1e-12 < out[2] <= 1.0


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# signed zeros and NaNs, infinities, subnormals, the smallest normal, and |z| past
# 745, where exp(-|z|) underflows to 0
SIGMOID_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                 2.2250738585072014e-308, -2.2250738585072014e-308, 1e-310, -1e-310,
                 745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e300, -1e300, 36.7, -36.7]


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.one_of(st.sampled_from(SIGMOID_EDGES), st.floats()), max_size=64),
    as_column=st.booleans(),
)
def test_property_sigmoid_matches_the_masked_reference_bit_for_bit(values, as_column):
    z = np.array(values, dtype=float)
    if as_column:
        z = z.reshape(-1, 1)
    got, want = sigmoid(z), oracles.reference_sigmoid(z)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def test_sigmoid_edge_values_match_the_reference_bit_for_bit():
    z = np.array(SIGMOID_EDGES)
    assert np.array_equal(_bits(sigmoid(z)), _bits(oracles.reference_sigmoid(z)))
    # a 0-d input gives a 0-d array, as the reference does
    for v in SIGMOID_EDGES:
        got = sigmoid(v)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert _bits(got) == _bits(oracles.reference_sigmoid(v))


# ---------------------------------------------------------------------------
# backward pass


def _loss_fn(kind, target):
    if kind == "squared":
        return lambda out: squared_error(out, target)[0]
    return lambda out: softmax_cross_entropy(out, target)[0]


def test_backward_finite_difference_5_7_3():
    rng = derive_rng(11, "fd")
    net = mlp_init([5, 7, 3], rng=rng)
    X = rng.standard_normal((6, 5))
    Y = np.zeros((6, 3))
    Y[np.arange(6), rng.integers(3, size=6)] = 1.0
    cache, out = mlp_forward(net, X)
    _, grad = softmax_cross_entropy(out, Y)
    analytic, _ = mlp_backward(net, cache, grad)
    numeric = oracles.finite_diff_param_grads(net, X, _loss_fn("softmax", Y))
    assert oracles.max_relative_error(analytic, numeric) <= 1e-4


def test_backward_zero_gradient_propagates_zero():
    net = mlp_init([4, 3, 2], rng=derive_rng(12, "t"))
    X = derive_rng(13, "t").standard_normal((5, 4))
    cache, out = mlp_forward(net, X)
    grads, input_grad = mlp_backward(net, cache, np.zeros_like(out))
    assert all(np.all(dw == 0) and np.all(db == 0) for dw, db in grads)
    assert np.all(input_grad == 0)


def test_backward_single_linear_layer_closed_form():
    rng = derive_rng(14, "t")
    net = mlp_init([3, 1], rng=rng)
    X = rng.standard_normal((8, 3))
    y = rng.standard_normal((8, 1))
    cache, out = mlp_forward(net, X)
    _, grad = squared_error(out, y)
    grads, _ = mlp_backward(net, cache, grad)
    expected = X.T @ (out - y) * (2.0 / 8)
    assert np.allclose(grads[0][0], expected, atol=1e-12)


def test_backward_rejects_mismatched_cache():
    net = mlp_init([3, 2], rng=derive_rng(0, "t"))
    cache, out = mlp_forward(net, np.ones((2, 3)))
    with pytest.raises(ValueError):
        mlp_backward(net, cache, np.ones((3, 2)))


def test_backward_input_gradient_checks_numerically():
    rng = derive_rng(15, "ig")
    net = mlp_init([4, 6, 2], rng=rng)
    X = rng.standard_normal((3, 4))
    y = np.eye(2)[rng.integers(0, 2, size=3)]
    cache, out = mlp_forward(net, X)
    _, grad = softmax_cross_entropy(out, y)
    _, input_grad = mlp_backward(net, cache, grad)
    step = 1e-6
    i, j = 1, 2
    Xp = X.copy(); Xp[i, j] += step
    Xm = X.copy(); Xm[i, j] -= step
    lp = softmax_cross_entropy(mlp_forward(net, Xp)[1], y)[0]
    lm = softmax_cross_entropy(mlp_forward(net, Xm)[1], y)[0]
    fd = (lp - lm) / (2 * step)
    assert input_grad[i, j] == pytest.approx(fd, rel=1e-4)


def test_backward_without_input_gradient_gives_the_same_parameter_gradients():
    rng = derive_rng(18, "no-input-grad")
    for dims in ([5, 7, 3], [4, 6, 5, 2], [3, 2]):
        net = mlp_init(dims, rng=rng)
        cache, out = mlp_forward(net, rng.standard_normal((9, dims[0])))
        grad = rng.standard_normal(out.shape)
        full, input_grad = mlp_backward(net, cache, grad)
        lean, none = mlp_backward(net, cache, grad, input_grad=False)
        assert input_grad.shape == (9, dims[0]) and none is None
        for (dw, db), (lw, lb) in zip(full, lean):
            assert np.array_equal(dw, lw) and np.array_equal(db, lb)


def test_backward_without_parameter_gradients_gives_the_same_input_gradient_bits():
    rng = derive_rng(19, "no-param-grads")
    for dims in ([5, 7, 3], [4, 6, 5, 2], [3, 2], [6, 16, 2]):
        net = mlp_init(dims, rng=rng)
        cache, out = mlp_forward(net, rng.standard_normal((33, dims[0])))
        grad = rng.standard_normal(out.shape)
        _, full = mlp_backward(net, cache, grad)
        none, lean = mlp_backward(net, cache, grad, param_grads=False)
        assert none is None
        assert np.array_equal(full.view(np.int64), lean.view(np.int64))


def test_adam_reduces_loss():
    rng = derive_rng(16, "opt")
    X = rng.standard_normal((32, 4))
    y = np.eye(2)[(X[:, 0] > 0).astype(int)]
    net = mlp_init([4, 8, 2], rng=derive_rng(17, "opt"))
    state = adam_init(net)
    losses = []
    for _ in range(60):
        cache, out = mlp_forward(net, X)
        loss, grad = softmax_cross_entropy(out, y)
        losses.append(loss)
        grads, _ = mlp_backward(net, cache, grad)
        adam_step(net, grads, state, 0.01)
    assert losses[-1] < losses[0] * 0.8


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    log_scales=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_property_flat_adam_matches_the_per_tensor_reference_bit_for_bit(dims, log_scales, seed):
    rng = derive_rng(seed, "adam-property")
    net = mlp_init(dims, rng=rng)
    ref = Mlp(net.dims, net.weights, net.biases)
    state, ref_state = adam_init(net), oracles.reference_adam_init(ref)
    for log_scale in log_scales:  # one step per gradient scale, from 1e-8 to 1e8
        grads = [(10.0 ** log_scale * rng.standard_normal(w.shape),
                  10.0 ** log_scale * rng.standard_normal(b.shape))
                 for w, b in zip(net.weights, net.biases)]
        adam_step(net, grads, state, 0.01)
        oracles.reference_adam_step(ref, grads, ref_state, 0.01)
        assert np.array_equal(net.params, ref.params)
        flat_moments = [np.concatenate([a.ravel() for pair in moments for a in pair])
                        for moments in (ref_state["m"], ref_state["v"])]
        assert np.array_equal(state.m, flat_moments[0]) and np.array_equal(state.v, flat_moments[1])


# ---------------------------------------------------------------------------
# logistic regression


def test_logistic_separable_reaches_perfect_accuracy():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = fit_logistic(X, y, TrainConfig(learning_rate=0.5, epochs=400, l2=0.0))
    assert accuracy(predict(model, X), y) == 1.0


def test_logistic_matches_irls_oracle():
    rng = derive_rng(20, "irls")
    X = rng.standard_normal((50, 2))
    logits = 1.2 * X[:, 0] - 0.7 * X[:, 1] + 0.3
    y = (rng.random(50) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    l2 = 1e-2
    cfg = TrainConfig(learning_rate=1.0, epochs=20_000, l2=l2)
    model = fit_logistic(X, y, cfg)
    w_ref, b_ref = oracles.irls_logistic(X, y, l2)
    dist = math.hypot(*(model.weights - w_ref)) + abs(model.intercept - b_ref)
    assert dist <= 1e-3


def test_logistic_loss_non_increasing_at_small_lr():
    rng = derive_rng(21, "mono")
    X = rng.standard_normal((40, 3))
    y = (rng.random(40) < 0.5).astype(float)
    cfg = TrainConfig(learning_rate=1e-3, epochs=300)
    # fit_logistic forms no loss; the reference records one per epoch of the same fit
    w_ref, b_ref, history_ref = oracles.reference_fit_logistic(X, y, cfg)
    assert np.all(np.diff(history_ref) <= 1e-12)
    model = fit_logistic(X, y, cfg)
    assert np.array_equal(_bits(model.weights), _bits(w_ref))
    assert _bits(model.intercept) == _bits(b_ref)


def test_logistic_rejects_single_class_and_bad_labels():
    X = np.ones((4, 1))
    with pytest.raises(ValueError, match="single-class"):
        fit_logistic(X, np.zeros(4), TrainConfig())
    with pytest.raises(ValueError, match="0/1"):
        fit_logistic(X, np.array([0.0, 1.0, 2.0, 1.0]), TrainConfig())


def test_logistic_divergence_reports_epoch():
    X = np.array([[1e3], [-1e3], [1e3], [-1e3]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError) as err:
        fit_logistic(X, y, TrainConfig(learning_rate=1e150, epochs=50, l2=1.0))
    assert err.value.epoch >= 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 5),
    log_scale=st.floats(-2, 3),
    log_lr=st.floats(-3, 2),
    l2=st.sampled_from([0.0, 1e-4, 0.1]),
    epochs=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_logistic_fit_matches_the_two_log_reference_bit_for_bit(
    n, d, log_scale, log_lr, l2, epochs, seed
):
    rng = derive_rng(seed, "logistic-oracle")
    X = rng.standard_normal((n, d)) * 10.0**log_scale
    y = (rng.random(n) < 0.5).astype(float)
    y[:2] = 0.0, 1.0  # both classes present
    cfg = TrainConfig(learning_rate=10.0**log_lr, epochs=epochs, l2=l2)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            w_ref, b_ref, _ = oracles.reference_fit_logistic(X, y, cfg)
        except TrainingDivergedError as ref_err:
            with pytest.raises(TrainingDivergedError) as err:
                fit_logistic(X, y, cfg)
            assert err.value.epoch == ref_err.epoch
            return
        model = fit_logistic(X, y, cfg)
    assert np.array_equal(_bits(model.weights), _bits(w_ref))
    assert _bits(model.intercept) == _bits(b_ref)


def test_logistic_divergence_epoch_matches_the_reference():
    X = np.array([[1e3], [-1e3], [1e3], [-1e3]])
    y = np.array([1.0, 0.0, 1.0, 0.0])
    cfg = TrainConfig(learning_rate=1e150, epochs=50, l2=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as want:
            oracles.reference_fit_logistic(X, y, cfg)
        with pytest.raises(TrainingDivergedError) as got:
            fit_logistic(X, y, cfg)
    assert got.value.epoch == want.value.epoch == 2


def _diverges_at(fit, X, y, cfg):
    """The epoch `fit` raises TrainingDivergedError at, or None with the (weights, intercept) it returns."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = fit(X, y, cfg)
        except TrainingDivergedError as err:
            return err.epoch, None
    return None, out


# Each case is a way for the loss to stop being finite, or for a term of it to turn
# infinite while the loss stays finite: fit_logistic reads divergence from the
# intercept gradient and the penalty, and must raise exactly where the loss would.
_DIVERGENCE_CASES = {
    # a NaN estimate while the penalty stays finite: a NaN cell, or an infinite cell
    # times a zero weight, makes the estimate of its row NaN at epoch 0
    "nan-cell": ([[1.0], [math.nan], [2.0]], [0.0, 1.0, 1.0], TrainConfig(epochs=5), 0),
    "inf-cell-times-zero": ([[1.0, math.inf], [2.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 1.0],
                            TrainConfig(epochs=5, l2=0.0), 0),
    # l2 > 0 and w still finite, but l2*||w||^2 overflows; every estimate is 0 or 1
    "penalty-overflow": ([[1e3], [-1e3], [1e3], [-1e3]], [1.0, 0.0, 1.0, 0.0],
                         TrainConfig(learning_rate=1e150, epochs=50, l2=1.0), 2),
    # l2 = 0 with an infinite weight: the penalty is 0 * inf = NaN, the estimates all 1
    "zero-l2-infinite-weight": ([[1e10], [2e10]], [0.0, 1.0],
                                TrainConfig(learning_rate=1e300, epochs=5, l2=0.0), 1),
    # the intercept reaches +inf with every weight finite: each estimate is 1 and its
    # clipped log-likelihood finite, so the loss stays finite and neither side raises
    "infinite-intercept": ([[0.0, 2.0], [1.0, 1.0], [-1.0, 1.0]], [0.0, 1.0, 1.0],
                           TrainConfig(learning_rate=1.7e308, epochs=7, l2=0.0), None),
}


@pytest.mark.parametrize("case", _DIVERGENCE_CASES, ids=str)
def test_logistic_divergence_rule_matches_the_reference_loss(case):
    X, y, cfg, epoch = _DIVERGENCE_CASES[case]
    X, y = np.array(X), np.array(y)
    want, ref = _diverges_at(oracles.reference_fit_logistic, X, y, cfg)
    got, model = _diverges_at(fit_logistic, X, y, cfg)
    assert got == want == epoch
    if epoch is None:
        assert model.intercept == math.inf and np.isfinite(model.weights).all()
        assert np.array_equal(_bits(model.weights), _bits(ref[0]))
        return
    # the state the raising epoch starts from has one cause only: a NaN estimate or the penalty
    start = LinearModel(np.zeros(X.shape[1]), 0.0, "logistic")
    if epoch:
        start = _diverges_at(fit_logistic, X, y, replace(cfg, epochs=epoch))[1]
    with np.errstate(over="ignore", invalid="ignore"):
        nan_estimate = np.isnan(predict(start, X)).any()
        assert nan_estimate == math.isfinite(cfg.l2 * start.weights @ start.weights)


def test_logistic_deterministic():
    rng = derive_rng(22, "det")
    X = rng.standard_normal((30, 3))
    y = (rng.random(30) < 0.5).astype(float)
    cfg = TrainConfig(learning_rate=0.1, epochs=200)
    m1 = fit_logistic(X, y, cfg)
    m2 = fit_logistic(X, y, cfg)
    assert np.array_equal(m1.weights, m2.weights) and m1.intercept == m2.intercept


@pytest.mark.parametrize("field, value", [
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
    ("l2", math.nan), ("l2", math.inf), ("l2", -1e-4),
    # an int past the float range: below inf, but training's float arithmetic overflows on it
    pytest.param("learning_rate", 10**400, id="learning_rate-huge-int"),
    pytest.param("l2", 10**400, id="l2-huge-int"),
    # a value of the wrong type
    ("learning_rate", "x"), ("learning_rate", True), ("l2", None), ("epochs", True), ("epochs", 2.0),
])
def test_train_config_rejects_non_finite_and_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


# ---------------------------------------------------------------------------
# linear / ridge regression


def test_linear_exact_line():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] + 1.0
    model = fit_linear(X, y, 0.0)
    assert model.weights[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(1.0, abs=1e-9)


def test_ridge_large_lambda_shrinks_to_mean():
    rng = derive_rng(23, "ridge")
    X = rng.standard_normal((30, 2))
    y = X @ np.array([1.0, -2.0]) + 0.5
    model = fit_linear(X, y, 1e12)
    assert np.allclose(model.weights, 0.0, atol=1e-6)
    assert model.intercept == pytest.approx(float(y.mean()), abs=1e-6)


def test_ridge_matches_gradient_descent_oracle():
    rng = derive_rng(24, "gd")
    X = rng.standard_normal((20, 3))
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.3 + 0.1 * rng.standard_normal(20)
    model = fit_linear(X, y, 0.1)
    w_ref, b_ref = oracles.gd_ridge(X, y, 0.1)
    dist = float(np.linalg.norm(model.weights - w_ref)) + abs(model.intercept - b_ref)
    assert dist <= 1e-6


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, pytest.param(10**400, id="huge-int"),
                                 pytest.param(True, id="bool"), pytest.param("x", id="string")])
def test_linear_rejects_a_non_finite_or_negative_ridge_lambda(lam):
    with pytest.raises(ValueError, match="ridge_lambda"):
        fit_linear(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]), lam)


def test_linear_singular_system_errors():
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
    y = np.array([1.0, 2.0, 3.0])
    with pytest.raises(SingularSystemError, match="ridge_lambda"):
        fit_linear(X, y, 0.0)
    fit_linear(X, y, 0.1)  # regularized system solves fine


# ---------------------------------------------------------------------------
# prediction + metrics


def test_predict_trivial_values():
    logistic = LinearModel(np.zeros(2), 0.0, "logistic")
    assert np.all(predict(logistic, np.ones((3, 2))) == 0.5)
    linear = LinearModel(np.array([2.0]), 1.0, "linear")
    assert predict(linear, np.array([[3.0]]))[0] == pytest.approx(7.0)


def test_predict_probabilities_match_sigmoid():
    rng = derive_rng(25, "pred")
    model = LinearModel(rng.standard_normal(3), 0.2, "logistic")
    X = rng.standard_normal((10, 3))
    expected = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.intercept)))
    assert np.allclose(predict(model, X), expected, atol=1e-12)


def test_predict_dimension_mismatch():
    model = LinearModel(np.zeros(2), 0.0, "linear")
    with pytest.raises(ValueError):
        predict(model, np.ones((3, 5)))


def test_accuracy_cases():
    assert accuracy([0.9, 0.1], [1, 0]) == 1.0
    assert accuracy([0.6, 0.4, 0.7], [1, 0, 0]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        accuracy([0.5], [1, 0])


def test_r_squared_cases():
    y = np.array([1.0, 2.0, 3.0])
    assert r_squared(y, y) == 1.0
    assert r_squared(np.full(3, y.mean()), y) == pytest.approx(0.0)
    assert r_squared(-y, y) < 0.0
    with pytest.raises(ValueError, match="constant"):
        r_squared(y, np.ones(3))


def test_auc_cases():
    assert auc([0.1, 0.9], [0, 1]) == 1.0
    assert auc([0.9, 0.1], [0, 1]) == 0.0
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5
    with pytest.raises(ValueError):
        auc([0.5, 0.5], [1, 1])


@settings(max_examples=300, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.inf, math.nan]),
                st.floats(-1.0, 1.0),
            ),
            st.booleans(),
        ),
        min_size=2,
        max_size=80,
    ),
)
def test_property_auc_matches_the_tie_loop_reference_bit_for_bit(cells):
    scores = [s for s, _ in cells]
    labels = [int(y) for _, y in cells]
    labels[0], labels[1] = 0, 1  # both classes present
    got, want = np.float64(auc(scores, labels)), np.float64(oracles.reference_auc(scores, labels))
    assert got.tobytes() == want.tobytes()
