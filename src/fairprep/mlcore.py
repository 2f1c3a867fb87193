"""From-scratch numeric core: seeded RNG streams, a small multilayer
perceptron with manual backpropagation, and the plain downstream models
(logistic regression by gradient descent, linear/ridge regression in closed
form).

Randomness policy: every stochastic routine takes an explicit integer seed or
a `numpy.random.Generator`. Generators use numpy's PCG64. Independent child
streams come from `derive_rng`, which hashes (seed, *labels) into a
SeedSequence, so a given (seed, purpose) pair always maps to the same stream
and unrelated purposes never share one.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite; carries the epoch index."""

    def __init__(self, message: str, epoch: int, trace=None):
        super().__init__(message)
        self.epoch = epoch
        self.trace = trace

    def __reduce__(self):
        # the default rebuilds from args alone, which lacks epoch: it would not unpickle
        return type(self), (self.args[0], self.epoch, self.trace)


class SingularSystemError(RuntimeError):
    """Raised when a normal-equations system is singular at ridge_lambda=0."""


# ---------------------------------------------------------------------------
# randomness


def _label_entropy(label) -> int:
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """PCG64 generator for (seed, labels...); same arguments, same stream."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_label_entropy(l) for l in labels]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ---------------------------------------------------------------------------
# activations and losses


def sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) otherwise, so exp never overflows."""
    z = np.asarray(z, dtype=float)
    # exp(-|z|); minimum returns its first argument's NaN, so a NaN keeps its sign
    e = np.exp(np.minimum(z, -z))
    # the numerator: exp(0) = 1 where z >= 0 and the same exp(z) as e elsewhere. A second
    # vectorised exp costs less than np.where(z >= 0, 1.0, e), which branches on each sign.
    out = np.exp(np.minimum(z, 0.0), out=np.empty_like(z))  # an array even for a 0-d z
    e += 1.0
    return np.divide(out, e, out=out)


# Below this row width a loop over columns is several times faster than
# numpy's axis=1 reduction and adds in the same order, so it gives the same
# bits. From 8 entries on, numpy sums a row pairwise and the bits differ.
_NARROW_ROW = 8


def _row_max(x):
    """x.max(axis=1, keepdims=True) of a 2-d array."""
    if x.shape[1] >= _NARROW_ROW:
        return x.max(axis=1, keepdims=True)
    m = x[:, :1].copy()
    for j in range(1, x.shape[1]):
        np.maximum(m, x[:, j : j + 1], out=m)
    return m


def _row_sum(x):
    """x.sum(axis=1, keepdims=True) of a 2-d array."""
    if x.shape[1] >= _NARROW_ROW:
        return x.sum(axis=1, keepdims=True)
    s = x[:, :1] + 0.0  # numpy's sum starts from +0.0, which turns a -0.0 into +0.0
    for j in range(1, x.shape[1]):
        s += x[:, j : j + 1]
    return s


def _col_sum(x):
    """x.sum(axis=0) of a 2-d array.

    On a C-ordered array of two or more columns numpy adds row after row,
    with one short loop per row; einsum adds in the same row order at a
    fraction of the cost, so it gives the same bits. A single column, or any
    other layout, numpy may sum pairwise down a column, and einsum's bits
    differ there, so those keep numpy's sum. einsum adds each row on the
    other side of the running sum, which only changes which NaN a sum of
    two NaNs keeps, so a NaN in the result is also left to numpy's sum.
    """
    if x.shape[1] >= 2 and x.flags.c_contiguous:
        s = np.einsum("ij->j", x)
        if not np.isnan(s).any():
            return s
    return x.sum(axis=0)


def squared_error(pred, target):
    """Mean-over-rows squared error; returns (loss, gradient w.r.t. pred)."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    n = pred.shape[0]
    diff = pred - target
    return float(np.sum(diff * diff) / n), 2.0 * diff / n


def softmax_cross_entropy_grad(logits, onehot, out):
    """d(mean softmax cross-entropy)/d logits, written into `out`.

    `out` is a float array of the shape of `logits`; it may be a column-slice
    view of a larger array, as when one gradient array holds several softmax
    heads. The steps run in one fixed order (subtract the row max, exp, divide
    by the row sum, subtract the one-hot, divide by n), so every caller gets
    the same bits. Returns the row max and the row sum of the exponentials,
    from which `softmax_cross_entropy` forms the loss.
    """
    m = _row_max(logits)
    np.subtract(logits, m, out=out)
    np.exp(out, out=out)
    s = _row_sum(out)
    out /= s
    out -= onehot
    out /= logits.shape[0]
    return m, s


def softmax_cross_entropy(logits, onehot):
    """Fused softmax + cross-entropy on logits (log-sum-exp form).

    The row max and the exponentials are computed once and shared by the loss
    and the gradient. Returns (loss, gradient w.r.t. logits); pair with the
    identity output of an `Mlp` instead of an explicit softmax output.
    """
    logits = np.asarray(logits, dtype=float)
    onehot = np.asarray(onehot, dtype=float)
    grad = np.empty_like(logits)
    m, s = softmax_cross_entropy_grad(logits, onehot, grad)
    loss = float(np.sum((m + np.log(s))[:, 0] - _row_sum(logits * onehot)[:, 0]) / logits.shape[0])
    return loss, grad


# ---------------------------------------------------------------------------
# multilayer perceptron


@dataclass
class Mlp:
    """Fully connected net with tanh hidden layers and an identity (logit)
    output; weights[l] has shape (dims[l], dims[l+1]).

    All parameters live in one float64 vector, `params`, in layer order
    weights[0], biases[0], weights[1], ...; `weights` and `biases` are views
    into it, so an update of `params` is an update of every layer. The given
    arrays are copied in, and each must have its layer's shape.
    """

    dims: tuple
    weights: list
    biases: list
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_layers = len(self.dims) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ValueError(f"dims {tuple(self.dims)} need {n_layers} weight and bias arrays, "
                             f"got {len(self.weights)} and {len(self.biases)}")
        shapes = [s for i, o in zip(self.dims, self.dims[1:]) for s in ((i, o), (o,))]
        given = [a for pair in zip(self.weights, self.biases) for a in pair]
        self.params = np.empty(sum(math.prod(s) for s in shapes))
        views, start = [], 0
        for k, (arr, shape) in enumerate(zip(given, shapes)):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{('weights', 'biases')[k % 2]}[{k // 2}] has shape "
                                 f"{arr.shape}, dims need {shape}")
            view = self.params[start : start + arr.size].reshape(shape)
            view[...] = arr
            views.append(view)
            start += arr.size
        self.weights, self.biases = views[0::2], views[1::2]


def mlp_init(dims, rng=None) -> Mlp:
    """Scaled-uniform init: W ~ U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero."""
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"need >= 2 positive layer dims, got {dims}")
    if rng is None:
        rng = derive_rng(0, "mlp-init")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims, dims[1:]):
        scale = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Mlp(dims, weights, biases)


def mlp_forward(net: Mlp, X):
    """Forward pass; returns (cache, output). The cache feeds mlp_backward.

    The cache is the list of the input and each layer's output: the tanh of
    each hidden layer, then the output itself. No pre-activation is kept.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != net.dims[0]:
        raise ValueError(f"input has shape {X.shape}, net expects (n, {net.dims[0]})")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite input to mlp_forward")
    activations = [X]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = activations[-1] @ w
        a += b
        if l < last:
            # a new array, not tanh in place: in place changed the order of training's
            # allocations and sent glibc's malloc into an mmap/munmap cycle on every step
            a = np.tanh(a)
        activations.append(a)
    return activations, activations[-1]


def mlp_backward(net: Mlp, cache, output_grad, *, input_grad=True, param_grads=True):
    """Backpropagate d(loss)/d(output) through the net.

    Returns (param_grads, input_grad) where param_grads is a list of (dW, db)
    matching net.weights/net.biases, and input_grad is d(loss)/d(input) --
    needed to couple networks (the debiaser feeds one net's input gradient
    into another's output). With input_grad=False the layer-0 input gradient
    is not computed, and with param_grads=False no (dW, db) is; None is
    returned in the place of what is skipped. Skipping changes no bit of
    what is computed.
    """
    activations = cache
    if len(activations) != len(net.weights) + 1:
        raise ValueError("cache does not match network depth")
    dz = np.asarray(output_grad, dtype=float)
    if dz.shape != activations[-1].shape:
        raise ValueError(f"output_grad shape {dz.shape} != output shape {activations[-1].shape}")
    grads = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, 0, -1):
        if param_grads:
            grads[l] = (activations[l].T @ dz, _col_sum(dz))
        da = dz @ net.weights[l].T
        dz = np.square(activations[l])  # tanh' = 1 - tanh^2
        np.subtract(1.0, dz, out=dz)
        dz *= da
    if param_grads:
        grads[0] = (activations[0].T @ dz, _col_sum(dz))
    return (grads if param_grads else None), (dz @ net.weights[0].T if input_grad else None)


@dataclass
class AdamState:
    """First and second moment estimates, flat vectors laid out like `Mlp.params`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(net: Mlp) -> AdamState:
    return AdamState(m=np.zeros_like(net.params), v=np.zeros_like(net.params))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(net: Mlp, param_grads, state: AdamState, lr: float) -> None:
    """One Adam update of all of `net.params` from the (dW, db) pairs of mlp_backward."""
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    grad = np.concatenate([g.ravel() for pair in param_grads for g in pair])
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    net.params -= lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


# ---------------------------------------------------------------------------
# downstream linear models


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless `value` is an integer >= `minimum` (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"need an integer {name} >= {minimum}, got {value!r}")


def check_seed(seed) -> None:
    """Raise ValueError unless `seed` is an integer, of either sign (a bool is not)."""
    if isinstance(seed, bool) or not isinstance(seed, Integral):
        raise ValueError(f"need an integer seed, got {seed!r}")


def check_finite(name: str, value, *, positive: bool = False) -> None:
    """Raise ValueError unless `value` is a finite number >= 0, or > 0 if `positive` (a bool is not)."""
    # `<= float_info.max`, not `< inf`: an int past the float range overflows in training
    if not (isinstance(value, Real) and not isinstance(value, bool)
            and (value > 0 if positive else value >= 0) and value <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number {'>' if positive else '>='} 0, got {value!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 500
    l2: float = 1e-4

    def __post_init__(self):
        check_finite("learning_rate", self.learning_rate, positive=True)
        check_count("epochs", self.epochs)
        check_finite("l2", self.l2)


@dataclass
class LinearModel:
    weights: np.ndarray
    intercept: float
    kind: str  # "linear" | "logistic"


def fit_logistic(X, y, cfg: TrainConfig) -> LinearModel:
    """Full-batch gradient descent on mean cross-entropy + l2*||w||^2.

    The intercept is never regularized. Deterministic: zero init, fixed epoch
    count. Raises TrainingDivergedError at the first epoch whose loss is not
    finite, read from the intercept gradient and the penalty without forming
    the loss: an estimate that is not NaN has a clipped log-likelihood in
    [log 1e-12, 0] and a residual in [-1, 1], so the loss is not finite
    exactly when grad_b is NaN or l2*||w||^2 is not finite.

    One case depends on the BLAS: when a row's products X[i, j] * w[j]
    overflow to infinities of opposite signs, whether `X @ w` gives NaN or an
    infinity for that row depends on the order in which the BLAS adds them.
    So in that overflow regime alone, whether the fit raises can differ
    between BLAS builds.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    classes = set(np.unique(y))
    if not classes <= {0.0, 1.0}:
        raise ValueError(f"labels must be 0/1, got {sorted(classes)}")
    if len(classes) < 2:
        raise ValueError("labels are single-class; nothing to fit")
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for epoch in range(cfg.epochs):
        z = X @ w
        z += b
        residual = sigmoid(z)
        residual -= y
        grad_b = float(np.mean(residual))
        if math.isnan(grad_b) or not math.isfinite(cfg.l2 * w @ w):
            raise TrainingDivergedError(
                f"logistic training loss became non-finite at epoch {epoch}", epoch
            )
        grad_w = X.T @ residual / n + 2.0 * cfg.l2 * w
        w -= cfg.learning_rate * grad_w
        b -= cfg.learning_rate * grad_b
    return LinearModel(w, float(b), "logistic")


def check_ridge_lambda(ridge_lambda) -> None:
    """Raise ValueError unless `ridge_lambda` is a penalty `fit_linear` takes."""
    check_finite("ridge_lambda", ridge_lambda)


def fit_linear(X, y, ridge_lambda: float = 0.0) -> LinearModel:
    """Closed-form ridge: minimize ||Xw + b - y||^2 + ridge_lambda*||w||^2.

    Centering X and y leaves the intercept unpenalized. At ridge_lambda=0 a
    singular Gram matrix raises SingularSystemError (use a positive lambda).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError(f"shape mismatch: X {X.shape}, y {y.shape}")
    check_ridge_lambda(ridge_lambda)
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + ridge_lambda * np.eye(X.shape[1])
    try:
        cond = np.linalg.cond(gram)
        if not math.isfinite(cond) or cond > 1e12:
            raise np.linalg.LinAlgError("ill-conditioned")
        w = np.linalg.solve(gram, Xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "normal equations are singular; refit with ridge_lambda > 0"
        ) from exc
    b = y_mean - float(x_mean @ w)
    return LinearModel(w, b, "linear")


def predict(model: LinearModel, X) -> np.ndarray:
    """Probabilities for logistic models, raw values for linear models."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise ValueError(f"X has shape {X.shape}, model expects (n, {model.weights.shape[0]})")
    z = X @ model.weights + model.intercept
    return sigmoid(z) if model.kind == "logistic" else z


# ---------------------------------------------------------------------------
# metrics


def accuracy(probs, labels) -> float:
    probs = np.asarray(probs, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if probs.shape != labels.shape:
        raise ValueError(f"length mismatch: {probs.shape} vs {labels.shape}")
    return float(np.mean((probs >= 0.5) == (labels == 1.0)))


def r_squared(preds, y) -> float:
    preds = np.asarray(preds, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if preds.shape != y.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {y.shape}")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("constant y: R^2 undefined")
    ss_res = float(np.sum((y - preds) ** 2))
    return 1.0 - ss_res / ss_tot


def auc(scores, labels) -> float:
    """Area under the ROC curve via the rank (Mann-Whitney) formula, tie-averaged."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=float).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"length mismatch: {scores.shape} vs {labels.shape}")
    pos = labels == 1.0
    n_pos = int(pos.sum())
    n_neg = int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # each run of tied scores fills sorted positions i..j and shares their average 1-based rank
    i = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    j = np.r_[i[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (i + j) + 1.0, j - i + 1)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
