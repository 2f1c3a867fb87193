"""Independent reference implementations used only to check the package.

Nothing here shares code with fairprep's fitting paths: the percentile rule
is recomputed from its definition, gradients come from central differences,
logistic regression from IRLS, and ridge regression from plain gradient
descent with an explicitly safe step size. The exceptions keep a loop in its
plain form so that fairprep's vectorised path can be compared with it bit for
bit: `reference_adam_step` updates one tensor at a time,
`reference_mlp_backward` takes each bias gradient with numpy's own
`sum(axis=0)`, `reference_debias_training` runs the adversarial training
loop on top of fairprep's forward pass, that backward pass and that
per-tensor Adam, gathering each batch by fancy indexing,
`reference_group_stats` and `reference_histogram` scan
every row per audit cell, `reference_csv_text` writes through `csv.writer`,
`reference_read_csv_columns` reads every file through `csv.reader`,
`reference_auc` walks each run of tied scores with a `while` loop,
`reference_sigmoid` fills its two branches through boolean masks, and
`reference_fit_logistic` takes the two-log cross-entropy on both labels.
`softmax` is the plain row-wise softmax, taken with numpy's own row
reductions, against which the fused softmax cross-entropy gradient is checked.
"""

import csv
import io
import math
from operator import itemgetter
from pathlib import Path

import numpy as np


def nearest_rank_q(values, q):
    """ceil(q*n)-th smallest value, straight from the definition."""
    vals = sorted(values)
    rank = math.ceil(q * len(vals))
    return vals[max(rank, 1) - 1]


def finite_diff_param_grads(net, X, loss_of_output, step=1e-5):
    """Central-difference gradients for every MLP parameter.

    loss_of_output maps the network output to a scalar; the forward pass is
    re-run from scratch for each perturbation.
    """
    from fairprep.mlcore import mlp_forward

    grads = []
    for w, b in zip(net.weights, net.biases):
        gw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + step
            lp = loss_of_output(mlp_forward(net, X)[1])
            w[idx] = orig - step
            lm = loss_of_output(mlp_forward(net, X)[1])
            w[idx] = orig
            gw[idx] = (lp - lm) / (2 * step)
        gb = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + step
            lp = loss_of_output(mlp_forward(net, X)[1])
            b[idx] = orig - step
            lm = loss_of_output(mlp_forward(net, X)[1])
            b[idx] = orig
            gb[idx] = (lp - lm) / (2 * step)
        grads.append((gw, gb))
    return grads


def softmax(z):
    """exp(z - row max) / row sum, with numpy's axis=1 reductions."""
    z = np.asarray(z, dtype=float)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.abs(a) + np.abs(n), floor)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def irls_logistic(X, y, l2, max_iter=200, tol=1e-12):
    """Penalized iteratively-reweighted least squares with a free intercept.

    Solves the same objective as fairprep's gradient-descent fit:
    mean cross-entropy + l2 * ||w||^2, intercept unpenalized.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    theta = np.zeros(d + 1)
    penalty = np.diag([2.0 * l2 * n] * d + [0.0])  # scaled to the summed loss
    for _ in range(max_iter):
        z = Xa @ theta
        p = 1.0 / (1.0 + np.exp(-z))
        w_diag = np.maximum(p * (1.0 - p), 1e-10)
        grad = Xa.T @ (p - y) + penalty @ theta
        hess = (Xa * w_diag[:, None]).T @ Xa + penalty
        delta = np.linalg.solve(hess, grad)
        theta = theta - delta
        if np.linalg.norm(delta) < tol:
            break
    return theta[:d], theta[d]


def gd_ridge(X, y, lam, max_iter=200_000, tol=1e-13):
    """Gradient descent on ||Xw + b - y||^2 + lam*||w||^2 with a safe step."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    gram = 2.0 * (Xa.T @ Xa)
    gram[:d, :d] += 2.0 * lam * np.eye(d)
    eigs = np.linalg.eigvalsh(gram)
    step = 2.0 / (eigs[0] + eigs[-1])
    theta = np.zeros(d + 1)
    for _ in range(max_iter):
        grad = gram @ theta - 2.0 * (Xa.T @ y)
        theta = theta - step * grad
        if np.linalg.norm(grad) < tol:
            break
    return theta[:d], theta[d]


def reference_adam_init(net):
    """Per-tensor Adam state: (m, v) lists of (weights, biases) moment pairs, and t = 0."""
    pairs = list(zip(net.weights, net.biases))
    return {"m": [(np.zeros_like(w), np.zeros_like(b)) for w, b in pairs],
            "v": [(np.zeros_like(w), np.zeros_like(b)) for w, b in pairs],
            "t": 0}


def reference_adam_step(net, param_grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update, one tensor at a time, of net.weights and net.biases in place."""
    state["t"] += 1
    b1t = 1.0 - beta1 ** state["t"]
    b2t = 1.0 - beta2 ** state["t"]
    for l, (dw, db) in enumerate(param_grads):
        for params, grad, m, v in (
            (net.weights[l], dw, state["m"][l][0], state["v"][l][0]),
            (net.biases[l], db, state["m"][l][1], state["v"][l][1]),
        ):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            params -= lr * (m / b1t) / (np.sqrt(v / b2t) + eps)


def reference_mlp_backward(net, cache, output_grad):
    """(param_grads, input_grad) of fairprep's mlp_backward, every gradient computed.

    Each bias gradient is numpy's `dz.sum(axis=0)`.
    """
    activations = cache
    dz = np.asarray(output_grad, dtype=float)
    grads = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, 0, -1):
        grads[l] = (activations[l].T @ dz, dz.sum(axis=0))
        dz = (1.0 - np.square(activations[l])) * (dz @ net.weights[l].T)
    grads[0] = (activations[0].T @ dz, dz.sum(axis=0))
    return grads, dz @ net.weights[0].T


def reference_debias_training(table, cfg):
    """The debiaser's training loop without shortcuts; returns (encoder, decoder, adversary, trace).

    The encoder forward is recomputed on every adversary step, every step
    takes the full summed loss and its gradient, every backward pass is
    `reference_mlp_backward` and computes the input gradient, every batch is
    gathered by fancy indexing, and Adam updates one tensor at a time. Same
    initialisation, batch order and update order as
    `fairprep.debias.train_debiaser`.
    """
    from fairprep import debias
    from fairprep.mlcore import derive_rng, mlp_forward, mlp_init
    from fairprep.tabular import apply_encoding, encode

    names = [s.name for s in table.specs_with_role("protected")]
    column_map, scaler = encode(table)
    X = apply_encoding(table, column_map, scaler)
    n, d = X.shape
    targets, adv_blocks = debias._protected_targets(table, names)
    latent = debias.resolve_latent_dim(cfg, d)
    hidden = cfg.encoder_hidden if cfg.encoder_hidden is not None else 2 * d
    adv_hidden = cfg.adversary_hidden if cfg.adversary_hidden is not None else latent
    encoder = mlp_init([d, hidden, latent], derive_rng(cfg.seed, "encoder"))
    decoder = mlp_init([latent, hidden, d], derive_rng(cfg.seed, "decoder"))
    adversary = mlp_init([latent, adv_hidden, targets.shape[1]], derive_rng(cfg.seed, "adversary"))
    st_enc, st_dec, st_adv = (reference_adam_init(net) for net in (encoder, decoder, adversary))
    recon_blocks = debias._reconstruction_blocks(column_map)
    shuffler = derive_rng(cfg.seed, "batches")
    lam, lr = cfg.adversary_weight, cfg.learning_rate

    trace = debias.TrainingTrace()
    for _ in range(cfg.epochs):
        if n <= cfg.batch_size:
            batches = [np.arange(n)]
        else:
            order = shuffler.permutation(n)
            batches = [order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size)]
        ep_recon = ep_adv = 0.0
        rows_seen = 0
        for idx in batches:
            Xb, Yb = X[idx], targets[idx]
            for _ in range(cfg.adversary_steps):
                _, z = mlp_forward(encoder, Xb)
                cache_a, logits = mlp_forward(adversary, z)
                _, g_adv = debias._summed_loss(logits, Yb, adv_blocks)
                grads_a, _ = reference_mlp_backward(adversary, cache_a, g_adv)
                reference_adam_step(adversary, grads_a, st_adv, lr)

            cache_e, z = mlp_forward(encoder, Xb)
            cache_d, recon = mlp_forward(decoder, z)
            loss_r, g_r = debias._summed_loss(recon, Xb, recon_blocks)
            grads_d, dz_recon = reference_mlp_backward(decoder, cache_d, g_r)
            cache_a, logits = mlp_forward(adversary, z)
            loss_a, g_adv = debias._summed_loss(logits, Yb, adv_blocks)
            _, dz_adv = reference_mlp_backward(adversary, cache_a, g_adv)
            grads_e, _ = reference_mlp_backward(encoder, cache_e, dz_recon - lam * dz_adv)
            reference_adam_step(decoder, grads_d, st_dec, lr)
            reference_adam_step(encoder, grads_e, st_enc, lr)

            ep_recon += loss_r * len(idx)
            ep_adv += loss_a * len(idx)
            rows_seen += len(idx)
        recon_epoch = ep_recon / rows_seen
        adv_epoch = ep_adv / rows_seen
        trace.reconstruction_loss.append(recon_epoch)
        trace.adversary_loss.append(adv_epoch)
        trace.combined_loss.append(recon_epoch - lam * adv_epoch)
    return encoder, decoder, adversary, trace


def reference_group_stats(estimates, groups, strata):
    """Per-cell (group, stratum, values) by a scan over every row, strata outer, groups inner.

    Raises fairprep's DataError with the audit's text for the first empty cell.
    """
    from fairprep.tabular import DataError

    estimates = np.asarray(estimates, dtype=float).ravel()
    cells = []
    for st in dict.fromkeys(strata):
        for g in dict.fromkeys(groups):
            vals = estimates[[i for i in range(len(groups)) if groups[i] == g and strata[i] == st]]
            if vals.size == 0:
                raise DataError(f"empty cell: group {g!r} in stratum {st!r}")
            cells.append((g, st, vals))
    return cells


def reference_histogram(values, bins, lo, hi):
    """(counts, clamped_low, clamped_high) by a loop over the values.

    A bin index that rounds up to `bins`, for a value just below hi, goes to
    the last bin.
    """
    width = (hi - lo) / bins
    counts = [0] * bins
    clamped_low = clamped_high = 0
    for v in values:
        if v < lo:
            counts[0] += 1
            clamped_low += 1
        elif v >= hi:
            counts[bins - 1] += 1
            if v > hi:
                clamped_high += 1
        else:
            counts[min(int((v - lo) / width), bins - 1)] += 1
    return counts, clamped_low, clamped_high


def reference_csv_text(names, rows):
    """The text of `csv.writer` with minimal quoting and "\\n" line ends, CR also quoted.

    `csv.writer` quotes a field that holds a character of its line terminator,
    so each row is written with "\\r\\n" and that terminator is then swapped
    for "\\n". For fields without a CR this is `csv.writer(sink,
    lineterminator="\\n")` byte for byte.
    """
    lines = []
    for row in [names, *rows]:
        sink = io.StringIO()
        csv.writer(sink, lineterminator="\r\n").writerow(row)
        lines.append(sink.getvalue()[:-2] + "\n")
    return "".join(lines)


def reference_read_csv_columns(path):
    """(header, columns) of a UTF-8 CSV file, read row by row with `csv.reader`.

    Raises what fairprep's `read_csv_columns` raises, with the same message:
    FileNotFoundError for a missing file, and a DataError naming the file for
    an empty file, bytes that are not UTF-8, a `csv.Error` (such as a field
    over `csv.field_size_limit()`), or the first row whose cell count differs
    from the header's. Blank lines are skipped.
    """
    from fairprep.tabular import DataError

    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(filter(None, reader))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    if header is None:
        raise DataError(f"{path}: empty file")
    if set(map(len, rows)) - {len(header)}:
        bad = next(row for row in rows if len(row) != len(header))
        raise DataError(f"{path}: row with {len(bad)} cells, expected {len(header)}")
    return header, [list(map(itemgetter(i), rows)) for i in range(len(header))]


def reference_auc(scores, labels):
    """Tie-averaged rank AUC, walking the sorted scores one run of ties at a time."""
    scores = np.asarray(scores, dtype=float).ravel()
    pos = np.asarray(labels, dtype=float).ravel() == 1.0
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # average rank, 1-based
        i = j + 1
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def reference_sigmoid(z):
    """The logistic function by boolean masks: 1/(1+exp(-z)) where z >= 0, exp(z)/(1+exp(z)) elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_fit_logistic(X, y, cfg):
    """(weights, intercept, per-epoch losses) of fairprep's gradient-descent logistic fit.

    Each epoch's loss is y*log(pc) + (1-y)*log(1-pc), with pc the estimate p
    clipped to [1e-12, 1 - 1e-12] and both logs taken on every row, the
    sigmoid is `reference_sigmoid`, and p - y is formed anew for each
    gradient. Raises fairprep's TrainingDivergedError at the first
    epoch whose loss is not finite.
    """
    from fairprep.mlcore import TrainingDivergedError

    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    history = []
    for epoch in range(cfg.epochs):
        z = X @ w + b
        p = reference_sigmoid(z)
        pc = np.clip(p, 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)) + cfg.l2 * w @ w)
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss became non-finite at epoch {epoch}", epoch)
        history.append(loss)
        grad_w = X.T @ (p - y) / n + 2.0 * cfg.l2 * w
        grad_b = float(np.mean(p - y))
        w -= cfg.learning_rate * grad_w
        b -= cfg.learning_rate * grad_b
    return w, b, history
