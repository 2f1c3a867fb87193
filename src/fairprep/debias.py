"""Adversarial debiasing of tabular data.

An encoder maps the (standardized, one-hot) feature block to a latent code, a
decoder reconstructs the features from it, and an adversary tries to predict
the protected category from the code. Training alternates:

  1. adversary phase: `adversary_steps` gradient steps minimizing the
     adversary's cross-entropy on the batch's latent codes, which are
     computed once per batch because the encoder does not change here;
  2. encoder/decoder phase: one step on
        reconstruction_loss - adversary_weight * adversary_cross_entropy,
     realized with a single backward pass that routes the adversary's input
     gradient into the encoder with a flipped sign (gradient reversal).

Reconstruction loss is squared error on numeric design columns plus
cross-entropy on each one-hot group. The debiased dataset is the decoded
reconstruction in the original schema: protected, target and drop-role
columns pass through untouched (downstream modeling excludes them anyway),
every feature column is rewritten so the protected characteristic can no
longer be recovered from it.

A fitted `DebiasModel` holds what `transform` reads, and the config; the
fitted schema's role=protected entries name the protected columns, and the
adversary is trained and traced but not kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field
from itertools import groupby

import numpy as np

from . import mlcore
from .ioutil import atomic_write_text, read_json, write_json
from .mlcore import (
    Mlp,
    TrainConfig,
    TrainingDivergedError,
    adam_init,
    adam_step,
    check_count,
    check_finite,
    check_seed,
    derive_rng,
    mlp_backward,
    mlp_forward,
    mlp_init,
    softmax_cross_entropy,
    softmax_cross_entropy_grad,
    squared_error,
)
from .tabular import (
    DataError,
    DataTable,
    SchemaError,
    apply_encoding,
    decode,
    encode,
    encode_features,
    split_indices_on,
)


@dataclass(frozen=True)
class DebiasConfig:
    latent_dim: int | None = None  # None: max(2, ceil(d/2)) once d is known
    adversary_weight: float = 1.0
    epochs: int = 200
    adversary_steps: int = 3
    learning_rate: float = 1e-2
    batch_size: int = 4096  # full batch whenever n <= batch_size
    seed: int = 0
    encoder_hidden: int | None = None  # None: 2*d
    adversary_hidden: int | None = None  # None: latent_dim

    def __post_init__(self):
        for name in ("epochs", "adversary_steps", "batch_size"):
            check_count(name, getattr(self, name))
        for name in ("latent_dim", "encoder_hidden", "adversary_hidden"):
            if getattr(self, name) is not None:  # None: sized from the data
                check_count(name, getattr(self, name))
        check_finite("adversary_weight", self.adversary_weight)
        check_finite("learning_rate", self.learning_rate, positive=True)
        check_seed(self.seed)


@dataclass
class TrainingTrace:
    reconstruction_loss: list = field(default_factory=list)
    adversary_loss: list = field(default_factory=list)
    combined_loss: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.combined_loss)

    def to_csv(self) -> str:
        lines = ["epoch,recon_loss,adv_loss,combined"]
        for i, (r, a, c) in enumerate(
            zip(self.reconstruction_loss, self.adversary_loss, self.combined_loss)
        ):
            lines.append(f"{i},{r!r},{a!r},{c!r}")
        return "\n".join(lines) + "\n"


@dataclass
class DebiasModel:
    """A fitted debiaser: everything `transform` reads, and the config it was trained with."""

    encoder: Mlp
    decoder: Mlp
    column_map: tuple
    scaler: tuple
    schema: list
    config: DebiasConfig


def _summed_loss(pred, target, blocks):
    """Sum of mlcore losses over column blocks of `pred`; returns (loss, d loss/d pred).

    Each block is (columns, loss_fn): a column index list or slice, and
    `squared_error` or `softmax_cross_entropy` applied to those columns.
    """
    grad = np.zeros_like(pred)
    loss = 0.0
    for cols, loss_fn in blocks:
        block_loss, grad[:, cols] = loss_fn(pred[:, cols], target[:, cols])
        loss += block_loss
    return loss, grad


def _reconstruction_blocks(column_map) -> tuple:
    """Squared error on all numeric design columns, softmax cross-entropy per one-hot group.

    `pred` holds raw decoder outputs: reconstructed standardized values for
    numeric columns, logits for one-hot groups.
    """
    numeric = [j for j, c in enumerate(column_map) if c.category is None]
    blocks = [(numeric, squared_error)] if numeric else []
    for _, group in groupby(range(len(column_map)), key=lambda j: column_map[j].source):
        js = list(group)
        if column_map[js[0]].category is not None:
            blocks.append((slice(js[0], js[-1] + 1), softmax_cross_entropy))
    return tuple(blocks)


def _protected_targets(table: DataTable, names) -> tuple:
    """One-hot adversary targets, one block per protected column, concatenated,
    and the loss blocks that put one softmax head on each."""
    blocks = []
    heads = []
    start = 0
    for name in names:
        n_cats = len(table.spec(name).categories)
        codes = table.array(name)
        if table.missing(name).any():
            raise DataError(f"protected column {name!r} has missing cells")
        if np.unique(codes).size < 2:
            raise DataError(f"protected column {name!r} is constant; nothing to debias")
        block = np.zeros((len(codes), n_cats))
        block[np.arange(len(codes)), codes] = 1.0
        blocks.append(block)
        heads.append((slice(start, start + n_cats), softmax_cross_entropy))
        start += n_cats
    return np.hstack(blocks), tuple(heads)


def resolve_latent_dim(cfg: DebiasConfig, d: int) -> int:
    return cfg.latent_dim if cfg.latent_dim is not None else max(2, math.ceil(d / 2))


def train_debiaser(table: DataTable, cfg: DebiasConfig):
    """Fit the encoder/decoder/adversary triple on a table. Returns (model, trace).

    Only role=feature columns enter the encoder; the table needs at least one
    categorical/binary protected column and 50 rows. The model records the
    table's schema without its drop-role columns, so a table with or without
    them gives the same model. The adversary's loss is in the trace, but the
    model does not keep it. Fully deterministic for a given (table, cfg).
    """
    if table.n_rows < 50:
        raise DataError(f"need >= 50 rows to train a debiaser, have {table.n_rows}")
    protected_specs = table.specs_with_role("protected")
    if not protected_specs:
        raise SchemaError("no role=protected column")
    for s in protected_specs:
        if s.kind == "numeric":
            raise SchemaError(f"protected column {s.name!r} must be categorical or binary")
    names = [s.name for s in protected_specs]

    column_map, scaler = encode(table)
    X = apply_encoding(table, column_map, scaler)
    n, d = X.shape
    if d == 0:
        raise SchemaError("no feature columns to debias")
    targets, adv_blocks = _protected_targets(table, names)

    latent = resolve_latent_dim(cfg, d)
    if latent >= d:
        warnings.warn(
            f"latent_dim {latent} >= feature dim {d}: the encoder can pass features "
            "through unchanged, which defeats debiasing",
            stacklevel=2,
        )
    hidden = cfg.encoder_hidden if cfg.encoder_hidden is not None else 2 * d
    adv_hidden = cfg.adversary_hidden if cfg.adversary_hidden is not None else latent
    n_classes = targets.shape[1]

    encoder = mlp_init([d, hidden, latent], derive_rng(cfg.seed, "encoder"))
    decoder = mlp_init([latent, hidden, d], derive_rng(cfg.seed, "decoder"))
    adversary = mlp_init([latent, adv_hidden, n_classes], derive_rng(cfg.seed, "adversary"))
    st_enc, st_dec, st_adv = adam_init(encoder), adam_init(decoder), adam_init(adversary)
    recon_blocks = _reconstruction_blocks(column_map)
    shuffler = derive_rng(cfg.seed, "batches")
    lam = cfg.adversary_weight

    trace = TrainingTrace()
    # A diverging run overflows long before its loss is checked; the check raises
    # TrainingDivergedError, so numpy's floating-point warnings would only add noise.
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            if n <= cfg.batch_size:
                batches = [(X, targets)]  # read in place: nothing below writes to a batch
            else:
                order = shuffler.permutation(n)
                slices = (order[i : i + cfg.batch_size] for i in range(0, n, cfg.batch_size))
                # np.take copies the same rows as X[idx] at a fraction of fancy indexing's cost
                batches = ((np.take(X, idx, axis=0), np.take(targets, idx, axis=0)) for idx in slices)
            ep_recon = ep_adv = 0.0
            for Xb, Yb in batches:
                # the encoder is frozen in the adversary phase: one forward serves both phases
                cache_e, z = mlp_forward(encoder, Xb)
                if not np.isfinite(z).all():  # an earlier batch's update diverged
                    ep_recon = ep_adv = math.nan
                    break
                for _ in range(cfg.adversary_steps):
                    cache_a, logits = mlp_forward(adversary, z)
                    g_adv = np.empty_like(logits)
                    for cols, _ in adv_blocks:  # the gradient alone: no loss value is read here
                        softmax_cross_entropy_grad(logits[:, cols], Yb[:, cols], g_adv[:, cols])
                    grads_a, _ = mlp_backward(adversary, cache_a, g_adv, input_grad=False)
                    adam_step(adversary, grads_a, st_adv, cfg.learning_rate)

                cache_d, recon = mlp_forward(decoder, z)
                loss_r, g_r = _summed_loss(recon, Xb, recon_blocks)
                grads_d, dz_recon = mlp_backward(decoder, cache_d, g_r)
                cache_a, logits = mlp_forward(adversary, z)
                loss_a, g_adv = _summed_loss(logits, Yb, adv_blocks)
                # the adversary's parameters are frozen here: only its input gradient is needed
                _, dz_adv = mlp_backward(adversary, cache_a, g_adv, param_grads=False)
                grads_e, _ = mlp_backward(encoder, cache_e, dz_recon - lam * dz_adv, input_grad=False)
                adam_step(decoder, grads_d, st_dec, cfg.learning_rate)
                adam_step(encoder, grads_e, st_enc, cfg.learning_rate)

                ep_recon += loss_r * len(Xb)
                ep_adv += loss_a * len(Xb)
            recon_epoch = ep_recon / n
            adv_epoch = ep_adv / n
            combined = recon_epoch - lam * adv_epoch
            trace.reconstruction_loss.append(recon_epoch)
            trace.adversary_loss.append(adv_epoch)
            trace.combined_loss.append(combined)
            if not (math.isfinite(recon_epoch) and math.isfinite(adv_epoch)):
                raise TrainingDivergedError(
                    f"debias training loss became non-finite at epoch {epoch}", epoch, trace
                )

    schema = [s for s in table.schema if s.role != "drop"]
    return DebiasModel(encoder, decoder, column_map, scaler, schema, cfg), trace


def _check_schema_match(model: DebiasModel, table: DataTable) -> None:
    kept = [s for s in table.schema if s.role != "drop"]  # drop-role columns are never fitted
    if len(model.schema) != len(kept):
        raise SchemaError("table schema does not match the fitted schema")
    for a, b in zip(model.schema, kept):
        if a != b:
            raise SchemaError(
                f"column {b.name!r} does not match the fitted schema "
                f"(fitted {a.name!r}/{a.kind}/{a.role})"
            )


def transform(model: DebiasModel, table: DataTable) -> DataTable:
    """Rewrite a table through the fitted encoder/decoder; schema and rows preserved.

    The table's columns other than drop-role ones must match the fitted
    schema. Drop-role columns (ids, free text) may be any, fitted or not:
    `decode` carries them through in place, with the protected and target
    columns. Only the encoder's output is kept, so the design matrix and the
    encoder's cache are freed before the decoder runs.
    """
    _check_schema_match(model, table)
    z = mlp_forward(model.encoder, apply_encoding(table, model.column_map, model.scaler))[1]
    recon = mlp_forward(model.decoder, z)[1]
    return decode(recon, model.column_map, model.scaler, table)


def leakage_probe(table: DataTable, protected: str, seed: int) -> float:
    """Test AUC of a fresh logistic probe predicting the protected column from the features.

    Trains with `TrainConfig`'s defaults on a 70/30 split (stratified on the
    protected column). Near 0.5 means the features carry no recoverable
    signal. Multi-category columns are scored one-vs-rest and averaged.
    """
    spec = table.spec(protected)
    if spec.kind == "numeric":
        raise SchemaError(f"protected column {protected!r} must be categorical or binary")
    codes = table.array(protected)
    present = np.unique(codes[codes >= 0])
    if present.size < 2:
        raise DataError(f"protected column {protected!r} is single-class")

    split_seed = derive_rng(seed, "probe").integers(2**31)
    train_idx, test_idx = split_indices_on(table, protected, 0.3, split_seed)
    X_all = encode_features(table, train_idx)
    X_train, X_test = X_all[train_idx], X_all[test_idx]

    aucs = []
    pairs = present if present.size > 2 else present[1:]
    for positive in pairs:
        y = (codes == positive).astype(float)
        y_train, y_test = y[train_idx], y[test_idx]
        if np.unique(y_train).size < 2 or np.unique(y_test).size < 2:
            raise DataError(f"probe split left a single class for category {spec.categories[positive]!r}")
        probe = mlcore.fit_logistic(X_train, y_train, TrainConfig())
        aucs.append(mlcore.auc(mlcore.predict(probe, X_test), y_test))
    return float(np.mean(aucs))


# ---------------------------------------------------------------------------
# persistence


# Fixed values of the model file format: every `Mlp` is tanh-hidden, identity-output.
_NET_ACTIVATIONS = {"hidden_activation": "tanh", "output_activation": "identity"}


def _net_jsonable(net: Mlp) -> dict:
    return {
        "dims": list(net.dims),
        **_NET_ACTIVATIONS,
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_jsonable(data) -> Mlp:
    for key, value in _NET_ACTIVATIONS.items():
        if data.get(key) != value:
            raise SchemaError(f"model net {key!r} must be {value!r}, got {data.get(key)!r}")
    dims = tuple(data["dims"])
    weights = [
        np.asarray(flat, dtype=float).reshape(dims[i], dims[i + 1])
        for i, flat in enumerate(data["weights"])
    ]
    biases = [np.asarray(b, dtype=float) for b in data["biases"]]
    return Mlp(dims, weights, biases)


def save_debias_model(model: DebiasModel, path) -> None:
    """Write the model's six fields to `path` as canonical JSON."""
    from .tabular import schema_to_jsonable

    write_json(
        path,
        {
            "schema": schema_to_jsonable(model.schema),
            "column_map": [
                {"source": c.source, "category": c.category} for c in model.column_map
            ],
            "scaler": [[m, s] for m, s in model.scaler],
            "encoder": _net_jsonable(model.encoder),
            "decoder": _net_jsonable(model.decoder),
            "config": asdict(model.config),
        },
    )


def load_debias_model(path) -> DebiasModel:
    """Read a model file. JSON keeps binary categories as ints and labels as strings, so the
    column map is taken as written; an older file's `adversary` and `protected` go unread."""
    from .tabular import DesignColumn, schema_from_jsonable

    data = read_json(path)
    return DebiasModel(
        encoder=_net_from_jsonable(data["encoder"]),
        decoder=_net_from_jsonable(data["decoder"]),
        column_map=tuple(DesignColumn(c["source"], c["category"]) for c in data["column_map"]),
        scaler=tuple((float(m), float(s)) for m, s in data["scaler"]),
        schema=schema_from_jsonable(data["schema"]),
        config=DebiasConfig(**data["config"]),
    )


def write_trace_csv(trace: TrainingTrace, path) -> None:
    atomic_write_text(path, trace.to_csv())
