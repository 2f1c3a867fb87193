import gc
import json
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from fairprep import debias
from fairprep.debias import (
    DebiasConfig,
    leakage_probe,
    load_debias_model,
    save_debias_model,
    train_debiaser,
    transform,
    write_trace_csv,
)
from fairprep.ioutil import write_json
from fairprep.mlcore import TrainingDivergedError, derive_rng, mlp_init
from fairprep.tabular import (
    MISSING_CATEGORY,
    ColumnSpec,
    DataError,
    DataTable,
    SchemaError,
    apply_encoding,
    drop_columns,
    encode,
    write_csv,
)


def copy_dataset(n=400, seed=0, n_noise=3):
    """One feature is a literal copy of the protected flag, the rest is noise."""
    rng = derive_rng(seed, "copy-dataset")
    a = (rng.random(n) < 0.5).astype(int)
    columns = {"copy": [float(v) for v in a]}
    schema = [ColumnSpec("copy", "numeric", "feature")]
    for i in range(n_noise):
        schema.append(ColumnSpec(f"noise{i + 1}", "numeric", "feature"))
        columns[f"noise{i + 1}"] = [float(v) for v in rng.standard_normal(n)]
    schema.append(ColumnSpec("group", "binary", "protected"))
    schema.append(ColumnSpec("outcome", "binary", "target"))
    columns["group"] = [int(v) for v in a]
    columns["outcome"] = [int(v) for v in (rng.random(n) < 0.5)]
    return DataTable(schema, columns)


FULL_CAPACITY = dict(latent_dim=4, encoder_hidden=16, adversary_hidden=16)


@pytest.mark.parametrize("field, value", [
    ("adversary_weight", math.nan), ("adversary_weight", math.inf), ("adversary_weight", -1.0),
    ("learning_rate", math.nan), ("learning_rate", math.inf), ("learning_rate", 0.0),
    # an int past the float range: below inf, but training's float arithmetic overflows on it
    pytest.param("adversary_weight", 10**400, id="adversary_weight-huge-int"),
    pytest.param("learning_rate", 10**400, id="learning_rate-huge-int"),
])
def test_config_rejects_non_finite_and_out_of_range_rates(field, value):
    with pytest.raises(ValueError, match=field):
        DebiasConfig(**{field: value})
    assert getattr(DebiasConfig(**{field: 1e300}), field) == 1e300  # large but finite is fine


@pytest.mark.parametrize("field, value", [
    ("encoder_hidden", 0), ("adversary_hidden", -2), ("latent_dim", 0), ("batch_size", 0),
    ("epochs", True), ("adversary_steps", 1.5), ("epochs", None),
])
def test_config_rejects_a_size_that_is_not_an_integer_from_one(field, value):
    with pytest.raises(ValueError, match=field):
        DebiasConfig(**{field: value})


@pytest.mark.parametrize("value", [1.5, "x", "3", True, None])
def test_config_rejects_a_seed_that_is_not_an_integer(value):
    # int() in derive_rng would train 1.5 as seed 1, and fail on "x" only once training starts
    with pytest.raises(ValueError, match="need an integer seed"):
        DebiasConfig(seed=value)
    assert DebiasConfig(seed=-3).seed == -3  # any sign, as `--seed` takes


def test_raw_copy_dataset_probe_is_saturated():
    assert leakage_probe(copy_dataset(), "group", seed=1) >= 0.95


def test_lambda_zero_behaves_like_autoencoder():
    table = copy_dataset()
    cfg = DebiasConfig(adversary_weight=0.0, epochs=250, seed=0, **FULL_CAPACITY)
    model, trace = train_debiaser(table, cfg)
    out = transform(model, table)
    # protected info untouched
    assert leakage_probe(out, "group", seed=1) >= 0.9
    # numeric cells close to the originals, in standardized units
    column_map, scaler = encode(table)
    ref = apply_encoding(table, column_map, scaler)
    rec = apply_encoding(out, column_map, scaler)
    err = np.abs(ref - rec)
    assert float(np.median(err)) <= 0.1
    assert float(np.mean((ref - rec) ** 2)) <= 0.2  # MSE per design column


def test_lambda_one_strips_the_copy_column():
    table = copy_dataset()
    cfg = DebiasConfig(adversary_weight=1.0, epochs=200, seed=0)
    model, trace = train_debiaser(table, cfg)
    out = transform(model, table)
    assert leakage_probe(out, "group", seed=1) <= 0.60


def test_monotone_leakage_over_seeds():
    table = copy_dataset()
    post_l0, post_l1 = [], []
    for seed in range(5):
        for lam, sink in ((0.0, post_l0), (1.0, post_l1)):
            cfg = DebiasConfig(adversary_weight=lam, epochs=150, seed=seed)
            model, _ = train_debiaser(table, cfg)
            sink.append(leakage_probe(transform(model, table), "group", seed=1))
    assert statistics.median(post_l1) < statistics.median(post_l0)


def test_trace_shape_and_adversary_defeat():
    table = copy_dataset()
    cfg = DebiasConfig(adversary_weight=1.0, epochs=120, seed=3)
    _, trace = train_debiaser(table, cfg)
    assert len(trace) == 120
    for series in (trace.reconstruction_loss, trace.adversary_loss, trace.combined_loss):
        assert len(series) == 120
        assert all(np.isfinite(v) for v in series)
    # with the copy column under attack the adversary ends no better than it started
    assert trace.adversary_loss[-1] >= trace.adversary_loss[0] - 0.05


def test_transform_preserves_schema_and_passthrough():
    table = copy_dataset(n=120)
    cfg = DebiasConfig(adversary_weight=1.0, epochs=60, seed=0)
    model, _ = train_debiaser(table, cfg)
    out = transform(model, table)
    assert out.schema == table.schema
    assert out.n_rows == table.n_rows
    assert out.column("group") == table.column("group")
    assert out.column("outcome") == table.column("outcome")


def test_transform_deterministic():
    table = copy_dataset(n=150)
    cfg = DebiasConfig(adversary_weight=1.0, epochs=60, seed=9)
    m1, t1 = train_debiaser(table, cfg)
    m2, t2 = train_debiaser(table, cfg)
    assert t1.combined_loss == t2.combined_loss
    out1, out2 = transform(m1, table), transform(m2, table)
    assert out1.columns == out2.columns
    # and transform itself has no sampling
    assert transform(m1, table).columns == out1.columns


def test_transform_keeps_no_training_cache():
    """transform's allocation peak stays under the wider of the design matrix
    and the latent code plus one hidden layer's pre-activation and tanh, with
    0.5 MB to spare for small objects: the design matrix and the encoder's
    cache are freed before the decoder runs, and a tanh layer keeps no
    pre-activation."""
    n = 20_000
    rng = derive_rng(0, "transform-memory")
    schema = [ColumnSpec(f"x{i}", "numeric") for i in range(7)] + [
        ColumnSpec("region", "categorical", categories=("north", "south", "east", "west")),
        ColumnSpec("plan", "binary"),
        ColumnSpec("group", "binary", "protected"),
        ColumnSpec("outcome", "binary", "target"),
    ]
    arrays = {f"x{i}": rng.standard_normal(n) for i in range(7)}
    arrays.update({name: rng.integers(0, k, size=n) for name, k in
                   (("region", 4), ("plan", 2), ("group", 2), ("outcome", 2))})
    table = DataTable.from_arrays(schema, arrays)
    model, _ = train_debiaser(table.take_rows(range(300)), DebiasConfig(epochs=1, seed=0))
    d, hidden, latent = model.encoder.dims
    assert (d, hidden, latent) == (13, 26, 7) and model.decoder.dims == (latent, hidden, d)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = transform(model, table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.n_rows == n
    assert peak < 8 * n * (max(d, latent) + 2 * hidden) + 500_000


def test_transform_rejects_schema_mismatch():
    table = copy_dataset(n=120)
    cfg = DebiasConfig(adversary_weight=1.0, epochs=30, seed=0)
    model, _ = train_debiaser(table, cfg)
    other = DataTable(
        [ColumnSpec("copy", "numeric", "feature")] + table.schema[1:],
        dict(table.columns),
    )
    renamed = DataTable(
        [ColumnSpec("different", "numeric", "feature")] + table.schema[1:],
        {**{k: v for k, v in table.columns.items() if k != "copy"},
         "different": table.columns["copy"]},
    )
    transform(model, other)  # same schema is fine
    with pytest.raises(SchemaError):
        transform(model, renamed)


def with_drop_columns(table):
    """`table` with a numeric id column first and a categorical note column third, both role=drop."""
    n = table.n_rows
    arrays = {s.name: table.array(s.name) for s in table.schema}
    arrays["id"] = np.arange(n, dtype=float) + 1000.0
    arrays["note"] = np.arange(n) % 3 - 1  # every code, missing (-1) included
    schema = [ColumnSpec("id", "numeric", "drop"), *table.schema[:2],
              ColumnSpec("note", "categorical", "drop", ("x", "y")), *table.schema[2:]]
    return DataTable.from_arrays(schema, arrays)


def test_a_model_fitted_with_drop_columns_saves_the_bytes_of_one_fitted_without(tmp_path):
    table = copy_dataset(n=120)
    cfg = DebiasConfig(epochs=20, seed=3)
    for name, fitted_on in (("bare", table), ("full", with_drop_columns(table))):
        model, _ = train_debiaser(fitted_on, cfg)
        assert [s.role for s in model.schema].count("drop") == 0
        save_debias_model(model, tmp_path / f"{name}.json")
    assert (tmp_path / "bare.json").read_bytes() == (tmp_path / "full.json").read_bytes()


def test_transform_carries_drop_columns_it_never_saw_in_place():
    table = copy_dataset(n=120)
    model, _ = train_debiaser(table, DebiasConfig(epochs=20, seed=3))
    full = with_drop_columns(table)
    out, bare = transform(model, full), transform(model, table)
    assert out.schema == full.schema
    for s in full.schema:
        expected = full if s.role == "drop" else bare
        assert out.array(s.name).tolist() == expected.array(s.name).tolist(), s.name


def test_transform_still_refuses_a_table_that_lacks_a_fitted_column():
    table = with_drop_columns(copy_dataset(n=120))
    model, _ = train_debiaser(table, DebiasConfig(epochs=5, seed=0))
    lacking = drop_columns(table, ["noise1"])
    # a fitted column marked drop is no longer there for the model either
    hidden = table.replace_column(ColumnSpec("noise1", "numeric", "drop"), table.array("noise1"))
    for other in (lacking, hidden):
        with pytest.raises(SchemaError, match="^table schema does not match the fitted schema$"):
            transform(model, other)


def test_train_rejects_constant_protected():
    table = copy_dataset(n=100)
    cols = dict(table.columns)
    cols["group"] = [0] * 100
    cols["copy"] = [0.0] * 100
    with pytest.raises(DataError, match="constant"):
        train_debiaser(DataTable(table.schema, cols), DebiasConfig(epochs=10))


def test_train_rejects_tiny_tables():
    table = copy_dataset(n=30)
    with pytest.raises(DataError, match="50"):
        train_debiaser(table, DebiasConfig(epochs=10))


def test_train_warns_on_full_capacity_latent():
    table = copy_dataset(n=80)
    with pytest.warns(UserWarning, match="latent_dim"):
        train_debiaser(table, DebiasConfig(latent_dim=10, epochs=5))


def multi_protected_table():
    """Two protected columns, binary and 3-category, each leaked by one feature."""
    rng = derive_rng(4, "multi")
    n = 200
    a = (rng.random(n) < 0.5).astype(int)
    b = rng.choice(["p", "q", "r"], size=n)
    schema = [
        ColumnSpec("x1", "numeric", "feature"),
        ColumnSpec("x2", "numeric", "feature"),
        ColumnSpec("x3", "numeric", "feature"),
        ColumnSpec("ga", "binary", "protected"),
        ColumnSpec("gb", "categorical", "protected", ("p", "q", "r")),
        ColumnSpec("y", "binary", "target"),
    ]
    columns = {
        "x1": [float(v) for v in a + 0.3 * rng.standard_normal(n)],
        "x2": [float(v) for v in (b == "p") + 0.3 * rng.standard_normal(n)],
        "x3": [float(v) for v in rng.standard_normal(n)],
        "ga": [int(v) for v in a],
        "gb": list(b),
        "y": [int(v) for v in (rng.random(n) < 0.5)],
    }
    return DataTable(schema, columns)


def test_multi_protected_columns_train_and_transform():
    table = multi_protected_table()
    model, _ = train_debiaser(table, DebiasConfig(adversary_weight=2.0, epochs=100, seed=0))
    # the fitted schema names the protected columns; the adversary's targets are their
    # concatenated class blocks, one softmax head each
    assert [s.name for s in model.schema if s.role == "protected"] == ["ga", "gb"]
    targets, heads = debias._protected_targets(table, ["ga", "gb"])
    assert targets.shape == (table.n_rows, 2 + 3)
    assert [cols for cols, _ in heads] == [slice(0, 2), slice(2, 5)]
    assert (targets[:, :2].sum(axis=1) == 1).all() and (targets[:, 2:].sum(axis=1) == 1).all()
    out = transform(model, table)
    assert out.column("ga") == table.column("ga")
    assert out.column("gb") == table.column("gb")


def test_probe_multiclass_one_vs_rest():
    rng = derive_rng(6, "ovr")
    n = 300
    g = rng.choice(["u", "v", "w"], size=n)
    schema = [
        ColumnSpec("sig", "numeric", "feature"),
        ColumnSpec("grp", "categorical", "protected", ("u", "v", "w")),
        ColumnSpec("y", "binary", "target"),
    ]
    table = DataTable(
        schema,
        {
            "sig": [float((g[i] == "u") + 0.2 * rng.standard_normal()) for i in range(n)],
            "grp": list(g),
            "y": [int(v) for v in (rng.random(n) < 0.5)],
        },
    )
    score = leakage_probe(table, "grp", seed=0)
    assert 0.5 < score <= 1.0


def test_probe_rejects_single_class():
    table = copy_dataset(n=100)
    cols = dict(table.columns)
    cols["group"] = [1] * 100
    with pytest.raises(DataError, match="single-class"):
        leakage_probe(DataTable(table.schema, cols), "group", seed=0)


def test_model_serialization_round_trip(tmp_path):
    table = copy_dataset(n=120)
    cfg = DebiasConfig(adversary_weight=1.0, epochs=40, seed=2)
    model, trace = train_debiaser(table, cfg)
    path = tmp_path / "model.json"
    save_debias_model(model, path)
    loaded = load_debias_model(path)
    assert loaded.schema == model.schema
    assert loaded.column_map == model.column_map
    assert loaded.scaler == model.scaler
    out_a = transform(model, table)
    out_b = transform(loaded, table)
    assert out_a.columns == out_b.columns
    # a saved model holds what transform reads, and the config as provenance
    assert sorted(json.loads(path.read_text())) == [
        "column_map", "config", "decoder", "encoder", "scaler", "schema"]


def test_a_model_fitted_with_a_missing_binary_cell_saves_loads_and_transforms(tmp_path):
    # the binary feature's one missing cell gets its own design column, named by a string
    table = copy_dataset(n=120)
    arrays = {s.name: table.array(s.name) for s in table.schema}
    arrays["flag"] = np.where(np.arange(120) == 7, -1, np.arange(120) // 5 % 2)
    table = DataTable.from_arrays([ColumnSpec("flag", "binary"), *table.schema], arrays)
    model, _ = train_debiaser(table, DebiasConfig(epochs=3, seed=0))
    assert [c.category for c in model.column_map if c.source == "flag"] == [0, 1, MISSING_CATEGORY]
    save_debias_model(model, tmp_path / "model.json")
    loaded = load_debias_model(tmp_path / "model.json")
    assert loaded.column_map == model.column_map
    write_csv(transform(model, table), tmp_path / "in_memory.csv")
    write_csv(transform(loaded, table), tmp_path / "loaded.csv")
    assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "in_memory.csv").read_bytes()


def test_a_model_file_with_the_retired_adversary_and_protected_entries_still_loads(tmp_path):
    table = copy_dataset(n=120)
    model, _ = train_debiaser(table, DebiasConfig(epochs=5, seed=1))
    save_debias_model(model, tmp_path / "model.json")
    data = json.loads((tmp_path / "model.json").read_text())
    # the older format also saved the adversary net and the protected column names
    latent = model.encoder.dims[-1]
    adversary = mlp_init([latent, latent, 2], derive_rng(1, "adversary"))
    write_json(tmp_path / "old.json", {
        **data, "adversary": debias._net_jsonable(adversary), "protected": ["group"]})
    write_csv(transform(model, table), tmp_path / "in_memory.csv")
    write_csv(transform(load_debias_model(tmp_path / "old.json"), table), tmp_path / "old.csv")
    assert (tmp_path / "old.csv").read_bytes() == (tmp_path / "in_memory.csv").read_bytes()


def test_saved_model_with_a_wrong_length_bias_does_not_load(tmp_path):
    model, _ = train_debiaser(copy_dataset(n=120), DebiasConfig(epochs=2, seed=2))
    path = tmp_path / "model.json"
    save_debias_model(model, path)
    data = json.loads(path.read_text())
    data["encoder"]["biases"][0] = [0.5]  # the encoder's first layer has 8 hidden units
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"biases\[0\] has shape \(1,\), dims need \(8,\)"):
        load_debias_model(path)


@pytest.mark.parametrize("hidden, output", [
    ("relu", "identity"), ("tanh", "sigmoid"),
    ("tanhh", "identity"), ("tanh", "idenity"), ("tanh", "softmax"), ("sigmoid", "identity"),
])
def test_saved_model_with_another_activation_does_not_load(tmp_path, hidden, output):
    model, _ = train_debiaser(copy_dataset(n=120), DebiasConfig(epochs=2, seed=2))
    path = tmp_path / "model.json"
    save_debias_model(model, path)
    data = json.loads(path.read_text())
    # every net is written tanh-hidden, identity-output: the two keys are fixed format values
    for net in ("encoder", "decoder"):
        assert (data[net]["hidden_activation"], data[net]["output_activation"]) == ("tanh", "identity")
    data["encoder"].update(hidden_activation=hidden, output_activation=output)
    path.write_text(json.dumps(data))
    key, bad = ("hidden_activation", hidden) if hidden != "tanh" else ("output_activation", output)
    with pytest.raises(SchemaError, match=f"'{key}' must be .*, got '{bad}'"):
        load_debias_model(path)


def test_trace_csv_export(tmp_path):
    table = copy_dataset(n=100)
    _, trace = train_debiaser(table, DebiasConfig(epochs=15, seed=0))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,recon_loss,adv_loss,combined"
    assert len(lines) == 16


def test_train_divergence_carries_partial_trace():
    table = copy_dataset(n=100)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as err:
        train_debiaser(table, DebiasConfig(epochs=30, learning_rate=1e160, seed=0))
    assert err.value.epoch < 30
    assert err.value.trace is not None
    assert len(err.value.trace) == err.value.epoch + 1


def test_reconstruction_loss_matches_finite_differences():
    from fairprep.debias import _reconstruction_blocks, _summed_loss

    schema = [
        ColumnSpec("a", "numeric", "feature"),
        ColumnSpec("c", "categorical", "feature", ("r", "s", "t")),
        ColumnSpec("b", "numeric", "feature"),
        ColumnSpec("f", "binary", "feature"),
        ColumnSpec("g", "binary", "protected"),
    ]
    table = DataTable(
        schema,
        {
            "a": [0.5, -1.0, 2.0, 0.0, 1.5],
            "c": ["r", "t", "s", "r", "t"],
            "b": [3.0, 1.0, -2.0, 0.5, 0.0],
            "f": [0, 1, 1, 0, 1],
            "g": [0, 1, 0, 1, 0],
        },
    )
    column_map, scaler = encode(table)
    blocks = _reconstruction_blocks(column_map)
    # numeric columns sit on both sides of a one-hot group
    assert [loss_fn.__name__ for _, loss_fn in blocks] == [
        "squared_error", "softmax_cross_entropy", "softmax_cross_entropy"]
    x = apply_encoding(table, column_map, scaler)
    pred = derive_rng(0, "recon-fd").standard_normal(x.shape)
    _, grad = _summed_loss(pred, x, blocks)
    step = 1e-6
    numeric = np.zeros_like(pred)
    for idx in np.ndindex(pred.shape):
        hi, lo = pred.copy(), pred.copy()
        hi[idx] += step
        lo[idx] -= step
        numeric[idx] = (_summed_loss(hi, x, blocks)[0] - _summed_loss(lo, x, blocks)[0]) / (2 * step)
    assert np.max(np.abs(grad - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(numeric)))


def three_category_table(n=230):
    """A 3-category protected column leaked by a numeric and a one-hot feature."""
    rng = derive_rng(5, "three-category")
    g = rng.integers(0, 3, n)
    shade = np.where(rng.random(n) < 0.7, g, rng.integers(0, 3, n))
    schema = [
        ColumnSpec("sig", "numeric", "feature"),
        ColumnSpec("shade", "categorical", "feature", ("light", "mid", "dark")),
        ColumnSpec("noise", "numeric", "feature"),
        ColumnSpec("grp", "categorical", "protected", ("u", "v", "w")),
        ColumnSpec("y", "binary", "target"),
    ]
    columns = {
        "sig": [float(v) for v in g + 0.4 * rng.standard_normal(n)],
        "shade": [("light", "mid", "dark")[v] for v in shade],
        "noise": [float(v) for v in rng.standard_normal(n)],
        "grp": [("u", "v", "w")[v] for v in g],
        "y": [int(v) for v in (rng.random(n) < 0.5)],
    }
    return DataTable(schema, columns)


@pytest.mark.parametrize("make_table, cfg", [
    (lambda: copy_dataset(n=120), DebiasConfig(epochs=25, seed=1)),
    (three_category_table, DebiasConfig(epochs=6, batch_size=64, adversary_steps=2, seed=2)),
    (multi_protected_table, DebiasConfig(adversary_weight=2.0, epochs=15, seed=0)),
    # width-1 layers: the latent code and the adversary's hidden layer are one column each
    (lambda: copy_dataset(n=150), DebiasConfig(latent_dim=1, adversary_hidden=1, epochs=20,
                                               batch_size=64, seed=3)),
], ids=["full-batch-binary", "mini-batch-3-category", "two-protected", "mini-batch-width-1"])
def test_training_matches_the_plain_reference_loop_bit_for_bit(make_table, cfg):
    table = make_table()
    model, trace = train_debiaser(table, cfg)
    ref_encoder, ref_decoder, _, ref_trace = oracles.reference_debias_training(table, cfg)
    # the adversary is not kept; its per-epoch loss in the trace pins its trajectory
    for net, ref in ((model.encoder, ref_encoder), (model.decoder, ref_decoder)):
        for got, want in zip(net.weights + net.biases, ref.weights + ref.biases):
            assert np.array_equal(got, want)
    assert trace.reconstruction_loss == ref_trace.reconstruction_loss
    assert trace.adversary_loss == ref_trace.adversary_loss
    assert trace.combined_loss == ref_trace.combined_loss


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 300), d=st.integers(1, 12), batch=st.integers(1, 300),
       seed=st.integers(0, 2**32 - 1))
def test_property_take_gathers_the_rows_fancy_indexing_gathers(n, d, batch, seed):
    rng = derive_rng(seed, "take")
    X = rng.standard_normal((n, d))
    X[rng.random(X.shape) < 0.2] = -0.0
    X[rng.random(X.shape) < 0.05] = math.nan
    order = rng.permutation(n)
    for idx in (order[i : i + batch] for i in range(0, n, batch)):
        got, want = np.take(X, idx, axis=0), X[idx]
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_minibatch_divergence_ends_the_epoch():
    # a later batch's latent code is non-finite once an update has blown up the encoder
    table = copy_dataset(n=100)
    with pytest.raises(TrainingDivergedError) as err:
        train_debiaser(table, DebiasConfig(epochs=3, learning_rate=1e160, batch_size=30))
    assert len(err.value.trace) == err.value.epoch + 1
    assert not math.isfinite(err.value.trace.combined_loss[-1])
