"""Declarative case-study recipes: load a dataset, apply its preparation
transforms, fit the downstream model with the protected column excluded,
audit the estimates, then debias the table and push it through the exact same
pipeline. Pre and post runs share one code path (`_downstream`); only the
table differs, and both reports carry the same config digest as proof.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import audit as audit_mod
from . import mlcore, parallel
from .debias import DebiasConfig, train_debiaser, transform
from .ioutil import canonical_json, read_json, to_jsonable, write_json
from .mlcore import TrainConfig
from .tabular import (
    DataError,
    DataTable,
    SchemaError,
    binarize_threshold,
    bucket_numeric,
    check_block,
    check_test_fraction,
    drop_columns,
    drop_sparse_columns,
    encode_features,
    filter_rows,
    load_csv,
    load_schema,
    quartile_binarize,
    split_indices,
)

# the keys each model kind reads: every TrainConfig field, or the ridge penalty
MODEL_KEYS = {
    "logistic": frozenset({"kind"} | {f.name for f in fields(TrainConfig)}),
    "linear": frozenset({"kind", "ridge_lambda"}),
    "ridge": frozenset({"kind", "ridge_lambda"}),
}
MODEL_KINDS = tuple(MODEL_KEYS)
# every DebiasConfig field except the seed, which comes from the study's seed list
DEBIAS_KEYS = frozenset(f.name for f in fields(DebiasConfig)) - {"seed"}
SOURCE_KEYS = frozenset({"bundled", "url", "filename", "sha256"})
FIT_DEBIAS_ON = ("full", "train")
AUDIT_ON = ("all", "test")


def _is_label(value) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _is_pair(value, is_item) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(is_item, value))


_LABEL_MAP = (lambda v: isinstance(v, dict) and all(map(_is_label, v.values())),
              "an object of string or integer labels")
# the JSON shape of each audit key; `audit_mod.check_settings` then checks bins, range and groups
_AUDIT_SHAPES = {
    "on": (lambda v: v in AUDIT_ON, f"one of {AUDIT_ON}"),
    "groups": (lambda v: v is None or _is_pair(v, _is_label), "a list of two strings or integers"),
    "bins": (lambda v: type(v) is int, "an integer"),
    "range": (lambda v: _is_pair(v, lambda x: type(x) in (int, float)), "a list of two numbers"),
    "group_labels": _LABEL_MAP,
    "stratum_labels": _LABEL_MAP,
}
AUDIT_KEYS = frozenset(_AUDIT_SHAPES)


def _audit_settings(audit: dict) -> dict:
    """The audit block's bins, range and groups as `audit_mod.audit` keywords, if it sets them."""
    settings = {"bins": audit.get("bins"), "value_range": audit.get("range"),
                "group_pair": audit.get("groups")}
    return {k: v for k, v in settings.items() if v is not None}


def _check_audit(audit) -> None:
    check_block(audit, AUDIT_KEYS, "audit")
    for key, value in audit.items():
        is_shape, shape = _AUDIT_SHAPES[key]
        if not is_shape(value):
            raise SchemaError(f"audit.{key} must be {shape}, got {value!r}")
    try:
        audit_mod.check_settings(**_audit_settings(audit))
    except DataError as exc:
        raise SchemaError(f"audit: {exc}") from None


def _is_number(value) -> bool:
    """A finite JSON number that converts to a float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _list_of(is_item):
    return lambda v: isinstance(v, list) and all(map(is_item, v))


def _is_name(value) -> bool:
    return isinstance(value, str)


_COLUMN = (_is_name, "a string")
# each transform op's function and the JSON shape of each key it takes: a step's keys are
# its function's keyword arguments, and every one but `strict` is required
_TRANSFORMS = {
    "filter_rows": (filter_rows, {"column": _COLUMN, "keep": (
        _list_of(lambda v: v is None or _is_label(v)), "a list of strings, integers or nulls")}),
    "quartile_binarize": (quartile_binarize, {"column": _COLUMN}),
    "bucket_numeric": (bucket_numeric, {"column": _COLUMN,
                                        "edges": (_list_of(_is_number), "a list of numbers")}),
    "binarize_threshold": (binarize_threshold, {"column": _COLUMN, "threshold": (_is_number, "a number"),
                                                "strict": (lambda v: type(v) is bool, "true or false")}),
    "drop_sparse_columns": (drop_sparse_columns, {"k": (lambda v: type(v) is int, "an integer")}),
    "drop_columns": (drop_columns, {"names": (_list_of(_is_name), "a list of strings")}),
}


def _check_transforms(transforms) -> None:
    """Raise SchemaError, naming the step and key, unless `transforms` is a list of
    objects, each with a known `op`, exactly that op's keys and values of their shapes."""
    if not isinstance(transforms, list):
        raise SchemaError(f"transforms must be a list of steps, got {transforms!r}")
    for i, step in enumerate(transforms):
        where = f"transforms[{i}]"
        if not isinstance(step, dict):
            raise SchemaError(f"{where} must be a JSON object")
        op = step.get("op")
        if not (isinstance(op, str) and op in _TRANSFORMS):
            raise SchemaError(f"{where}: unknown transform op {op!r}; known: {sorted(_TRANSFORMS)}")
        shapes = _TRANSFORMS[op][1]
        where = f"{where} ({op})"
        check_block(step, {"op", *shapes}, where)
        missing = sorted(set(shapes) - set(step) - {"strict"})
        if missing:
            raise SchemaError(f"{where}: missing key(s) {missing}")
        for key, value in step.items():
            if key != "op" and not shapes[key][0](value):
                raise SchemaError(f"{where}: {key} must be {shapes[key][1]}, got {value!r}")


def apply_transforms(table: DataTable, transforms) -> DataTable:
    """`table` after each step of `transforms`, in order; checked first as a config's are."""
    _check_transforms(transforms)
    for step in transforms:
        fn, _ = _TRANSFORMS[step["op"]]
        table = fn(table, **{key: value for key, value in step.items() if key != "op"})
    return table


@dataclass(kw_only=True)
class StudyConfig:
    """A study recipe. Every setting is checked when the config is made, so a
    bad one fails before any data is loaded or any model is trained."""

    name: str
    source: dict = field(default_factory=dict)
    schema: list
    transforms: list = field(default_factory=list)
    protected: str
    target: str
    model: dict
    debias: dict = field(default_factory=dict)
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    audit: dict = field(default_factory=dict)
    fit_debias_on: str = "full"  # "full": debiaser sees the whole table; "train": the train split only
    test_fraction: float = 0.3
    base_dir: Path = field(default_factory=Path)
    raw: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # the name starts every output file's name, so it may not name a directory
        if not (isinstance(self.name, str) and self.name and Path(self.name).name == self.name):
            raise SchemaError(f"name must be a non-empty string without a path separator, "
                              f"got {self.name!r}")
        check_block(self.source, SOURCE_KEYS, "source")
        for key, value in self.source.items():
            if not (value is None or isinstance(value, str)):
                raise SchemaError(f"source.{key} must be a string or null, got {value!r}")
        _check_transforms(self.transforms)
        kind = self.model.get("kind") if isinstance(self.model, dict) else None
        if kind not in MODEL_KINDS:
            raise SchemaError(f"model must be an object whose kind is one of {MODEL_KINDS}")
        check_block(self.model, MODEL_KEYS[kind], "model")
        try:
            if kind == "logistic":
                _train_config(self.model)
            else:
                mlcore.check_ridge_lambda(_ridge_lambda(self.model))
        except ValueError as exc:
            raise SchemaError(f"model: {exc}") from None
        check_block(self.debias, DEBIAS_KEYS, "debias")
        try:
            self.debias_config(seed=0)
        except ValueError as exc:
            raise SchemaError(f"debias: {exc}") from None
        _check_audit(self.audit)
        if kind != "logistic" and "stratum_labels" in self.audit:
            raise SchemaError(f"audit.stratum_labels: a {kind} study has one stratum, 'all'")
        if self.fit_debias_on not in FIT_DEBIAS_ON:
            raise SchemaError(f"fit_debias_on {self.fit_debias_on!r} is not one of {FIT_DEBIAS_ON}")
        if not (isinstance(self.seeds, list) and self.seeds
                and all(type(s) is int and s >= 0 for s in self.seeds)
                and len(set(self.seeds)) == len(self.seeds)):
            raise SchemaError(f"seeds must be a non-empty list of distinct "
                              f"non-negative integers, got {self.seeds!r}")
        check_test_fraction(self.test_fraction)

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        """Load a study config; an unknown key or a bad value fails naming the file."""
        path = Path(path)
        data = read_json(path)
        check_block(data, STUDY_KEYS, path.name)
        if not isinstance(data.get("schema"), str):
            raise SchemaError(f"{path.name}: schema must be the path of a schema file, "
                              f"got {data.get('schema')!r}")
        schema = load_schema(path.parent / data["schema"])
        try:
            # every config key is a field; one the config leaves out keeps the field's default
            return cls(**dict(data, schema=schema), base_dir=path.parent, raw=data)
        except (SchemaError, TypeError) as exc:  # TypeError: a required key is missing
            raise SchemaError(f"{path.name}: {exc}") from None

    def debias_config(self, seed: int) -> DebiasConfig:
        return DebiasConfig(seed=seed, **self.debias)


# the keys a study config may carry, one per field; anything else is a typo and fails the load
STUDY_KEYS = frozenset(f.name for f in fields(StudyConfig)) - {"base_dir", "raw"}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def load_study_table(cfg: StudyConfig, data_dir=None):
    """Load the study's dataset, preferring the real source when present.

    Looks for `source.filename` under `data_dir` and checks it against
    `source.sha256`; nothing is downloaded. Falls back to the bundled
    subsample with a warning recorded in the returned source info.
    """
    info = {"url": cfg.source.get("url"), "warning": None}
    filename = cfg.source.get("filename")
    if data_dir and filename:
        candidate = Path(data_dir) / filename
        if candidate.exists():
            digest = _sha256(candidate)
            expected = cfg.source.get("sha256")
            if expected and digest != expected:
                raise DataError(
                    f"{candidate}: checksum mismatch (expected {expected}, got {digest})"
                )
            info.update({"path": str(candidate), "sha256": digest, "bundled": False})
            return load_csv(candidate, cfg.schema), info
    bundled = cfg.source.get("bundled")
    if not bundled:
        raise DataError(f"study {cfg.name!r}: dataset unavailable and no bundled subsample")
    bundled_path = cfg.base_dir / bundled
    if not bundled_path.exists():
        raise DataError(f"study {cfg.name!r}: bundled subsample missing at {bundled_path}")
    if cfg.source.get("url"):
        info["warning"] = "real dataset not present; fell back to the bundled subsample"
    info.update({"path": str(bundled_path), "sha256": _sha256(bundled_path), "bundled": True})
    return load_csv(bundled_path, cfg.schema), info


def prepare_table(cfg: StudyConfig, table: DataTable) -> DataTable:
    dropped = [s.name for s in table.specs_with_role("drop")]
    if dropped:
        table = drop_columns(table, dropped)
    table = apply_transforms(table, cfg.transforms)
    # sanity: the recipe must leave the declared protected/target columns behind
    if table.spec(cfg.protected).role != "protected":
        raise SchemaError(f"column {cfg.protected!r} is not role=protected after transforms")
    if table.spec(cfg.target).role != "target":
        raise SchemaError(f"column {cfg.target!r} is not role=target after transforms")
    # the audit labels and compares these groups on every seed: a label or group that
    # matches nothing fails here, untrained
    for key, column in (("group_labels", cfg.protected), ("stratum_labels", cfg.target)):
        cells = [str(c) for c in table.spec(column).categories]
        for cell in cfg.audit.get(key, {}):
            if cell not in cells:
                raise SchemaError(f"audit.{key} key {cell!r} is not a category of column "
                                  f"{column!r}; its categories are {cells}")
    group = _group_of(cfg)
    categories = table.spec(cfg.protected).categories
    present = [group(c) for c in categories]
    for name in cfg.audit.get("groups") or ():
        if name not in present:
            raise SchemaError(f"audit.groups {name!r} is not a group of column "
                              f"{cfg.protected!r}; its groups are {present}")
    if not cfg.audit.get("groups"):
        codes = set(table.array(cfg.protected).tolist())
        found = list(dict.fromkeys(group(c) for i, c in enumerate(categories) if i in codes))
        if len(found) != 2:
            raise SchemaError(f"audit.groups is absent, so the rows of column {cfg.protected!r} "
                              f"must fall in exactly two groups; they fall in {found}")
    return table


def _group_of(cfg: StudyConfig):
    """The audited group of a protected cell: its `audit.group_labels` entry, or itself."""
    labels = cfg.audit.get("group_labels", {})
    return lambda cell: labels.get(str(cell), cell)


def _train_config(model: dict) -> TrainConfig:
    """A logistic model block's TrainConfig; a key the block leaves out keeps its default."""
    return TrainConfig(**{k: v for k, v in model.items() if k != "kind"})


def _ridge_lambda(model: dict):
    """A linear model block's penalty; left out, it is 1 for `ridge` and 0 for `linear`."""
    return model.get("ridge_lambda", 1.0 if model["kind"] == "ridge" else 0.0)


def _fit_model(cfg: StudyConfig, X_train, y_train):
    if cfg.model["kind"] == "logistic":
        return mlcore.fit_logistic(X_train, y_train, _train_config(cfg.model))
    return mlcore.fit_linear(X_train, y_train, float(_ridge_lambda(cfg.model)))


def _downstream(cfg: StudyConfig, table: DataTable, seed: int, split) -> audit_mod.AuditReport:
    """The downstream pipeline shared verbatim by pre- and post-debias runs,
    on the seed's (train_idx, test_idx) split."""
    train_idx, test_idx = split
    X = encode_features(table, train_idx)
    if table.missing(cfg.target).any():
        raise DataError(f"target column {cfg.target!r} has missing cells")
    y = table.array(cfg.target).astype(float)  # binary codes are the 0/1 labels
    model = _fit_model(cfg, X[train_idx], y[train_idx])
    estimates = mlcore.predict(model, X)

    classification = cfg.model["kind"] == "logistic"
    if classification:
        perf_value = mlcore.accuracy(estimates[test_idx], y[test_idx])
        metric = "accuracy"
    else:
        perf_value = mlcore.r_squared(estimates[test_idx], y[test_idx])
        metric = "r_squared"
    performance = {
        "metric": metric,
        "value": perf_value,
        "split": f"{int(round(cfg.test_fraction * 100))}% held-out test, seed {seed}",
    }

    audit_cfg = cfg.audit
    audit_on = audit_cfg.get("on", "all")
    rows = list(range(table.n_rows)) if audit_on == "all" else list(test_idx)
    audited = table.take_rows(rows)
    groups = audited.map_cells(cfg.protected, _group_of(cfg))
    if classification:
        stratum_labels = audit_cfg.get("stratum_labels", {})
        strata = audited.map_cells(cfg.target, lambda v: stratum_labels.get(str(v), str(v)))
        true_values = None
    else:
        strata = ["all"] * len(rows)
        true_values = y[rows]

    return audit_mod.audit(
        estimates[rows],
        groups,
        strata,
        performance=performance,
        true_values=true_values,
        metadata={"seed": seed, "config_digest": cfg.digest(), "audit_on": audit_on},
        **_audit_settings(audit_cfg),
    )


@dataclass
class StudyRun:
    seed: int
    pre: audit_mod.AuditReport
    post: audit_mod.AuditReport

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "pre": audit_mod.report_jsonable(self.pre),
            "post": audit_mod.report_jsonable(self.post),
        }


@dataclass
class StudyResult:
    study: str
    config_digest: str
    config: dict  # the effective configuration, echoed for reproducibility
    source: dict
    runs: list
    aggregate: dict

    def to_jsonable(self) -> dict:
        return to_jsonable(
            {
                "study": self.study,
                "config_digest": self.config_digest,
                "config": self.config,
                "source": self.source,
                "runs": [r.to_jsonable() for r in self.runs],
                "aggregate": self.aggregate,
            }
        )


def _spread(values) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


def _aggregate(cfg: StudyConfig, runs) -> dict:
    strata = [str(r.stratum) for r in runs[0].pre.bias_table.rows]
    bias = {}
    for st in strata:
        bias[st] = {
            "pre": _spread([r.pre.bias_table.scores()[st] for r in runs]),
            "post": _spread([r.post.bias_table.scores()[st] for r in runs]),
        }
    out = {
        "bias_scores": bias,
        "performance": {
            "metric": runs[0].pre.performance["metric"],
            "pre": _spread([r.pre.performance["value"] for r in runs]),
            "post": _spread([r.post.performance["value"] for r in runs]),
        },
    }
    if runs[0].pre.true_table is not None:
        out["true_bias_scores"] = {
            st: _spread([r.pre.true_table.scores()[st] for r in runs]) for st in strata
        }
    return out


def _run_seed(cfg: StudyConfig, table: DataTable, seed: int) -> StudyRun:
    """One seed of a study: split the rows, fit the debiaser, rewrite the
    table, and run the downstream pipeline on the table before and after.

    The split is made once, before training, and serves both pipelines: the
    rewrite keeps the target column the split is stratified on.
    """
    split = split_indices(table, cfg.test_fraction, seed)
    fit_table = table.take_rows(split[0]) if cfg.fit_debias_on == "train" else table
    dmodel, _ = train_debiaser(fit_table, cfg.debias_config(seed))
    debiased = transform(dmodel, table)
    return StudyRun(seed, _downstream(cfg, table, seed, split), _downstream(cfg, debiased, seed, split))


def run_study(cfg: StudyConfig, out_dir=None, data_dir=None, seeds=None) -> StudyResult:
    """Run every seed of a study: prepare, model, audit, debias, repeat, aggregate."""
    seeds = list(cfg.seeds if seeds is None else seeds)
    if not seeds:
        raise ValueError("run_study needs at least one seed")
    table, source_info = load_study_table(cfg, data_dir=data_dir)
    table = prepare_table(cfg, table)
    # with w usable CPUs, this process runs seeds 0, w, 2w, ... and a forked child each other share
    runs = parallel.map(_run_seed, [(cfg, table, seed) for seed in seeds])
    effective = dict(cfg.raw, seeds=seeds)
    result = StudyResult(cfg.name, cfg.digest(), effective, source_info, runs, _aggregate(cfg, runs))
    if out_dir is not None:
        write_study_outputs(result, out_dir)
    return result


def write_study_outputs(result: StudyResult, out_dir) -> None:
    out_dir = Path(out_dir)
    write_json(out_dir / f"{result.study}_result.json", result.to_jsonable())
    for run in result.runs:
        prefix = out_dir / f"{result.study}_seed{run.seed}"
        audit_mod.write_report_csvs(run.pre, f"{prefix}_pre")
        audit_mod.write_report_csvs(run.post, f"{prefix}_post")
