"""Declarative case-study recipes: load a dataset, apply its preparation
transforms, fit the downstream model with the protected column excluded,
audit the estimates, then debias the table and push it through the exact same
pipeline. Pre and post runs share one code path (`_downstream`); only the
table differs, and both reports carry the same config digest as proof.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

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
    drop_columns,
    drop_sparse_columns,
    encode_features,
    filter_rows,
    load_csv,
    load_schema,
    quartile_binarize,
    split_indices,
)

MODEL_KINDS = ("logistic", "linear", "ridge")

# the keys a study config may carry; anything else is a typo and fails the load
STUDY_KEYS = frozenset({
    "name", "source", "schema", "transforms", "protected", "target", "model", "debias",
    "seeds", "audit", "fit_debias_on", "test_fraction",
})
MODEL_KEYS = frozenset({"kind", "learning_rate", "epochs", "l2", "ridge_lambda"})
AUDIT_KEYS = frozenset({"on", "groups", "group_labels", "stratum_labels", "bins", "range"})
# every DebiasConfig field except the seed, which comes from the study's seed list
DEBIAS_KEYS = frozenset(f.name for f in fields(DebiasConfig)) - {"seed"}
FIT_DEBIAS_ON = ("full", "train")
AUDIT_ON = ("all", "test")


def _check_block(block, allowed, where: str) -> dict:
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")
    return block


def _is_label(value) -> bool:
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _check_audit_values(audit: dict, where: str) -> None:
    """Raise SchemaError unless the audit block's groups, bins, range and label maps are usable."""
    groups = audit.get("groups")
    if groups is not None and not (isinstance(groups, list) and len(groups) == 2
                                   and all(map(_is_label, groups)) and groups[0] != groups[1]):
        raise SchemaError(f"{where}.groups must be a list of two distinct strings or integers, "
                          f"got {groups!r}")
    bins = audit.get("bins", 20)
    if not (type(bins) is int and bins >= 1):
        raise SchemaError(f"{where}.bins must be an integer >= 1, got {bins!r}")
    value_range = audit.get("range", [0.0, 1.0])
    if not (isinstance(value_range, list) and len(value_range) == 2
            and all(map(_is_finite_real, value_range))
            and value_range[0] < value_range[1]):
        raise SchemaError(f"{where}.range must be two finite numbers lo < hi, got {value_range!r}")
    for key in ("group_labels", "stratum_labels"):
        labels = audit.get(key, {})
        if not (isinstance(labels, dict) and all(map(_is_label, labels.values()))):
            raise SchemaError(f"{where}.{key} must be an object of string or integer labels, "
                              f"got {labels!r}")


def _apply_transform(table: DataTable, step: dict) -> DataTable:
    op = step.get("op")
    if op == "filter_rows":
        return filter_rows(table, step["column"], step["keep"])
    if op == "quartile_binarize":
        return quartile_binarize(table, step["column"])
    if op == "bucket_numeric":
        return bucket_numeric(table, step["column"], step["edges"])
    if op == "binarize_threshold":
        return binarize_threshold(
            table, step["column"], step["threshold"], step.get("strict", False)
        )
    if op == "drop_sparse_columns":
        return drop_sparse_columns(table, step["k"])
    if op == "drop_columns":
        return drop_columns(table, step["names"])
    raise SchemaError(f"unknown transform op {op!r}")


def apply_transforms(table: DataTable, transforms) -> DataTable:
    for step in transforms:
        table = _apply_transform(table, step)
    return table


@dataclass
class StudyConfig:
    name: str
    source: dict
    schema: list
    transforms: list
    protected: str
    target: str
    model: dict
    debias: dict
    seeds: list
    audit: dict = field(default_factory=dict)
    fit_debias_on: str = "full"  # "full": debiaser sees the whole table; "train": the train split only
    test_fraction: float = 0.3
    base_dir: Path = field(default_factory=Path)
    raw: dict = field(default_factory=dict, repr=False)

    def digest(self) -> str:
        return hashlib.sha256(canonical_json(self.raw).encode("utf-8")).hexdigest()

    @classmethod
    def from_json(cls, path) -> "StudyConfig":
        path = Path(path)
        data = read_json(path)
        base = path.parent
        _check_block(data, STUDY_KEYS, path.name)
        model = _check_block(data["model"], MODEL_KEYS, f"{path.name}: model")
        if model.get("kind") not in MODEL_KINDS:
            raise SchemaError(f"model kind must be one of {MODEL_KINDS}")
        try:
            if model["kind"] == "logistic":
                _train_config(model, seed=0)
            elif not _is_finite_nonnegative_number(model.get("ridge_lambda", 0.0)):
                raise ValueError(
                    f"ridge_lambda must be a finite number >= 0, got {model['ridge_lambda']!r}"
                )
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path.name}: model: {exc}") from None
        debias = _check_block(data.get("debias", {}), DEBIAS_KEYS, f"{path.name}: debias")
        try:
            DebiasConfig(**debias)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path.name}: debias: {exc}") from None
        audit = _check_block(data.get("audit", {}), AUDIT_KEYS, f"{path.name}: audit")
        if audit.get("on", "all") not in AUDIT_ON:
            raise SchemaError(f"{path.name}: audit.on {audit['on']!r} is not one of {AUDIT_ON}")
        _check_audit_values(audit, f"{path.name}: audit")
        fit_debias_on = data.get("fit_debias_on", "full")
        if fit_debias_on not in FIT_DEBIAS_ON:
            raise SchemaError(
                f"{path.name}: fit_debias_on {fit_debias_on!r} is not one of {FIT_DEBIAS_ON}"
            )
        seeds = data.get("seeds", [0, 1, 2, 3, 4])
        if not (isinstance(seeds, list) and seeds
                and all(type(s) is int and s >= 0 for s in seeds)
                and len(set(seeds)) == len(seeds)):
            raise SchemaError(f"{path.name}: seeds must be a non-empty list of distinct "
                              f"non-negative integers, got {seeds!r}")
        test_fraction = data.get("test_fraction", 0.3)
        if not (_is_real(test_fraction) and 0 < test_fraction < 1):
            raise SchemaError(
                f"{path.name}: test_fraction must be a number in (0,1), got {test_fraction!r}"
            )
        return cls(
            name=data["name"],
            source=data.get("source", {}),
            schema=load_schema(base / data["schema"]),
            transforms=data.get("transforms", []),
            protected=data["protected"],
            target=data["target"],
            model=model,
            debias=debias,
            seeds=list(seeds),
            audit=audit,
            fit_debias_on=fit_debias_on,
            test_fraction=float(test_fraction),
            base_dir=base,
            raw=data,
        )

    def debias_config(self, seed: int) -> DebiasConfig:
        return DebiasConfig(seed=seed, **self.debias)


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
    return table


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    # an int past the float range is no finite float: float() of it overflows
    return _is_real(value) and abs(value) <= sys.float_info.max


def _is_finite_nonnegative_number(value) -> bool:
    return _is_finite_real(value) and value >= 0


def _train_config(model: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=model.get("learning_rate", 0.1),
        epochs=model.get("epochs", 500),
        l2=model.get("l2", 1e-4),
        seed=seed,
    )


def _fit_model(cfg: StudyConfig, X_train, y_train, seed: int):
    kind = cfg.model["kind"]
    if kind == "logistic":
        return mlcore.fit_logistic(X_train, y_train, _train_config(cfg.model, seed))
    lam = float(cfg.model.get("ridge_lambda", 1.0 if kind == "ridge" else 0.0))
    return mlcore.fit_linear(X_train, y_train, lam)


def _downstream(cfg: StudyConfig, table: DataTable, seed: int) -> audit_mod.AuditReport:
    """The downstream pipeline shared verbatim by pre- and post-debias runs."""
    train_idx, test_idx = split_indices(table, cfg.test_fraction, seed)
    X = encode_features(table, train_idx)
    if table.missing(cfg.target).any():
        raise DataError(f"target column {cfg.target!r} has missing cells")
    y = table.array(cfg.target).astype(float)  # binary codes are the 0/1 labels
    model = _fit_model(cfg, X[train_idx], y[train_idx], seed)
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
    group_labels = audit_cfg.get("group_labels", {})
    stratum_labels = audit_cfg.get("stratum_labels", {})
    groups = audited.map_cells(cfg.protected, lambda v: group_labels.get(str(v), v))
    if classification:
        strata = audited.map_cells(cfg.target, lambda v: stratum_labels.get(str(v), str(v)))
        true_values = None
    else:
        strata = ["all"] * len(rows)
        true_values = y[rows]

    pair = audit_cfg.get("groups")
    if pair is not None:
        pair = tuple(pair)
    lo, hi = audit_cfg.get("range", (0.0, 1.0))
    return audit_mod.audit(
        estimates[rows],
        groups,
        strata,
        group_pair=pair,
        performance=performance,
        bins=audit_cfg.get("bins", 20),
        value_range=(float(lo), float(hi)),
        true_values=true_values,
        metadata={"seed": seed, "config_digest": cfg.digest(), "audit_on": audit_on},
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
    """One seed of a study: fit the debiaser, rewrite the table, and run the
    downstream pipeline on the table before and after."""
    if cfg.fit_debias_on == "train":
        train_idx, _ = split_indices(table, cfg.test_fraction, seed)
        fit_table = table.take_rows(train_idx)
    else:
        fit_table = table
    dmodel, _ = train_debiaser(fit_table, cfg.debias_config(seed))
    debiased = transform(dmodel, table)
    return StudyRun(seed, _downstream(cfg, table, seed), _downstream(cfg, debiased, seed))


def run_study(cfg: StudyConfig, out_dir=None, data_dir=None, seeds=None) -> StudyResult:
    """Run every seed of a study: prepare, model, audit, debias, repeat, aggregate."""
    seeds = list(cfg.seeds if seeds is None else seeds)
    if not seeds:
        raise ValueError("run_study needs at least one seed")
    table, source_info = load_study_table(cfg, data_dir=data_dir)
    table = prepare_table(cfg, table)
    # one forked child per seed and usable CPU; with one, the seeds run in this process
    runs = parallel.map(_run_seed, [(cfg, table, seed) for seed in seeds],
                        parallel.worker_count(len(seeds)))
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
