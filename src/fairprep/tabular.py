"""Schema-tagged tabular data and the dataset-preparation transforms.

A DataTable couples a column schema (name, kind, role, categories) with
columnar cell storage. All transforms are pure: they return new tables and
never mutate their input. `encode`/`decode` bridge to a standardized,
one-hot design matrix and back, with a reversible column map, so a table can
make a round trip through any numeric model of its features.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mlcore import derive_rng

KINDS = ("numeric", "categorical", "binary")
ROLES = ("feature", "protected", "target", "drop")

#: category label synthesized for missing categorical cells at encode time
MISSING_CATEGORY = "__missing__"

#: strings treated as a missing cell when reading CSV
MISSING_TOKENS = ("", "NA")


class SchemaError(ValueError):
    """Structural problem: bad column specs, unknown columns, header mismatch."""


class DataError(ValueError):
    """Content problem: empty results, all-missing columns, unusable cells."""


@dataclass(frozen=True)
class ColumnSpec:
    """One column: its name, value kind, pipeline role and (if categorical) vocabulary."""

    name: str
    kind: str
    role: str = "feature"
    categories: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind == "binary":
            object.__setattr__(self, "categories", (0, 1))
        elif self.kind == "categorical":
            cats = tuple(self.categories)
            # declared schemas should carry >= 2 categories, but filtering can
            # legitimately shrink a column to a single kept category
            if not cats:
                raise SchemaError(f"column {self.name!r}: categorical needs categories")
            if len(set(cats)) != len(cats):
                raise SchemaError(f"column {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", cats)
        elif self.categories:
            raise SchemaError(f"column {self.name!r}: numeric columns take no categories")


def _check_cell(spec: ColumnSpec, value):
    if value is None:
        return
    if spec.kind == "numeric":
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise DataError(f"column {spec.name!r}: non-finite numeric cell {value!r}")
    else:
        if value not in spec.categories:
            raise DataError(f"column {spec.name!r}: cell {value!r} not in categories")


@dataclass
class DataTable:
    """Immutable-by-convention table: parallel columns keyed by schema order."""

    schema: list
    columns: dict

    def __post_init__(self):
        names = [s.name for s in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if set(self.columns) != set(names):
            raise SchemaError("columns do not match schema names")
        lengths = {len(self.columns[n]) for n in names}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        for spec in self.schema:
            for v in self.columns[spec.name]:
                _check_cell(spec, v)

    @property
    def n_rows(self) -> int:
        if not self.schema:
            return 0
        return len(self.columns[self.schema[0].name])

    @property
    def column_names(self) -> list:
        return [s.name for s in self.schema]

    def spec(self, name: str) -> ColumnSpec:
        for s in self.schema:
            if s.name == name:
                return s
        raise SchemaError(f"unknown column {name!r}")

    def column(self, name: str) -> list:
        self.spec(name)
        return self.columns[name]

    def specs_with_role(self, role: str) -> list:
        return [s for s in self.schema if s.role == role]

    def take_rows(self, indices) -> "DataTable":
        cols = {n: [self.columns[n][i] for i in indices] for n in self.column_names}
        return DataTable(list(self.schema), cols)

    def replace_column(self, spec: ColumnSpec, values: list) -> "DataTable":
        """Return a table where the column of the same name is swapped for `spec`/`values`."""
        self.spec(spec.name)
        schema = [spec if s.name == spec.name else s for s in self.schema]
        cols = dict(self.columns)
        cols[spec.name] = list(values)
        return DataTable(schema, cols)


# ---------------------------------------------------------------------------
# schema + CSV interchange


def schema_to_jsonable(schema) -> list:
    out = []
    for s in schema:
        entry = {"name": s.name, "kind": s.kind, "role": s.role}
        if s.kind == "categorical":
            entry["categories"] = list(s.categories)
        out.append(entry)
    return out


def schema_from_jsonable(data) -> list:
    if not isinstance(data, list):
        raise SchemaError("schema file must hold a JSON list of column specs")
    schema = []
    for entry in data:
        schema.append(
            ColumnSpec(
                name=entry["name"],
                kind=entry["kind"],
                role=entry.get("role", "feature"),
                categories=tuple(entry.get("categories", ())),
            )
        )
    return schema


def load_schema(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return schema_from_jsonable(json.load(fh))


def save_schema(schema, path) -> None:
    from .ioutil import write_json

    write_json(path, schema_to_jsonable(schema))


def _parse_cell(spec: ColumnSpec, raw: str):
    raw = raw.strip()
    if raw in MISSING_TOKENS:
        return None
    if spec.kind == "numeric":
        try:
            v = float(raw)
        except ValueError:
            return None
        return v if math.isfinite(v) else None
    if spec.kind == "binary":
        try:
            v = float(raw)
        except ValueError:
            return None
        return int(v) if v in (0.0, 1.0) else None
    return raw if raw in spec.categories else None


def load_csv(path, schema) -> DataTable:
    """Read a comma-separated, header-first file into a DataTable.

    The header must contain exactly the schema's names (any order).
    Unparseable cells become missing rather than failing the load.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate header names")
        names = [s.name for s in schema]
        if set(header) != set(names):
            missing = sorted(set(names) - set(header))
            extra = sorted(set(header) - set(names))
            raise SchemaError(
                f"{path}: header does not match schema (missing {missing}, unexpected {extra})"
            )
        col_idx = {n: header.index(n) for n in names}
        columns = {n: [] for n in names}
        for row in reader:
            if len(row) != len(header):
                raise DataError(f"{path}: row with {len(row)} cells, expected {len(header)}")
            for s in schema:
                columns[s.name].append(_parse_cell(s, row[col_idx[s.name]]))
    return DataTable(list(schema), columns)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(table: DataTable, path) -> None:
    """Write the table back to CSV; missing cells become empty fields."""
    from .ioutil import atomic_write_text

    names = table.column_names
    rows = [names]
    for i in range(table.n_rows):
        rows.append([_format_cell(table.columns[n][i]) for n in names])
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(rows)
    atomic_write_text(path, sink.getvalue())


# ---------------------------------------------------------------------------
# row / column transforms


def filter_rows(table: DataTable, column: str, keep) -> DataTable:
    """Keep only rows whose cell in `column` is in `keep`; the column's vocabulary shrinks."""
    spec = table.spec(column)
    if spec.kind not in ("categorical", "binary"):
        raise SchemaError(f"filter_rows needs a categorical column, got {spec.kind!r}")
    keep = set(keep)
    values = table.column(column)
    indices = [i for i, v in enumerate(values) if v in keep]
    if not indices:
        raise DataError(f"filter_rows on {column!r}: empty result")
    out = table.take_rows(indices)
    if spec.kind == "categorical":
        cats = tuple(c for c in spec.categories if c in keep)
        out = out.replace_column(
            ColumnSpec(spec.name, "categorical", spec.role, cats), out.column(column)
        )
    return out


def nearest_rank_percentile(values, q: float) -> float:
    """q-th percentile by the nearest-rank rule: the ceil(q*n)-th smallest value."""
    vals = sorted(values)
    if not vals:
        raise DataError("percentile of empty sequence")
    rank = math.ceil(q * len(vals))
    rank = min(max(rank, 1), len(vals))
    return vals[rank - 1]


def quartile_binarize(table: DataTable, column: str) -> DataTable:
    """Replace a numeric column with a 0/1 flag for strictly exceeding its 75th percentile."""
    spec = table.spec(column)
    if spec.kind != "numeric":
        raise SchemaError(f"quartile_binarize needs a numeric column, got {spec.kind!r}")
    values = table.column(column)
    if any(v is None for v in values):
        raise DataError(f"quartile_binarize: column {column!r} has missing cells")
    if not values:
        raise DataError(f"quartile_binarize: column {column!r} is empty")
    q3 = nearest_rank_percentile(values, 0.75)
    flags = [1 if v > q3 else 0 for v in values]
    return table.replace_column(ColumnSpec(column, "binary", spec.role), flags)


def _format_edge(e: float) -> str:
    return f"{e:g}"


def bucket_labels(edges) -> list:
    labels = [f"under {_format_edge(edges[0])}"]
    for lo, hi in zip(edges, edges[1:]):
        labels.append(f"{_format_edge(lo)} to {_format_edge(hi)}")
    labels.append(f"over {_format_edge(edges[-1])}")
    return labels


def bucket_numeric(table: DataTable, column: str, edges) -> DataTable:
    """Turn a numeric column into half-open buckets; boundary values go to the upper bucket."""
    spec = table.spec(column)
    if spec.kind != "numeric":
        raise SchemaError(f"bucket_numeric needs a numeric column, got {spec.kind!r}")
    edges = list(edges)
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
        raise SchemaError("bucket edges must be strictly ascending")
    labels = bucket_labels(edges)
    values = []
    for v in table.column(column):
        if v is None:
            values.append(None)
            continue
        idx = sum(1 for e in edges if v >= e)
        values.append(labels[idx])
    new_spec = ColumnSpec(column, "categorical", spec.role, tuple(labels))
    return table.replace_column(new_spec, values)


def binarize_threshold(table: DataTable, column: str, threshold: float, strict: bool = False) -> DataTable:
    """Replace a numeric column with 1 where value > threshold (strict) or >= threshold."""
    spec = table.spec(column)
    if spec.kind != "numeric":
        raise SchemaError(f"binarize_threshold needs a numeric column, got {spec.kind!r}")
    values = []
    for v in table.column(column):
        if v is None:
            values.append(None)
        else:
            values.append(int(v > threshold if strict else v >= threshold))
    return table.replace_column(ColumnSpec(column, "binary", spec.role), values)


def drop_columns(table: DataTable, names) -> DataTable:
    names = set(names)
    for n in names:
        table.spec(n)
    schema = [s for s in table.schema if s.name not in names]
    if not schema:
        raise SchemaError("drop_columns would remove every column")
    cols = {s.name: table.columns[s.name] for s in schema}
    return DataTable(schema, cols)


def drop_sparse_columns(table: DataTable, k: int) -> DataTable:
    """Drop the k columns with the most missing cells; ties drop the earlier column."""
    if k >= len(table.schema):
        raise SchemaError(f"cannot drop {k} of {len(table.schema)} columns")
    if k <= 0:
        return table
    counts = []
    for idx, s in enumerate(table.schema):
        missing = sum(1 for v in table.columns[s.name] if v is None)
        counts.append((-missing, idx, s.name))
    doomed = {name for _, _, name in sorted(counts)[:k]}
    return drop_columns(table, doomed)


def split_indices(table: DataTable, test_fraction: float, seed: int):
    """Deterministic (seeded) train/test row indices, stratified on the target column."""
    targets = table.specs_with_role("target")
    if len(targets) != 1:
        raise SchemaError(f"expected exactly one target column, found {len(targets)}")
    return split_indices_on(table, targets[0].name, test_fraction, seed)


def split_indices_on(table: DataTable, column: str, test_fraction: float, seed: int):
    """Deterministic (seeded) train/test row indices, stratified on `column`.

    Categorical/binary columns are split class by class; numeric columns get a
    plain shuffled split. Returns sorted (train_indices, test_indices).
    """
    if not 0.0 < test_fraction < 1.0:
        raise SchemaError(f"test_fraction must be in (0,1), got {test_fraction}")
    if table.n_rows < 10:
        raise DataError(f"need >= 10 rows to split, have {table.n_rows}")
    spec = table.spec(column)
    rng = derive_rng(seed, "train-test-split")
    values = table.column(column)
    test = []
    if spec.kind in ("categorical", "binary"):
        for cat in spec.categories:
            idx = [i for i, v in enumerate(values) if v == cat]
            if not idx:
                continue
            if len(idx) < 2:
                raise DataError(f"column {column!r}: class {cat!r} has fewer than 2 rows")
            perm = rng.permutation(len(idx))
            n_test = int(round(test_fraction * len(idx)))
            n_test = min(max(n_test, 1), len(idx) - 1)
            test.extend(idx[j] for j in perm[:n_test])
    else:
        if any(v is None for v in values):
            raise DataError(f"numeric column {column!r} has missing cells")
        perm = rng.permutation(table.n_rows)
        n_test = int(round(test_fraction * table.n_rows))
        n_test = min(max(n_test, 1), table.n_rows - 1)
        test = list(perm[:n_test])
    test_set = set(test)
    train = [i for i in range(table.n_rows) if i not in test_set]
    return train, sorted(test_set)


def train_test_split(table: DataTable, test_fraction: float, seed: int):
    """Split into (train, test) tables; same seed always gives the same rows."""
    train_idx, test_idx = split_indices(table, test_fraction, seed)
    return table.take_rows(train_idx), table.take_rows(test_idx)


# ---------------------------------------------------------------------------
# design-matrix encoding


@dataclass(frozen=True)
class DesignColumn:
    """Maps one design column back to its source: identity numeric or one one-hot category."""

    source: str
    category: object = None  # None => identity (numeric) column

    @property
    def name(self) -> str:
        if self.category is None:
            return self.source
        return f"{self.source}={self.category}"


@dataclass
class DesignMatrix:
    """Standardized numeric feature block plus everything needed to invert it.

    `values` holds only role=feature columns; protected and target columns are
    carried alongside as raw label vectors so audits and decode can reattach
    them.
    """

    values: np.ndarray
    column_map: tuple
    scaler: tuple  # per design column (mean, std); (0.0, 1.0) for one-hot columns
    schema: list
    protected: dict
    target: tuple | None

    @property
    def feature_names(self) -> list:
        return [c.name for c in self.column_map]


def _fit_categories(spec: ColumnSpec, values) -> tuple:
    cats = tuple(spec.categories)
    if any(v is None for v in values):
        cats = cats + (MISSING_CATEGORY,)
    return cats


def _layout(table: DataTable, fitted_categories: dict):
    """Expand feature columns into design columns using the fitted vocabularies."""
    cmap = []
    for spec in table.schema:
        if spec.role != "feature":
            continue
        if spec.kind == "numeric":
            cmap.append(DesignColumn(spec.name, None))
        else:
            for cat in fitted_categories[spec.name]:
                cmap.append(DesignColumn(spec.name, cat))
    return tuple(cmap)


def _fill_values(table: DataTable, column_map, scaler) -> np.ndarray:
    n = table.n_rows
    values = np.zeros((n, len(column_map)))
    by_source = {}
    for j, dc in enumerate(column_map):
        by_source.setdefault(dc.source, []).append((j, dc.category))
    for source, entries in by_source.items():
        col = table.column(source)
        if entries[0][1] is None:
            j = entries[0][0]
            mean, std = scaler[j]
            for i, v in enumerate(col):
                # missing numeric cells impute to the fitted mean, i.e. 0 after scaling
                values[i, j] = 0.0 if v is None else (v - mean) / std
        else:
            cat_to_j = {cat: j for j, cat in entries}
            for i, v in enumerate(col):
                if v is None:
                    if MISSING_CATEGORY not in cat_to_j:
                        raise DataError(
                            f"column {source!r}: missing cell but encoder was fitted without one"
                        )
                    values[i, cat_to_j[MISSING_CATEGORY]] = 1.0
                elif v in cat_to_j:
                    values[i, cat_to_j[v]] = 1.0
                else:
                    raise DataError(f"column {source!r}: unseen category {v!r}")
    return values


def _carried(table: DataTable):
    protected = {s.name: list(table.column(s.name)) for s in table.specs_with_role("protected")}
    targets = table.specs_with_role("target")
    target = (targets[0].name, list(table.column(targets[0].name))) if targets else None
    return protected, target


def encode(table: DataTable, fit_scaler: bool = True) -> DesignMatrix:
    """Fit an encoding on `table` and apply it.

    Numeric feature columns are standardized with the population standard
    deviation (constant columns keep std=1); categorical/binary columns become
    one-hot groups. Protected and target columns are excluded from the feature
    block and carried alongside. With fit_scaler=False numeric columns are
    passed through unscaled.
    """
    if table.specs_with_role("drop"):
        names = [s.name for s in table.specs_with_role("drop")]
        raise SchemaError(f"drop-role columns must be removed before encoding: {names}")
    fitted = {}
    for spec in table.schema:
        if spec.role == "feature" and spec.kind != "numeric":
            fitted[spec.name] = _fit_categories(spec, table.column(spec.name))
    column_map = _layout(table, fitted)
    scaler = []
    for dc in column_map:
        if dc.category is not None:
            scaler.append((0.0, 1.0))
            continue
        observed = [v for v in table.column(dc.source) if v is not None]
        if not observed:
            raise DataError(f"column {dc.source!r}: all cells missing, cannot fit scaler")
        if not fit_scaler:
            scaler.append((0.0, 1.0))
            continue
        mean = float(np.mean(observed))
        std = float(np.std(observed))  # population std
        scaler.append((mean, std if std > 0.0 else 1.0))
    scaler = tuple(scaler)
    values = _fill_values(table, column_map, scaler)
    protected, target = _carried(table)
    return DesignMatrix(values, column_map, scaler, list(table.schema), protected, target)


def apply_encoding(table: DataTable, column_map, scaler) -> DesignMatrix:
    """Apply a previously fitted encoding to a new table with the same schema."""
    values = _fill_values(table, tuple(column_map), tuple(scaler))
    protected, target = _carried(table)
    return DesignMatrix(values, tuple(column_map), tuple(scaler), list(table.schema), protected, target)


def encode_features(table: DataTable, train_idx) -> np.ndarray:
    """Design matrix of the role=feature columns for every row of `table`.

    The encoding (one-hot vocabularies and standardization) is fitted on the
    `train_idx` rows only, so test rows never inform it.
    """
    fitted = encode(table.take_rows(train_idx), fit_scaler=True)
    return apply_encoding(table, fitted.column_map, fitted.scaler).values


def decode(matrix: DesignMatrix) -> DataTable:
    """Invert a DesignMatrix back to a DataTable with the source schema.

    Numeric columns are inverse-standardized; each one-hot group takes its
    argmax category (lowest index wins ties). Protected and target columns are
    reattached from the carried vectors.
    """
    values = np.asarray(matrix.values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(matrix.column_map):
        raise SchemaError(
            f"value matrix has {values.shape[1] if values.ndim == 2 else '?'} columns, "
            f"column map expects {len(matrix.column_map)}"
        )
    n = values.shape[0]
    groups = {}
    for j, dc in enumerate(matrix.column_map):
        groups.setdefault(dc.source, []).append(j)
    columns = {}
    for spec in matrix.schema:
        if spec.role == "protected":
            columns[spec.name] = list(matrix.protected[spec.name])
        elif spec.role == "target":
            columns[spec.name] = list(matrix.target[1])
        elif spec.kind == "numeric":
            j = groups[spec.name][0]
            mean, std = matrix.scaler[j]
            columns[spec.name] = [float(v * std + mean) for v in values[:, j]]
        else:
            js = groups[spec.name]
            cats = [matrix.column_map[j].category for j in js]
            picks = np.argmax(values[:, js], axis=1)
            columns[spec.name] = [
                None if cats[p] == MISSING_CATEGORY else cats[p] for p in picks
            ]
        if spec.role in ("protected", "target") and len(columns[spec.name]) != n:
            raise SchemaError(f"carried column {spec.name!r} length mismatch")
    return DataTable(list(matrix.schema), columns)
