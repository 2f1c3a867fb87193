"""Schema-tagged tabular data and the dataset-preparation transforms.

A DataTable couples a column schema (name, kind, role, categories) with one
read-only array per column: float64 with NaN for a missing cell, or integer
codes into `categories` with -1 for a missing cell. All transforms are pure:
they return new tables and never mutate their input. A fitted encoding is two
tuples, (column_map, scaler): `encode` fits one on a table's feature columns,
`apply_encoding` makes a table's standardized, one-hot design matrix (an
ndarray), and `decode` inverts such a matrix, taking every other column from
the table. So a table can make a round trip through any numeric model of its
features.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat
from numbers import Real
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType

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


def _cells_to_array(spec: ColumnSpec, cells) -> np.ndarray:
    """Check a list of cells and convert it to the stored form."""
    if spec.kind == "numeric":
        for v in cells:
            if v is not None and not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DataError(f"column {spec.name!r}: non-finite numeric cell {v!r}")
        return np.array([np.nan if v is None else v for v in cells], dtype=float)
    codes = {**{c: i for i, c in enumerate(spec.categories)}, None: -1}
    try:
        return np.array([codes[v] for v in cells], dtype=np.intp)
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable cell
        raise DataError(f"column {spec.name!r}: cell {exc} not in categories") from None


def _stored(spec: ColumnSpec, values) -> np.ndarray:
    """Check a stored-form array's invariants; return it read-only, sharing no writable memory."""
    arr = np.asarray(values, dtype=float if spec.kind == "numeric" else None)
    if spec.kind != "numeric" and arr.dtype.kind not in "iu":
        raise SchemaError(f"column {spec.name!r}: codes must be integers, got {arr.dtype}")
    bad = np.isinf(arr) if spec.kind == "numeric" else (arr < -1) | (arr >= len(spec.categories))
    if bad.any():
        raise DataError(f"column {spec.name!r}: invalid stored value {arr[bad].tolist()[0]!r}")
    arr = arr.copy() if arr.flags.writeable or not arr.flags.owndata else arr
    arr.flags.writeable = False
    return arr


class DataTable:
    """Immutable table. `columns` maps each name to a list of cells: None for
    missing, a finite int or float, or a member of `categories`."""

    def __init__(self, schema, columns):
        self._set(schema, columns, _cells_to_array)

    @classmethod
    def from_arrays(cls, schema, arrays) -> "DataTable":
        """A table from arrays in the stored form; only invariants are checked, vectorised."""
        table = cls.__new__(cls)
        table._set(schema, arrays, lambda spec, arr: arr)
        return table

    def _set(self, schema, columns, convert) -> None:
        self.schema = list(schema)
        names = self.column_names
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if set(columns) != set(names):
            raise SchemaError("columns do not match schema names")
        lengths = {len(columns[n]) for n in names}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        self._arrays = {s.name: _stored(s, convert(s, columns[s.name])) for s in self.schema}

    def __reduce__(self):
        # rebuilt through from_arrays, so a copy sent to a worker process is read-only too
        return DataTable.from_arrays, (self.schema, self._arrays)

    @property
    def n_rows(self) -> int:
        if not self.schema:
            return 0
        return len(self._arrays[self.schema[0].name])

    @property
    def column_names(self) -> list:
        return [s.name for s in self.schema]

    @property
    def columns(self):
        """Read-only view from column name to its list of cells (see `column`)."""
        return MappingProxyType({n: self.column(n) for n in self.column_names})

    def spec(self, name: str) -> ColumnSpec:
        for s in self.schema:
            if s.name == name:
                return s
        raise SchemaError(f"unknown column {name!r}")

    def array(self, name: str) -> np.ndarray:
        """The stored read-only array: float64 with NaN for missing, or codes with -1."""
        self.spec(name)
        return self._arrays[name]

    def missing(self, name: str) -> np.ndarray:
        arr = self.array(name)
        return np.isnan(arr) if self.spec(name).kind == "numeric" else arr < 0

    def map_cells(self, name: str, fn) -> list:
        """[fn(cell) for cell in column(name)]; on a coded column fn runs once per category."""
        spec, arr = self.spec(name), self._arrays[name]
        if spec.kind != "numeric":  # code -1 picks the trailing None
            return np.array([fn(c) for c in spec.categories + (None,)], dtype=object)[arr].tolist()
        cells = arr.astype(object)
        cells[np.isnan(arr)] = None
        return [fn(v) for v in cells.tolist()]

    def column(self, name: str) -> list:
        """The cells of a column: None for missing, else a float or a category label."""
        return self.map_cells(name, lambda cell: cell)

    def specs_with_role(self, role: str) -> list:
        return [s for s in self.schema if s.role == role]

    def take_rows(self, indices) -> "DataTable":
        idx = np.asarray(indices, dtype=np.intp)
        return DataTable.from_arrays(self.schema, {n: a[idx] for n, a in self._arrays.items()})

    def replace_column(self, spec: ColumnSpec, values) -> "DataTable":
        """Swap the column of the same name for `spec` and the stored-form array `values`."""
        self.spec(spec.name)
        schema = [spec if s.name == spec.name else s for s in self.schema]
        return DataTable.from_arrays(schema, {**self._arrays, spec.name: values})


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


def check_block(block, allowed, where: str) -> None:
    """Raise SchemaError naming `where` unless `block` is a JSON object whose keys are all `allowed`."""
    if not isinstance(block, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}")


#: the keys a schema file's column entry may carry; `name` and `kind` are required
SCHEMA_ENTRY_KEYS = frozenset({"name", "kind", "role", "categories"})


def schema_from_jsonable(data) -> list:
    """The column specs of a schema file's JSON list; an entry that is no
    column spec raises SchemaError naming its index."""
    if not isinstance(data, list):
        raise SchemaError("schema file must hold a JSON list of column specs")
    for i, entry in enumerate(data):
        where = f"schema entry {i}"
        check_block(entry, SCHEMA_ENTRY_KEYS, where)
        missing = sorted({"name", "kind"} - set(entry))
        if missing:
            raise SchemaError(f"{where}: missing key(s) {missing}")
        if not isinstance(entry["name"], str):
            raise SchemaError(f"{where}: name must be a string, got {entry['name']!r}")
        categories = entry.get("categories", [])
        if not (isinstance(categories, list)
                and all(isinstance(c, (str, int, float)) for c in categories)):
            raise SchemaError(f"{where} ({entry['name']!r}): categories must be a list of strings "
                              f"or numbers, got {categories!r}")
    return [ColumnSpec(name=entry["name"], kind=entry["kind"], role=entry.get("role", "feature"),
                       categories=tuple(entry.get("categories", ()))) for entry in data]


def load_schema(path) -> list:
    from .ioutil import read_json

    return schema_from_jsonable(read_json(path))


def save_schema(schema, path) -> None:
    from .ioutil import write_json

    write_json(path, schema_to_jsonable(schema))


def _float_or_nan(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _parse_column(spec: ColumnSpec, raw) -> np.ndarray:
    """Stored-form array of one column of CSV cells; unparseable cells become missing."""
    if spec.kind == "categorical":
        codes = {c: i for i, c in enumerate(spec.categories) if c not in MISSING_TOKENS}
        # the exact cell first, so a label with outer spaces reads back as itself
        return np.array([c if (c := codes.get(r)) is not None else codes.get(r.strip(), -1)
                         for r in raw], dtype=np.intp)
    try:
        values = np.fromiter(map(float, raw), dtype=float, count=len(raw))
    except ValueError:  # an empty, "NA" or other unparseable cell: NaN for each such cell
        values = np.array([_float_or_nan(r) for r in raw], dtype=float)
    values[~np.isfinite(values)] = np.nan
    if spec.kind == "binary":
        return np.where((values == 0.0) | (values == 1.0), values, -1).astype(np.intp)
    return values


def _ragged(path, cells: int, width: int) -> DataError:
    return DataError(f"{path}: row with {cells} cells, expected {width}")


def _reader_columns(text: str, path) -> tuple:
    """`read_csv_columns` by `csv.reader`, for text that a plain split cannot read."""
    try:
        reader = csv.reader(io.StringIO(text, newline=""))
        header = next(reader)
        rows = list(filter(None, reader))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise DataError(f"{path}: {exc}") from None
    if set(map(len, rows)) - {len(header)}:
        bad = next(row for row in rows if len(row) != len(header))
        raise _ragged(path, len(bad), len(header))
    # one list per column, not a tuple per row: far fewer objects for the collector to scan
    return header, [list(map(itemgetter(i), rows)) for i in range(len(header))]


def _checked_csv(path) -> tuple:
    """Read a CSV file and make every whole-file check of `read_csv_columns`.

    Returns (header, columns, None) for text that went to `csv.reader`, else
    (header, None, body): `body` is the list of lines after the header, blank
    ones included, and each line that is not blank holds exactly one cell per
    header name.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not text:
        raise DataError(f"{path}: empty file")
    if any(c in text for c in '"\r\0'):
        return *_reader_columns(text, path), None
    body = text.split("\n")
    if max(map(len, body)) > csv.field_size_limit():
        return *_reader_columns(text, path), None
    del text
    header = body[0].split(",") if body[0] else []  # csv.reader reads a blank line as no cells
    del body[0]
    width = len(header)
    if set(map(str.count, filter(None, body), repeat(","))) - {width - 1}:
        bad = next(line for line in body if line and line.count(",") != width - 1)
        raise _ragged(path, bad.count(",") + 1, width)
    return header, None, body


def _take_columns(lines: list, width: int, n=None) -> list:
    """Cut the first `n` lines (all when None) off `lines`: one list of cell
    strings per column of those lines that are not blank. The line strings
    are freed before the cells are sorted into columns."""
    rows = list(filter(None, lines[:n]))
    del lines[:n]
    if not rows:
        return [[] for _ in range(width)]
    cells = ",".join(rows).split(",")
    del rows
    return [cells[i::width] for i in range(width)]


def read_csv_columns(path) -> tuple:
    """The header of a UTF-8 CSV file and one list of cell strings per header column.

    A leading UTF-8 byte-order mark, which Excel's "CSV UTF-8" export writes,
    is not part of the first header name. Blank lines are skipped, as
    `csv.DictReader` skips them. A missing file is
    a FileNotFoundError; an empty file, bytes that are not UTF-8, a field over
    `csv.field_size_limit()`, or a row whose cell count differs from the
    header's is a DataError naming the file.

    Text with no quote, CR or NUL, and no line longer than the field size
    limit, holds one row per line and one cell per comma-separated piece, so
    it is cut with plain string splits. Any other text goes to `csv.reader`.
    Both paths give the same cells and the same errors.
    """
    header, columns, body = _checked_csv(path)
    return header, columns if body is None else _take_columns(body, len(header))


def load_csv(path, schema) -> DataTable:
    """Read a comma-separated, header-first file into a DataTable.

    The header must contain exactly the schema's names (any order), and a
    categorical column's categories must be strings, as every CSV cell is.
    Unparseable cells become missing rather than failing the load. The file
    is checked as `read_csv_columns` checks it; then a file that takes the
    plain-split path is cut and parsed CSV_CHUNK_ROWS lines at a time, so the
    cell strings of the whole table never exist at once.
    """
    header, columns, body = _checked_csv(path)
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate header names")
    names = [s.name for s in schema]
    if set(header) != set(names):
        missing = sorted(set(names) - set(header))
        extra = sorted(set(header) - set(names))
        raise SchemaError(
            f"{path}: header does not match schema (missing {missing}, unexpected {extra})"
        )
    for s in schema:
        if s.kind == "categorical" and not all(isinstance(c, str) for c in s.categories):
            raise SchemaError(f"column {s.name!r}: categories must be strings to be read from CSV")
    if body is None:
        chunks = [columns]
    else:
        # each chunk's lines are cut off the front of `body`, so they are freed as the arrays grow
        chunks = (_take_columns(body, len(header), CSV_CHUNK_ROWS)
                  for _ in range(0, len(body), CSV_CHUNK_ROWS))
    # an empty piece first, so a file with no data rows gives 0-row arrays of the right dtype
    pieces = {s.name: [_parse_column(s, [])] for s in schema}
    for chunk in chunks:
        raw = dict(zip(header, chunk))
        for s in schema:
            pieces[s.name].append(_parse_column(s, raw[s.name]))
    return DataTable.from_arrays(schema, {s.name: np.concatenate(pieces.pop(s.name)) for s in schema})


def _field(text: str) -> str:
    """`text` as one CSV field: quoted, with inner quotes doubled, if it holds `,`, `"`, CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell_texts(spec: ColumnSpec, arr) -> list:
    if spec.kind == "numeric":  # NaN, the only non-finite value stored, marks a missing cell
        texts = list(map(repr, arr.tolist()))
        if np.isnan(arr).any():
            return ["" if text == "nan" else text for text in texts]
        return texts
    return np.array([_field(str(c)) for c in spec.categories] + [""], dtype=object)[arr].tolist()


#: rows parsed by `load_csv`, or formatted and written by `write_csv`, at a
#: time, so neither the cell strings nor the text of the whole table exist at once
CSV_CHUNK_ROWS = 8192

#: rows from which `write_csv` cuts a table in two parts, formatted at once by
#: this process and a forked child where two CPUs are usable. On a 2-CPU box
#: with a 300 MB caller, an 11-column table broke even at about 4000 rows; at
#: 10 000 rows the forked write took 0.056 s against 0.080 s
MIN_ROWS_FOR_A_WRITER = 10_000


def _write_rows(table: DataTable, path, start: int, stop: int) -> None:
    """Write rows [start, stop) of `table` to the file `path`, CSV_CHUNK_ROWS at a time."""
    columns = [(s, table.array(s.name)) for s in table.schema]
    with open(path, "wb") as fh:
        for lo in range(start, stop, CSV_CHUNK_ROWS):
            texts = [_cell_texts(s, arr[lo:min(lo + CSV_CHUNK_ROWS, stop)]) for s, arr in columns]
            if len(texts) == 1:
                texts = [[text or '""' for text in texts[0]]]
            fh.write(("\n".join(map(",".join, zip(*texts))) + "\n").encode("utf-8"))


def write_csv(table: DataTable, path) -> None:
    """Write the table back to CSV, header first, with "\\n" line ends.

    Missing cells become empty fields, written `""` in a one-column table so
    that no line is blank. Header names and category labels are quoted as
    `_field` says; a number never needs quoting.

    The rows are cut in one part, or in two halves from MIN_ROWS_FOR_A_WRITER
    rows, and one `parallel.map` call formats each part into a temp file
    beside `path`, CSV_CHUNK_ROWS rows at a time. This process formats the
    first part; with two usable CPUs a forked child formats the second
    meanwhile, else this process formats it next. The parts are then copied
    in order after the header. Every schedule gives the same bytes. An
    OSError, here or in the child, names `path`.
    """
    from . import parallel
    from .ioutil import atomic_output, temp_path_beside

    header = [_field(s.name) for s in table.schema]
    if len(header) == 1:
        header = [header[0] or '""']
    n = table.n_rows
    cuts = [0, n // 2, n] if n >= MIN_ROWS_FOR_A_WRITER else [0, n]
    with atomic_output(path) as fh, ExitStack() as parts:
        # the child forks before anything is written, so it holds no buffered bytes of `fh`
        names = [parts.enter_context(temp_path_beside(path)) for _ in cuts[1:]]
        parallel.map(_write_rows, [(table, name, lo, hi) for name, lo, hi in zip(names, cuts, cuts[1:])])
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for name in names:
            with open(name, "rb") as part:
                shutil.copyfileobj(part, fh)


# ---------------------------------------------------------------------------
# row / column transforms


def filter_rows(table: DataTable, column: str, keep) -> DataTable:
    """Keep only rows whose cell in `column` is in `keep`; the column's vocabulary shrinks."""
    spec = table.spec(column)
    if spec.kind not in ("categorical", "binary"):
        raise SchemaError(f"filter_rows needs a categorical column, got {spec.kind!r}")
    keep = set(keep)
    kept = [i for i, c in enumerate(spec.categories) if c in keep]
    rows = np.flatnonzero(np.isin(table.array(column), kept + ([-1] if None in keep else [])))
    if not rows.size:
        raise DataError(f"filter_rows on {column!r}: empty result")
    out = table.take_rows(rows)
    if spec.kind == "categorical":
        recode = np.full(len(spec.categories) + 1, -1)  # the last slot maps missing to missing
        recode[kept] = np.arange(len(kept))
        cats = tuple(spec.categories[i] for i in kept)
        out = out.replace_column(
            ColumnSpec(spec.name, "categorical", spec.role, cats), recode[out.array(column)]
        )
    return out


def nearest_rank_percentile(values, q: float) -> float:
    """q-th percentile by the nearest-rank rule: the ceil(q*n)-th smallest value."""
    vals = np.sort(np.asarray(values, dtype=float))
    if not vals.size:
        raise DataError("percentile of empty sequence")
    rank = math.ceil(q * len(vals))
    rank = min(max(rank, 1), len(vals))
    return float(vals[rank - 1])


def quartile_binarize(table: DataTable, column: str) -> DataTable:
    """Replace a numeric column with a 0/1 flag for strictly exceeding its 75th percentile."""
    spec = table.spec(column)
    if spec.kind != "numeric":
        raise SchemaError(f"quartile_binarize needs a numeric column, got {spec.kind!r}")
    values = table.array(column)
    if table.missing(column).any():
        raise DataError(f"quartile_binarize: column {column!r} has missing cells")
    if not values.size:
        raise DataError(f"quartile_binarize: column {column!r} is empty")
    q3 = nearest_rank_percentile(values, 0.75)
    return table.replace_column(ColumnSpec(column, "binary", spec.role), (values > q3).astype(np.intp))


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
    values = table.array(column)
    # bucket index = the number of edges <= value
    codes = np.searchsorted(np.asarray(edges, dtype=float), values, side="right")
    new_spec = ColumnSpec(column, "categorical", spec.role, tuple(bucket_labels(edges)))
    return table.replace_column(new_spec, np.where(np.isnan(values), -1, codes))


def binarize_threshold(table: DataTable, column: str, threshold: float, strict: bool = False) -> DataTable:
    """Replace a numeric column with 1 where value > threshold (strict) or >= threshold."""
    spec = table.spec(column)
    if spec.kind != "numeric":
        raise SchemaError(f"binarize_threshold needs a numeric column, got {spec.kind!r}")
    values = table.array(column)
    flags = np.where(np.isnan(values), -1, values > threshold if strict else values >= threshold)
    return table.replace_column(ColumnSpec(column, "binary", spec.role), flags)


def drop_columns(table: DataTable, names) -> DataTable:
    names = set(names)
    for n in names:
        table.spec(n)
    schema = [s for s in table.schema if s.name not in names]
    if not schema:
        raise SchemaError("drop_columns would remove every column")
    return DataTable.from_arrays(schema, {s.name: table.array(s.name) for s in schema})


def drop_sparse_columns(table: DataTable, k: int) -> DataTable:
    """Drop the k columns with the most missing cells; ties drop the earlier column."""
    if k >= len(table.schema):
        raise SchemaError(f"cannot drop {k} of {len(table.schema)} columns")
    if k <= 0:
        return table
    counts = [(-int(table.missing(s.name).sum()), idx, s.name) for idx, s in enumerate(table.schema)]
    doomed = {name for _, _, name in sorted(counts)[:k]}
    return drop_columns(table, doomed)


def check_test_fraction(test_fraction) -> None:
    """Raise SchemaError unless `test_fraction` is a number strictly between 0 and 1."""
    if not (isinstance(test_fraction, Real) and 0.0 < test_fraction < 1.0):  # a bool is 0 or 1
        raise SchemaError(f"test_fraction must be a number in (0,1), got {test_fraction!r}")


def split_indices(table: DataTable, test_fraction: float, seed: int):
    """Deterministic (seeded) train/test row indices, stratified on the target column."""
    targets = table.specs_with_role("target")
    if len(targets) != 1:
        raise SchemaError(f"expected exactly one target column, found {len(targets)}")
    return split_indices_on(table, targets[0].name, test_fraction, seed)


def split_indices_on(table: DataTable, column: str, test_fraction: float, seed: int):
    """Deterministic (seeded) train/test row indices, stratified on `column`.

    Categorical/binary columns are split class by class; numeric columns get a
    plain shuffled split. Returns sorted (train_indices, test_indices), two
    `np.intp` arrays.
    """
    check_test_fraction(test_fraction)
    if table.n_rows < 10:
        raise DataError(f"need >= 10 rows to split, have {table.n_rows}")
    spec = table.spec(column)
    rng = derive_rng(seed, "train-test-split")
    values = table.array(column)
    if spec.kind == "numeric":
        if table.missing(column).any():
            raise DataError(f"numeric column {column!r} has missing cells")
        classes = [(None, np.arange(table.n_rows))]
    else:
        classes = [(cat, np.flatnonzero(values == code)) for code, cat in enumerate(spec.categories)]
    in_test = np.zeros(table.n_rows, dtype=bool)
    for cat, idx in classes:
        if not idx.size:
            continue
        if len(idx) < 2:
            raise DataError(f"column {column!r}: class {cat!r} has fewer than 2 rows")
        perm = rng.permutation(len(idx))
        n_test = int(round(test_fraction * len(idx)))
        n_test = min(max(n_test, 1), len(idx) - 1)
        in_test[idx[perm[:n_test]]] = True
    return np.flatnonzero(~in_test), np.flatnonzero(in_test)


# ---------------------------------------------------------------------------
# design-matrix encoding


@dataclass(frozen=True)
class DesignColumn:
    """Maps one design column back to its source: identity numeric or one one-hot category."""

    source: str
    category: object = None  # None => identity (numeric) column


def encode(table: DataTable, rows=None):
    """Fit an encoding on `table`'s feature columns; returns (column_map, scaler).

    Numeric columns are standardized with the mean and population standard
    deviation of the `rows` cells (every row when None; constant columns keep
    std=1; `scaler` holds each design column's (mean, std)). Categorical/binary
    columns become one-hot groups over the schema's categories, with a
    MISSING_CATEGORY column if any cell of `table` is missing, whatever `rows`
    holds: neither carries a statistic of the rows. Protected, target and
    drop-role columns are not encoded.
    """
    rows = slice(None) if rows is None else np.asarray(rows, dtype=np.intp)
    column_map = []
    scaler = []
    for spec in table.specs_with_role("feature"):
        if spec.kind != "numeric":
            missing = (MISSING_CATEGORY,) if table.missing(spec.name).any() else ()
            column_map += [DesignColumn(spec.name, cat) for cat in spec.categories + missing]
            scaler += [(0.0, 1.0)] * (len(spec.categories) + len(missing))
            continue
        col = table.array(spec.name)[rows]
        observed = col[~np.isnan(col)]
        if not observed.size:
            raise DataError(f"column {spec.name!r}: all cells missing, cannot fit scaler")
        std = float(np.std(observed))  # population std
        column_map.append(DesignColumn(spec.name))
        scaler.append((float(np.mean(observed)), std if std > 0.0 else 1.0))
    return tuple(column_map), tuple(scaler)


def apply_encoding(table: DataTable, column_map, scaler) -> np.ndarray:
    """The design matrix of `table` under a fitted encoding, as an ndarray.

    A missing numeric cell takes the fitted mean, i.e. 0 after scaling.
    """
    n = table.n_rows
    values = np.zeros((n, len(column_map)))
    by_source = {}
    for j, dc in enumerate(column_map):
        by_source.setdefault(dc.source, []).append((j, dc.category))
    for source, entries in by_source.items():
        col = table.array(source)
        if entries[0][1] is None:
            j = entries[0][0]
            mean, std = scaler[j]
            values[:, j] = np.where(np.isnan(col), 0.0, (col - mean) / std)
        else:
            cat_to_j = {cat: j for j, cat in entries}
            cats = table.spec(source).categories
            # design column per code, the missing code -1 last; -1 where none was fitted
            js = np.array([cat_to_j.get(c, -1) for c in cats + (MISSING_CATEGORY,)])[col]
            if (js < 0).any():
                i = int(np.argmax(js < 0))
                if col[i] < 0:
                    raise DataError(
                        f"column {source!r}: missing cell but encoder was fitted without one"
                    )
                raise DataError(f"column {source!r}: unseen category {cats[col[i]]!r}")
            values[np.arange(n), js] = 1.0
    return values


def encode_features(table: DataTable, train_idx) -> np.ndarray:
    """Design matrix of the role=feature columns for every row of `table`.

    Standardization is fitted on the `train_idx` rows only, so test rows never
    inform it. The one-hot vocabularies come from the schema, and a group's
    MISSING_CATEGORY column from the whole table, so every row encodes
    whichever rows the split puts in training.
    """
    return apply_encoding(table, *encode(table, train_idx))


def decode(values, column_map, scaler, table: DataTable) -> DataTable:
    """Invert a design matrix of `table`'s rows back to a table with `table`'s schema.

    Numeric columns are inverse-standardized; each one-hot group takes its
    argmax category (lowest index wins ties). Every column that is not a
    feature (protected, target, drop) is taken from `table` unchanged, in
    its place.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != len(column_map):
        raise SchemaError(
            f"value matrix has {values.shape[1] if values.ndim == 2 else '?'} columns, "
            f"column map expects {len(column_map)}"
        )
    if not np.isfinite(values).all():
        raise DataError("value matrix holds non-finite values")
    groups = {}
    for j, dc in enumerate(column_map):
        groups.setdefault(dc.source, []).append(j)
    arrays = {}
    for spec in table.schema:
        if spec.role != "feature":
            arrays[spec.name] = table.array(spec.name)
        elif spec.kind == "numeric":
            j = groups[spec.name][0]
            mean, std = scaler[j]
            arrays[spec.name] = values[:, j] * std + mean
        else:
            js = groups[spec.name]
            # code of each design column; an unknown category gets an out-of-range code
            codes = {**{c: i for i, c in enumerate(spec.categories)}, MISSING_CATEGORY: -1}
            lut = np.array([codes.get(column_map[j].category, len(codes)) for j in js])
            arrays[spec.name] = lut[np.argmax(values[:, js], axis=1)]
    return DataTable.from_arrays(table.schema, arrays)
