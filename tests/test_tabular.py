import csv
import errno
import gc
import json
import math
import os
import pickle
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairprep.tabular as tabular
from fairprep import parallel
from fairprep.tabular import (
    KINDS,
    ColumnSpec,
    DataError,
    DataTable,
    SchemaError,
    apply_encoding,
    binarize_threshold,
    bucket_numeric,
    decode,
    drop_columns,
    drop_sparse_columns,
    encode,
    encode_features,
    filter_rows,
    load_csv,
    load_schema,
    nearest_rank_percentile,
    quartile_binarize,
    read_csv_columns,
    save_schema,
    split_indices,
    split_indices_on,
    write_csv,
)

import oracles


# ---------------------------------------------------------------------------
# schema and table construction


def test_column_spec_validation():
    with pytest.raises(SchemaError):
        ColumnSpec("x", "real")
    with pytest.raises(SchemaError):
        ColumnSpec("x", "numeric", "label")
    with pytest.raises(SchemaError):
        ColumnSpec("c", "categorical", categories=())
    with pytest.raises(SchemaError):
        ColumnSpec("c", "categorical", categories=("a", "a"))
    assert ColumnSpec("b", "binary").categories == (0, 1)


def test_table_rejects_bad_cells():
    spec = [ColumnSpec("x", "numeric")]
    with pytest.raises(DataError):
        DataTable(spec, {"x": [float("nan")]})
    spec = [ColumnSpec("c", "categorical", categories=("a", "b"))]
    with pytest.raises(DataError):
        DataTable(spec, {"c": ["z"]})


def test_table_rejects_ragged_columns():
    spec = [ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric")]
    with pytest.raises(SchemaError):
        DataTable(spec, {"x": [1.0], "y": [1.0, 2.0]})


def test_from_arrays_checks_invariants_by_column():
    spec = [ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", categories=("a", "b"))]
    with pytest.raises(DataError, match="'x'"):
        DataTable.from_arrays(spec, {"x": np.array([1.0, np.inf]), "c": np.array([0, 1])})
    for bad in ([0, 2], [-2, 0]):
        with pytest.raises(DataError, match="'c'"):
            DataTable.from_arrays(spec, {"x": np.zeros(2), "c": np.array(bad)})
    with pytest.raises(SchemaError, match="integers"):
        DataTable.from_arrays(spec, {"x": np.zeros(2), "c": np.array([0.0, 1.0])})


def test_stored_arrays_are_read_only(toy_table):
    for name in toy_table.column_names:
        with pytest.raises(ValueError, match="read-only"):
            toy_table.array(name)[0] = 0
    # a writable input array is copied, so writing to it later changes nothing
    x = np.array([1.0, 2.0])
    table = DataTable.from_arrays([ColumnSpec("x", "numeric")], {"x": x})
    x[0] = 99.0
    assert table.column("x") == [1.0, 2.0]


def test_derived_tables_share_no_writable_memory(toy_table):
    unpickled = pickle.loads(pickle.dumps(toy_table))  # as sent to a worker process
    assert dict(unpickled.columns) == dict(toy_table.columns)
    for out in (toy_table.take_rows([4, 0, 2]), filter_rows(toy_table, "group", {"a"}), unpickled):
        for name in toy_table.column_names:
            assert not out.array(name).flags.writeable
            assert not np.shares_memory(out.array(name), toy_table.array(name))


# ---------------------------------------------------------------------------
# CSV + schema files


def test_load_csv_parses_two_rows(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,x\n2,y\n")
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("b", "categorical", categories=("x", "y"))]
    table = load_csv(p, schema)
    assert table.n_rows == 2
    assert table.column("a") == [1.0, 2.0]
    assert table.column("b") == ["x", "y"]


def test_load_csv_coerces_unparseable_to_missing(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,b\nabc,x\nNA,z\n")
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("b", "categorical", categories=("x", "y"))]
    table = load_csv(p, schema)
    assert table.column("a") == [None, None]
    assert table.column("b") == ["x", None]  # 'z' is not a declared category


def test_load_csv_missing_file(tmp_path):
    schema = [ColumnSpec("a", "numeric")]
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", schema)


def test_load_csv_header_mismatch(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,zzz\n1,2\n")
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")]
    with pytest.raises(SchemaError, match="header"):
        load_csv(p, schema)


@pytest.mark.parametrize("text", ["x,c\n1.5,a\n,b\n", 'x,c\n1.5,"a"\n,b\n'],
                         ids=["plain-split", "csv-reader"])
def test_a_utf8_byte_order_mark_is_not_part_of_the_first_header_name(tmp_path, text):
    schema = [ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", categories=("a", "b"))]
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")  # as Excel's "CSV UTF-8" export writes
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert read_csv_columns(marked) == read_csv_columns(plain) == (["x", "c"], [["1.5", ""], ["a", "b"]])
    table = load_csv(marked, schema)
    assert (table.column("x"), table.column("c")) == ([1.5, None], ["a", "b"])


def test_load_csv_duplicate_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("a,a\n1,2\n")
    with pytest.raises(SchemaError, match="duplicate"):
        load_csv(p, [ColumnSpec("a", "numeric")])


def test_csv_round_trip(tmp_path, toy_table):
    p = tmp_path / "out.csv"
    write_csv(toy_table, p)
    back = load_csv(p, toy_table.schema)
    assert back.columns == toy_table.columns


_CSV_LABELS = ("plain", "with, comma", 'say "hi"', "ünïcode")


@st.composite
def _csv_tables(draw):
    n = draw(st.integers(0, 15))
    number = st.floats(allow_nan=False, allow_infinity=False)
    schema = [
        ColumnSpec("x", "numeric"),
        ColumnSpec("label", "categorical", "protected", _CSV_LABELS),
        ColumnSpec("flag", "binary", "target"),
    ]
    columns = {
        "x": draw(st.lists(st.none() | number, min_size=n, max_size=n)),
        "label": draw(st.lists(st.none() | st.sampled_from(_CSV_LABELS), min_size=n, max_size=n)),
        "flag": draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n, max_size=n)),
    }
    return DataTable(schema, columns), columns


@settings(max_examples=80, deadline=None)  # writes files, so a host stall can outlast a deadline
@given(_csv_tables())
def test_property_csv_round_trip_is_byte_stable(drawn):
    table, cells = drawn
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first.csv", Path(tmp) / "second.csv"
        write_csv(table, first)
        back = load_csv(first, table.schema)
        write_csv(back, second)
        assert first.read_bytes() == second.read_bytes()
        with open(first, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
    for name, values in cells.items():
        # a missing cell, and only a missing cell, is written as an empty field
        assert [row[header.index(name)] == "" for row in rows] == [v is None for v in values]
        assert back.column(name) == values
        assert [type(v) for v in back.column(name)] == [type(v) for v in values]


_QUOTING_TEXT = st.text(st.sampled_from(list('ab ,"\r\n')), max_size=4)


@st.composite
def _quoting_tables(draw):
    """One to three columns of any kind; names and labels hold quotes, commas, CR, LF or nothing."""
    names = draw(st.lists(_QUOTING_TEXT, min_size=1, max_size=3, unique=True))
    n = draw(st.integers(0, 8))
    schema, columns = [], {}
    for name in names:
        kind = draw(st.sampled_from(KINDS))
        categories = ()
        if kind == "categorical":
            categories = tuple(draw(st.lists(_QUOTING_TEXT, min_size=1, max_size=4, unique=True)))
            cells = st.none() | st.sampled_from(categories)
        elif kind == "binary":
            cells = st.sampled_from((None, 0, 1))
        else:
            cells = st.none() | st.floats(allow_nan=False, allow_infinity=False)
        schema.append(ColumnSpec(name, kind, categories=categories))
        columns[name] = draw(st.lists(cells, min_size=n, max_size=n))
    return DataTable(schema, columns)


@settings(max_examples=150)
@given(_quoting_tables())
def test_property_write_csv_matches_csv_writer(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(table, path)
        text = path.read_bytes().decode("utf-8")
    rows = zip(*(table.column(name) for name in table.column_names))
    assert text == oracles.reference_csv_text(table.column_names, rows)


def _reference_text(table) -> str:
    rows = zip(*(table.column(name) for name in table.column_names))
    return oracles.reference_csv_text(table.column_names, rows)


@settings(max_examples=100, deadline=None)
@given(_quoting_tables(), st.integers(1, 3))
def test_property_write_csv_in_chunks_matches_csv_writer(table, chunk_rows):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(tabular, "CSV_CHUNK_ROWS", chunk_rows)
        path = Path(tmp) / "t.csv"
        write_csv(table, path)
        text = path.read_bytes().decode("utf-8")
        assert os.listdir(tmp) == ["t.csv"]
    assert text == _reference_text(table)


def _numbers(n: int, missing=()) -> list:
    return [None if i in missing else i / 7 - 3 for i in range(n)]


@pytest.mark.parametrize("schema, columns", [
    pytest.param([ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", categories=("a", "b"))],
                 {"x": [], "c": []}, id="no-rows"),
    pytest.param([ColumnSpec("x", "numeric")], {"x": _numbers(11, {0, 3, 4, 5, 10})},
                 id="one-numeric-column-with-missing-cells"),
    pytest.param([ColumnSpec("", "categorical", categories=("", "b"))],
                 {"": ["", None, "b", None, "", "b", None, None, "b"]},
                 id="one-categorical-column-with-missing-cells-and-an-empty-label"),
    pytest.param([ColumnSpec("x", "numeric"), ColumnSpec("f", "binary")],
                 {"x": _numbers(12, {3}), "f": [i % 3 % 2 if i % 5 else None for i in range(12)]},
                 id="rows-an-exact-multiple-of-the-chunk"),
    pytest.param([ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric")],
                 {"x": _numbers(10, {5}), "y": _numbers(10, {4, 5})}, id="nan-opening-the-second-chunk"),
])
def test_write_csv_edge_cases_match_csv_writer(tmp_path, monkeypatch, schema, columns):
    # 4-row chunks, so each case with rows spans several
    monkeypatch.setattr(tabular, "CSV_CHUNK_ROWS", 4)
    table = DataTable(schema, columns)
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes().decode("utf-8") == _reference_text(table)
    assert os.listdir(tmp_path) == ["t.csv"]


def _wide_table(n: int) -> DataTable:
    schema = [ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", categories=("p", "q, r"))]
    return DataTable.from_arrays(schema, {"x": np.where(np.arange(n) % 97 == 0, np.nan, np.arange(n) / 3),
                                          "c": np.arange(n) % 3 - 1})


def test_write_csv_forks_nothing_at_any_size(tmp_path, monkeypatch):
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    for n in (10_000, 25_000):
        table = _wide_table(n)
        write_csv(table, tmp_path / "t.csv")
        assert forks == []
        assert os.listdir(tmp_path) == ["t.csv"]
        assert (tmp_path / "t.csv").read_bytes().decode("utf-8") == _reference_text(table)


@pytest.mark.parametrize("error", [
    pytest.param(DataError("cell formatting failed"), id="data-error"),
    pytest.param(OSError(errno.ENOSPC, "No space left on device"), id="os-error"),
])
def test_a_failed_write_raises_and_leaves_the_old_file_alone(tmp_path, monkeypatch, error):
    def failing(spec, arr):
        raise error

    monkeypatch.setattr(tabular, "_cell_texts", failing)
    path = tmp_path / "t.csv"
    path.write_bytes(b"old")
    with pytest.raises(type(error)) as raised:
        write_csv(_wide_table(20), path)
    if isinstance(error, OSError):  # retold about the output, not its temp file
        assert (raised.value.errno, raised.value.filename) == (errno.ENOSPC, str(path))
    else:
        assert str(raised.value) == "cell formatting failed"
    assert os.listdir(tmp_path) == ["t.csv"] and path.read_bytes() == b"old"


def test_write_csv_to_a_directory_names_the_path_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "out.csv").mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        write_csv(_wide_table(20), tmp_path / "out.csv")
    assert raised.value.filename == str(tmp_path / "out.csv")
    assert os.listdir(tmp_path) == ["out.csv"]


def test_write_csv_one_column_writes_a_missing_cell_as_quotes(tmp_path):
    table = DataTable([ColumnSpec("x", "numeric")], {"x": [1.0, None, 2.5]})
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b'x\n1.0\n""\n2.5\n'
    assert load_csv(tmp_path / "t.csv", table.schema).column("x") == [1.0, None, 2.5]


def test_category_label_with_outer_spaces_reads_back_as_itself(tmp_path):
    schema = [ColumnSpec("label", "categorical", categories=(" a", "b")), ColumnSpec("x", "numeric")]
    table = DataTable(schema, {"label": [" a", "b", None], "x": [1.0, 2.0, 3.0]})
    write_csv(table, tmp_path / "t.csv")
    assert load_csv(tmp_path / "t.csv", schema).column("label") == [" a", "b", None]
    # a cell that is no label is stripped before the lookup: " b " is "b", " a " is "a", no label
    (tmp_path / "t.csv").write_text("label,x\n a,1\n b ,2\n a ,3\n")
    assert load_csv(tmp_path / "t.csv", schema).column("label") == [" a", "b", None]


def test_write_csv_quotes_a_carriage_return_so_the_file_reads_back(tmp_path):
    schema = [ColumnSpec("label", "categorical", categories=("a\rb", "c")), ColumnSpec("x", "numeric")]
    table = DataTable(schema, {"label": ["a\rb", "c"], "x": [1.0, 2.0]})
    write_csv(table, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == b'label,x\n"a\rb",1.0\nc,2.0\n'
    assert load_csv(tmp_path / "t.csv", schema).column("label") == ["a\rb", "c"]


def test_load_csv_skips_blank_lines_and_rejects_ragged_rows(tmp_path):
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")]
    p = tmp_path / "t.csv"
    p.write_text("a,b\n1,2\n\n3,4\n\n")
    assert load_csv(p, schema).column("a") == [1.0, 3.0]
    p.write_text("a,b\n1,2\n3\n4,5,6\n")
    with pytest.raises(DataError, match="row with 1 cells, expected 2"):
        load_csv(p, schema)


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_csv(p, [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")])


def test_load_csv_refuses_categories_that_are_not_strings(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y\n1,a\n2,a\n1,a\n")
    schema = [ColumnSpec("x", "categorical", categories=(1, 2)), ColumnSpec("y", "categorical", categories=("a",))]
    with pytest.raises(SchemaError, match=r"^column 'x': categories must be strings"):
        load_csv(p, schema)


_PARSE_CELLS = ("", "NA", "inf", "-inf", "nan", "abc", " 1.5 ", "2", "0", "1", "-3e2", "a", " a", "b ", "c")
_PARSE_SPECS = (ColumnSpec("n", "numeric"), ColumnSpec("b", "binary"),
                ColumnSpec("c", "categorical", categories=("a", " a", "b", "NA")))


@st.composite
def _chunked_files(draw):
    """(schema, text): a quote-free CSV of numeric, binary and categorical
    columns, with missing, infinite, unparseable and space-padded cells and
    blank lines anywhere in the body."""
    kinds = draw(st.lists(st.sampled_from(_PARSE_SPECS), min_size=1, max_size=4))
    schema = [ColumnSpec(f"{s.name}{i}", s.kind, categories=s.categories if s.kind == "categorical" else ())
              for i, s in enumerate(kinds)]
    lines = [",".join(s.name for s in schema)]
    for _ in range(draw(st.integers(0, 14))):
        if draw(st.integers(0, 3)) == 0:
            lines.append("")
        else:
            lines.append(",".join(draw(st.lists(st.sampled_from(_PARSE_CELLS),
                                                 min_size=len(schema), max_size=len(schema)))))
    return schema, "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@settings(max_examples=300, deadline=None)
@given(_chunked_files(), st.integers(2, 5))
def test_property_chunked_load_equals_the_whole_file_parse(file, chunk_rows):
    schema, text = file
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "t.csv"
        path.write_text(text, encoding="utf-8")
        header, columns = read_csv_columns(path)
        mp.setattr(tabular, "CSV_CHUNK_ROWS", chunk_rows)
        table = load_csv(path, schema)
    raw = dict(zip(header, columns))
    for spec in schema:
        want, got = tabular._parse_column(spec, raw[spec.name]), table.array(spec.name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_chunked_load_names_a_ragged_row_in_a_later_chunk_before_the_header(tmp_path, monkeypatch):
    monkeypatch.setattr(tabular, "CSV_CHUNK_ROWS", 2)
    p = tmp_path / "t.csv"
    schema = [ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric")]
    p.write_text("a,b\n1,2\n3,4\n\n5,6\n7\n8,9\n")
    with pytest.raises(DataError, match=r"t\.csv: row with 1 cells, expected 2$"):
        load_csv(p, schema)
    # the whole-file ragged scan comes before the header check, as it always has
    p.write_text("a,zzz\n1,2\n3,4\n5,6,7\n")
    with pytest.raises(DataError, match=r"t\.csv: row with 3 cells, expected 2$"):
        load_csv(p, schema)


@pytest.mark.parametrize("text", ["n,b,c", "n,b,c\n", "n,b,c\n\n\n"])
def test_header_only_file_loads_zero_rows_of_each_stored_dtype(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    table = load_csv(p, list(_PARSE_SPECS))
    assert table.n_rows == 0
    assert [table.array(s.name).dtype for s in _PARSE_SPECS] == [np.float64, np.intp, np.intp]


def test_load_csv_never_holds_every_cell_string(tmp_path, monkeypatch):
    """Parsed 500 lines at a time, the load allocates less at its peak than
    the cell strings of the whole file would take on their own. (No cell is
    one character long: CPython shares those strings rather than making them.)"""
    n, width = 20_000, 6
    cells = [[f"{i % 89}.5", ("ab", "cd")[i % 2], f"{i % 2}.0", "NA", f"-{i % 13}", "xy"] for i in range(n)]
    p = tmp_path / "t.csv"
    p.write_text("\n".join([",".join(f"c{j}" for j in range(width))] + [",".join(r) for r in cells]) + "\n")
    every_cell_string = sum(sys.getsizeof(c) for row in cells for c in row)
    del cells
    schema = [ColumnSpec("c0", "numeric"), ColumnSpec("c1", "categorical", categories=("ab", "cd")),
              ColumnSpec("c2", "binary"), ColumnSpec("c3", "numeric"), ColumnSpec("c4", "numeric"),
              ColumnSpec("c5", "categorical", categories=("xy",))]
    monkeypatch.setattr(tabular, "CSV_CHUNK_ROWS", 500)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = load_csv(p, schema)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert table.n_rows == n and table.column("c1")[:3] == ["ab", "cd", "ab"]
    assert peak < every_cell_string, (peak, every_cell_string)


def _read_outcome(read, path):
    """What a reader returns for `path`, or the type and message of the error it raises."""
    try:
        return read(path)
    except (DataError, FileNotFoundError) as exc:
        return type(exc), str(exc)


_READER_CHARS = ("a", "\u00e9", " ", ",", '"', "\r", "\n", "\0")


@st.composite
def _csv_texts(draw):
    """Any text of `_READER_CHARS`, or lines of quote-free rows with blank and ragged lines mixed in."""
    if draw(st.booleans()):
        return draw(st.text(st.sampled_from(_READER_CHARS), max_size=40))
    cell = st.text(st.sampled_from(("a", "\u00e9", " ")), max_size=3)
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("row", "row", "row", "blank", "ragged")))
        n = width if kind == "row" else 0 if kind == "blank" else draw(st.integers(1, 5))
        lines.append(",".join(draw(st.lists(cell, min_size=n, max_size=n))))
    return "\n".join(lines) + draw(st.sampled_from(("", "\n")))


@settings(max_examples=400, deadline=None)
@given(_csv_texts(), st.sampled_from((csv.field_size_limit(), 3)))
@example("a,b\n1,2\n3\n4,5,6\n", csv.field_size_limit())  # the first ragged row is named
@example("\na,b\n1,2\n", csv.field_size_limit())  # a blank first line is a header of no cells
@example("a,b", csv.field_size_limit())  # a header with no trailing newline
@example("a,b\n\n1,2\n\n\n3,4\n\n", csv.field_size_limit())  # blank body lines
@example("", csv.field_size_limit())
@example("\n", csv.field_size_limit())
@example("ab,c\nd,efgh\n", 3)  # a line over the limit: csv.reader names the long field
def test_property_read_csv_columns_matches_csv_reader_oracle(text, limit):
    default_limit = csv.field_size_limit(limit)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            got = _read_outcome(read_csv_columns, path)
            assert got == _read_outcome(oracles.reference_read_csv_columns, path)
    finally:
        csv.field_size_limit(default_limit)


@pytest.mark.parametrize("data", [None, b"a,b\n1,\xff\n", b"a,b\n1,2\n\xc3", b'"a",b\n\xe9\n'],
                         ids=["missing", "bad-byte", "truncated", "bad-byte-quoted"])
def test_read_errors_match_the_oracle(tmp_path, data):
    path = tmp_path / "t.csv"
    if data is not None:
        path.write_bytes(data)
    got = _read_outcome(read_csv_columns, path)
    assert got == _read_outcome(oracles.reference_read_csv_columns, path)
    assert got[0] is (FileNotFoundError if data is None else DataError)


def test_quote_free_file_takes_the_split_path_and_reads_the_oracle_cells(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("x,label,flag\n1.5, a b,1\n\n,NA,0\n-2e3,\u00e9,\n")

    def refuse(text, path):
        raise AssertionError("a quote-free file went to csv.reader")

    monkeypatch.setattr(tabular, "_reader_columns", refuse)
    header, columns = read_csv_columns(path)
    assert (header, columns) == oracles.reference_read_csv_columns(path)
    assert columns == [["1.5", "", "-2e3"], [" a b", "NA", "\u00e9"], ["1", "0", ""]]


@pytest.mark.parametrize("text", ['a,b\n"1,5",2\n', "a,b\r\n1,2\r\n", "a,b\n1\x00,2\n"])
def test_quote_cr_or_nul_sends_a_file_to_csv_reader(tmp_path, monkeypatch, text):
    original, calls = tabular._reader_columns, []

    def spy(text, path):
        calls.append(path)
        return original(text, path)

    monkeypatch.setattr(tabular, "_reader_columns", spy)
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert read_csv_columns(path) == oracles.reference_read_csv_columns(path)
    assert calls == [path]


def test_field_over_the_size_limit_is_a_data_error_on_either_path(tmp_path):
    path = tmp_path / "t.csv"
    for head in ("x,y\n", '"x",y\n'):
        path.write_text(head + "a" * 200_000 + ",1\n")
        with pytest.raises(DataError, match=r"field larger than field limit \(131072\)"):
            read_csv_columns(path)
        assert _read_outcome(read_csv_columns, path) == _read_outcome(
            oracles.reference_read_csv_columns, path)


def test_schema_file_round_trip(tmp_path, toy_table):
    p = tmp_path / "schema.json"
    save_schema(toy_table.schema, p)
    assert load_schema(p) == toy_table.schema


@pytest.mark.parametrize("entry, message", [
    (5, r"^schema entry 1 must be a JSON object$"),
    (["x", "numeric"], r"^schema entry 1 must be a JSON object"),
    ({"name": "a"}, r"^schema entry 1: missing key\(s\) \['kind'\]$"),
    ({"kind": "numeric"}, r"^schema entry 1: missing key\(s\) \['name'\]$"),
    ({"name": 5, "kind": "numeric"}, r"^schema entry 1: name must be a string, got 5$"),
    ({"name": "c", "kind": "categorical", "categories": 5},
     r"^schema entry 1 \('c'\): categories must be a list of strings or numbers, got 5$"),
    ({"name": "c", "kind": "categorical", "categories": "ab"}, r"numbers, got 'ab'$"),
    ({"name": "c", "kind": "categorical", "categories": [["a"], ["b"]]}, r"numbers, got \[\['a'\], \['b'\]\]$"),
    ({"name": "a", "kind": "numeric", "extra": 1}, r"^schema entry 1: unknown key\(s\) \['extra'\]"),
], ids=["number", "list", "no-kind", "no-name", "name-number", "categories-number",
        "categories-string", "categories-nested", "unknown-key"])
def test_schema_entry_that_is_no_column_spec_is_named(entry, message):
    with pytest.raises(SchemaError, match=message):
        tabular.schema_from_jsonable([{"name": "x", "kind": "numeric"}, entry])


def test_bundled_schemas_load_unchanged():
    paths = sorted((Path(__file__).parent.parent / "data").glob("*.schema.json"))
    assert len(paths) == 5
    for path in paths:
        entries = json.loads(path.read_text())
        assert tabular.schema_to_jsonable(load_schema(path)) == [dict(e, role=e.get("role", "feature"))
                                                         for e in entries]


# ---------------------------------------------------------------------------
# row/column transforms


def test_filter_rows_keep_all_is_identity(toy_table):
    out = filter_rows(toy_table, "group", {"a", "b"})
    assert out.columns == toy_table.columns


def test_filter_rows_counts_and_vocabulary(toy_table):
    out = filter_rows(toy_table, "group", {"a"})
    assert out.n_rows == 3
    assert out.spec("group").categories == ("a",)
    # surviving cell values are untouched
    assert out.column("x") == [2.0, 6.0, 3.0]


def test_filter_rows_recodes_shrunken_vocabulary():
    spec = ColumnSpec("c", "categorical", "protected", ("a", "b", "c", "d"))
    table = DataTable(
        [spec, ColumnSpec("x", "numeric")],
        {"c": ["d", "a", None, "b", "c", "d", "b"], "x": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
    )
    out = filter_rows(table, "c", {"d", "b"})
    assert out.spec("c") == ColumnSpec("c", "categorical", "protected", ("b", "d"))
    assert out.column("c") == ["d", "b", "d", "b"]
    assert out.array("c").tolist() == [1, 0, 1, 0]
    assert out.column("x") == [0.0, 3.0, 5.0, 6.0]
    # None in `keep` keeps the missing cells, which stay missing
    assert filter_rows(table, "c", {"c", None}).column("c") == [None, "c"]


def test_filter_rows_empty_result(toy_table):
    with pytest.raises(DataError, match="empty"):
        filter_rows(toy_table, "c", {"nope"})


def test_filter_rows_unknown_column(toy_table):
    with pytest.raises(SchemaError):
        filter_rows(toy_table, "zzz", {"a"})


def test_quartile_binarize_nearest_rank():
    schema = [ColumnSpec("v", "numeric", "target")]
    table = DataTable(schema, {"v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]})
    out = quartile_binarize(table, "v")
    assert out.column("v") == [0, 0, 0, 0, 0, 0, 1, 1]
    assert out.spec("v").kind == "binary"
    assert out.spec("v").role == "target"


def test_quartile_binarize_all_equal_flags_nothing():
    table = DataTable([ColumnSpec("v", "numeric")], {"v": [3.0] * 6})
    assert quartile_binarize(table, "v").column("v") == [0] * 6


def test_quartile_binarize_rejects_missing():
    table = DataTable([ColumnSpec("v", "numeric")], {"v": [1.0, None]})
    with pytest.raises(DataError, match="missing"):
        quartile_binarize(table, "v")


@settings(max_examples=100)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=60))
def test_quartile_binarize_matches_oracle_and_rate(values):
    table = DataTable([ColumnSpec("v", "numeric")], {"v": values})
    out = quartile_binarize(table, "v")
    q3 = oracles.nearest_rank_q(values, 0.75)
    assert out.column("v") == [1 if v > q3 else 0 for v in values]
    assert sum(out.column("v")) <= 0.25 * len(values)


def test_bucket_numeric_boundaries():
    table = DataTable([ColumnSpec("age", "numeric", "protected")], {"age": [34.0, 35.0, 44.9, 45.0, 70.0]})
    out = bucket_numeric(table, "age", [35, 45])
    assert out.column("age") == ["under 35", "35 to 45", "35 to 45", "over 45", "over 45"]
    assert out.spec("age").categories == ("under 35", "35 to 45", "over 45")
    assert out.spec("age").role == "protected"


def test_bucket_numeric_three_distinct():
    table = DataTable([ColumnSpec("age", "numeric")], {"age": [10.0, 40.0, 70.0]})
    assert len(set(bucket_numeric(table, "age", [35, 45]).column("age"))) == 3


def test_bucket_numeric_unsorted_edges():
    table = DataTable([ColumnSpec("age", "numeric")], {"age": [10.0]})
    with pytest.raises(SchemaError, match="ascending"):
        bucket_numeric(table, "age", [45, 35])


def test_binarize_threshold_gte_and_strict():
    table = DataTable([ColumnSpec("s", "numeric", "target")], {"s": [0.0, 1.0, 2.0, 3.0]})
    assert binarize_threshold(table, "s", 1).column("s") == [0, 1, 1, 1]
    table2 = DataTable([ColumnSpec("p", "numeric")], {"p": [49.0, 50.0, 51.0]})
    assert binarize_threshold(table2, "p", 50, strict=True).column("p") == [0, 0, 1]


def test_binarize_threshold_all_zero():
    table = DataTable([ColumnSpec("s", "numeric")], {"s": [0.0, 0.0]})
    assert binarize_threshold(table, "s", 1).column("s") == [0, 0]


def test_drop_sparse_columns_counts_and_ties():
    schema = [ColumnSpec(n, "numeric") for n in ("a", "b", "c")]
    table = DataTable(
        schema,
        {
            "a": [None] * 5 + [1.0] * 5,
            "b": [1.0] * 10,
            "c": [None, None, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        },
    )
    out = drop_sparse_columns(table, 1)
    assert out.column_names == ["b", "c"]
    assert out.column("b") == table.column("b")  # surviving cells untouched
    assert out.column("c") == table.column("c")
    # tie broken by schema order: earlier column goes first
    tied = DataTable(
        [ColumnSpec(n, "numeric") for n in ("a", "b")],
        {"a": [None, 1.0], "b": [None, 2.0]},
    )
    assert drop_sparse_columns(tied, 1).column_names == ["b"]


def test_drop_sparse_columns_zero_is_identity(toy_table):
    assert drop_sparse_columns(toy_table, 0) is toy_table


def test_drop_sparse_columns_k_too_large(toy_table):
    with pytest.raises(SchemaError):
        drop_sparse_columns(toy_table, len(toy_table.schema))


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_dimensions(toy_table):
    column_map, scaler = encode(toy_table)
    # x (1) + c one-hot (3) + flag one-hot (2); protected and target excluded
    assert apply_encoding(toy_table, column_map, scaler).shape == (5, 6)
    assert [(c.source, c.category) for c in column_map] == [
        ("x", None), ("c", "red"), ("c", "green"), ("c", "blue"), ("flag", 0), ("flag", 1)]


def test_encode_standardizes_with_population_std():
    table = DataTable([ColumnSpec("x", "numeric")], {"x": [2.0, 4.0, 6.0]})
    column_map, scaler = encode(table)
    expected = np.array([-1.224744871, 0.0, 1.224744871])
    assert np.allclose(apply_encoding(table, column_map, scaler)[:, 0], expected, atol=1e-9)
    mean, std = scaler[0]
    assert mean == pytest.approx(4.0)
    assert std == pytest.approx(math.sqrt(8.0 / 3.0))


def test_encode_constant_column_keeps_unit_std():
    table = DataTable([ColumnSpec("x", "numeric")], {"x": [5.0, 5.0]})
    column_map, scaler = encode(table)
    assert scaler[0] == (5.0, 1.0)
    assert np.all(apply_encoding(table, column_map, scaler) == 0.0)


def test_encode_excludes_protected_and_carries_it(toy_table):
    column_map, scaler = encode(toy_table)
    assert "group" not in {c.source for c in column_map}
    # decode takes every column that is not a feature from the table, unchanged
    zeros = np.zeros((toy_table.n_rows, len(column_map)))
    back = decode(zeros, column_map, scaler, toy_table)
    assert {c.source for c in column_map} | {"group", "y"} == set(toy_table.column_names)
    assert np.array_equal(back.array("group"), toy_table.array("group"))
    assert np.array_equal(back.array("y"), toy_table.array("y"))


def test_encode_one_hot_rows_sum_to_one(toy_table):
    values = apply_encoding(toy_table, *encode(toy_table))
    for cols in (slice(1, 4), slice(4, 6)):
        assert np.all(values[:, cols].sum(axis=1) == 1.0)


def test_encode_missing_numeric_imputes_to_mean():
    table = DataTable([ColumnSpec("x", "numeric")], {"x": [1.0, None, 3.0]})
    column_map, scaler = encode(table)
    assert apply_encoding(table, column_map, scaler)[1, 0] == 0.0  # fitted mean in standardized units
    assert scaler[0][0] == pytest.approx(2.0)


def test_encode_missing_categorical_gets_its_own_column():
    table = DataTable(
        [ColumnSpec("c", "categorical", categories=("a", "b"))], {"c": ["a", None, "b"]}
    )
    column_map, scaler = encode(table)
    assert [(c.source, c.category) for c in column_map] == [
        ("c", "a"), ("c", "b"), ("c", "__missing__")]
    assert apply_encoding(table, column_map, scaler)[1].tolist() == [0.0, 0.0, 1.0]


def test_encode_skips_drop_columns_and_decode_carries_them():
    table = DataTable([ColumnSpec("junk", "numeric", "drop"), ColumnSpec("x", "numeric"),
                       ColumnSpec("tag", "categorical", "drop", ("a", "b"))],
                      {"junk": [1.0, None], "x": [2.0, 4.0], "tag": ["b", None]})
    column_map, scaler = encode(table)
    assert (column_map, scaler) == encode(drop_columns(table, ["junk", "tag"]))
    assert [c.source for c in column_map] == ["x"]
    out = decode([[2.0], [-1.0]], column_map, scaler, table)  # x is 3 +- 1 standardized
    assert out.schema == table.schema
    assert dict(out.columns) == {"junk": [1.0, None], "x": [5.0, 2.0], "tag": ["b", None]}


def test_apply_encoding_unseen_category_errors(toy_table):
    column_map, scaler = encode(toy_table)
    bigger = DataTable(
        [ColumnSpec("c", "categorical", categories=("red", "green", "blue", "violet"))],
        {"c": ["violet"]},
    )
    mixed = DataTable(
        toy_table.schema[:1] + [bigger.schema[0]] + toy_table.schema[2:],
        {**toy_table.columns, "c": ["violet"] * 5},
    )
    with pytest.raises(DataError, match="unseen"):
        apply_encoding(mixed, column_map, scaler)


def test_decode_round_trip(toy_table):
    column_map, scaler = encode(toy_table)
    back = decode(apply_encoding(toy_table, column_map, scaler), column_map, scaler, toy_table)
    assert [s.name for s in back.schema] == toy_table.column_names
    for name in toy_table.column_names:
        spec = toy_table.spec(name)
        if spec.kind == "numeric":
            assert np.allclose(back.column(name), toy_table.column(name), atol=1e-9)
        else:
            assert back.column(name) == toy_table.column(name)


def test_decode_argmax_and_tie_rule():
    table = DataTable(
        [ColumnSpec("c", "categorical", categories=("a", "b", "c"))], {"c": ["a"]}
    )
    column_map, scaler = encode(table)
    assert decode(np.array([[0.2, 0.7, 0.1]]), column_map, scaler, table).column("c") == ["b"]
    # lowest index wins ties
    assert decode(np.array([[0.5, 0.5, 0.0]]), column_map, scaler, table).column("c") == ["a"]


def test_decode_rejects_non_finite_values(toy_table):
    column_map, scaler = encode(toy_table)
    values = apply_encoding(toy_table, column_map, scaler)
    values[2, 0] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        decode(values, column_map, scaler, toy_table)


def test_decode_dimension_mismatch(toy_table):
    column_map, scaler = encode(toy_table)
    values = apply_encoding(toy_table, column_map, scaler)[:, :3]
    with pytest.raises(SchemaError, match="column"):
        decode(values, column_map, scaler, toy_table)


@st.composite
def _tables(draw):
    n = draw(st.integers(2, 12))
    cats = ("u", "v", "w")

    def cells(values):  # None is a missing cell
        return draw(st.lists(st.none() | values, min_size=n, max_size=n))

    x = cells(st.floats(-50, 50))
    x[draw(st.integers(0, n - 1))] = draw(st.floats(-50, 50))  # the scaler needs one observed cell
    schema = [
        ColumnSpec("x", "numeric", "feature"),
        ColumnSpec("c", "categorical", "feature", cats),
        ColumnSpec("f", "binary", "feature"),
        ColumnSpec("g", "binary", "protected"),
        ColumnSpec("t", "binary", "target"),
    ]
    columns = {"x": x, "c": cells(st.sampled_from(cats))}
    columns.update({name: cells(st.sampled_from((0, 1))) for name in ("f", "g", "t")})
    return DataTable(schema, columns)


@settings(max_examples=100)
@given(_tables())
def test_property_round_trip_and_one_hot(table):
    column_map, scaler = encode(table)
    values = apply_encoding(table, column_map, scaler)
    for source in ("c", "f"):  # each row sets one column of each one-hot group, a missing cell its own
        js = [j for j, dc in enumerate(column_map) if dc.source == source]
        assert np.array_equal(values[:, js].sum(axis=1), np.ones(table.n_rows))
    back = decode(values, column_map, scaler, table)
    x, missing = table.array("x"), table.missing("x")
    assert np.allclose(back.array("x")[~missing], x[~missing], rtol=0.0, atol=1e-9)
    mean = scaler[[dc.source for dc in column_map].index("x")][0]
    assert mean == np.mean(x[~missing])
    assert np.array_equal(back.array("x")[missing], np.full(missing.sum(), mean))
    # codes, -1 for a missing cell, come back exactly; the protected g and target t are carried
    for name in ("c", "f", "g", "t"):
        assert np.array_equal(back.array(name), table.array(name))


# ---------------------------------------------------------------------------
# train/test split


def _split_table(n=100, pos_rate=0.5):
    y = [1 if i < int(n * pos_rate) else 0 for i in range(n)]
    return DataTable(
        [ColumnSpec("x", "numeric", "feature"), ColumnSpec("y", "binary", "target")],
        {"x": [float(i) for i in range(n)], "y": y},
    )


def _same_split(a, b):
    return all(map(np.array_equal, a, b))


def _split_tables(table, test_fraction, seed):
    train_idx, test_idx = split_indices(table, test_fraction, seed)
    assert train_idx.dtype == test_idx.dtype == np.intp
    # a partition of the rows
    assert np.sort(np.concatenate([train_idx, test_idx])).tolist() == list(range(table.n_rows))
    return table.take_rows(train_idx), table.take_rows(test_idx)


def test_split_sizes():
    train, test = _split_tables(_split_table(100), 0.3, seed=0)
    assert train.n_rows == 70 and test.n_rows == 30


def test_split_deterministic():
    t = _split_table(50)
    a = split_indices(t, 0.3, seed=42)
    b = split_indices(t, 0.3, seed=42)
    assert _same_split(a, b)
    c = split_indices(t, 0.3, seed=43)
    assert not _same_split(a, c)


def test_split_stratified_balance():
    train, test = _split_tables(_split_table(100, pos_rate=0.8), 0.3, seed=1)
    assert abs(sum(test.column("y")) - 24) <= 1
    assert test.n_rows == 30


def test_split_small_class_errors():
    t = DataTable(
        [ColumnSpec("x", "numeric"), ColumnSpec("y", "binary", "target")],
        {"x": [float(i) for i in range(12)], "y": [1] + [0] * 11},
    )
    with pytest.raises(DataError, match="fewer than 2"):
        split_indices(t, 0.3, seed=0)


def test_split_needs_ten_rows():
    with pytest.raises(DataError, match=">= 10"):
        split_indices(_split_table(8), 0.3, seed=0)


def test_split_numeric_target_plain_shuffle():
    t = DataTable(
        [ColumnSpec("x", "numeric", "feature"), ColumnSpec("y", "numeric", "target")],
        {"x": [float(i) for i in range(20)], "y": [float(i) / 20 for i in range(20)]},
    )
    train, test = _split_tables(t, 0.25, seed=3)
    assert train.n_rows == 15 and test.n_rows == 5


def test_split_on_named_column_matches_relabelled_target():
    rng = np.random.default_rng(5)
    n = 90
    schema = [
        ColumnSpec("x", "numeric", "feature"),
        ColumnSpec("grp", "categorical", "protected", ("p", "q", "r")),
        ColumnSpec("y", "binary", "target"),
    ]
    columns = {
        "x": [float(v) for v in rng.standard_normal(n)],
        "grp": list(rng.choice(["p", "q", "r"], size=n)),
        "y": [int(v) for v in rng.random(n) < 0.3],
    }
    table = DataTable(schema, columns)
    # the same table with the protected column promoted to the (only) target
    relabelled = DataTable(
        [schema[0], ColumnSpec("grp", "categorical", "target", ("p", "q", "r")),
         ColumnSpec("y", "binary", "feature")],
        columns,
    )
    for seed in (0, 7, 123456789):
        assert _same_split(split_indices_on(table, "grp", 0.3, seed), split_indices(relabelled, 0.3, seed))
    # and split_indices is the named split on the target
    assert _same_split(split_indices(table, 0.3, 3), split_indices_on(table, "y", 0.3, 3))


def test_encode_features_fits_on_train_rows_only():
    schema = [
        ColumnSpec("x", "numeric", "feature"),
        ColumnSpec("c", "categorical", "feature", ("u", "v")),
        ColumnSpec("g", "binary", "protected"),
        ColumnSpec("y", "binary", "target"),
    ]
    table = DataTable(
        schema,
        {
            "x": [1.0, 3.0, 100.0, -50.0],
            "c": ["u", "v", "u", "v"],
            "g": [0, 1, 0, 1],
            "y": [1, 0, 0, 1],
        },
    )
    X = encode_features(table, [0, 1])
    # train rows x = 1, 3: mean 2, population std 1; protected/target are not encoded
    assert X.shape == (4, 3)
    assert X[:, 0].tolist() == [-1.0, 1.0, 98.0, -52.0]
    assert X[:, 1:].tolist() == [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]


def test_encode_on_rows_fits_the_scaler_on_them_and_the_missing_column_on_every_row():
    n = 40
    schema = [ColumnSpec("x", "numeric"), ColumnSpec("c", "categorical", categories=("a", "b")),
              ColumnSpec("y", "binary", "target")]
    table = DataTable(schema, {
        "x": [None if i in (4, 31) else math.sin(i) * 3.0 + 1.0 for i in range(n)],
        "c": [None if i == 33 else "ab"[i % 2] for i in range(n)],
        "y": [i % 2 for i in range(n)],
    })
    rows = [i for i in range(n) if i % 3]  # keeps both missing x cells, leaves out row 33
    column_map, scaler = encode(table, rows)
    rows_map, rows_scaler = encode(table.take_rows(rows))
    # the same scaler bits as an encoding fitted on those rows alone
    assert scaler[0] == rows_scaler[0]
    assert encode(table, np.array(rows)) == (column_map, scaler)
    # only the unfitted row 33 is missing c, and its group still gets the missing column
    assert [(c.source, c.category) for c in rows_map] == [("x", None), ("c", "a"), ("c", "b")]
    assert [(c.source, c.category) for c in column_map] == [
        ("x", None), ("c", "a"), ("c", "b"), ("c", "__missing__")]
    assert apply_encoding(table, column_map, scaler)[33, 1:].tolist() == [0.0, 0.0, 1.0]
    # every row is what encoding the whole table fits on
    assert encode(table, range(n)) == encode(table)
