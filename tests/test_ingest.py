"""`ingest_csv` against a frozen copy of the row-by-row parser.

The bulk parse (`np.loadtxt`) and Python's `csv` + `float` disagree on
blank lines, comment lines, ragged rows, quoting, bare carriage returns
and several cell spellings. `ingest_csv` must return exactly what the
row-by-row pass returns, bit for bit, or raise its exception with its
message.
"""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlkit.cli import ingest
from dmlkit.cli.ingest import ingest_csv
from dmlkit.errors import NonBinaryTreatment, ParseError


def _reference_ingest(path, columns):
    """The row-by-row parser as it stood before the bulk parse."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        missing_cols = [c for c in columns if c not in header]
        if missing_cols:
            raise ParseError(
                f"{path}: missing column(s) {', '.join(missing_cols)}; "
                f"header has {', '.join(header)}")
        index = {c: header.index(c) for c in columns}
        values = {c: [] for c in columns}
        missing_cells = []
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"{path}: row {rownum} has {len(row)} fields, "
                    f"expected {len(header)}")
            for col, j in index.items():
                cell = row[j].strip()
                if cell == "" or cell.upper() in ("NA", "NAN", "NULL"):
                    missing_cells.append((rownum, col))
                    continue
                try:
                    val = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {rownum}, column {col!r}: "
                        f"cannot parse {cell!r} as a number") from None
                if not np.isfinite(val):
                    missing_cells.append((rownum, col))
                    continue
                values[col].append(val)
    if missing_cells:
        shown = ", ".join(f"(row {r}, {c})" for r, c in missing_cells[:10])
        more = "" if len(missing_cells) <= 10 else \
            f" and {len(missing_cells) - 10} more"
        raise ParseError(
            f"{path}: {len(missing_cells)} missing or non-finite value(s) "
            f"at {shown}{more}; rows are never silently dropped")
    n = None
    out = {}
    for col in columns:
        arr = np.asarray(values[col], dtype=float)
        if n is None:
            n = arr.size
        out[col] = arr
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    return out


def _outcome(parse, path, columns):
    try:
        table = parse(path, columns)
    except Exception as exc:  # every exception is part of the contract
        return "raises", type(exc), str(exc)
    for arr in table.values():
        assert arr.ndim == 1 and arr.flags.c_contiguous
    return "returns", [(c, a.dtype.str, a.tobytes()) for c, a in table.items()]


def _assert_same(path, columns):
    expected = _outcome(_reference_ingest, path, columns)
    assert _outcome(ingest_csv, path, columns) == expected


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# Cells on which numpy's reader and `float` may disagree.
DIVERGENT = ["1_000", " 1.5 ", "\t1.5\t", "+1.5", "-0", "1e400",
             "nan", "inf", "Infinity", "NA", "", "0x10", "1.5d0", "#3",
             '"1.5"', '"1,5"', '"1.5', "١٢", "３.5", "\u00a01.5"]
NAMES = ["a", "b", "c"]

cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map("%.17g".__mod__),
    st.sampled_from(DIVERGENT))
endings = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    ncol = draw(st.integers(1, 3))
    lines = [",".join(NAMES[:ncol])]
    for _ in range(draw(st.integers(0, 5))):
        width = ncol + draw(st.sampled_from([0, 0, 0, -ncol, -1, 1]))
        lines.append(",".join(draw(st.lists(cells, min_size=width,
                                            max_size=width))))
    text = "".join(line + draw(endings) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    columns = draw(st.lists(st.sampled_from(NAMES[:ncol]), min_size=1,
                            max_size=3))
    return text, columns


@settings(max_examples=400)
@given(csv_files())
def test_matches_row_by_row_parser(tmp_path_factory, case):
    text, columns = case
    path = _write(tmp_path_factory.mktemp("csv") / "data.csv", text)
    _assert_same(path, columns)


@pytest.mark.parametrize("text, columns, expected", [
    # numpy skips blank lines, mid-file and at the end.
    ("y,d\n1,0\n\n2,1\n", ["y", "d"], "row 2 has 0 fields, expected 2"),
    ("y,d\n1,0\n2,1\n\n", ["y", "d"], "row 3 has 0 fields, expected 2"),
    # With usecols, numpy takes rows with extra or missing fields.
    ("y,d,w\n1,0,x\n2,1,x,9\n", ["y", "d"], "row 2 has 4 fields, expected 3"),
    ("y,d,w\n1,0\n2,1,x\n", ["y", "d"], "row 1 has 2 fields, expected 3"),
    # With comments="#" numpy drops these lines.
    ("y,d\n#1,0\n2,1\n", ["y", "d"], "cannot parse '#1' as a number"),
    ("y\n1\n#\n", ["y"], "cannot parse '#' as a number"),
    # A header alone makes numpy warn and return nothing.
    ("y,d\n", ["y", "d"], "no data rows"),
    ("y,d,w\n1,2,\n", ["w"], r"missing or non-finite value\(s\) at \(row 1"),
    ('y\n"1,5"\n', ["y"], "cannot parse '1,5' as a number"),
    # A quoted comma in a column no config names: numpy counts 3 fields.
    ('y,name,w\n1.5,"a,b"\n', ["y"], "row 1 has 2 fields, expected 3"),
])
def test_bulk_parse_traps_raise_row_by_row_errors(tmp_path, text, columns,
                                                  expected):
    path = _write(tmp_path / "trap.csv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=expected):
            ingest_csv(path, columns)
    _assert_same(path, columns)


@pytest.mark.parametrize("text, columns, expected", [
    # numpy reads a file ended by bare carriage returns as 0 rows.
    ("y,d\r1,0\r2.5,1\r", ["y", "d"], {"y": [1.0, 2.5], "d": [0.0, 1.0]}),
    ("y,d\r\n1,0\r\n2.5,1", ["y", "d"], {"y": [1.0, 2.5], "d": [0.0, 1.0]}),
    # A text column no config names.
    ("y,name,d\n1.5,alice,1\n2.5,bob,0\n", ["y", "d"],
     {"y": [1.5, 2.5], "d": [1.0, 0.0]}),
    # Cells only Python's float accepts.
    ("y\n1_000\n ١٢\n", ["y"], {"y": [1000.0, 12.0]}),
    ('y,d\n"1.5",1\n', ["y", "d"], {"y": [1.5], "d": [1.0]}),
    ("y,d\n1,0\n2,1\n", ["d", "y", "d"], {"d": [0.0, 1.0], "y": [1.0, 2.0]}),
])
def test_bulk_parse_traps_return_row_by_row_values(tmp_path, text, columns,
                                                   expected):
    path = _write(tmp_path / "trap.csv", text)
    table = ingest_csv(path, columns)
    assert list(table) == list(expected)
    for col, values in expected.items():
        assert table[col].tolist() == values
    _assert_same(path, columns)


def test_field_over_csv_limit_raises_csv_error(tmp_path):
    # numpy reads a field of any length; csv refuses one over its limit.
    cell = "1." + "0" * csv.field_size_limit()
    path = _write(tmp_path / "long.csv", f"y\n{cell}\n")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        ingest_csv(path, ["y"])
    _assert_same(path, ["y"])


def test_nonbinary_value_printed_as_float(tmp_path):
    path = _write(tmp_path / "bad.csv", "y,d\n1.0,2\n2.0,0\n")
    with pytest.raises(NonBinaryTreatment, match=r"row 1 has value 2\.0$"):
        ingest_csv(path, ["y", "d"], binary=["d"])


def _numeric_csv(n, rng, ending="\n", text_column=False):
    X = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-5, 6, size=(n, 3))
    X[:, 2] = rng.integers(0, 2, size=n)
    header, suffix = ("y,x,d,label", ",a b") if text_column else ("y,x,d", "")
    rows = [",".join("%.17g" % v for v in row) + suffix for row in X]
    return ending.join([header, *rows]) + ending


@pytest.mark.parametrize("n, ending, text_column", [
    (3, "\n", False), (30000, "\n", False), (50, "\r\n", False),
    (50, "\r", False), (50, "\n", True)])
def test_clean_numeric_file_takes_bulk_path(tmp_path, monkeypatch, rng, n,
                                            ending, text_column):
    path = _write(tmp_path / "clean.csv",
                  _numeric_csv(n, rng, ending, text_column))
    expected = _outcome(_reference_ingest, path, ["y", "x", "d"])
    assert expected[0] == "returns"

    def row_by_row(*args):
        raise AssertionError("the bulk parse declined a clean file")

    monkeypatch.setattr(ingest, "_parse_rows", row_by_row)
    assert _outcome(ingest_csv, path, ["y", "x", "d"]) == expected
    table = ingest_csv(path, ["y", "x", "d"], binary=["d"])
    assert table["y"].size == n
