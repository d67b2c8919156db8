"""CSV ingestion with loud validation.

Every referenced cell must parse as a finite number; missing or
malformed values are reported with their row and column rather than
dropped.
"""

from __future__ import annotations

import csv

import numpy as np

from ..errors import NonBinaryTreatment, ParseError


def ingest_csv(path, columns, binary=()) -> dict:
    """Read the named columns from a headered CSV.

    ``columns`` lists the column names to load; ``binary`` names the
    subset that must contain only 0s and 1s. Returns a dict of float
    arrays keyed by column name. Data rows are numbered from 1 (the
    header is row 0).
    """
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
        values: dict[str, list[float]] = {c: [] for c in columns}
        missing_cells: list[tuple[int, str]] = []
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
    for col in binary:
        arr = out[col]
        bad = np.flatnonzero((arr != 0.0) & (arr != 1.0))
        if bad.size:
            raise NonBinaryTreatment(
                f"{path}: column {col!r} must be 0/1; first offending "
                f"data row {bad[0] + 1} has value {arr[bad[0]]!r}")
    return out
