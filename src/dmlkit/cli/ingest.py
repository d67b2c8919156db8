"""CSV ingestion with loud validation.

Every referenced cell must parse as a finite number; missing or
malformed values are reported with their row and column rather than
dropped.

The data block of a regular file is first parsed in bulk by numpy's C
reader (``np.loadtxt`` on the path). That result is kept only where it must
equal what the row-by-row pass returns: every data line is non-empty,
quote-free, no longer than ``csv``'s field limit and has as many commas
as the header (so ``csv`` splits it exactly at its commas), ``loadtxt``
returns one row per line, and every cell read is finite. The line
conditions are checked before ``loadtxt`` runs, with numpy, on chunks of
whole lines. Any other file -- a blank, ragged or quoted line, a
``nan``, ``inf`` or ``NA`` cell, a cell such as ``1_000`` that only
Python's ``float`` accepts -- goes through the row-by-row pass. That
pass gives the same arrays and raises every ``ParseError``, with its
row and column.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

from ..errors import NonBinaryTreatment, ParseError

# Characters per read of the bulk line check, before the read is
# extended to the end of its last line.
_CHUNK = 1 << 16
# Suffixes on which ``loadtxt`` decompresses the path it is given.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def ingest_csv(path, columns, binary=()) -> dict:
    """Read the named columns from a headered CSV.

    ``columns`` lists the column names to load; ``binary`` names the
    subset that must contain only 0s and 1s. Returns a dict of
    contiguous 1-D float arrays keyed by column name. Data rows are
    numbered from 1 (the header is row 0).

    The data block is parsed in bulk by ``np.loadtxt`` when every line
    is a plain row of finite numbers; otherwise the file is parsed row
    by row, and that pass raises every ``ParseError``. Both give the
    same arrays and the same errors.
    """
    out = _parse_block(path, columns)
    if out is None:
        out = _parse_rows(path, columns)
    for col in binary:
        arr = out[col]
        bad = np.flatnonzero((arr != 0.0) & (arr != 1.0))
        if bad.size:
            raise NonBinaryTreatment(
                f"{path}: column {col!r} must be 0/1; first offending "
                f"data row {bad[0] + 1} has value {float(arr[bad[0]])}")
    return out


def _parse_block(path, columns):
    """The columns as ``_parse_rows`` returns them, parsed in bulk, or
    None where the two passes might differ.

    The header is read apart from the data, since a quoted header could
    span lines; a quote in it declines. The data lines are checked a
    chunk of whole lines at a time, from the newline and comma positions
    in the chunk's UTF-8 bytes; a line's length in bytes is at least its
    length in characters. The file is read with universal newlines, as
    ``loadtxt`` reads the path: for quote-free text they split lines at
    \\n, \\r\\n and a lone \\r, where ``csv`` ends rows under
    ``newline=""``. A ``ValueError`` from a decode or from ``loadtxt``
    declines, and the row-by-row pass then raises what it raises.

    ``loadtxt`` opens the path again, so anything but a regular file (a
    pipe reads empty or blocks the second time) declines before it is
    read, and so does a name ``loadtxt`` would decompress by its suffix
    (the row-by-row pass reads every file as text).
    """
    path = os.fsdecode(path)
    if not os.path.isfile(path) or path.endswith(_COMPRESSED):
        return None
    try:
        with open(path) as fh:
            line = fh.readline()
            if not line or '"' in line:
                return None
            header = [h.strip() for h in next(csv.reader([line]))]
            if any(c not in header for c in columns):
                return None
            commas = len(header) - 1
            # A longer line could hold a field over the limit ``csv``
            # raises on.
            longest = csv.field_size_limit()
            nrows = 0
            while chunk := fh.read(_CHUNK):
                chunk += fh.readline()
                if '"' in chunk:
                    return None
                text = np.frombuffer(chunk.encode(), np.uint8)
                ends = np.flatnonzero(text == ord("\n"))
                if chunk[-1] != "\n":
                    ends = np.append(ends, text.size)
                starts = np.concatenate(([0], ends[:-1] + 1))
                lengths = ends - starts
                if lengths.min() == 0 or lengths.max() > longest:
                    return None
                if (np.add.reduceat(text == ord(","), starts, dtype=np.intp)
                        != commas).any():
                    return None
                nrows += ends.size
        if nrows == 0:
            # Header only: the row-by-row pass raises "no data rows".
            return None
        names = list(dict.fromkeys(columns))
        block = np.loadtxt(
            path, dtype=float, delimiter=",", comments=None, skiprows=1,
            usecols=[header.index(c) for c in names], ndmin=2)
    except ValueError:
        return None
    if block.shape[0] != nrows or not np.isfinite(block).all():
        return None
    return {c: block[:, k].copy() for k, c in enumerate(names)}


def _parse_rows(path, columns):
    """The columns parsed one cell at a time; raises every ``ParseError``."""
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
                if not math.isfinite(val):
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
