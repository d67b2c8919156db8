"""The bulk ingest's line check reads the data block in chunks of whole
lines. Lines, and \\r\\n pairs, split across reads must give what the
row-by-row parser gives, and a bad line in the last chunk of a long file
must still send it to the row-by-row pass. ``loadtxt`` then reads the
path again, so a pipe, or a name it would decompress, goes row by row."""

import csv
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlkit.cli import ingest
from dmlkit.cli.ingest import ingest_csv
from test_ingest import (_assert_same, _numeric_csv, _outcome,
                         _reference_ingest, _write, csv_files)

COLUMNS = ["y", "x", "d"]


@settings(max_examples=400)
@given(csv_files(), st.integers(1, 8))
def test_matches_row_by_row_parser_in_tiny_chunks(tmp_path_factory, case,
                                                  chunk):
    text, columns = case
    path = _write(tmp_path_factory.mktemp("csv") / "data.csv", text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK", chunk)
        _assert_same(path, columns)


def _long_csv(ending, final_newline):
    """About 400 KiB of clean numeric rows and a text column: several
    chunks."""
    text = _numeric_csv(8000, np.random.default_rng(8), ending,
                        text_column=True)
    return text if final_newline else text.rstrip("\r\n")


def _refuse_row_by_row(monkeypatch):
    def row_by_row(*args):
        raise AssertionError("the bulk parse declined a clean file")

    monkeypatch.setattr(ingest, "_parse_rows", row_by_row)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_clean_multi_chunk_file_takes_bulk_path(tmp_path, monkeypatch,
                                                ending, final_newline):
    text = _long_csv(ending, final_newline)
    assert len(text) > 4 * ingest._CHUNK
    path = _write(tmp_path / "clean.csv", text)
    expected = _outcome(_reference_ingest, path, COLUMNS)
    assert expected[0] == "returns"
    _refuse_row_by_row(monkeypatch)
    assert _outcome(ingest_csv, path, COLUMNS) == expected


# Each line passes numpy's reader, so only the line check can decline.
BAD_LINES = {
    # numpy takes the extra field, as no column names it.
    "ragged": "1.5,2,0,a,9",
    # numpy reads two rows where csv reads one with a two-line label.
    "quoted": '1.5,2,0,"a{}4,5,1,b"',
    # numpy skips it.
    "blank": "",
    # numpy reads a cell of any length; csv refuses one over its limit.
    "over_limit": "1." + "0" * csv.field_size_limit() + ",2,0,a",
}


@pytest.mark.parametrize("bad", sorted(BAD_LINES))
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("final_newline", [True, False])
def test_bad_line_in_last_chunk_gives_row_by_row_outcome(tmp_path, bad,
                                                         ending,
                                                         final_newline):
    lines = _long_csv(ending, False).split(ending)
    lines[-2] = BAD_LINES[bad].format(ending)
    text = ending.join(lines) + (ending if final_newline else "")
    path = _write(tmp_path / "bad.csv", text)
    expected = _outcome(_reference_ingest, path, COLUMNS)
    # The quoted label is valid CSV; the other lines raise.
    assert expected[0] == ("returns" if bad == "quoted" else "raises")
    assert _outcome(ingest_csv, path, COLUMNS) == expected


@pytest.mark.parametrize("text, columns", [
    ('"y",d\n1.5,0\n2.5,1\n', ["y", "d"]),
    ('"y\nz",d\n1.5,0\n2.5,1\n', ["d"]),
])
def test_quoted_header_gives_row_by_row_arrays(tmp_path, text, columns):
    path = _write(tmp_path / "quoted.csv", text)
    expected = _outcome(_reference_ingest, path, columns)
    assert expected[0] == "returns"
    assert _outcome(ingest_csv, path, columns) == expected


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_file_with_compression_suffix_is_read_as_text(tmp_path,
                                                            suffix):
    # ``loadtxt`` would decompress the path by its suffix.
    path = _write(tmp_path / f"data.csv{suffix}", "y,d\n1.5,0\n2.5,1\n")
    _assert_same(path, ["y", "d"])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_pipe_is_read_once(tmp_path):
    text = _long_csv("\n", True)
    ref = _outcome(_reference_ingest, _write(tmp_path / "ref.csv", text),
                   COLUMNS)
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    threading.Thread(target=fifo.write_text, args=(text,),
                     daemon=True).start()
    got = []
    reader = threading.Thread(
        target=lambda: got.append(_outcome(ingest_csv, str(fifo), COLUMNS)),
        daemon=True)
    reader.start()
    # A second open of the pipe would wait for a writer that never comes.
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [ref]
