"""Report serialization.

Reports are plain dicts rendered to canonical JSON: keys sorted, numpy
scalars and arrays converted to built-in types, floats written by their
shortest round-trip representation. Two runs that compute the same
numbers therefore produce byte-identical files.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .. import __version__


def sanitize(obj):
    """Recursively convert report content to JSON-serializable types."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def provenance(config) -> dict:
    return {
        "config_sha256": config.digest(),
        "seed": config.seed,
        "version": __version__,
    }


def render_report(report: dict) -> str:
    return json.dumps(sanitize(report), sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(render_report(report))


def write_table(rows: list[dict], path) -> None:
    """Write a list of flat records, all with the first one's keys, as
    CSV in that key order. Cells go through ``sanitize``, so a
    non-finite float is an empty cell, as None is. No rows write an
    empty file."""
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, list(rows[0]))
            writer.writeheader()
            writer.writerows(sanitize(rows))
