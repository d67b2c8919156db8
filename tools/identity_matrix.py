"""Byte-identity matrix: run the same CLI commands on two source trees
and check that they write the same bytes.

    python tools/identity_matrix.py OLD_SRC NEW_SRC [--work DIR]

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts
(say, a parent commit and a change). Each run is a fresh
``python -m dmlkit.cli`` process with that directory on ``PYTHONPATH``,
started in a case directory of the same relative path on both sides, so
that paths in its output match. The matrix:

- ``estimate`` of every estimand on a 400-row study CSV (the columns of
  ``tests/test_cli.py``'s study, controls ``w1, w2``, seed 3), with the
  default learners, ``learner = tree``, ``learner = lasso`` and
  ``alpha = 0.1``, and ``placebo`` on the panel DiD columns with the
  same four variants. A variant an estimand does not read fails with
  exit 2 on both sides, which is compared too;
- ``cate-pipeline`` with each of the six meta-learners;
- ``simulate`` of every registered DGP x estimator pair at 3
  replications and n = min(the DGP's default n, 1000);
- ``validate-config`` on every config above.

For each run the exit code, stdout, stderr and every output file must
match. Prints one line per difference and a summary; exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

CONTROLS = "w1, w2"
STUDY_KEYS = {
    "plm": {"treatment": "dc", "controls": CONTROLS},
    "ate": {"treatment": "d", "controls": CONTROLS},
    "atet": {"treatment": "d", "controls": CONTROLS},
    "gate": {"treatment": "d", "controls": CONTROLS, "group": "g"},
    "pliv": {"treatment": "dc", "instrument": "zc", "controls": CONTROLS},
    "late": {"treatment": "dl", "instrument": "z", "controls": CONTROLS},
    "did_panel": {"outcome_pre": "y_pre", "treatment": "d",
                  "controls": CONTROLS},
    "did_rcs": {"time": "t", "treatment": "d", "controls": CONTROLS},
    "did_canonical": {"treatment": "d", "time": "t"},
    "rct": {"treatment": "d", "controls": CONTROLS},
    "rdd": {"running": "r", "bandwidth": "0.6"},
    "cate-pipeline": {"treatment": "d", "controls": CONTROLS,
                      "learner_effect": "linear"},
    "sensitivity": {"treatment": "dc", "controls": CONTROLS,
                    "r2_y": "0.05", "r2_d": "0.05"},
    "weak_id": {"treatment": "dc", "instrument": "zc", "controls": CONTROLS,
                "grid_lower": "-2", "grid_upper": "3", "grid_points": "101"},
}
VARIANTS = {"default": {}, "tree": {"learner": "tree"},
            "lasso": {"learner": "lasso"}, "alpha": {"alpha": "0.1"}}
META_KINDS = ("S", "T", "X", "DAX", "DR", "R")
SIM_MAX_N, SIM_REPLICATIONS = 1000, 3
PAIRS = """
import json
from dmlkit.cli.dgps import REGISTRY
print(json.dumps([[name, est, dgp.default_n]
                  for name, dgp in sorted(REGISTRY.items())
                  for est in dgp.estimators]))
"""


def write_study(path: Path) -> None:
    """The 400-row study CSV, drawn as ``tests/test_cli.py`` draws it."""
    r = np.random.default_rng(4031)
    n = 400
    w1, w2 = r.standard_normal(n), r.standard_normal(n)
    zc = r.standard_normal(n)
    z = (r.uniform(size=n) < 0.5).astype(float)
    y0 = w1 + r.standard_normal(n)
    cols = {
        "w1": w1, "w2": w2, "zc": zc, "z": z, "y0": y0,
        "d": (r.uniform(size=n) < 1 / (1 + np.exp(-2 * w1))).astype(float),
        "dc": zc + w1 + r.standard_normal(n),
        "dl": (r.uniform(size=n) < 0.2 + 0.5 * z).astype(float),
        "g": r.integers(0, 3, size=n).astype(float),
        "t": r.integers(1, 3, size=n).astype(float),
        "r": r.uniform(-1, 1, size=n),
        "y_pre": y0 + w2 + r.standard_normal(n),
    }
    cols["y"] = (cols["y_pre"] + cols["d"] + 0.5 * cols["dc"]
                 + (cols["r"] >= 0) + r.standard_normal(n))
    cols = {k: np.round(v, 6) for k, v in cols.items()}
    lines = [",".join(cols)]
    lines += [",".join(repr(float(v[i])) for v in cols.values())
              for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


def cases(pairs) -> dict[str, tuple[str, dict]]:
    """Case name -> (command, config keys)."""
    out = {}
    study = {**STUDY_KEYS, "placebo": {**STUDY_KEYS["did_panel"],
                                       "outcome_placebo_pre": "y0"}}
    for estimand, keys in study.items():
        command = "placebo" if estimand == "placebo" else "estimate"
        for variant, extra in VARIANTS.items():
            out[f"{estimand}/{variant}"] = (command, {
                "estimand": "did_panel" if command == "placebo" else estimand,
                "seed": "3", "outcome": "y", **keys, **extra})
    for kind in META_KINDS:
        _, keys = out["cate-pipeline/default"]
        out[f"meta/{kind}"] = ("estimate", {**keys, "meta_learner": kind})
    for dgp, estimator, default_n in pairs:
        out[f"simulate/{dgp}/{estimator}"] = ("simulate", {
            "dgp": dgp, "estimator": estimator, "seed": "3",
            "n": str(min(default_n, SIM_MAX_N)),
            "replications": str(SIM_REPLICATIONS)})
    return out


def run(src: Path, case_dir: Path, command: str, keys: dict,
        data: Path) -> dict:
    """One command and its validate-config; returns what they printed,
    their exit codes and the files they wrote."""
    case_dir.mkdir(parents=True)
    (case_dir / "run.cfg").write_text(
        "".join(f"{k} = {v}\n" for k, v in keys.items()))
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = {}
    for name, args in (
            ("validate", ["validate-config", "--config", "run.cfg"]),
            ("run", [command, "--config", "run.cfg", "--out", "out",
                     *([] if command == "simulate" else
                       ["--data", os.path.relpath(data, case_dir)])])):
        proc = subprocess.run([sys.executable, "-m", "dmlkit.cli", *args],
                              cwd=case_dir, env=env, capture_output=True,
                              timeout=600)
        result[name] = (proc.returncode, proc.stdout, proc.stderr)
    out = case_dir / "out"
    result["files"] = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                       if out.is_dir() else {})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, default=Path("identity-matrix"))
    args = parser.parse_args(argv)
    shutil.rmtree(args.work, ignore_errors=True)
    args.work.mkdir(parents=True)
    data = args.work / "study.csv"
    write_study(data)
    pairs = json.loads(subprocess.run(
        [sys.executable, "-c", PAIRS], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(args.old_src)},
    ).stdout)
    differences = files = 0
    codes = {}
    for name, (command, keys) in cases(pairs).items():
        old, new = (run(src.resolve(), args.work / side / name, command, keys,
                        data.resolve())
                    for side, src in (("old", args.old_src),
                                      ("new", args.new_src)))
        codes[old["run"][0]] = codes.get(old["run"][0], 0) + 1
        files += len(old["files"])
        for part in ("validate", "run", "files"):
            if old[part] != new[part]:
                differences += 1
                print(f"DIFFERS {name}: {part}")
    total = sum(codes.values())
    print(f"{total} cases, {2 * total} commands and {files} output files "
          f"per side; run exit codes {dict(sorted(codes.items()))}; "
          f"{differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
