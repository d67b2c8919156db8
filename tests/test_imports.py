"""Start-up loads only the code a config will run, and lazy exports
resolve as eager ones did.

Each check runs in a child interpreter, as ``tests/test_dist.py`` does,
because this process has imported every module long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
# Modules a forest PLM never calls: OLS and the Lasso (scipy.linalg,
# penalized), Double Lasso, sensitivity, weak-ID, the DGP registry and
# CATE validation.
UNUSED_BY_FOREST_PLM = ["scipy.linalg", "dmlkit.penalized",
                        "dmlkit.double_lasso", "dmlkit.sensitivity",
                        "dmlkit.weak_id", "dmlkit.cli.dgps",
                        "dmlkit.cate.validation", "dmlkit.cate.blp"]

ESTIMATE = """
import importlib, json, pkgutil, sys
import dmlkit
data, out, unused, import_all = sys.argv[1:]
if import_all == "1":
    for info in pkgutil.walk_packages(dmlkit.__path__, "dmlkit."):
        importlib.import_module(info.name)
import dmlkit.cli as cli
config = cli.parse_config_text(
    "estimand = plm\\nseed = 4\\noutcome = y\\ntreatment = d\\n"
    "controls = x1, x2\\nfolds = 2\\nlearner = forest(trees=2)\\n")
cli.validate_config(config)
loaded = {"validated": [m for m in json.loads(unused) if m in sys.modules]}
cli.run_estimate(config, data, out)
loaded["run"] = [m for m in json.loads(unused) if m in sys.modules]
print(json.dumps(loaded))
"""

SCIPY_FREE = """
import json, sys
data, out = sys.argv[1:]
import dmlkit.cli as cli
loaded = {"numpy.random": "numpy.random" in sys.modules}
config = cli.parse_config_text(
    "estimand = plm\\nseed = 4\\noutcome = y\\ntreatment = d\\n"
    "controls = x1, x2\\nfolds = 2\\nlearner = forest(trees=2)\\n")
cli.validate_config(config)
scipy = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded["validated"] = scipy()
cli.run_estimate(config, data, out)
loaded["run"] = scipy()
print(json.dumps(loaded))
"""

EXPORTS = """
import importlib, sys, types
name = sys.argv[1]
package = importlib.import_module(name)
for export in package.__all__:
    value = getattr(package, export)
    assert not isinstance(value, types.ModuleType), export
    # A lazy export is read from its submodule at each access, so a
    # rebinding there (the bench tracer's) is what the package hands out.
    home = sys.modules.get(getattr(value, "__module__", ""))
    if home is not None and export not in vars(package):
        setattr(home, export, marker := object())
        assert getattr(package, export) is marker, export
        setattr(home, export, value)
star = {}
exec(f"from {name} import *", star)
assert set(package.__all__) <= set(star), set(package.__all__) - set(star)
assert set(package.__all__) <= set(dir(package))
try:
    package.no_such_export
except AttributeError:
    print("ok")
"""


def _child(code, *args):
    path = os.pathsep.join([str(ROOT / "src"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _plm_csv(tmp_path):
    r = np.random.default_rng(8)
    X = r.standard_normal((120, 2))
    d = X[:, 0] + r.standard_normal(120)
    y = 0.5 * d + np.sin(X[:, 1]) + r.standard_normal(120)
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([y, d, X]), delimiter=",",
               header="y,d,x1,x2", comments="", fmt="%.17g")
    return data


def test_forest_plm_loads_no_module_it_never_calls(tmp_path):
    data = _plm_csv(tmp_path)
    unused = json.dumps(UNUSED_BY_FOREST_PLM)
    loaded = json.loads(_child(ESTIMATE, str(data), str(tmp_path / "lazy"),
                               unused, "0"))
    assert loaded == {"validated": [], "run": []}
    # The same run with every module loaded first, as the bench tracer
    # loads them, writes the same bytes.
    _child(ESTIMATE, str(data), str(tmp_path / "eager"), unused, "1")
    report = (tmp_path / "lazy" / "report.json").read_bytes()
    assert report == (tmp_path / "eager" / "report.json").read_bytes()


def test_forest_plm_loads_no_scipy(tmp_path):
    # Its intervals come from dist's ports of ndtri and ndtr; numpy.random
    # loads with the CLI, so the first stream() does not import it mid-run.
    loaded = json.loads(_child(SCIPY_FREE, str(_plm_csv(tmp_path)),
                               str(tmp_path / "out")))
    assert loaded == {"numpy.random": True, "validated": [], "run": []}
    assert (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("package", ["dmlkit.dml", "dmlkit.cate",
                                     "dmlkit.cli"])
def test_every_export_resolves_in_a_fresh_interpreter(package):
    assert _child(EXPORTS, package) == "ok"
