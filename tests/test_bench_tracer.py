"""The bench tracer must find every layer function it wraps.

``bench/tracer.py`` names each traced function by its defining module;
a refactor that renames or moves one would leave the bench with a
target it cannot bind. ``install`` rebinds names in every ``dmlkit``
module, so it runs in a child interpreter to leave this one untouched.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import tracer
bindings = tracer.install(tracer.Tracer())
targets = [f"{mod}.{attr}" for _, mod, attr, *_ in tracer.TARGETS]
targets += [f"{mod}.{cls}.{attr}" for _, mod, cls, attr
            in tracer.METHOD_TARGETS]
print(json.dumps({"targets": targets, "bindings": bindings}))
"""


def test_every_traced_function_binds():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench"),
                            os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out["bindings"]) == set(out["targets"])
    unbound = [name for name, count in out["bindings"].items() if count == 0]
    assert not unbound
