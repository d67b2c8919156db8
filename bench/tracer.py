"""Outside-in tracer: wraps ``dmlkit`` layer functions in spans.

No ``dmlkit`` source changes. Many modules copy names with
``from .x import f``, so each wrapper replaces the original function in
every loaded ``dmlkit`` module that binds it, not only the defining one.
Spans sit on a stack so each records its self time (its duration minus
that of its child spans); they are held in memory and written out by
``Tracer.dump`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import sys
from time import perf_counter

from dmlkit.errors import Separation


def _shape(X) -> tuple[int, int]:
    shape = getattr(X, "shape", None)
    if shape is None or len(shape) == 0:
        return 0, 0
    return shape[0], (shape[1] if len(shape) > 1 else 1)


# Counters computed at the span boundary from arguments and results.
# Each takes (args, kwargs, result, exc) and returns {counter: amount}.

def _tree_cells(args, kwargs, result, exc):
    rows, cols = _shape(args[0] if args else kwargs.get("X"))
    return {"cells": rows * cols}


def _lasso_work(args, kwargs, result, exc):
    if result is None:
        return {}
    _, p = _shape(args[0] if args else kwargs.get("X"))
    return {"sweeps": result.n_sweeps, "coord_updates": result.n_sweeps * p}


def _ingest_cells(args, kwargs, result, exc):
    if not result:
        return {}
    return {"cells": len(result) * len(next(iter(result.values())))}


def _separations(args, kwargs, result, exc):
    return {"separations": int(isinstance(exc, Separation))}


def _rank_deficient(args, kwargs, result, exc):
    if result is None:
        return {}
    return {"rank_deficient": int(result.rank < result.coefficients.size)}


def _bytes_written(args, kwargs, result, exc):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)} if exc is None else {}


# (span name, defining module, function name, counter, counter names).
# The counter's result must use exactly the names listed; every span
# reports each of its names, 0 when it never ran.
TARGETS = [
    ("learners.tree_fit", "dmlkit.learners", "tree_fit", _tree_cells,
     ("cells",)),
    ("learners.forest_fit", "dmlkit.learners", "forest_fit", None, ()),
    ("learners.boost_fit", "dmlkit.learners", "boost_fit", None, ()),
    ("learners.logistic_fit", "dmlkit.learners", "logistic_fit",
     _separations, ("separations",)),
    ("learners.cross_fit_predict", "dmlkit.learners", "cross_fit_predict",
     None, ()),
    ("linalg.ols_fit", "dmlkit.linalg", "ols_fit", _rank_deficient,
     ("rank_deficient",)),
    ("penalized.lasso_fit", "dmlkit.penalized", "lasso_fit", _lasso_work,
     ("sweeps", "coord_updates")),
    ("penalized.lasso_path", "dmlkit.penalized", "lasso_path", None, ()),
    ("penalized.cv_fit", "dmlkit.penalized", "cv_fit", None, ()),
    ("penalized.plugin_lambda", "dmlkit.penalized", "plugin_lambda", None,
     ()),
    ("double_lasso.double_lasso", "dmlkit.double_lasso", "double_lasso",
     None, ()),
    ("double_lasso.simultaneous_critical_value", "dmlkit.double_lasso",
     "simultaneous_critical_value", None, ()),
    ("dml.dml_plm", "dmlkit.dml.estimators", "dml_plm", None, ()),
    ("dml.irm_signals", "dmlkit.dml.estimators", "irm_signals", None, ()),
    ("cate.meta_learn", "dmlkit.cate.meta", "meta_learn", None, ()),
    ("cate.calibration", "dmlkit.cate.validation", "calibration", None, ()),
    ("cate.toc_qini", "dmlkit.cate.validation", "toc_qini", None, ()),
    ("cate.heterogeneity_blp_test", "dmlkit.cate.blp",
     "heterogeneity_blp_test", None, ()),
    ("cli.ingest_csv", "dmlkit.cli.ingest", "ingest_csv", _ingest_cells,
     ("cells",)),
    ("cli.simulate_once", "dmlkit.cli.dgps", "simulate_once", None, ()),
    ("cli.reports", "dmlkit.cli.reports", "write_report", _bytes_written,
     ("bytes",)),
    ("cli.reports", "dmlkit.cli.reports", "write_table", _bytes_written,
     ("bytes",)),
]
# Methods patched on their class: (span name, module, class, method).
METHOD_TARGETS = [
    ("learners.tree_predict", "dmlkit.learners", "RegressionTree", "predict"),
]
# Counter names per span, in report order.
SPAN_COUNTERS = {
    **{t[0]: t[4] for t in TARGETS},
    **{t[0]: () for t in METHOD_TARGETS},
}


class Tracer:
    def __init__(self):
        # Finished spans: [name, id, parent id, start, end, counters].
        self.spans: list[list] = []
        self._stack: list[int] = []  # ids of open spans
        self._next_id = 0

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                counts = counter(args, kwargs, result, exc) if counter else {}
                self.spans.append([name, span_id, parent, start, end, counts])
        return traced

    def summary(self) -> dict:
        """Per span name: calls, self seconds and summed counters, each
        starting at 0 so spans that never ran still report them."""
        children: dict[int, float] = {}
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
        out = {name: {"calls": 0, "s": 0.0, **dict.fromkeys(counters, 0)}
               for name, counters in sorted(SPAN_COUNTERS.items())}
        for name, span_id, _, start, end, counts in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start - children.get(span_id, 0.0)
            for key, value in counts.items():
                entry[key] += value  # KeyError: name not in TARGETS
        return out

    def dump(self, path) -> None:
        fields = ["name", "id", "parent", "start", "end", "counts"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _dmlkit_modules() -> list:
    import dmlkit
    for info in pkgutil.walk_packages(dmlkit.__path__, "dmlkit."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "dmlkit" or name.startswith("dmlkit.")]


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap every target in every module that binds it.

    Returns the number of bindings replaced per target.
    """
    modules = _dmlkit_modules()
    bindings: dict[str, int] = {}
    for name, modname, attr, counter, _ in TARGETS:
        original = getattr(sys.modules[modname], attr)
        wrapper = tracer.wrap(name, original, counter)
        count = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    count += 1
        bindings[f"{modname}.{attr}"] = count
    for name, modname, cls_name, attr in METHOD_TARGETS:
        cls = getattr(sys.modules[modname], cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
        bindings[f"{modname}.{cls_name}.{attr}"] = 1
    return bindings
