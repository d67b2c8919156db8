"""Debiased machine learning toolkit: high-dimensional regression,
cross-fitted causal estimators, weak-identification-robust inference,
sensitivity analysis, and heterogeneous-effect tooling."""

import importlib
import sys

__version__ = "0.1.0"


def _lazy_exports(package: str, homes: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for a package whose exports
    load on first access (PEP 562). ``homes`` maps each submodule to the
    names it exports. A name is read from its submodule at every access,
    never cached on the package, so a later rebinding there (a tracer's
    wrapper, say) is what the package hands out."""
    home = {name: module for module, names in homes.items() for name in names}

    def __getattr__(name):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        return getattr(module, name)

    def __dir__():
        return sorted({*vars(sys.modules[package]), *home})

    return sorted(home), __getattr__, __dir__
