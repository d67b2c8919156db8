"""CATE validation rejects an empty input with a typed error instead of
failing inside numpy (an ``IndexError``, a ``ValueError`` after a "Mean
of empty slice" warning) or reporting an empty calibration bin."""

import warnings

import numpy as np
import pytest

from dmlkit.cate import calibration, toc_qini
from dmlkit.errors import DimensionMismatch

ARGS = ("tau_test", "signals_test", "tau_nontest")


def _inputs():
    r = np.random.default_rng(20)
    return {name: r.standard_normal(20) for name in ARGS}


def _run(validate, inputs):
    if validate is calibration:
        return calibration(*inputs.values(), K=3)
    return toc_qini(*inputs.values())


@pytest.mark.parametrize("validate", [calibration, toc_qini])
@pytest.mark.parametrize("empty, named", [
    (("tau_nontest",), "tau_nontest"),
    (("tau_test", "signals_test"), "tau_test"),
    (ARGS, "tau_test"),
])
def test_empty_input_raises_dimension_mismatch(validate, empty, named):
    inputs = _inputs()
    for name in empty:
        inputs[name] = np.array([])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match=rf"^{named} is empty$"):
            _run(validate, inputs)


@pytest.mark.parametrize("validate", [calibration, toc_qini])
def test_empty_input_named_before_a_later_non_finite_one(validate):
    inputs = _inputs()
    inputs["tau_test"] = inputs["signals_test"] = np.array([])
    inputs["tau_nontest"][0] = np.nan
    with pytest.raises(DimensionMismatch, match="^tau_test is empty$"):
        _run(validate, inputs)

