"""CATE validation rejects a NaN or an inf in its inputs instead of
failing inside numpy or returning a non-finite (or finite but wrong)
summary."""

import numpy as np
import pytest

from dmlkit.cate import calibration, toc_qini

ARGS = ("tau_test", "signals_test", "tau_nontest")


def _inputs():
    r = np.random.default_rng(50)
    return {name: r.standard_normal(50) for name in ARGS}


def _run(validate, inputs):
    if validate is calibration:
        return calibration(*inputs.values(), K=3)
    return toc_qini(*inputs.values())


@pytest.mark.parametrize("validate", [calibration, toc_qini])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, row", [("tau_test", 5), ("signals_test", 3),
                                       ("tau_nontest", 0)])
def test_non_finite_input_raises(validate, value, name, row):
    inputs = _inputs()
    inputs[name][row] = value
    inputs[name][row + 7] = value  # only the first such row is named
    with pytest.raises(FloatingPointError,
                       match=rf"^{name} holds a non-finite value at row "
                             rf"{row}$"):
        _run(validate, inputs)


@pytest.mark.parametrize("validate", [calibration, toc_qini])
def test_finite_inputs_still_run(validate):
    assert _run(validate, _inputs()).n == 50
