"""``dist.ndtri`` and ``dist.ndtr`` against ``scipy.special`` at every
branch and edge of the Cephes code they port.

Each branch switch is tested on a walk of float neighbours across it,
and each walk is checked to reach both sides, so a port that moved a
switch by an ulp or swapped a comparison would differ somewhere.
"""

import math

import numpy as np
import pytest
from scipy import special

from dmlkit.dist import EXP_M2, MAXLOG, SQRT1_2, ndtr, ndtri

ULPS = 64


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _walk(t, ulps=ULPS):
    """``t`` and its ``ulps`` float neighbours on either side."""
    up = down = float(t)
    out = [up]
    for _ in range(ulps):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out += [up, down]
    return np.sort(np.array(out))


def _straddles(values, t):
    return bool(np.any(values < t)) and bool(np.any(values >= t))


@pytest.mark.parametrize("y", [0.0, 1.0, np.nan, -0.1, 1.1, 5e-324,
                               1e-300, -0.0, np.inf, -np.inf, 0.5])
def test_ndtri_edges(y):
    assert _same_bits(ndtri(y), special.ndtri(y))


@pytest.mark.parametrize("t", [EXP_M2, 1.0 - EXP_M2])
def test_ndtri_either_side_of_the_central_switch(t):
    ys = _walk(t)
    assert _straddles(ys, t) and t in ys
    assert _same_bits(ndtri(ys), special.ndtri(ys))


def test_ndtri_either_side_of_the_tail_switch():
    # x = sqrt(-2 log y) = 8 at y = exp(-32), about 1.3e-14; the walk is
    # wide enough that the computed x crosses 8 in both directions.
    ys = _walk(math.exp(-32.0), ulps=4096)
    assert _straddles(np.sqrt(-2.0 * np.log(ys)), 8.0)
    assert _same_bits(ndtri(ys), special.ndtri(ys))
    assert _same_bits(ndtri(1.0 - ys), special.ndtri(1.0 - ys))


def test_ndtri_sweeps_every_decade():
    ys = np.concatenate([10.0 ** -np.linspace(0.0, 323.0, 20000),
                         np.random.default_rng(5).uniform(size=20000)])
    ys = np.concatenate([ys, 1.0 - ys])
    assert _same_bits(ndtri(ys), special.ndtri(ys))


@pytest.mark.parametrize("x", [0.0, -0.0, np.inf, -np.inf, np.nan])
def test_ndtr_edges(x):
    assert _same_bits(ndtr(x), special.ndtr(x))


@pytest.mark.parametrize("t", [SQRT1_2, 1.0, 8.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ndtr_either_side_of_each_switch(t, sign):
    # ndtr switches on |x| = |a| / sqrt(2): erf below 1/sqrt(2), then
    # erfc's two rational forms on either side of 8.
    a = sign * _walk(t / SQRT1_2)
    assert _straddles(np.abs(a * SQRT1_2), t)
    assert _same_bits(ndtr(a), special.ndtr(a))


def test_ndtr_past_the_exp_underflow():
    # erfc returns 0 once -x^2 < -MAXLOG, at a below about -37.7, and
    # its quotient underflows to 0 a little before that.
    a = np.concatenate([np.linspace(-40.0, -36.0, 4001),
                        -_walk(math.sqrt(2.0 * MAXLOG))])
    assert _straddles(a, -37.7)
    assert _same_bits(ndtr(a), special.ndtr(a))
    assert _same_bits(ndtr(-a), special.ndtr(-a))
    assert ndtr(-40.0) == 0.0 and ndtr(40.0) == 1.0


def test_ndtr_sweeps_both_signs():
    r = np.random.default_rng(9)
    a = np.concatenate([r.normal(size=20000) * 4.0,
                        r.uniform(-45.0, 45.0, size=20000)])
    assert _same_bits(ndtr(a), special.ndtr(a))
    assert _same_bits(ndtr(-a), special.ndtr(-a))


@pytest.mark.parametrize("f, ref", [(ndtri, special.ndtri),
                                    (ndtr, special.ndtr)])
@pytest.mark.parametrize("value", [0.3, np.float64(0.3), np.array(0.3), 1,
                                   [0.1, 0.9], np.full((2, 3, 1), 0.7),
                                   np.empty((0, 2))])
def test_return_types_follow_the_ufunc(f, ref, value):
    mine, theirs = f(value), ref(value)
    assert type(mine) is type(theirs)
    assert np.shape(mine) == np.shape(theirs)
    assert np.asarray(mine).dtype == np.asarray(theirs).dtype
    assert _same_bits(mine, theirs)
