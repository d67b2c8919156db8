"""The normal and chi-squared functions every interval and test uses.

Each equals its ``scipy.stats`` counterpart (``norm.ppf``, ``norm.sf``,
``chi2.ppf``, ``chi2.sf``) bit for bit without importing ``scipy.stats``,
which was over half the time of ``import dmlkit.cli``. ``chdtri`` gives
the chi-squared quantile too, but not the bits of ``chi2.ppf``.
"""

import numpy as np
from scipy.special import chdtrc, gammaincinv, ndtr, ndtri


def normal_quantile(q):
    return ndtri(q)


def normal_p_value(estimates, std_errors):
    """Two-sided p-value; 0 where the standard error is 0 (exact)."""
    std_errors = np.asarray(std_errors, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(estimates) / std_errors
    return np.where(std_errors > 0, 2.0 * ndtr(-z), 0.0)


def chi2_quantile(q, dof):
    return 2.0 * gammaincinv(dof / 2.0, q)


def chi2_sf(x, dof):
    """Upper tail P(X > x); 1 below the support, as ``chi2.sf`` gives."""
    return chdtrc(dof, np.maximum(x, 0.0))
