"""The normal and chi-squared functions every interval and test uses.

Each equals its ``scipy.stats`` counterpart (``norm.ppf``, ``norm.sf``,
``chi2.ppf``, ``chi2.sf``) bit for bit without importing ``scipy.stats``.

``ndtri`` and ``ndtr`` are ports of Cephes (S. L. Moshier), the library
behind ``scipy.special``'s own ufuncs, with the parts of ``erf`` and
``erfc`` that ``ndtr`` reaches. They keep its constants, branches and
Horner order (``polevl``, and ``p1evl`` with its implied leading 1), so
they give ``scipy.special``'s bits without importing it. That import,
with scipy's array-API layer under it, took over half of
``import dmlkit.cli``.
They take each element through ``math.log``, ``math.exp`` and
``math.sqrt``, the C library calls that Cephes makes, because numpy's
SIMD ufuncs need not round as the C library does.

``chi2_quantile`` and ``chi2_sf`` (weak-ID and sensitivity) still import
``scipy.special`` when first called. ``chdtri`` gives the chi-squared
quantile too, but not the bits of ``chi2.ppf``.
"""

import math

import numpy as np

S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
SQRT1_2 = 7.07106781186547524401e-1
MAXLOG = 7.09782712893383996843e2  # log(2**1024)
EXP_M2 = 0.13533528323661269189  # exp(-2)

# ndtri: rational in y - 1/2 on exp(-2) < y < 1 - exp(-2), else in 1/x
# with x = sqrt(-2 log y) on 2 <= x < 8 and on x >= 8.
P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
      -5.66762857469070293439e1, 1.39312609387279679503e1,
      -1.23916583867381258016e0)
Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
      8.63602421390890590575e1, -2.25462687854119370527e2,
      2.00260212380060660359e2, -8.20372256168333339912e1,
      1.59056225126211695515e1, -1.18331621121330003142e0)
P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
      5.71628192246421288162e1, 4.40805073893200834700e1,
      1.46849561928858024014e1, 2.18663306850790267539e0,
      -1.40256079171354495875e-1, -3.50424626827848203418e-2,
      -8.57456785154685413611e-4)
Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
      4.13172038254672030440e1, 1.50425385692907503408e1,
      2.50464946208309415979e0, -1.42182922854787788574e-1,
      -3.80806407691578277194e-2, -9.33259480895457427372e-4)
P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
      3.93881025292474443415e0, 1.33303460815807542389e0,
      2.01485389549179081538e-1, 1.23716634817820021358e-2,
      3.01581553508235416007e-4, 2.65806974686737550832e-6,
      6.23974539184983293730e-9)
Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
      1.37702099489081330271e0, 2.16236993594496635890e-1,
      1.34204006088543189037e-2, 3.28014464682127739104e-4,
      2.89247864745380683936e-6, 6.79019408009981274425e-9)

# erfc on 1 <= x < 8 (P/Q) and on x >= 8 (R/S); erf on |x| <= 1 (T/U).
P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
     7.46321056442269912687e0, 4.86371970985681366614e1,
     1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3,
     5.57535335369399327526e2)
Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
     3.54937778887819891062e2, 9.75708501743205489753e2,
     1.82390916687909736289e3, 2.24633760818710981792e3,
     1.65666309194161350182e3, 5.57535340817727675546e2)
R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
     5.01905042251180477414e0, 6.16021097993053585195e0,
     7.40974269950448939160e0, 2.97886665372100240670e0)
S = (2.26052863220117276590e0, 9.39603524938001434673e0,
     1.20489539808096656605e1, 1.70814450747565897222e1,
     9.60896809063285878198e0, 3.36907645100081516050e0)
T = (9.60497373987051638749e0, 9.00260197203842689217e1,
     2.23200534594684319226e3, 7.00332514112805075473e3,
     5.55923013010394962768e4)
U = (3.35617141647503099647e1, 5.21357949780152679795e2,
     4.59432382970980127987e3, 2.26290000613890934246e4,
     4.92673942608635921086e4)


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri_one(y0):
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - EXP_M2:
        y = 1.0 - y
        negate = False
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, P0) / _p1evl(y2, Q0))
        return x * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, P1) / _p1evl(z, Q1)
    else:
        x1 = z * _polevl(z, P2) / _p1evl(z, Q2)
    x = x0 - x1
    return -x if negate else x


# ``_erf`` and ``_erfc`` keep the branches ``_ndtr_one`` reaches: erf
# on |x| < 1 and erfc on x >= 1/sqrt(2), never NaN.
def _erf(x):
    if x < 0.0:
        return -_erf(-x)
    z = x * x
    return x * _polevl(z, T) / _p1evl(z, U)


def _erfc(x):
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -MAXLOG:  # exp(z) underflows
        return 0.0
    if x < 8.0:
        p, q = _polevl(x, P), _p1evl(x, Q)
    else:
        p, q = _polevl(x, R), _p1evl(x, S)
    return math.exp(z) * p / q


def _ndtr_one(a):
    if math.isnan(a):
        return math.nan
    x = a * SQRT1_2
    z = abs(x)
    if z < SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def _elementwise(f, x):
    """``f`` on each element of ``x`` as a float64 ufunc applies it: a
    scalar or 0-d array gives an ``np.float64``, an array its shape."""
    x = np.asarray(x, dtype=float)
    out = np.array([f(v) for v in x.ravel().tolist()],
                   dtype=float).reshape(x.shape)
    return out[()]


def ndtri(y):
    """``scipy.special.ndtri``: the standard normal quantile."""
    return _elementwise(_ndtri_one, y)


def ndtr(x):
    """``scipy.special.ndtr``: the standard normal CDF."""
    return _elementwise(_ndtr_one, x)


def normal_quantile(q):
    return ndtri(q)


def normal_p_value(estimates, std_errors):
    """Two-sided p-value; 0 where the standard error is 0 (exact)."""
    std_errors = np.asarray(std_errors, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.abs(estimates) / std_errors
    return np.where(std_errors > 0, 2.0 * ndtr(-z), 0.0)


def chi2_quantile(q, dof):
    from scipy.special import gammaincinv

    return 2.0 * gammaincinv(dof / 2.0, q)


def chi2_sf(x, dof):
    """Upper tail P(X > x); 1 below the support, as ``chi2.sf`` gives."""
    from scipy.special import chdtrc

    return chdtrc(dof, np.maximum(x, 0.0))
