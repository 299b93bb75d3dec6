"""The chi-square law, P(chi2_M <= t), and its quantiles, in numpy.

:func:`cdf` evaluates the distribution function over an array; the window
scorer calls it once per scoring pass.  With a = M/2 and x = t/2 it is the
regularized lower incomplete gamma function P(a, x), which for integral 2a
has finite forms (Abramowitz & Stegun 26.4).  Following the split of
Cephes ``igam``:

- where x <= max(1, a), the power series
  P(a, x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n)), whose terms
  are all positive, so P keeps its relative precision as it goes to 0;
- elsewhere P = 1 - Q, with the upper tail Q in closed form: the finite
  Poisson sum e^-x sum_{j<a} x^j / j! for even M, and
  erfc(sqrt x) + e^-x sum_{j<a-1/2} x^(j+1/2) / Gamma(j+3/2) for odd M.
  There P >= 1/2, so the subtraction loses nothing; erfc is Cody's rational
  approximation as Cephes ``ndtr`` has it, times e^-x.

Against ``scipy.special.gammainc`` it agrees to about 5e-15 relative where
P >= 1e-15 (checked in the test suite), and every term stays finite for
every t >= 0, +inf included.

:func:`quantile` inverts it by Newton's method, with the closed-form density,
from Wilson and Hilferty's start.  For p >= 1/2 the root lies above the mode,
where F is concave, so from below the root each step rises toward it; the
search stops at the first step that does not shrink |F(t) - p|, and cannot
cycle.  Against 50-digit roots (mpmath) at p from 0.5 to 0.99 it is within
8.1e-16 relative for M <= 10 and 2.6e-15 up to M = 40, where the rounding of
the prefactor x^a e^-x / Gamma(a+1) sets the limit, in at most 9 evaluations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# exp(x) erfc(sqrt x) = P(s) / Q(s) for 1 <= s = sqrt x < 8, and R(s) / S(s)
# above (Cephes ndtr.c), highest power first
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
# e^-x underflows to 0 from x = 746 on; arguments are capped here (and
# sqrt x at 30) so no polynomial or logarithm meets an infinity
_X_CAP = 1e300


def cdf(t: np.ndarray, dims: int) -> np.ndarray:
    """P(chi2_dims <= t) for an array of t >= 0 (see the module docstring).

    Each value is computed by the same operations whatever its neighbours.
    """
    a = dims / 2.0
    x = np.minimum(t, 2.0 * _X_CAP) / 2.0
    out = np.empty_like(x)
    low = x <= max(1.0, a)
    if low.any():
        out[low] = _lower_series(a, x[low])
    if not low.all():
        out[~low] = 1.0 - _upper_closed(a, x[~low])
    return out


def quantile(p: float, dims: int) -> float:
    """The p-quantile of chi2_dims, the t with P(chi2_dims <= t) = p, for 1/2 <= p < 1.

    Newton's method on the closed forms of :func:`cdf` (see the module docstring).
    """
    if not 0.5 <= p < 1.0:
        raise ValueError(f"quantile needs 1/2 <= p < 1, got {p}")
    a = dims / 2.0

    def newton(t, r):
        # t - (F(t) - p) / f(t), with the density f(t) = (t/2)^(a-1) e^(-t/2) / (2 Gamma(a))
        return t - 2.0 * r * math.exp(math.lgamma(a) + t / 2.0 - (a - 1.0) * math.log(t / 2.0))

    # the normal quantile of Abramowitz & Stegun 26.2.23; dims - 2/3 lies
    # below the median and above the mode
    s = math.sqrt(-2.0 * math.log1p(-p))
    z = s - (2.515517 + s * (0.802853 + s * 0.010328)) / (1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))
    floor = dims - 2.0 / 3.0
    t = max(dims * (1.0 - 2.0 / (9.0 * dims) + z * math.sqrt(2.0 / (9.0 * dims))) ** 3, floor)
    r = _excess(t, a, p)
    if r > 0.0:  # above the root on a concave F, a step lands below it
        t = max(newton(t, r), floor)
        r = _excess(t, a, p)
    while r:
        t_next = newton(t, r)
        r_next = _excess(t_next, a, p)
        if abs(r_next) >= abs(r):
            break
        t, r = t_next, r_next
    return t


def _excess(t: float, a: float, p: float) -> float:
    # P(a, t/2) - p by cdf's split; above it as (1 - p) - Q, exact for
    # p >= 1/2, which keeps the digits that rounding P near 1 would drop
    x = np.array([t / 2.0])
    if x[0] <= max(1.0, a):
        return _lower_series(a, x)[0] - p
    return (1.0 - p) - _upper_closed(a, x)[0]


@functools.lru_cache(maxsize=None)
def _series_coeffs(a: float) -> tuple:
    # 1 / ((a+1)...(a+n)) for n = 0, 1, ..., as far as the terms at
    # x = max(1, a) stay above half an ulp of the sum (which is >= 1)
    xm, coeffs, bound = max(1.0, a), [1.0], 1.0
    while bound > 2.0**-54:
        n = len(coeffs)
        coeffs.append(coeffs[-1] / (a + n))
        bound *= xm / (a + n)
    return tuple(coeffs)


def _lower_series(a: float, x: np.ndarray) -> np.ndarray:
    total = _polynomial(x, _series_coeffs(a)[::-1])
    with np.errstate(divide="ignore"):  # log 0 = -inf gives P(a, 0) = 0
        return np.exp(a * np.log(x) - x - math.lgamma(a + 1.0)) * total


def _polynomial(x: np.ndarray, coeffs: tuple) -> np.ndarray:
    # Horner's rule in place, coefficients highest power first
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _upper_closed(a: float, x: np.ndarray) -> np.ndarray:
    # Q(a, x) for x > max(1, a) and integral 2a
    k = int(a)
    q = np.zeros_like(x)
    if k:
        # the finite sum, largest term first: x^(a-1) e^-x / Gamma(a) times
        # 1 + (a-1)/x (1 + (a-2)/x (... (1 + (a-k+1)/x)))
        r = np.ones_like(x)
        for v in np.arange(1, k) + (a - k):
            r *= v
            r /= x
            r += 1.0
        q += np.exp((a - 1.0) * np.log(x) - x - math.lgamma(a)) * r
    if a != k:
        s = np.sqrt(np.minimum(x, 900.0))
        near = np.minimum(s, 8.0)
        ratio = _polynomial(near, _ERFC_P) / _polynomial(near, _ERFC_Q)
        far = s > 8.0
        if far.any():
            ratio[far] = _polynomial(s[far], _ERFC_R) / _polynomial(s[far], _ERFC_S)
        q += np.exp(-x) * ratio
    return q
