"""The chi-square law, P(chi2_M <= t), in numpy and in plain floats.

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

:func:`igam`, :func:`igamc` and :func:`igami` are the scalar routines the
MCD's chi-square constants take, ported from the Cephes code that
``scipy.special`` runs (as revised there: the ``igam_fac`` prefactor with
its Lanczos sum, the continued fraction for the upper tail, and three
Halley steps from DiDonato & Morris's (1986) starting value for the
inverse).  The constants are read bit for bit against ``scipy.stats.chi2``,
and an accurate quantile is not enough for that: scipy's own is a few ulps
off the true value in places.  The port gives scipy's bits for a < 20 and
0.5 < p < 0.98, the range the MCD uses, except where x falls in (1, 1.1]
above a; there, and outside that range, a branch scipy takes (``igamc``'s
own series, its asymptotic series, the rest of DiDonato & Morris's starts)
is replaced by an accurate one that is not bit for bit.
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


# ---------------------------------------------------------------- scalar routines

_MACHEP = 1.11022302462515654042e-16
_BIG, _BIGINV = 4.503599627370496e15, 2.22044604925031308085e-16
_MAXLOG = 7.09782712893383996843e2
_EULER = 0.577215664901532860606512090082402431
# Cephes lgam: Stirling's series above 13, a rational form on [2, 3] below
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178
# Lanczos approximation (g, N = 13) of Gamma(a) e^(a-1/2) / (a+g-1/2)^(a-1/2):
# numerator and denominator, highest power first
_LANCZOS_G = 6.024680040776729583740234375
_LANCZOS_NUM = (0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
                19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
                6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
                601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
                14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
                86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
                56906521.91347156388090791033559122686859)
_LANCZOS_DEN = (1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0, 45995730.0, 105258076.0,
                150917976.0, 120543840.0, 39916800.0, 0.0)


def _horner(x: float, coeffs) -> float:
    out = coeffs[0]
    for c in coeffs[1:]:
        out = out * x + c
    return out


def _lgam(x: float) -> float:
    # log Gamma(x) for x > 0, as Cephes computes it
    if x >= 13.0:
        q = (x - 0.5) * math.log(x) - x + _LS2PI
        return q + _horner(1.0 / (x * x), _LGAM_A) / x
    z, p, u = 1.0, 0.0, x
    while u >= 3.0:
        p -= 1.0
        u = x + p
        z *= u
    while u < 2.0:
        z /= u
        p += 1.0
        u = x + p
    if u == 2.0:
        return math.log(z)
    x += p - 2.0
    return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)


def _lanczos_sum_expg_scaled(a: float) -> float:
    if a > 1.0:
        return _horner(1.0 / a, _LANCZOS_NUM[::-1]) / _horner(1.0 / a, _LANCZOS_DEN[::-1])
    return _horner(a, _LANCZOS_NUM) / _horner(a, _LANCZOS_DEN)


def _igam_fac(a: float, x: float) -> float:
    # x^a e^-x / Gamma(a)
    if abs(a - x) > 0.4 * a:
        ax = a * math.log(x) - x - _lgam(a)
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    res = math.sqrt(fac / math.e) / _lanczos_sum_expg_scaled(a)
    if a < 200 and x < 200:
        return res * (math.exp(a - x) * math.pow(x / fac, a))
    num = x - a - _LANCZOS_G + 0.5
    ratio = num / fac
    return res * math.exp(a * (math.log1p(ratio) - ratio) + x * (0.5 - _LANCZOS_G) / fac)


def _igam_series(a: float, x: float) -> float:
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    r, c, ans = a, 1.0, 1.0
    for _ in range(2000):
        r += 1.0
        c *= x / r
        ans += c
        if c <= _MACHEP * ans:
            break
    return ans * ax / a


def _igamc_fraction(a: float, x: float) -> float:
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(2000):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        t = 1.0
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _BIG:
            pkm2, pkm1, qkm2, qkm1 = pkm2 * _BIGINV, pkm1 * _BIGINV, qkm2 * _BIGINV, qkm1 * _BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def igam(a: float, x: float) -> float:
    """P(a, x), the regularized lower incomplete gamma function, for a > 0 and finite x >= 0."""
    if x == 0:
        return 0.0
    if x > 1.1 and x > a:
        return 1.0 - _igamc_fraction(a, x)
    return _igam_series(a, x)


def igamc(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x), for a > 0, x > 0."""
    if x > 1.1 and x >= a:
        return _igamc_fraction(a, x)
    return 1.0 - _igam_series(a, x)


def _inverse_start(a: float, p: float, q: float) -> float:
    # DiDonato & Morris's starting value for P(a, x) = p, Q(a, x) = q, in
    # the branches scipy takes for p > 0.5; Eq. 31 alone elsewhere
    if a == 1:
        return -math.log1p(-p) if q > 0.9 else -math.log(q)
    if a < 1:
        g = math.gamma(a)
        b = q * g
        if b > 0.6 or (b >= 0.45 and a >= 0.3):  # Eq. 21
            u = math.pow(p * g * a, 1 / a) if b * q > 1e-8 and q > 1e-5 else math.exp(-q / a - _EULER)
            return u / (1 - u / (a + 1))
        y = -math.log(b)  # Eq. 23
        u = y - (1 - a) * math.log(y)
        return y - (1 - a) * math.log(u) - math.log(1 + (1 - a) / (1 + u))
    # Eq. 31, with Eq. 32's rational approximation of the normal quantile s
    t = math.sqrt(-2 * math.log(p if p < 0.5 else q))
    s = t - _horner(t, (0.213623493715853, 4.28342155967104, 11.6616720288968, 3.31125922108741)) / _horner(
        t, (0.3611708101884203e-1, 1.27364489782223, 6.40691597760039, 6.61053765625462, 1.0))
    s = -s if p < 0.5 else s
    s2 = s * s
    s3 = s2 * s
    s4 = s2 * s2
    s5 = s4 * s
    ra = math.sqrt(a)
    w = a + s * ra + (s2 - 1) / 3
    w += (s3 - 7 * s) / (36 * ra)
    w -= (3 * s4 + 7 * s2 - 16) / (810 * a)
    w += (9 * s5 + 256 * s3 - 433 * s) / (38880 * a * ra)
    if p <= 0.5 or w < 3 * a:
        return w
    lb = math.log(q) + _lgam(a)
    if lb < -2.3 * max(2, a * (a - 1)):
        return w
    u = -lb + (a - 1) * math.log(w) - math.log(1 + (1 - a) / (1 + w))  # Eq. 33
    return -lb + (a - 1) * math.log(u) - math.log(1 + (1 - a) / (1 + u))


def igami(a: float, p: float) -> float:
    """The x with P(a, x) = p, for a > 0 and 0 < p < 1 (see the module docstring)."""
    upper = p > 0.9
    target = 1 - p if upper else p
    x = _inverse_start(a, 1 - target, target) if upper else _inverse_start(a, p, 1 - p)
    for _ in range(3):  # Halley steps
        fac = _igam_fac(a, x)
        if fac == 0.0:
            return x
        f_fp = (igamc(a, x) - target) * x / -fac if upper else (igam(a, x) - target) * x / fac
        x -= f_fp / (1.0 - 0.5 * f_fp * (-1.0 + (a - 1) / x))
    return x
