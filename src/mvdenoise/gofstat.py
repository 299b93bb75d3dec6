"""Reference law of the squared Mahalanobis distance and the tail-weighted EDF statistic.

For zero-mean Gaussian vectors v ~ N_M(0, S), the quadratic map y = v^T S^{-1} v
sends R^M to the nonnegative reals, and y follows the law of a weighted sum of
independent squared standard normals, sum_m lam_m z_m^2.  When the quadratic
form uses the true covariance the weights are all one and the law is exactly
chi-square with M degrees of freedom; the gamma route evaluates that case (and
equal weights lam, as lam chi2_M) with the closed forms of
:func:`mvdenoise.chisquare.cdf`, in numpy.  A power-series evaluation for
general weights is kept alongside it: the series and the closed form are
maintained as independent routes and cross-checked in the test suite.  Both
evaluate the CDF only, the one function of the law the statistic below reads.

The deviation between a window's empirical distribution of squared distances
and the reference CDF is scored with the Anderson-Darling statistic, whose
weight (F(1-F))^{-1} emphasises the distribution tails.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import chisquare
from .robustcov import CovarianceMatrix

_SERIES_MAX_TERMS = 200
_SERIES_REL_TOL = 1e-12
# Beyond this largest-term magnitude the alternating series has lost enough
# digits to cancellation to be trusted; switch to the closed form when one
# exists.  At the limit the absolute error is ~1e-8, well inside the range
# needed for t up to M + 6 sqrt(2M).
_SERIES_PEAK_LIMIT = 1e8

# CDF values are clamped away from {0, 1} before taking logarithms so extreme
# windows produce large finite statistics instead of infinities.
LOG_CLAMP = 1e-15


class SeriesDivergenceError(RuntimeError):
    """Series evaluation lost numeric control and no closed form is available."""


class GofDecision(enum.Enum):
    H0_NOISE = "H0_noise"
    H1_SIGNAL = "H1_signal"


@dataclass(frozen=True)
class ReferenceDistribution:
    """Distribution of the quadratic form sum_m lam_m z_m^2, z_m iid standard normal.

    ``eval_mode`` selects the evaluation route: "gamma" is lam chi2_M in
    closed form (requires equal weights lam, the case the denoising pipeline
    uses), "series" is the alternating power series driven by the weight
    recursion.
    """

    dims: int
    eigenvalues: np.ndarray
    eval_mode: str
    log_coeffs: np.ndarray | None  # log c_n for the series route (c_n > 0); None on the gamma route

    @property
    def is_isotropic(self) -> bool:
        lam = self.eigenvalues
        return bool(np.allclose(lam, lam[0], rtol=1e-12, atol=0.0))


def _series_log_coeffs(eigenvalues: np.ndarray, n_terms: int) -> np.ndarray:
    # c_0 = prod (2 lam_m)^{-1/2};  c_n = (1/n) sum_{r<n} h_{n-r} c_r with
    # h_j = (1/2) sum_m (2 lam_m)^{-j}.  All quantities positive; carried in a
    # scaled form to avoid overflow for large n.
    lam = np.asarray(eigenvalues, dtype=np.float64)
    inv2 = 1.0 / (2.0 * lam)
    log_c0 = 0.5 * np.sum(np.log(inv2))
    h = np.array([0.5 * np.sum(inv2**j) for j in range(1, n_terms + 1)])
    # recursion on r_n = c_n / c_0 / rho^n with rho = max inv2, keeping values O(1)
    rho = float(inv2.max())
    r = np.empty(n_terms + 1)
    r[0] = 1.0
    for n in range(1, n_terms + 1):
        js = np.arange(1, n + 1)
        r[n] = np.dot(h[js - 1] / rho**js, r[n - js]) / n
    with np.errstate(divide="ignore"):
        return log_c0 + np.arange(n_terms + 1) * math.log(rho) + np.log(r)


@functools.lru_cache(maxsize=None)
def _unit_reference(dims: int) -> ReferenceDistribution:
    # chi-square with M degrees of freedom on the gamma route; every caller
    # shares it, so its eigenvalues are read-only
    lam = np.ones(dims)
    lam.setflags(write=False)
    return ReferenceDistribution(dims=dims, eigenvalues=lam, eval_mode="gamma", log_coeffs=None)


def make_reference(dims: int, eigenvalues=None, eval_mode: str = "gamma") -> ReferenceDistribution:
    """Build the reference distribution for an M-dimensional quadratic form.

    ``eigenvalues`` defaults to all ones (the matched-covariance case).  The
    gamma mode demands equal eigenvalues; pass ``eval_mode="series"`` to
    evaluate the general weighted form.  The default, all ones on the gamma
    route, is the one every ``denoise`` call and calibration batch scores
    against: it is built once per M and shared, with read-only eigenvalues.
    ``dims`` must be an integer >= 1, checked before that cache, which files
    3.0 and numpy's 3 under one key: a float or a ``bool`` is refused.
    """
    if not isinstance(dims, Integral) or isinstance(dims, bool) or dims < 1:
        raise ValueError("dims must be an integer >= 1")
    if eigenvalues is None and eval_mode == "gamma":
        return _unit_reference(int(dims))
    if eigenvalues is None:
        lam = np.ones(dims)
    else:
        lam = np.asarray(eigenvalues, dtype=np.float64).ravel()
        if lam.size != dims:
            raise ValueError("need one eigenvalue per dimension")
        if (lam <= 0).any():
            raise ValueError("eigenvalues must be positive")
    if eval_mode not in ("gamma", "series"):
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    if eval_mode == "gamma" and not np.allclose(lam, lam[0], rtol=1e-12, atol=0.0):
        raise ValueError("gamma closed form requires equal eigenvalues; use series mode")
    log_coeffs = _series_log_coeffs(lam, _SERIES_MAX_TERMS) if eval_mode == "series" else None
    return ReferenceDistribution(dims=dims, eigenvalues=lam, eval_mode=eval_mode, log_coeffs=log_coeffs)


def _series_eval(dist: ReferenceDistribution, t: np.ndarray) -> np.ndarray:
    # CDF as the alternating sum over n of c_n t^{M/2+n}/Gamma(M/2+n+1),
    # truncated on relative term size.
    m_half = dist.dims / 2.0
    out = np.zeros_like(t)
    pos = t > 0
    if not pos.any():
        return out
    tv = t[pos]
    logt = np.log(tv)
    total = np.zeros_like(tv)
    peak = np.zeros_like(tv)
    grow_streak = 0
    rho = float((1.0 / (2.0 * dist.eigenvalues)).max())
    prev_mag = None
    for n in range(_SERIES_MAX_TERMS + 1):
        expo = m_half + n
        logterm = dist.log_coeffs[n] + expo * logt - math.lgamma(expo + 1.0)
        mag = np.exp(logterm)
        total += mag if n % 2 == 0 else -mag
        peak = np.maximum(peak, mag)
        cur = float(mag.max())
        if prev_mag is not None and cur > prev_mag:
            grow_streak += 1
            # growth is normal before the alternating series turns over; only
            # treat it as divergence past the expected turnover index
            if grow_streak >= 5 and n > rho * float(tv.max()) + 5:
                if dist.is_isotropic:
                    return _gamma_eval(dist, t)
                raise SeriesDivergenceError("series terms grow past the expected turnover")
        else:
            grow_streak = 0
        prev_mag = cur
        if cur <= _SERIES_REL_TOL * max(float(np.abs(total).min()), 1e-300):
            break
    if float(peak.max()) > _SERIES_PEAK_LIMIT:
        if dist.is_isotropic:
            return _gamma_eval(dist, t)
        raise SeriesDivergenceError("cancellation exhausted the series' reliable range")
    out[pos] = total
    return out


def _gamma_eval(dist: ReferenceDistribution, t: np.ndarray) -> np.ndarray:
    # Equal weights lam: y = lam * chi2_M, in closed form
    lam = float(dist.eigenvalues[0])
    return chisquare.cdf(t / lam, dist.dims)


def reference_cdf(dist: ReferenceDistribution, t):
    """CDF of the reference quadratic-form law, F_0(t) in [0, 1] for t >= 0; NaN is refused."""
    t_arr = np.asarray(t, dtype=np.float64)
    if not (t_arr >= 0).all():  # one comparison catches a negative t and NaN
        raise ValueError("t must be nonnegative, not NaN")
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if dist.eval_mode == "gamma":
        out = _gamma_eval(dist, t_arr)
    else:
        out = np.clip(_series_eval(dist, t_arr), 0.0, 1.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class MahalanobisEdf:
    """Ascending squared Mahalanobis distances of a window; the empirical CDF support."""

    sorted_sq_mds: np.ndarray
    n: int


def mahalanobis_edf(window, sigma: CovarianceMatrix) -> MahalanobisEdf:
    """Squared Mahalanobis distances y_i = x_i^T sigma^{-1} x_i of window rows, sorted.

    Rows are treated as zero-mean measurements.  Raises on singular covariance
    (via :class:`CovarianceMatrix`) or windows of fewer than two rows.
    """
    rows = np.atleast_2d(np.asarray(window, dtype=np.float64))
    if rows.shape[0] < 2:
        raise ValueError("window must contain at least two rows")
    if rows.shape[1] != sigma.dim:
        raise ValueError("window and covariance dimensions differ")
    y = np.sort(sigma.quadratic_form(rows))
    return MahalanobisEdf(sorted_sq_mds=y, n=y.size)


def clamped_log_cdf(f: np.ndarray):
    """log F and log(1-F) with F clamped to [LOG_CLAMP, 1-LOG_CLAMP]."""
    f = np.clip(f, LOG_CLAMP, 1.0 - LOG_CLAMP)
    return np.log(f), np.log1p(-f)


def ad_statistic(edf: MahalanobisEdf, dist: ReferenceDistribution) -> float:
    """Anderson-Darling distance between the window EDF and the reference CDF.

    The usual order-statistic form (Stephens 1974)

        tau = -n - (1/n) sum_l (2l - 1) [ln F0(y_(l)) + ln(1 - F0(y_(n+1-l)))].

    The result is finite: CDF values are clamped before the logarithms.
    """
    n = edf.n
    if n < 2:
        raise ValueError("need at least two observations")
    f = reference_cdf(dist, edf.sorted_sq_mds)
    logf, log1mf = clamped_log_cdf(f)
    weights = 2.0 * np.arange(1, n + 1) - 1.0
    s = np.sum(weights * (logf + log1mf[::-1]))
    return float(-n - s / n)


def gof_test(tau: float, threshold: float) -> GofDecision:
    """Hypothesis decision: noise (H0) when tau < threshold, signal (H1) otherwise.

    Ties are classified as signal, so threshold equality retains coefficients.
    A NaN ``tau`` or ``threshold`` decides nothing, and is refused.
    """
    if not threshold > 0 or math.isnan(tau):
        raise ValueError(f"threshold must be positive and neither value NaN, got tau={tau}, threshold={threshold}")
    return GofDecision.H1_SIGNAL if tau >= threshold else GofDecision.H0_NOISE
