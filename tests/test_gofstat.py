import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from mvdenoise import gofstat
from mvdenoise.gofstat import (
    GofDecision,
    MahalanobisEdf,
    ad_statistic,
    gof_test,
    mahalanobis_edf,
    make_reference,
    reference_cdf,
)
from mvdenoise.robustcov import CovarianceMatrix

# AD statistic of the n=100 midpoint quantiles of the reference law, computed
# once from the order-statistic formula and cross-checked against numerical
# quadrature of the defining tail-weighted integral (agreement ~5e-8)
MIDPOINT_QUANTILE_TAU_N100 = 0.0114951327


def test_cdf_at_zero_is_zero():
    assert reference_cdf(make_reference(3), 0.0) == 0.0


def test_cdf_bivariate_closed_form():
    # two squared standard normals: 1 - exp(-t/2)
    assert abs(reference_cdf(make_reference(2), 2.0) - (1.0 - math.exp(-1.0))) < 1e-12


def test_cdf_trivariate_incomplete_gamma():
    assert abs(reference_cdf(make_reference(3), 3.0) - special.gammainc(1.5, 1.5)) < 1e-12
    assert abs(reference_cdf(make_reference(3), 3.0) - 0.6084) < 5e-4


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_series_matches_gamma_closed_form(m):
    ser = make_reference(m, eval_mode="series")
    grid = np.linspace(0.0, m + 6.0 * math.sqrt(2.0 * m), 200)
    diff = np.abs(reference_cdf(ser, grid) - stats.chi2.cdf(grid, df=m))
    assert diff.max() < 1e-6


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_gamma_mode_equals_chi2(m):
    dist = make_reference(m)
    grid = np.linspace(0.0, m + 6.0 * math.sqrt(2.0 * m), 64)
    assert np.abs(reference_cdf(dist, grid) - stats.chi2.cdf(grid, df=m)).max() < 1e-10


@pytest.mark.parametrize("lam", [1.0, 2.5])
@pytest.mark.parametrize("m", range(1, 9))
def test_gamma_route_matches_incomplete_gamma(m, lam):
    # the closed forms against the regularized incomplete gamma function, on
    # a log grid down to where F is far below the clamp and a fine linear
    # grid through the bulk; F < LOG_CLAMP is clamped before any statistic
    dist = make_reference(m, [lam] * m)
    t = np.concatenate([np.geomspace(1e-30, 1e3, 4000), np.linspace(0.0, 60.0, 4001)])
    f, ref = reference_cdf(dist, t), special.gammainc(m / 2.0, t / lam / 2.0)
    scored = ref >= gofstat.LOG_CLAMP
    assert (np.abs(f - ref)[scored] <= 1e-12 * ref[scored]).all()
    # a value does not depend on what else is evaluated with it
    assert np.array_equal(reference_cdf(dist, t[::7]), f[::7])


@pytest.mark.parametrize("lam", [1.0, 2.5])
@pytest.mark.parametrize("m", range(1, 9))
def test_gamma_route_extreme_arguments(m, lam):
    # no overflow, no inf * 0: exactly 0 at t = 0 and exactly 1 far out,
    # without a floating-point warning.  At t = 1e-300 the CDF is 0 to
    # double precision from M = 3 on; at M = 1 and 2 it is ~1e-150 and ~1e-301.
    dist = make_reference(m, [lam] * m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = reference_cdf(dist, np.array([0.0, 1e-300, 1e3, 1e300, np.inf]))
    assert f[0] == 0.0 and (f[2:] == 1.0).all()
    if m >= 3:
        assert f[1] == 0.0
    else:
        assert f[1] == pytest.approx(special.gammainc(m / 2.0, 1e-300 / lam / 2.0), rel=1e-12, abs=0)


def test_cdf_monotone_and_reaches_tail():
    for m in (2, 4, 6):
        dist = make_reference(m, eval_mode="series")
        grid = np.linspace(0.0, m + 20.0 * math.sqrt(2.0 * m), 500)
        vals = reference_cdf(dist, grid)
        assert (np.diff(vals) >= -1e-12).all()
        assert vals[-1] >= 0.999
        assert vals[0] == 0.0


def test_cdf_rejects_negative_argument():
    with pytest.raises(ValueError):
        reference_cdf(make_reference(2), -0.5)
    # NaN is refused too, alone or in an array, so no statistic reads it
    for t in (np.nan, np.array([0.5, np.nan, 2.0])):
        with pytest.raises(ValueError, match="NaN"):
            reference_cdf(make_reference(3), t)
    with pytest.raises(ValueError, match="NaN"):
        ad_statistic(MahalanobisEdf(sorted_sq_mds=np.array([0.5, 1.0, np.nan]), n=3), make_reference(3))


def test_series_with_unequal_weights_matches_monte_carlo():
    lam = np.array([0.5, 1.0, 2.0])
    dist = make_reference(3, lam, eval_mode="series")
    z = np.random.default_rng(0).standard_normal((200_000, 3))
    y = z**2 @ lam
    for t in (0.5, 2.0, 5.0, 10.0):
        assert abs(reference_cdf(dist, t) - (y <= t).mean()) < 5e-3


def test_gamma_mode_rejects_unequal_weights():
    with pytest.raises(ValueError, match="equal eigenvalues"):
        make_reference(3, [1.0, 2.0, 3.0], eval_mode="gamma")


def test_mahalanobis_edf_zero_window():
    cov = CovarianceMatrix.from_matrix(np.eye(2))
    edf = mahalanobis_edf(np.zeros((10, 2)), cov)
    assert np.all(edf.sorted_sq_mds == 0.0)


def test_mahalanobis_edf_scalar_squares():
    cov = CovarianceMatrix.from_matrix([[1.0]])
    edf = mahalanobis_edf(np.array([[1.0], [-2.0], [3.0]]), cov)
    assert np.allclose(edf.sorted_sq_mds, [1.0, 4.0, 9.0])


def test_mahalanobis_edf_hand_value():
    cov = CovarianceMatrix.from_matrix(np.diag([4.0, 1.0]))
    edf = mahalanobis_edf(np.array([[2.0, 0.0], [0.0, 0.0]]), cov)
    assert abs(edf.sorted_sq_mds[-1] - 1.0) < 1e-14


def test_ad_statistic_of_midpoint_quantiles():
    n = 100
    dist = make_reference(2)
    y = stats.chi2.ppf((np.arange(1, n + 1) - 0.5) / n, df=2)
    tau = ad_statistic(MahalanobisEdf(np.sort(y), n), dist)
    assert tau < 0.4
    assert abs(tau - MIDPOINT_QUANTILE_TAU_N100) < 1e-8

    # independent oracle: quadrature of the tail-weighted squared EDF distance
    ys = np.sort(y)

    def integrand(t):
        f_n = np.searchsorted(ys, t, side="right") / n
        f_0 = stats.chi2.cdf(t, df=2)
        return (f_n - f_0) ** 2 / (f_0 * (1.0 - f_0)) * stats.chi2.pdf(t, df=2)

    val, _ = integrate.quad(integrand, 1e-9, 60.0, limit=2000)
    assert abs(n * val - tau) < 1e-4


def test_ad_statistic_far_tail_is_large_and_finite():
    dist = make_reference(2)
    y = np.full(50, 1e9)
    tau = ad_statistic(MahalanobisEdf(y, 50), dist)
    assert np.isfinite(tau)
    assert tau > 100.0


def test_ad_statistic_clamps_both_cdf_limits():
    dist = make_reference(3)
    # half the window at the CDF's zero limit, half far in the upper tail
    y = np.sort(np.concatenate([np.zeros(25), np.full(25, 1e12)]))
    tau = ad_statistic(MahalanobisEdf(y, 50), dist)
    assert np.isfinite(tau)


def test_ad_statistic_permutation_invariant():
    rng = np.random.default_rng(5)
    cov = CovarianceMatrix.from_matrix(np.eye(3))
    window = rng.standard_normal((57, 3))
    dist = make_reference(3)
    tau1 = ad_statistic(mahalanobis_edf(window, cov), dist)
    tau2 = ad_statistic(mahalanobis_edf(window[rng.permutation(57)], cov), dist)
    assert tau1 == tau2


def test_squared_mds_affine_invariant():
    rng = np.random.default_rng(6)
    m = 3
    window = rng.standard_normal((40, m))
    sigma = CovarianceMatrix.from_matrix(np.eye(m))
    a = rng.standard_normal((m, m)) + 2 * np.eye(m)
    transformed = window @ a.T
    sigma_t = CovarianceMatrix.from_matrix(a @ sigma.sigma @ a.T)
    y1 = np.sort(sigma.quadratic_form(window))
    y2 = np.sort(sigma_t.quadratic_form(transformed))
    assert np.abs(y1 - y2).max() < 1e-10
    dist = make_reference(m)
    t1 = ad_statistic(MahalanobisEdf(y1, y1.size), dist)
    t2 = ad_statistic(MahalanobisEdf(y2, y2.size), dist)
    assert abs(t1 - t2) < 1e-10


def test_ad_statistic_monotone_in_offset():
    # windows of reference draws with a growing deterministic offset deviate more
    rng = np.random.default_rng(7)
    cov = CovarianceMatrix.from_matrix(np.eye(2))
    dist = make_reference(2)
    n, reps = 57, 1000
    medians = []
    for shift in (0.0, 0.5, 1.0, 2.0):
        taus = []
        for _ in range(reps):
            w = rng.standard_normal((n, 2)) + shift
            taus.append(ad_statistic(mahalanobis_edf(w, cov), dist))
        medians.append(np.median(taus))
    assert all(a <= b + 1e-12 for a, b in zip(medians, medians[1:]))


def test_null_quantile_reproducible_across_seeds():
    # Monte Carlo calibration oracle: the upper quantile of the null statistic
    # is stable to ~5% between independent runs of 1e4 replications
    dist = make_reference(2)
    qs = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        y = rng.chisquare(df=2, size=(10_000, 57))
        ys = np.sort(y, axis=1)
        f = reference_cdf(dist, ys)
        f = np.clip(f, 1e-15, 1 - 1e-15)
        w = 2.0 * np.arange(1, 58) - 1.0
        s = (w * (np.log(f) + np.log1p(-f[:, ::-1]))).sum(axis=1)
        taus = -57.0 - s / 57.0
        qs.append(np.quantile(taus, 0.995))
    assert abs(qs[0] - qs[1]) / qs[0] < 0.05


def test_gof_test_decisions():
    assert gof_test(0.1, 1.0) is GofDecision.H0_NOISE
    assert gof_test(1.0, 1.0) is GofDecision.H1_SIGNAL  # tie retains
    assert gof_test(5.3, 2.1) is GofDecision.H1_SIGNAL
    with pytest.raises(ValueError):
        gof_test(1.0, 0.0)
    for tau, threshold in ((1.0, np.nan), (np.nan, 1.0), (np.nan, np.nan)):
        with pytest.raises(ValueError, match="NaN"):
            gof_test(tau, threshold)


def test_default_reference_is_built_once_per_dimension():
    # denoise and every calibration batch score against it
    ref = make_reference(3)
    assert make_reference(3) is ref and make_reference(4) is not ref
    assert np.array_equal(ref.eigenvalues, np.ones(3)) and ref.eval_mode == "gamma"
    with pytest.raises(ValueError, match="read-only"):
        ref.eigenvalues[0] = 2.0
    assert make_reference(3, [1.0, 1.0, 1.0]) is not ref


@pytest.mark.parametrize("dims", [3.0, True, False, 0, -1, "3"])
def test_make_reference_refuses_a_dimension_that_is_not_a_positive_integer(dims):
    # refused before the per-M cache, whichever call filled it first: 3.0
    # and numpy's 3 are one cache key
    for warm_first in (False, True):
        gofstat._unit_reference.cache_clear()
        if warm_first:
            make_reference(np.int64(3))
            make_reference(1)
        with pytest.raises(ValueError, match="dims must be an integer >= 1"):
            make_reference(dims)
    ref = make_reference(np.int64(3))
    assert make_reference(3) is ref and type(ref.dims) is int
