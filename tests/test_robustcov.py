import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_triangular

from mvdenoise import chisquare
from mvdenoise.robustcov import (
    CovarianceMatrix,
    SingularCovarianceError,
    _chi2_quantile,
    _consistency_factor,
    _ridge,
    _squared_distances,
    mcd_estimate,
)


def sample_covariance(coeffs) -> CovarianceMatrix:
    """Unbiased zero-mean sample covariance X^T X / (n - 1).

    The non-robust oracle the MCD estimate is checked against.  Raises
    :class:`SingularCovarianceError` on rank-deficient input.
    """
    x = np.asarray(coeffs, dtype=np.float64)
    return CovarianceMatrix.from_matrix(x.T @ x / (x.shape[0] - 1))


def test_sample_covariance_hand_example():
    # two orthogonal unit rows: X^T X / (n - 1) = I
    cov = sample_covariance(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(cov.sigma, np.eye(2), atol=1e-15)


def test_sample_covariance_identical_rows_singular():
    with pytest.raises(SingularCovarianceError):
        sample_covariance(np.array([[1.0, 2.0]] * 5))


def test_sample_covariance_scaling_homogeneity():
    x = np.random.default_rng(0).standard_normal((50, 3))
    a = sample_covariance(x).sigma
    b = sample_covariance(3.0 * x).sigma
    assert np.allclose(b, 9.0 * a, rtol=1e-12)


def test_quadratic_form_matches_explicit_inverse():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    cov = CovarianceMatrix.from_matrix(a @ a.T + 6 * np.eye(6))
    v = rng.standard_normal((20, 6))
    direct = np.einsum("ni,ij,nj->n", v, np.linalg.inv(cov.sigma), v)
    assert np.abs(cov.quadratic_form(v) - direct).max() < 1e-10


def test_quadratic_form_positive_definite():
    cov = CovarianceMatrix.from_matrix([[2.0, 0.5], [0.5, 1.0]])
    v = np.random.default_rng(2).standard_normal((100, 2))
    q = cov.quadratic_form(v)
    assert (q > 0).all()
    assert cov.quadratic_form(np.zeros(2))[0] == 0.0


@pytest.mark.parametrize("m", range(1, 7))
def test_quadratic_form_matches_solve_triangular_bits(m):
    # oracle: scipy.linalg.solve_triangular (LAPACK dtrtrs), the route
    # quadratic_form took before it multiplied by the inverse factor.  They
    # sum in different orders; over 2000 factors of 300 rows per M = 1..8
    # the largest relative error was 1.9e-15, and the bound leaves a margin
    # of 2.
    rng = np.random.default_rng([20, m])
    a = rng.standard_normal((m, m))
    cov = CovarianceMatrix.from_matrix(a @ a.T + 0.5 * np.eye(m))
    v = rng.standard_normal((300, m))
    z = solve_triangular(cov.chol, v.T, lower=True)
    ref = np.einsum("ij,ij->j", z, z)
    assert (np.abs(cov.quadratic_form(v) - ref) <= 4e-15 * ref).all()


@pytest.mark.parametrize("m", range(1, 7))
def test_stacked_distances_equal_lone_distances_bit_for_bit(m):
    # _scale_taus whitens every signal of a batch in one call, on a strided
    # (n, c, M) -> (c, n, M) view, and the MCD reweighting whitens a whole
    # stack: neither another block of the stack, nor the layout, nor another
    # row of a block changes a result bit.  A block of one row takes numpy's
    # vector-matrix route and may differ in the last place, so the subsets
    # here keep at least two rows.
    rng = np.random.default_rng([22, m])
    a = rng.standard_normal((5, m, m))
    chols = np.linalg.cholesky(a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(m))
    x = rng.standard_normal((5, 40, m))
    stacked = _squared_distances(x, chols)
    strided = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert np.array_equal(_squared_distances(strided, chols), stacked)
    for chol, rows, d in zip(chols, x, stacked):
        assert np.array_equal(_squared_distances(rows, chol), d)
        assert np.array_equal(_squared_distances(rows[::-1], chol), d[::-1])
        for subset in (slice(0, 2), slice(7, 33), slice(1, None, 3), rng.permutation(40)[:17]):
            assert np.array_equal(_squared_distances(rows[subset], chol), d[subset])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quadratic_form_rejects_a_non_finite_row(bad):
    cov = CovarianceMatrix.from_matrix(np.eye(3))
    rows = np.ones((4, 3))
    rows[2, 1] = bad
    with pytest.raises(ValueError, match="NaN"):
        cov.quadratic_form(rows)


def test_zero_matrix_is_singular():
    with pytest.raises(SingularCovarianceError):
        CovarianceMatrix.from_matrix(np.zeros((3, 3)))


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        CovarianceMatrix.from_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_mcd_clean_gaussian_close_to_identity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1000, 2))
    est = mcd_estimate(x)
    assert np.linalg.norm(est.sigma - np.eye(2)) < 0.15
    # and close to the non-robust oracle on the same data
    assert np.linalg.norm(est.sigma - sample_covariance(x).sigma) < 0.15


def test_mcd_resists_gross_outliers():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((2000, 2))
    idx = rng.choice(2000, size=400, replace=False)
    contaminated = x.copy()
    contaminated[idx] = 100.0 * rng.standard_normal((400, 2))
    keep = np.ones(2000, dtype=bool)
    keep[idx] = False
    clean_cov = x[keep].T @ x[keep] / keep.sum()
    est = mcd_estimate(contaminated)
    assert np.linalg.norm(est.sigma - clean_cov) < 0.25


@pytest.mark.parametrize("frac", [0.1, 0.2, 0.3])
def test_mcd_breakdown_range(frac):
    rng = np.random.default_rng(int(frac * 100))
    n = 1500
    x = rng.standard_normal((n, 2))
    k = int(frac * n)
    contaminated = x.copy()
    contaminated[:k] = 50.0 * rng.standard_normal((k, 2)) + 20.0
    est = mcd_estimate(contaminated)
    clean_cov = x[k:].T @ x[k:] / (n - k)
    assert np.linalg.norm(est.sigma - clean_cov) < 0.3


def test_mcd_scalar_case_nondegenerate():
    x = np.array([-1.0, 1.0] * 4)[:, None]
    est = mcd_estimate(x)
    assert est.sigma[0, 0] > 0


def test_mcd_sample_size_floor():
    with pytest.raises(ValueError, match="at least"):
        mcd_estimate(np.random.default_rng(0).standard_normal((5, 2)))


def test_mcd_refuses_a_block_with_no_channels():
    with pytest.raises(ValueError, match="at least one channel"):
        mcd_estimate(np.zeros((1024, 0)))
    with pytest.raises(ValueError, match="at least one channel"):
        mcd_estimate(np.zeros((2, 1024, 0)))


def test_mcd_rank_deficient_takes_the_ridged_scatter():
    # a block with no MCD estimate gives its scatter about zero plus the ridge
    x = np.random.default_rng(0).standard_normal((100, 1)) @ np.array([[1.0, 2.0]])
    with pytest.warns(RuntimeWarning, match="coefficient block is rank deficient; using ridged scatter"):
        est = mcd_estimate(x)
    scatter = x.T @ x / x.shape[0]
    assert np.array_equal(est.sigma, scatter + _ridge(scatter) * np.eye(2))


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_mcd_overflowing_covariance_is_refused(scale):
    # squares past the float64 range: the covariance itself (about scale^2)
    # is not representable, so the fit refuses with a ValueError that says
    # so, and numpy's overflow warning stays inside
    x = np.random.default_rng(9).standard_normal((256, 3))
    assert np.isfinite(mcd_estimate(x * 1e150).sigma).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^coefficient covariance overflows float64$"):
            mcd_estimate(x * scale)


@pytest.mark.parametrize("n", [512, 1024], ids=["n512", "n1024"])
def test_mcd_exact_fit_takes_the_ridge(n):
    # three independent nonzero rows: the block has full rank, but the
    # minimal-determinant subset is all zeros (an exact fit)
    x = np.zeros((n, 3))
    x[[17, n // 2, n - 5]] = [[1.0, 0.0, 0.0], [0.5, 2.0, 0.0], [0.0, -1.0, 3.0]]
    with pytest.warns(RuntimeWarning, match="adding ridge"):
        est = mcd_estimate(x)
    assert np.isfinite(est.sigma).all() and np.isfinite(est.chol).all()


def test_mcd_ridges_every_numerically_singular_estimate():
    # 45 % of 256 rows at M = 6 on one line at scale 10: the minimal-
    # determinant subset lies on it, and some of these exact fits pass
    # Cholesky although singular to rounding (least eigenvalues down to
    # -9.3e-16 against 128).  The rank rule that screens each block screens
    # each estimate too: every estimate has full rank, and each ridged one,
    # at about 1e-11 of its largest eigenvalue, warned.
    blocks = []
    for s in range(64):
        rng = np.random.default_rng([424, s])
        x = rng.standard_normal((256, 6))
        line = rng.standard_normal(6)
        x[:115] = 10.0 * rng.standard_normal((115, 1)) * (line / np.linalg.norm(line))
        blocks.append(x)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = mcd_estimate(np.stack(blocks))
    w = np.linalg.eigvalsh(np.stack([fit.sigma for fit in fits]))
    assert (w[:, 0] > 1e-12 * w[:, -1]).all()
    assert {str(c.message) for c in caught} == {"minimal-determinant subset is rank deficient; adding ridge"}
    assert len(caught) == np.count_nonzero(w[:, 0] < 1e-8 * w[:, -1])


@pytest.mark.parametrize("n,limit", [(500, 0.25), (2000, 0.15), (8000, 0.08)])
def test_mcd_converges_to_sample_covariance(n, limit):
    # agreement with the non-robust estimate tightens as n grows
    dists = []
    for seed in range(5):
        x = np.random.default_rng([n, seed]).standard_normal((n, 2))
        est = mcd_estimate(x)
        dists.append(np.linalg.norm(est.sigma - sample_covariance(x).sigma))
    assert max(dists) < limit


def test_batched_concentration_step_matches_loop():
    # reference: one candidate at a time, distances through the Cholesky
    # factor, the h closest rows by sorting, their scatter about zero
    from mvdenoise.robustcov import _Concentrator

    rng = np.random.default_rng(11)
    x = rng.standard_normal((300, 3)) @ np.array([[2.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.2, -0.3, 0.7]])
    h = 152
    a = rng.standard_normal((40, 3, 3))
    scatters = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)
    subsets, new = _Concentrator(x[None], h).step(scatters, [40])
    for t, s in enumerate(scatters):
        d = CovarianceMatrix.from_matrix(s).quadratic_form(x)
        rows = np.sort(np.argsort(d)[:h])
        assert np.array_equal(np.flatnonzero(subsets[t]), rows)
        assert np.allclose(new[t], x[rows].T @ x[rows] / h, rtol=1e-12, atol=1e-14)

    # a stack of three blocks, one of them with no candidates and one with
    # more than a chunk of 218 candidates at 300 rows: each candidate is
    # stepped on its own block
    stack = np.stack([x, rng.standard_normal((300, 3)), 3.0 * rng.standard_normal((300, 3))])
    counts = [40, 0, 250]
    owners = np.repeat(np.arange(3), counts)
    a = rng.standard_normal((250, 3, 3))
    scatters = np.concatenate([scatters, a @ a.transpose(0, 2, 1) + 0.1 * np.eye(3)])
    subsets, new = _Concentrator(stack, h).step(scatters, counts)
    assert subsets.shape == (290, 300) and new.shape == (290, 3, 3)
    for t, (s, b) in enumerate(zip(scatters, owners)):
        d = CovarianceMatrix.from_matrix(s).quadratic_form(stack[b])
        rows = np.sort(np.argsort(d)[:h])
        assert np.array_equal(np.flatnonzero(subsets[t]), rows)
        assert np.allclose(new[t], stack[b][rows].T @ stack[b][rows] / h, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("n", [500, 2000], ids=["elemental", "nested"])
def test_mcd_affine_equivariant(n):
    # the starts and C-steps are affine equivariant at every block size:
    # sigma_hat(X A^T) = A sigma_hat(X) A^T
    x = np.random.default_rng([12, n]).standard_normal((n, 3))
    a = np.array([[0.8, -1.5, 0.4], [0.9, 0.5, 0.0], [-1.2, 0.3, 3.0]])
    base = mcd_estimate(x).sigma
    mapped = mcd_estimate(x @ a.T).sigma
    assert np.allclose(mapped, a @ base @ a.T, rtol=1e-8, atol=0)


def test_mcd_resists_twenty_percent_shifted_rows():
    # 20 % of a 2000-row block shifted by 8 sigma along a common direction
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2000, 3))
    x[rng.choice(2000, size=400, replace=False)] += 8.0 / np.sqrt(3.0)
    est = mcd_estimate(x)
    assert np.abs(est.sigma - np.eye(3)).max() < 0.25


@pytest.mark.parametrize("n", [512, 2000], ids=["elemental", "nested"])
def test_mcd_resists_forty_percent_shifted_rows_at_four_channels(n):
    # 40 % of the rows shifted by 8 sigma along a common direction; with
    # FAST-MCD's 500 random starts the error was 0.151 (512 rows) and 0.086
    # (2000 rows)
    rng = np.random.default_rng([16, n, 0])
    x = rng.standard_normal((n, 4))
    x[rng.choice(n, size=int(0.4 * n), replace=False)] += 8.0 / np.sqrt(4.0)
    est = mcd_estimate(x)
    assert np.abs(est.sigma - np.eye(4)).max() < 0.3


def _true_constants(alpha, m):
    # the alpha-quantile q of chi2_m and alpha / P(chi2_{m+2} <= q), to 50 digits
    with mpmath.workdps(50):
        a, alpha = mpmath.mpf(m) / 2, mpmath.mpf(alpha)
        x = mpmath.findroot(lambda x: mpmath.gammainc(a, 0, x, regularized=True) - alpha, a)
        return 2 * x, alpha / mpmath.gammainc(a + 1, 0, x, regularized=True)


def _relative_error(value, truth):
    with mpmath.workdps(50):
        return abs(mpmath.mpf(value) / truth - 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_chi2_helpers_match_mpmath(m):
    # the reweighting mass, and h / n for the block sizes in use
    alphas = [0.975] + [((n + m + 1) // 2) / n for n in (300, 512, 900, 1024)]
    for alpha in alphas:
        q, factor = _true_constants(alpha, m)
        assert _relative_error(_chi2_quantile(alpha, m), q) <= 1e-15
        assert _relative_error(_consistency_factor(alpha, m), factor) <= 2e-15


QUANTILE_PS = (0.5, 0.6, 0.75, 0.9, 0.975, 0.99)


@pytest.mark.parametrize("m", range(1, 41))
def test_quantile_matches_mpmath(m):
    # Beyond M = 10 the rounding of cdf's prefactor x^a e^-x / Gamma(a+1),
    # formed from terms of size near M, moves F by a few e-15 relative, and
    # the root with it: up to 2.6e-15 measured at M <= 40
    bound = 1e-15 if m <= 10 else 4e-15
    for p in QUANTILE_PS:
        assert _relative_error(chisquare.quantile(p, m), _true_constants(p, m)[0]) <= bound


def test_quantile_takes_a_few_evaluations(monkeypatch):
    # F(t) - p was evaluated at most 9 times per quantile on this grid
    excess, calls = chisquare._excess, []

    def counted(*args):
        calls.append(args)
        return excess(*args)

    monkeypatch.setattr(chisquare, "_excess", counted)
    for m in range(1, 41):
        for p in QUANTILE_PS:
            calls.clear()
            chisquare.quantile(p, m)
            assert len(calls) <= 10, (m, p)


@pytest.mark.parametrize("p", [0.4999, 1.0, float("nan")])
def test_quantile_refuses_p_outside_its_range(p):
    with pytest.raises(ValueError, match="1/2 <= p < 1"):
        chisquare.quantile(p, 3)


def _same_fit(a, b):
    return np.array_equal(a.sigma, b.sigma) and np.array_equal(a.chol, b.chol)


@pytest.mark.parametrize("n", [300, 512, 1024], ids=["elemental", "elemental-chunked", "nested"])
@pytest.mark.parametrize("m", range(1, 6))
def test_stacked_fit_equals_lone_fits_bit_for_bit(monkeypatch, n, m):
    # a calibration batch hands its finest-scale blocks over as a strided
    # view of one (n, c, M) array; two blocks carry shifted rows, so the
    # blocks of the stack stop refining at different steps
    from mvdenoise import robustcov

    rows = np.random.default_rng([21, n, m]).standard_normal((n, 4, m))
    rows[: n // 4, 1] += 6.0
    rows[: n // 3, 3] -= 4.0
    layouts = []
    step = robustcov._Concentrator.step

    def recorded(self, scatters, counts):
        if len(counts) == 4:
            layouts.append(counts)
        return step(self, scatters, counts)

    monkeypatch.setattr(robustcov._Concentrator, "step", recorded)
    fits = mcd_estimate(rows.transpose(1, 0, 2))
    monkeypatch.undo()
    assert len(fits) == 4
    for j, fit in enumerate(fits):
        assert _same_fit(fit, mcd_estimate(rows[:, j]))
    # some refinement step moved one block's candidates while another
    # block had already converged (at M = 1 every block's candidates are
    # fixed points after their first refinement step)
    assert any(0 in counts and max(counts) > 0 for counts in layouts) or m == 1


def test_stacked_fit_splits_long_blocks_as_a_lone_fit_does():
    # past 16384 rows a block's 4 candidates no longer fit one chunk of
    # _STEP_CHUNK_VALUES distances; each block is cut as alone
    rows = np.random.default_rng(24).standard_normal((20000, 3, 2))
    fits = mcd_estimate(rows.transpose(1, 0, 2))
    for j, fit in enumerate(fits):
        assert _same_fit(fit, mcd_estimate(rows[:, j]))


@pytest.mark.parametrize("n", [400, 1024], ids=["elemental", "nested"])
def test_stacked_fit_ridges_only_its_rank_deficient_block(n):
    rows = np.random.default_rng([26, n]).standard_normal((n, 3, 2))
    rows[:, 1, 1] = 2.0 * rows[:, 1, 0]  # linearly dependent channels
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = mcd_estimate(rows.transpose(1, 0, 2))
    assert [str(w.message) for w in caught] == ["coefficient block is rank deficient; using ridged scatter"]
    scatter = rows[:, 1].T @ rows[:, 1] / n
    assert np.array_equal(fits[1].sigma, scatter + _ridge(scatter) * np.eye(2))
    # the others are their lone fits
    for j in (0, 2):
        assert _same_fit(fits[j], mcd_estimate(rows[:, j]))


def test_mcd_ignores_its_generator():
    # the estimate is a function of the block alone, for a lone block and
    # for a stack, whatever generators come with it
    rows = np.random.default_rng(29).standard_normal((3, 700, 3))
    rows[1, :140] += 6.0
    for block in rows:
        assert _same_fit(mcd_estimate(block, np.random.default_rng(1)), mcd_estimate(block, np.random.default_rng(2)))
    a = mcd_estimate(rows, [np.random.default_rng(j) for j in range(3)])
    b = mcd_estimate(rows, [np.random.default_rng(j + 3) for j in range(3)])
    assert all(_same_fit(p, q) for p, q in zip(a, b))


def _starts(x):
    from mvdenoise.robustcov import _Concentrator, _scatter

    scatter = _scatter(x[None])
    return _Concentrator(x[None], (x.shape[0] + x.shape[1] + 1) // 2, scatter).starts(scatter)[0]


@pytest.mark.parametrize("n", [500, 2000])
def test_each_start_is_affine_equivariant(n):
    # the starts of X A^T are A S A^T for the starts S of X, a tenth of the
    # rows shifted so that no two starts coincide
    x = np.random.default_rng([30, n]).standard_normal((n, 3))
    x[: n // 10] += 5.0
    a = np.array([[0.8, -1.5, 0.4], [0.9, 0.5, 0.0], [-1.2, 0.3, 3.0]])
    base, mapped = _starts(x), _starts(x @ a.T)
    assert base.shape == (4, 3, 3)
    assert np.allclose(mapped, a @ base @ a.T, rtol=1e-10, atol=0)


@pytest.mark.parametrize("nonzero", [3, 128, 400])
def test_starts_are_finite_on_a_block_with_zero_rows(nonzero):
    # rows at distance zero take weight zero in the spatial-sign and Tyler
    # starts, not 1/0, and those starts keep full rank; three nonzero rows
    # are an exact fit, and with half the rows zero so is the half start
    x = np.zeros((512, 3))
    x[np.linspace(0, 511, nonzero).astype(int)] = np.random.default_rng([31, nonzero]).standard_normal((nonzero, 3))
    with np.errstate(all="raise"):
        starts = _starts(x)
    assert np.isfinite(starts).all()
    assert (np.linalg.eigvalsh(starts[[0, 1, 3]]) > 0).all()
    assert (np.linalg.eigvalsh(starts[2]) > 0).all() == (nonzero > 256)

