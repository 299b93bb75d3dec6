import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_triangular

from mvdenoise.robustcov import (
    CovarianceMatrix,
    SingularCovarianceError,
    _chi2_quantile,
    _consistency_factor,
    _n_starts,
    _ridge,
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
    # reference: the scipy.linalg.solve_triangular route quadratic_form took
    # before it called LAPACK's dtrtrs itself
    rng = np.random.default_rng([20, m])
    a = rng.standard_normal((m, m))
    cov = CovarianceMatrix.from_matrix(a @ a.T + 0.5 * np.eye(m))
    v = rng.standard_normal((300, m))
    z = solve_triangular(cov.chol, v.T, lower=True)
    assert np.array_equal(cov.quadratic_form(v), np.einsum("ij,ij->j", z, z))


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
    est = mcd_estimate(x, np.random.default_rng(5))
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
    est = mcd_estimate(contaminated, np.random.default_rng(7))
    assert np.linalg.norm(est.sigma - clean_cov) < 0.25


@pytest.mark.parametrize("frac", [0.1, 0.2, 0.3])
def test_mcd_breakdown_range(frac):
    rng = np.random.default_rng(int(frac * 100))
    n = 1500
    x = rng.standard_normal((n, 2))
    k = int(frac * n)
    contaminated = x.copy()
    contaminated[:k] = 50.0 * rng.standard_normal((k, 2)) + 20.0
    est = mcd_estimate(contaminated, np.random.default_rng(8))
    clean_cov = x[k:].T @ x[k:] / (n - k)
    assert np.linalg.norm(est.sigma - clean_cov) < 0.3


def test_mcd_scalar_case_nondegenerate():
    x = np.array([-1.0, 1.0] * 4)[:, None]
    est = mcd_estimate(x, np.random.default_rng(9))
    assert est.sigma[0, 0] > 0


def test_mcd_deterministic_given_seed():
    x = np.random.default_rng(10).standard_normal((500, 3))
    a = mcd_estimate(x, np.random.default_rng(42)).sigma
    b = mcd_estimate(x, np.random.default_rng(42)).sigma
    assert np.array_equal(a, b)


def test_mcd_sample_size_floor():
    with pytest.raises(ValueError, match="at least"):
        mcd_estimate(np.random.default_rng(0).standard_normal((5, 2)), np.random.default_rng(0))


def test_mcd_refuses_a_block_with_no_channels():
    with pytest.raises(ValueError, match="at least one channel"):
        mcd_estimate(np.zeros((1024, 0)), np.random.default_rng(0))
    with pytest.raises(ValueError, match="at least one channel"):
        mcd_estimate(np.zeros((2, 1024, 0)), [np.random.default_rng(0), np.random.default_rng(1)])


def test_mcd_rank_deficient_takes_the_ridged_scatter():
    # a block with no MCD estimate gives its scatter about zero plus the ridge
    x = np.random.default_rng(0).standard_normal((100, 1)) @ np.array([[1.0, 2.0]])
    with pytest.warns(RuntimeWarning, match="coefficient block is rank deficient; using ridged scatter"):
        est = mcd_estimate(x, np.random.default_rng(0))
    scatter = x.T @ x / x.shape[0]
    assert np.array_equal(est.sigma, scatter + _ridge(scatter) * np.eye(2))


@pytest.mark.parametrize("scale", [1e160, 1e200])
def test_mcd_overflowing_covariance_is_refused(scale):
    # squares past the float64 range: the covariance itself (about scale^2)
    # is not representable, so the fit refuses with a ValueError that says
    # so, and numpy's overflow warning stays inside
    x = np.random.default_rng(9).standard_normal((256, 3))
    assert np.isfinite(mcd_estimate(x * 1e150, np.random.default_rng(0)).sigma).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^coefficient covariance overflows float64$"):
            mcd_estimate(x * scale, np.random.default_rng(0))


@pytest.mark.parametrize("n", [512, 1024], ids=["whole-block", "nested"])
def test_mcd_exact_fit_takes_the_ridge(n):
    # three independent nonzero rows: the block has full rank, but the
    # minimal-determinant subset is all zeros (an exact fit), and nested
    # subsets of the larger block can hold only zero rows
    x = np.zeros((n, 3))
    x[[17, n // 2, n - 5]] = [[1.0, 0.0, 0.0], [0.5, 2.0, 0.0], [0.0, -1.0, 3.0]]
    with pytest.warns(RuntimeWarning, match="adding ridge"):
        est = mcd_estimate(x, np.random.default_rng(0))
    assert np.isfinite(est.sigma).all() and np.isfinite(est.chol).all()


@pytest.mark.parametrize("n,limit", [(500, 0.25), (2000, 0.15), (8000, 0.08)])
def test_mcd_converges_to_sample_covariance(n, limit):
    # agreement with the non-robust estimate tightens as n grows
    dists = []
    for seed in range(5):
        x = np.random.default_rng([n, seed]).standard_normal((n, 2))
        est = mcd_estimate(x, np.random.default_rng([n, seed, 1]))
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
    # blocks of more than 600 rows start from the nested subset search; its
    # split comes from the rng, never the data, so both routes keep
    # sigma_hat(X A^T) = A sigma_hat(X) A^T for the same rng
    x = np.random.default_rng([12, n]).standard_normal((n, 3))
    a = np.array([[0.8, -1.5, 0.4], [0.9, 0.5, 0.0], [-1.2, 0.3, 3.0]])
    base = mcd_estimate(x, np.random.default_rng(13)).sigma
    mapped = mcd_estimate(x @ a.T, np.random.default_rng(13)).sigma
    assert np.allclose(mapped, a @ base @ a.T, rtol=1e-8, atol=0)


def test_mcd_nested_route_resists_shifted_rows():
    # 20 % of a 2000-row block shifted by 8 sigma along a common direction
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2000, 3))
    x[rng.choice(2000, size=400, replace=False)] += 8.0 / np.sqrt(3.0)
    est = mcd_estimate(x, np.random.default_rng(15))
    assert np.abs(est.sigma - np.eye(3)).max() < 0.25


@pytest.mark.parametrize("n", [512, 2000], ids=["elemental", "nested"])
def test_mcd_resists_forty_percent_shifted_rows_at_four_channels(n):
    # 40 % of the rows shifted by 8 sigma along a common direction, where the
    # start rule gives 146 starts instead of 500; with 500 starts the error
    # was 0.151 (512 rows) and 0.086 (2000 rows), the same as now
    rng = np.random.default_rng([16, n, 0])
    x = rng.standard_normal((n, 4))
    x[rng.choice(n, size=int(0.4 * n), replace=False)] += 8.0 / np.sqrt(4.0)
    est = mcd_estimate(x, np.random.default_rng([17, 0]))
    assert np.abs(est.sigma - np.eye(4)).max() < 0.3


def test_start_count_is_the_smallest_that_meets_the_rule():
    # 1 - (1 - (1 - eps)^(M+1))^s >= 0.99 at eps = 0.5, capped at 500
    for m in range(1, 9):
        clean_seed = 0.5 ** (m + 1)
        s = 1
        while 1.0 - (1.0 - clean_seed) ** s < 0.99:
            s += 1
        assert _n_starts(m) == min(s, 500)
    assert [_n_starts(m) for m in range(1, 9)] == [17, 35, 72, 146, 293, 500, 500, 500]


@pytest.mark.parametrize("n", [700, 1024, 2000])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_nested_subsets_share_at_least_the_rule_starts(monkeypatch, n, m):
    # ceil(s / k) starts per subset: floor division would give 33 < 35 at M = 2
    from mvdenoise import robustcov

    counts = []
    draw = robustcov._elemental_scatters

    def counted(x, rng, count):
        counts.append(count)
        return draw(x, rng, count)

    monkeypatch.setattr(robustcov, "_elemental_scatters", counted)
    mcd_estimate(np.random.default_rng([18, n, m]).standard_normal((n, m)), np.random.default_rng(19))
    k = min(5, n // 300)
    assert counts == [-(-_n_starts(m) // k)] * k
    assert sum(counts) >= _n_starts(m)


@pytest.mark.parametrize("m", range(1, 9))
def test_chi2_helpers_match_scipy_stats(m):
    # the reweighting mass, and h / n for the block sizes in use
    alphas = [0.975] + [((n + m + 1) // 2) / n for n in (300, 512, 900, 1024)]
    for alpha in alphas:
        q = stats.chi2.ppf(alpha, df=m)
        assert _chi2_quantile(alpha, m) == pytest.approx(q, rel=1e-15, abs=0)
        assert _consistency_factor(alpha, m) == pytest.approx(alpha / stats.chi2.cdf(q, df=m + 2), rel=1e-15, abs=0)


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
    fits = mcd_estimate(rows.transpose(1, 0, 2), [np.random.default_rng([22, j]) for j in range(4)])
    monkeypatch.undo()
    assert len(fits) == 4
    for j, fit in enumerate(fits):
        assert _same_fit(fit, mcd_estimate(rows[:, j], np.random.default_rng([22, j])))
    # some refinement step moved one block's candidates while another
    # block had already converged (at M = 1 every block's candidates are
    # fixed points after their first refinement step)
    assert any(0 in counts and max(counts) > 0 for counts in layouts) or m == 1


def test_stacked_fit_splits_long_blocks_as_a_lone_fit_does():
    # past 6553 rows a block's 10 refined candidates no longer fit one
    # chunk of _STEP_CHUNK_VALUES distances; each block is cut as alone
    rows = np.random.default_rng(24).standard_normal((7000, 3, 2))
    fits = mcd_estimate(rows.transpose(1, 0, 2), [np.random.default_rng([25, j]) for j in range(3)])
    for j, fit in enumerate(fits):
        assert _same_fit(fit, mcd_estimate(rows[:, j], np.random.default_rng([25, j])))


@pytest.mark.parametrize("n", [400, 1024], ids=["elemental", "nested"])
def test_stacked_fit_ridges_only_its_rank_deficient_block(n):
    rows = np.random.default_rng([26, n]).standard_normal((n, 3, 2))
    rows[:, 1, 1] = 2.0 * rows[:, 1, 0]  # linearly dependent channels
    gens = [np.random.default_rng([27, j]) for j in range(3)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fits = mcd_estimate(rows.transpose(1, 0, 2), gens)
    assert [str(w.message) for w in caught] == ["coefficient block is rank deficient; using ridged scatter"]
    scatter = rows[:, 1].T @ rows[:, 1] / n
    assert np.array_equal(fits[1].sigma, scatter + _ridge(scatter) * np.eye(2))
    # the deficient block drew nothing from its generator; the others are
    # their lone fits
    assert gens[1].random() == np.random.default_rng([27, 1]).random()
    for j in (0, 2):
        assert _same_fit(fits[j], mcd_estimate(rows[:, j], np.random.default_rng([27, j])))


def test_stacked_fit_needs_one_generator_per_block():
    rows = np.random.default_rng(28).standard_normal((3, 100, 2))
    with pytest.raises(ValueError, match="one generator per block"):
        mcd_estimate(rows, [np.random.default_rng(0)] * 2)
