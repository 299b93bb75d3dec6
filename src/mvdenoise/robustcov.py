"""Noise covariance estimation from wavelet coefficients.

The robust estimator is the minimum covariance determinant, computed with the
concentration-step search (random elemental subsets, a short burst of C-steps,
then full refinement of the best candidates).  Blocks of more than 600 rows
run the first two phases nested, as in FAST-MCD (Rousseeuw & Van Driessen
1999, Technometrics 41): the seeds are spread over up to five disjoint random
subsets of 300 rows, and the best candidates of each are C-stepped on the
merged subsets before the full refinement.  Because detail coefficients are
zero-mean under the additive Gaussian noise model, all scatter matrices here
are taken about zero: no location is estimated.

One ridge rule, :func:`_ridge`, serves every scatter that may be singular:
a tiny fraction of its mean variance, or a fixed floor for a zero scatter.
The search adds it to every candidate scatter, and :func:`mcd_estimate`
owns both fallbacks that keep a degenerate block usable, each with a
warning: a rank-deficient block gives its ridged scatter, and a
rank-deficient final estimate (an exact fit: most rows zero, say) gets the
ridge.  Every caller, ``denoise``, its null and ``gof`` alike, takes them.

The number of random starts follows the same paper's rule: with a fraction
eps of outlying rows, m random (M+1)-row seeds include at least one clean
seed with probability 1 - (1 - (1 - eps)^(M+1))^m.  The search draws the
smallest m that makes this at least 0.99 at eps = 0.5, capped at the paper's
general-dimension budget of 500 (:func:`_n_starts`): 17, 35, 72, 146 and
293 starts at M = 1..5, and 500 from M = 6 on.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla
from scipy import special

# FAST-MCD search budget: random (M+1)-point seeds (see _n_starts), two
# concentration steps each, then the best candidates are iterated to a fixed
# point.
_OUTLIER_FRACTION = 0.5
_START_CONFIDENCE = 0.99
_MAX_STARTS = 500
_N_SHORT_CSTEPS = 2
_N_KEEP = 10
# Blocks of more than 2 * _SUBSET_ROWS rows run the seeds on up to
# _MAX_SUBSETS disjoint random subsets of _SUBSET_ROWS rows (nested search).
_SUBSET_ROWS = 300
_MAX_SUBSETS = 5
_MAX_REFINE = 100
_REWEIGHT_MASS = 0.975
# candidates per batched C-step, sized so the distance matrix stays in cache
_STEP_CHUNK_VALUES = 1 << 16


class SingularCovarianceError(ValueError):
    """Raised when data cannot support a positive-definite covariance estimate."""


@dataclass(frozen=True)
class CovarianceMatrix:
    """Symmetric positive-definite covariance and its Cholesky factor.

    ``chol`` is the lower-triangular factor used for quadratic-form evaluation.
    """

    sigma: np.ndarray
    chol: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, sigma) -> "CovarianceMatrix":
        sigma = np.asarray(sigma, dtype=np.float64)
        if sigma.ndim == 0:
            sigma = sigma.reshape(1, 1)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if np.abs(sigma - sigma.T).max() > 1e-12 * max(np.abs(sigma).max(), 1.0):
            raise ValueError("covariance must be symmetric")
        sigma = 0.5 * (sigma + sigma.T)
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise SingularCovarianceError("covariance is not positive definite") from None
        return cls(sigma=sigma, chol=chol)

    @property
    def dim(self) -> int:
        return self.sigma.shape[0]

    def quadratic_form(self, rows) -> np.ndarray:
        """Evaluate v -> v^T sigma^{-1} v for each row of an (n, M) block."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        z = sla.solve_triangular(self.chol, rows.T, lower=True)
        return np.einsum("ij,ij->j", z, z)


def sample_covariance(coeffs) -> CovarianceMatrix:
    """Unbiased zero-mean sample covariance X^T X / (n - 1).

    The non-robust test oracle the MCD estimate is checked against; no
    pipeline route uses it.  Raises :class:`SingularCovarianceError` on
    rank-deficient input.
    """
    x = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if x.ndim != 2:
        raise ValueError("coefficients must form an (n, M) block")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two rows")
    sigma = x.T @ x / (n - 1)
    try:
        return CovarianceMatrix.from_matrix(sigma)
    except SingularCovarianceError:
        raise SingularCovarianceError("rank-deficient coefficient block") from None


def _ridge(scatter: np.ndarray) -> float:
    """The ridge for a possibly singular (M, M) scatter (see the module docstring)."""
    scale = float(np.trace(scatter)) / scatter.shape[0]
    return 1e-10 * scale if scale > 0 else 1e-20


# The two chi-square helpers call the special functions that scipy.stats.chi2
# wraps (its _cdf and _ppf), so they give the same bits without importing
# scipy.stats, which costs every CLI process about 0.3 s and 40 MB.
@functools.lru_cache(maxsize=None)
def _consistency_factor(alpha: float, m: int) -> float:
    # Makes the h-subset scatter consistent for the full covariance under
    # pure Gaussian data: alpha / P(chi2_{M+2} <= q_alpha).
    return alpha / float(special.chdtr(m + 2, _chi2_quantile(alpha, m)))


@functools.lru_cache(maxsize=None)
def _chi2_quantile(alpha: float, m: int) -> float:
    # the alpha-quantile of chi2_m
    return float(2.0 * special.gammaincinv(m / 2.0, alpha))


def _n_starts(m: int) -> int:
    """Random starts for M channels: the smallest count s with
    1 - (1 - (1 - eps)^(M+1))^s >= 0.99, capped at 500 (Rousseeuw & Van
    Driessen 1999)."""
    clean_seed = (1.0 - _OUTLIER_FRACTION) ** (m + 1)
    s = math.ceil(math.log(1.0 - _START_CONFIDENCE) / math.log1p(-clean_seed))
    return min(s, _MAX_STARTS)


def _elemental_subsets(rng, n: int, size: int, count: int) -> np.ndarray:
    # `count` uniformly random `size`-subsets of range(n): iid index tuples,
    # redrawing every tuple that repeats an index.
    idx = rng.integers(0, n, size=(count, size))
    while True:
        srt = np.sort(idx, axis=1)
        dup = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if not dup.any():
            return idx
        idx[dup] = rng.integers(0, n, size=(int(dup.sum()), size))


class _Concentrator:
    """Batched concentration steps on one coefficient block.

    Rows are kept as their packed outer products (the upper triangle of
    x x^T), so the distances of every row under a batch of scatters and the
    scatters of a batch of subsets are each one matrix product.  A last
    column of ones makes that product return each subset's size as well.
    Candidate scatters carry the ridge of :func:`_ridge` for the whole
    block, so singular elemental subsets (and blocks whose rows are all zero)
    stay usable; the search only needs distance ranks.
    """

    def __init__(self, x: np.ndarray, h: int):
        n, m = x.shape
        self.m, self.h = m, h
        self.iu, self.ju = np.triu_indices(m)
        self.feats1 = np.column_stack([x[:, self.iu] * x[:, self.ju], np.ones(n)])
        self.feats = self.feats1[:, :-1]
        self.off = np.where(self.iu == self.ju, 1.0, 2.0)
        self.ridge = _ridge(x.T @ x / n) * np.eye(m)

    def unpack(self, packed: np.ndarray) -> np.ndarray:
        out = np.empty((packed.shape[0], self.m, self.m))
        out[:, self.iu, self.ju] = packed
        out[:, self.ju, self.iu] = packed
        return out

    def step(self, scatters: np.ndarray):
        """One C-step per scatter: the rows closest under it, and their scatter."""
        n = self.feats.shape[0]
        chunk = max(1, _STEP_CHUNK_VALUES // n)
        subsets = np.empty((scatters.shape[0], n), dtype=bool)
        packed = np.empty((scatters.shape[0], self.feats.shape[1]))
        for lo in range(0, scatters.shape[0], chunk):
            inv = np.linalg.inv(scatters[lo : lo + chunk] + self.ridge)
            dists = (inv[:, self.iu, self.ju] * self.off) @ self.feats.T
            kth = np.partition(dists, self.h - 1, axis=1)[:, self.h - 1 : self.h]
            sub = np.less_equal(dists, kth, out=subsets[lo : lo + chunk])
            sums = sub @ self.feats1
            packed[lo : lo + chunk] = sums[:, :-1] / sums[:, -1:]
        return subsets, self.unpack(packed)


def _elemental_scatters(x: np.ndarray, rng, count: int) -> np.ndarray:
    # scatters about zero of `count` random (M+1)-row subsets of x
    m = x.shape[1]
    sub = x[_elemental_subsets(rng, x.shape[0], m + 1, count)]
    return np.einsum("thi,thj->tij", sub, sub) / (m + 1)


def _best_candidates(conc: _Concentrator, scatters: np.ndarray):
    # a short burst of C-steps from every start; keep the lowest determinants
    for _ in range(_N_SHORT_CSTEPS):
        subsets, scatters = conc.step(scatters)
    _, logdets = np.linalg.slogdet(scatters)
    keep = np.argsort(logdets)[:_N_KEEP]
    return subsets[keep], scatters[keep]


def _nested_candidates(x: np.ndarray, h: int, rng) -> np.ndarray:
    """Start scatters for a large block from the nested search.

    Rousseeuw & Van Driessen (1999): the rows are split into k disjoint
    random subsets of _SUBSET_ROWS rows; each runs ceil(s / k) of the
    s = :func:`_n_starts` seeds, so that together they still meet the start
    rule, with its h scaled to the subset, and keeps its best candidates;
    those candidates are C-stepped on the merged subsets and the best of
    them returned.  The split, like the seed count, is drawn from ``rng``
    and M alone, never from the data, so the estimate stays affine
    equivariant.
    """
    n = x.shape[0]
    k = min(_MAX_SUBSETS, n // _SUBSET_ROWS)
    parts = rng.permutation(n)[: k * _SUBSET_ROWS].reshape(k, _SUBSET_ROWS)
    h_sub = -(-_SUBSET_ROWS * h // n)  # ceil(h * subset rows / n)
    per_part = -(-_n_starts(x.shape[1]) // k)
    starts = []
    for rows in parts:
        part = x[rows]
        starts.append(_best_candidates(_Concentrator(part, h_sub), _elemental_scatters(part, rng, per_part))[1])
    h_merged = -(-k * _SUBSET_ROWS * h // n)
    return _best_candidates(_Concentrator(x[parts.ravel()], h_merged), np.concatenate(starts))[1]


def mcd_estimate(coeffs, rng) -> CovarianceMatrix:
    """Minimum-covariance-determinant estimate of the noise covariance.

    Runs the concentration search on zero-mean coefficient rows, applies the
    chi-square consistency correction, then one reweighting step.  The
    search draws :func:`_n_starts` random (M+1)-row seeds, the fewest that
    include an outlier-free one with probability 0.99 when half the rows are
    outlying (Rousseeuw & Van Driessen 1999): 35, 72 and 146 at M = 2, 3
    and 4.  Above 600 rows the search starts from the nested subsets of
    :func:`_nested_candidates`; up to 600 rows every seed is C-stepped on the
    whole block.  The estimate is consistent under pure Gaussian data but not
    unbiased at finite size: at 1024 rows the mean of tr(S^{-1} S_hat) / M
    is 0.988 (M = 2), 0.991 (M = 3) and 0.990 (M = 4), each +-0.001 over
    1500 fits, i.e. about 1% low, as with a fixed 500 starts.  The
    calibration in :mod:`mvdenoise.denoiser` simulates this estimator
    itself, so the bias is part of the null law the thresholds are taken
    from.  Deterministic for a given ``rng`` state.

    A rank-deficient block (linearly dependent channels, say) has no MCD
    estimate: it returns the block's scatter about zero plus the ridge of
    :func:`_ridge`, with a warning, and draws nothing from ``rng``.  A
    rank-deficient minimal-determinant subset gets the same ridge.  A block
    whose scatter overflows float64 (entries near 1e154 and larger) has no
    representable covariance and raises ``ValueError``.

    Parameters
    ----------
    coeffs : (n, M) array
        Coefficient rows, treated as zero-mean draws.
    rng : numpy.random.Generator
        Source for the random elemental subsets.
    """
    x = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    n, m = x.shape
    if n < 2 * (m + 1):
        raise ValueError(f"need at least {2 * (m + 1)} rows for M={m}, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite coefficient encountered")

    # entries near 1e154 square past the float64 range; rescaling would not
    # help, since the covariance itself would not be representable
    with np.errstate(over="ignore"):
        full_scatter = x.T @ x / n
    if not np.isfinite(full_scatter).all():
        raise ValueError("coefficient covariance overflows float64")
    w_full = np.linalg.eigvalsh(full_scatter)
    if w_full[0] <= 1e-12 * max(w_full[-1], 1e-300):
        warnings.warn("coefficient block is rank deficient; using ridged scatter", RuntimeWarning)
        return CovarianceMatrix.from_matrix(full_scatter + _ridge(full_scatter) * np.eye(m))

    h = (n + m + 1) // 2
    conc = _Concentrator(x, h)
    if n > 2 * _SUBSET_ROWS:
        # no full-block subsets yet: empty ones, which no step reproduces
        scatters = _nested_candidates(x, h, rng)
        subsets = np.zeros((scatters.shape[0], n), dtype=bool)
    else:
        subsets, scatters = _best_candidates(conc, _elemental_scatters(x, rng, _n_starts(m)))

    # Iterate the best candidates until every subset is a fixed point.  Only
    # those whose subset moved in the last step are stepped again: a subset
    # that maps to itself, with its scatter, keeps doing so.
    moving = np.arange(scatters.shape[0])
    for _ in range(_MAX_REFINE):
        new_subsets, scatters[moving] = conc.step(scatters[moving])
        moved = (new_subsets != subsets[moving]).any(axis=1)
        subsets[moving] = new_subsets
        moving = moving[moved]
        if not moving.size:
            break
    sign, logdets = np.linalg.slogdet(scatters)
    logdets[sign <= 0] = np.inf
    best = x[subsets[int(np.argmin(logdets))]]
    sigma = _consistency_factor(h / n, m) * (best.T @ best) / best.shape[0]

    # One-step reweighting: keep rows whose squared distance under the raw
    # estimate is plausible for Gaussian data, then rescale.  This recovers
    # most of the efficiency the h-subset scatter gives up.
    try:
        d2 = CovarianceMatrix.from_matrix(sigma).quadratic_form(x)
    except SingularCovarianceError:
        pass
    else:
        kept = d2 <= _chi2_quantile(_REWEIGHT_MASS, m)
        if kept.sum() > m:
            xk = x[kept]
            sigma = _consistency_factor(_REWEIGHT_MASS, m) * (xk.T @ xk) / kept.sum()

    try:
        return CovarianceMatrix.from_matrix(sigma)
    except SingularCovarianceError:
        warnings.warn("minimal-determinant subset is rank deficient; adding ridge", RuntimeWarning)
        return CovarianceMatrix.from_matrix(sigma + _ridge(sigma) * np.eye(m))

