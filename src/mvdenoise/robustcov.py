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
from scipy import special
from scipy.linalg import lapack

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
        """Evaluate v -> v^T sigma^{-1} v for each row of an (n, M) block.

        Raises ``ValueError`` on a row holding ``nan`` or ``inf``.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        if not np.isfinite(rows).all():
            raise ValueError("rows must not contain infs or NaNs")
        z = _solve_lower(self.chol, rows.T)
        return np.einsum("ij,ij->j", z, z)


def _solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """chol^{-1} b for a lower-triangular (M, M) factor and an (M, k) block.

    Calls LAPACK's dtrtrs as ``scipy.linalg.solve_triangular(chol, b,
    lower=True)`` calls it for a C-ordered factor (the transposed upper
    system), so the bits are the same, without that function's validation
    and batching layers: 2.5 us a call against 23 us for a 3 x 3 factor, on
    one core of a Xeon.  The factor must be nonsingular and both arrays
    finite.
    """
    z, info = lapack.dtrtrs(chol.T, b, lower=0, trans=1)
    if info:
        raise np.linalg.LinAlgError(f"triangular solve failed: dtrtrs info {info}")
    return z


def _ridge(scatter: np.ndarray):
    """The ridge of each possibly singular (..., M, M) scatter (see the module docstring)."""
    scale = np.trace(scatter, axis1=-2, axis2=-1) / scatter.shape[-1]
    return np.where(scale > 0, 1e-10 * scale, 1e-20)


def _scatter(x: np.ndarray) -> np.ndarray:
    # X^T X / n about zero of an (n, M) block, or of each block of a stack
    return np.matmul(np.swapaxes(x, -1, -2), x) / x.shape[-2]


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


@functools.lru_cache(maxsize=None)
def _packing(m: int):
    """Index tables of the packed upper triangle of an M x M matrix.

    The packed entries are in ``np.triu_indices`` order: row by row, so row i
    packs entries (i, i) .. (i, M-1) side by side.  Returns ``(off, gather,
    unpack)``: each packed entry's weight in a quadratic form (1 on the
    diagonal, 2 off it), its flat index in a flattened M x M matrix, and
    the packed entry each of the M * M flat positions reads.  Built once
    per M: the C-step runs thousands of times.
    """
    iu, ju = np.triu_indices(m)
    packed_at = np.empty((m, m), dtype=np.intp)
    packed_at[iu, ju] = packed_at[ju, iu] = np.arange(iu.size)
    tables = (np.where(iu == ju, 1.0, 2.0), iu * m + ju, packed_at.ravel())
    for t in tables:
        t.setflags(write=False)
    return tables


class _Concentrator:
    """Batched concentration steps on a stack of same-shape coefficient blocks.

    Rows are kept as their packed outer products (the upper triangle of
    x x^T), so the distances of every row under a chunk of scatters and the
    scatters of a chunk of subsets are each one matrix product.  A last
    column of ones makes that product return each subset's size as well.
    The features and the ones are written into one preallocated array, and
    every index into packed or square matrices comes from the per-M tables
    of :func:`_packing`: a step gathers the inverses' upper triangles with
    one flat index, and unpacks the new scatters with one gather.
    Candidate scatters carry the ridge of :func:`_ridge` for their whole
    block, so singular elemental subsets (and blocks whose rows are all zero)
    stay usable; the search only needs distance ranks.

    ``x`` is a (c, n, M) stack, a lone block a stack of one; ``scatter``
    is each block's :func:`_scatter`, computed here when not given.  How a
    matrix product rounds depends on its shape, so each block's candidates
    are cut into the chunks a lone block's are, and each chunk runs a lone
    fit's operations on its own: the distance product, the partition, the
    comparison and the subset-sum product.  A stack shares only the one
    inversion of all its candidates' scatters.
    """

    def __init__(self, x: np.ndarray, h: int, scatter: np.ndarray | None = None):
        c, n, m = x.shape
        self.n, self.m, self.h = n, m, h
        self.off, self.gather, self.unpack_index = _packing(m)
        self.feats1 = np.empty((c, n, self.off.size + 1))
        self.feats_t = self.feats1[..., :-1].transpose(0, 2, 1)
        # each channel's rows made contiguous once (a calibration stack is a
        # strided view), then the products of channel i with channels i..M-1,
        # packed entries p .. p + M - i - 1, down the rows
        xt = np.ascontiguousarray(x.transpose(2, 0, 1))
        p = 0
        for i in range(m):
            np.multiply(xt[i], xt[i:], out=self.feats_t[:, p : p + m - i].transpose(1, 0, 2))
            p += m - i
        self.feats1[..., -1] = 1.0
        if scatter is None:
            scatter = _scatter(x)
        self.ridge = (_ridge(scatter)[..., None, None] * np.eye(m)).reshape(c, m, m)

    def step(self, scatters: np.ndarray, counts):
        """One C-step per scatter: the rows of its block closest under it, and their scatter.

        ``scatters`` is (R, M, M): ``counts[b]`` consecutive candidates of
        each block b in turn, cut into chunks of ``max(1, _STEP_CHUNK_VALUES
        // n)`` from the block's first.
        """
        n, h = self.n, self.h
        chunk = max(1, _STEP_CHUNK_VALUES // n)
        inv = np.linalg.inv(scatters + np.repeat(self.ridge[: len(counts)], counts, axis=0))
        weights = inv.reshape(inv.shape[0], -1)[:, self.gather] * self.off
        subsets = np.empty((scatters.shape[0], n), dtype=bool)
        sums = np.empty((scatters.shape[0], self.feats1.shape[2]))
        dists = np.empty((min(chunk, scatters.shape[0]), n))
        r = 0
        for b, count in enumerate(counts):
            for lo in range(0, count, chunk):
                d = dists[: min(chunk, count - lo)]
                rows = slice(r, r + len(d))
                np.matmul(weights[rows], self.feats_t[b], out=d)
                np.less_equal(d, np.partition(d, h - 1, axis=1)[:, h - 1 : h], out=subsets[rows])
                np.matmul(subsets[rows], self.feats1[b], out=sums[rows])
                r += len(d)
        # each subset's scatter, unpacked: its sums over its size
        scatters = sums[:, self.unpack_index] / sums[:, -1:]
        return subsets, scatters.reshape(-1, self.m, self.m)


def _elemental_scatters(x: np.ndarray, rng, count: int) -> np.ndarray:
    # scatters about zero of `count` random (M+1)-row subsets of x
    m = x.shape[1]
    sub = x[_elemental_subsets(rng, x.shape[0], m + 1, count)]
    return np.einsum("thi,thj->tij", sub, sub) / (m + 1)


def _best_candidates(conc: _Concentrator, scatters: np.ndarray):
    # a short burst of C-steps from every start of every block, (c, t, M, M);
    # keep each block's lowest determinants
    c, t, m = scatters.shape[:3]
    scatters = scatters.reshape(c * t, m, m)
    for _ in range(_N_SHORT_CSTEPS - 1):
        scatters = conc.step(scatters, [t] * c)[1]
    subsets, scatters = conc.step(scatters, [t] * c)
    _, logdets = np.linalg.slogdet(scatters)
    keep = np.argsort(logdets.reshape(c, t), axis=1)[:, :_N_KEEP]
    blocks = np.arange(c)[:, None]
    return subsets.reshape(c, t, -1)[blocks, keep], scatters.reshape(c, t, m, m)[blocks, keep]


def _nested_candidates(x: np.ndarray, h: int, rngs) -> np.ndarray:
    """Start scatters for a stack of large blocks from the nested search.

    Rousseeuw & Van Driessen (1999): the rows are split into k disjoint
    random subsets of _SUBSET_ROWS rows; each runs ceil(s / k) of the
    s = :func:`_n_starts` seeds, so that together they still meet the start
    rule, with its h scaled to the subset, and keeps its best candidates;
    those candidates are C-stepped on the merged subsets and the best of
    them returned, (c, candidates, M, M) for a (c, n, M) stack.  Each
    block's split, like the seed count, is drawn from its own generator
    and M alone, never from the data, so the estimate stays affine
    equivariant; each generator draws the split, then each subset's seeds.
    """
    c, n, m = x.shape
    k = min(_MAX_SUBSETS, n // _SUBSET_ROWS)
    rows = np.stack([rng.permutation(n)[: k * _SUBSET_ROWS] for rng in rngs])
    merged = x[np.arange(c)[:, None], rows]
    parts = merged.reshape(c * k, _SUBSET_ROWS, m)
    h_sub = -(-_SUBSET_ROWS * h // n)  # ceil(h * subset rows / n)
    per_part = -(-_n_starts(m) // k)
    starts = np.stack([_elemental_scatters(part, rngs[j // k], per_part) for j, part in enumerate(parts)])
    best = _best_candidates(_Concentrator(parts, h_sub), starts.reshape(c * k, per_part, m, m))[1]
    h_merged = -(-k * _SUBSET_ROWS * h // n)
    return _best_candidates(_Concentrator(merged, h_merged), best.reshape(c, -1, m, m))[1]


def mcd_estimate(coeffs, rng):
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

    A (c, n, M) stack of same-shape blocks, with a sequence of c
    generators, returns the list of their c estimates, each equal bit for
    bit to its block's lone fit with its generator: every block draws from
    its own generator in a lone fit's order, and its C-steps run with the
    other blocks' (see :class:`_Concentrator`).  Each block runs a lone
    fit's steps chunk by chunk; the blocks of a stack share only each
    step's inversion.  A lone block is the stack of one.  The calibration in
    :mod:`mvdenoise.denoiser` fits each batch of replications as one stack.

    A rank-deficient block (linearly dependent channels, say) has no MCD
    estimate: it returns the block's scatter about zero plus the ridge of
    :func:`_ridge`, with a warning, and draws nothing from its generator.  A
    rank-deficient minimal-determinant subset gets the same ridge.  Each
    block of a stack warns on its own, in block order.  A block whose
    scatter overflows float64 (entries near 1e154 and larger) has no
    representable covariance and raises ``ValueError``, as does a stack
    holding one.

    Parameters
    ----------
    coeffs : (n, M) or (c, n, M) array
        Coefficient rows, treated as zero-mean draws; a stack of c blocks.
    rng : numpy.random.Generator, or a sequence of c for a stack
        Source for the random elemental subsets.
    """
    x = np.asarray(coeffs, dtype=np.float64)
    stacked = x.ndim == 3
    x = x if stacked else np.atleast_2d(x)[None]
    rngs = list(rng) if stacked else [rng]
    c, n, m = x.shape
    if len(rngs) != c:
        raise ValueError(f"need one generator per block: {c} blocks, {len(rngs)} generators")
    if m < 1:
        raise ValueError("need at least one channel")
    if n < 2 * (m + 1):
        raise ValueError(f"need at least {2 * (m + 1)} rows for M={m}, got {n}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite coefficient encountered")

    # entries near 1e154 square past the float64 range; rescaling would not
    # help, since the covariance itself would not be representable
    with np.errstate(over="ignore"):
        full_scatter = _scatter(x)
    if not np.isfinite(full_scatter).all():
        raise ValueError("coefficient covariance overflows float64")
    w_full = np.linalg.eigvalsh(full_scatter)
    fit = (w_full[:, 0] > 1e-12 * np.maximum(w_full[:, -1], 1e-300)).tolist()
    rows = [j for j in range(c) if fit[j]]
    sigmas = iter(_fit_stack(x if len(rows) == c else x[rows], [rngs[j] for j in rows], full_scatter[rows]) if rows else [])

    estimates = []
    for j in range(c):
        if not fit[j]:
            warnings.warn("coefficient block is rank deficient; using ridged scatter", RuntimeWarning)
            estimates.append(CovarianceMatrix.from_matrix(full_scatter[j] + _ridge(full_scatter[j]) * np.eye(m)))
            continue
        sigma = next(sigmas)
        try:
            estimates.append(CovarianceMatrix.from_matrix(sigma))
        except SingularCovarianceError:
            warnings.warn("minimal-determinant subset is rank deficient; adding ridge", RuntimeWarning)
            estimates.append(CovarianceMatrix.from_matrix(sigma + _ridge(sigma) * np.eye(m)))
    return estimates if stacked else estimates[0]


def _fit_stack(x: np.ndarray, rngs, full_scatter: np.ndarray) -> list:
    """The reweighted MCD scatter of each full-rank block of a (c, n, M) stack."""
    c, n, m = x.shape
    h = (n + m + 1) // 2
    if n > 2 * _SUBSET_ROWS:
        # no full-block subsets yet: empty ones, which no step reproduces;
        # the full-block features are built after the subsets' are freed
        scatters = _nested_candidates(x, h, rngs)
        subsets = np.zeros(scatters.shape[:2] + (n,), dtype=bool)
        conc = _Concentrator(x, h, full_scatter)
    else:
        starts = np.stack([_elemental_scatters(xj, rng, _n_starts(m)) for xj, rng in zip(x, rngs)])
        conc = _Concentrator(x, h, full_scatter)
        subsets, scatters = _best_candidates(conc, starts)

    # Iterate each block's best candidates until every subset is a fixed
    # point.  Only those whose subset moved in the last step are stepped
    # again: a subset that maps to itself, with its scatter, keeps doing so.
    t = scatters.shape[1]
    flat_scatters, flat_subsets = scatters.reshape(c * t, m, m), subsets.reshape(c * t, n)
    moving = np.arange(c * t)
    for _ in range(_MAX_REFINE):
        counts = np.bincount(moving // t, minlength=c).tolist()
        new_subsets, flat_scatters[moving] = conc.step(flat_scatters[moving], counts)
        moved = (new_subsets != flat_subsets[moving]).any(axis=1)
        flat_subsets[moving] = new_subsets
        moving = moving[moved]
        if not moving.size:
            break
    sign, logdets = np.linalg.slogdet(scatters)
    logdets[sign <= 0] = np.inf
    sigmas = []
    for xj, sub, best in zip(x, subsets, np.argmin(logdets, axis=1)):
        rows = xj[sub[best]]
        sigma = _consistency_factor(h / n, m) * (rows.T @ rows) / rows.shape[0]

        # One-step reweighting: keep rows whose squared distance under the
        # raw estimate is plausible for Gaussian data, then rescale.  This
        # recovers most of the efficiency the h-subset scatter gives up.
        try:
            d2 = CovarianceMatrix.from_matrix(sigma).quadratic_form(xj)
        except SingularCovarianceError:
            pass
        else:
            kept = d2 <= _chi2_quantile(_REWEIGHT_MASS, m)
            if kept.sum() > m:
                xk = xj[kept]
                sigma = _consistency_factor(_REWEIGHT_MASS, m) * (xk.T @ xk) / kept.sum()
        sigmas.append(sigma)
    return sigmas
