"""Noise covariance estimation from wavelet coefficients.

The robust estimator is the minimum covariance determinant, computed by
concentration steps (C-steps, Rousseeuw & Van Driessen 1999, Technometrics
41) from a few deterministic starts, as in DetMCD (Hubert, Rousseeuw &
Verdonck 2012, JCGS 21).  DetMCD's own starts are coordinate-wise; these
are affine equivariant, so the estimate is too (see
:meth:`_Concentrator.starts`).  Each start is C-stepped to a fixed point,
and the one of least determinant wins.  There is no random search: the
estimate is a function of the block alone.  Because detail coefficients are
zero-mean under the additive Gaussian noise model, all scatter matrices here
are taken about zero: no location is estimated.

One ridge rule, :func:`_ridge`, serves every scatter that may be singular:
a tiny fraction of its mean variance, or a fixed floor for a zero scatter.
The C-steps add it to every candidate scatter, and :func:`mcd_estimate`
owns both fallbacks that keep a degenerate block usable, each with a
warning: a rank-deficient block gives its ridged scatter, and a
rank-deficient final estimate (an exact fit: most rows zero, say) gets the
ridge.  One rank rule, :func:`_full_rank`, decides three things: which
blocks are fitted, which raw estimates are reweighted, and which final
estimates take the ridge.  Every caller, ``denoise``, its null and ``gof``
alike, takes them.  Every squared distance v^T S^{-1} v outside the C-steps
goes through :func:`_squared_distances`.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import chisquare

# Tyler shape iterations behind the last start (see _Concentrator.starts)
_TYLER_STEPS = 3
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
        return _squared_distances(rows, self.chol)


def _squared_distances(x: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """|v L^{-T}|^2 = v^T (L L^T)^{-1} v of each row v of an (..., n, M) block under its (..., M, M) factor L.

    Each factor is inverted, and each block multiplied, as a lone block's
    is, so a stacked call equals the lone calls bit for bit.  A distance
    past the float64 range is inf or NaN, with no warning: the caller
    decides what an overflow means.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.matmul(x, np.swapaxes(np.linalg.inv(chol), -1, -2))
        return np.einsum("...i,...i->...", z, z)


def _ridge(scatter: np.ndarray):
    """The ridge of each possibly singular (..., M, M) scatter (see the module docstring)."""
    scale = np.trace(scatter, axis1=-2, axis2=-1) / scatter.shape[-1]
    return np.where(scale > 0, 1e-10 * scale, 1e-20)


def _scatter(x: np.ndarray) -> np.ndarray:
    # X^T X / n about zero of an (n, M) block, or of each block of a stack
    return np.matmul(np.swapaxes(x, -1, -2), x) / x.shape[-2]


@functools.lru_cache(maxsize=None)
def _consistency_factor(alpha: float, m: int) -> float:
    # Makes the h-subset scatter consistent for the full covariance under
    # pure Gaussian data: alpha / P(chi2_{M+2} <= q_alpha).  With a = M/2
    # and x = q_alpha/2, P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1)
    # (Abramowitz & Stegun 6.5.21), and P(a, x) = alpha by construction.
    a, x = m / 2.0, _chi2_quantile(alpha, m) / 2.0
    return alpha / (alpha - math.exp(a * math.log(x) - x - math.lgamma(a + 1.0)))


@functools.lru_cache(maxsize=None)
def _chi2_quantile(alpha: float, m: int) -> float:
    return chisquare.quantile(alpha, m)


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
    block, so singular subsets (an exact fit on zero rows, say) stay usable;
    the search only needs distance ranks.

    ``x`` is a (c, n, M) stack, a lone block a stack of one; ``scatter``
    is each block's :func:`_scatter`, computed here when not given.  How a
    matrix product rounds depends on its shape, so each block's candidates
    are cut into the chunks a lone block's are, and each chunk runs a lone
    fit's operations on its own: the distance product, the partition, the
    comparison and the subset-sum product.  A stack shares only numpy calls
    whose arithmetic runs per block: each step's inversion of all its
    candidates' scatters, and :meth:`_weighted`, which the starts and the
    reweighting use.  :meth:`starts` gives each
    block's first candidates.
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

    def starts(self, scatter: np.ndarray) -> np.ndarray:
        """Four affine-equivariant start scatters of each block, (c, 4, M, M).

        ``scatter`` is each block's (full-rank) scatter S about zero.  With
        z = L^{-1} x for the Cholesky factor L of S, each start is L T L^T
        for an orthogonally equivariant shape T of the whitened rows, so the
        start of X A^T is A S A^T for the start S of X.  Each T here is a
        weighted scatter of z, whose image L T L^T is the same weighted
        scatter of x, and each weight is a function of the rows' distances
        d = |z|^2 = x^T S^{-1} x: the starts need no explicit whitening.
        They are, in order:

        - S itself (T = I), the classical scatter;
        - the spatial-sign scatter (Visuri, Koivunen & Oja 2000),
          T = (M/n) sum z z^T / |z|^2;
        - the scatter of the n // 2 rows with the smallest |z|, ties
          included;
        - Tyler's (1987) shape about zero after ``_TYLER_STEPS`` iterations
          of T <- (M/n) sum z z^T / (z^T T^{-1} z) from T = I, whose first
          iteration is the spatial sign.

        A row at distance 0, or below the smallest normal float, gets
        weight 0 rather than 1/0, and the spatial-sign and Tyler sums run
        over the other n' rows, with M/n' for M/n.  Those rows span the
        block (the rest are too small to count in the rank rule of
        :func:`_full_rank`), so these starts have full rank and the scale
        of S.  The half start is zero when half the rows are: the ridge of
        the C-steps keeps it usable.  Each product runs per block with a
        lone block's shapes, so a stack's starts equal its lone blocks' bit
        for bit, as its C-steps do.
        """
        n = self.n
        d = self._distances(scatter)
        near = d <= np.partition(d, n // 2 - 1, axis=1)[:, n // 2 - 1 : n // 2]
        half = self._weighted(near / np.count_nonzero(near, axis=1)[:, None])
        sign = shape = self._tyler_step(d)
        for _ in range(_TYLER_STEPS - 1):
            shape = self._tyler_step(self._distances(shape))
        return np.stack([scatter, sign, half, shape], axis=1)

    def _distances(self, scatter: np.ndarray) -> np.ndarray:
        # x^T S^{-1} x of each row of each block, (c, n), under its (c, M, M) scatter
        inv = np.linalg.inv(scatter)
        packed = inv.reshape(len(inv), -1)[:, self.gather] * self.off
        return np.matmul(packed[:, None], self.feats_t)[:, 0]

    def _tyler_step(self, d: np.ndarray) -> np.ndarray:
        # (M/n') sum x x^T / d over the n' rows of each block whose d is a positive normal float
        kept = d >= np.finfo(d.dtype).tiny
        w = np.divide(self.m / np.count_nonzero(kept, axis=1)[:, None], d, out=np.zeros_like(d), where=kept)
        return self._weighted(w)

    def _weighted(self, weights: np.ndarray) -> np.ndarray:
        # sum_r w_r x_r x_r^T of each block for its (c, n) row weights
        packed = np.matmul(self.feats_t, weights[..., None])[..., 0]
        return packed[:, self.unpack_index].reshape(-1, self.m, self.m)


def mcd_estimate(coeffs, rng=None):
    """Minimum-covariance-determinant estimate of the noise covariance.

    Runs the concentration search on zero-mean coefficient rows, applies the
    chi-square consistency correction, then one reweighting step.  The
    search C-steps each of the four affine-equivariant starts of
    :meth:`_Concentrator.starts` (the classical scatter, the spatial-sign
    scatter, the scatter of the half of the rows nearest zero, and Tyler's
    shape after three iterations) until its subset is a fixed point, and
    keeps the fixed point of least determinant.  The estimate is a function
    of the block alone.  It is consistent under pure Gaussian data but not
    unbiased at finite size: at 1024 rows the mean of tr(S^{-1} S_hat) / M
    is 0.993 (M = 2), 0.992 (M = 3), 0.992 (M = 4) and 0.992 (M = 6), each
    +-0.001 over 1500 fits, i.e. about 1% low (0.990 to 0.991 with the
    random search it replaced).  The calibration in
    :mod:`mvdenoise.denoiser` simulates this estimator itself, so the bias
    is part of the null law the thresholds are taken from.

    A (c, n, M) stack of same-shape blocks returns the list of their c
    estimates, each equal bit for bit to its block's lone fit: each block's
    starts and C-steps run a lone fit's operations alongside the other
    blocks' (see :class:`_Concentrator`), chunk by chunk, and the one
    reweighting of the whole stack computes each block as its lone fit
    does.  A lone block is the stack of one.  The calibration in
    :mod:`mvdenoise.denoiser` fits each batch of replications as one stack.

    One rank rule, :func:`_full_rank`, decides whether the raw estimate is
    reweighted, and both fallbacks, each with a warning.  A rank-deficient
    block (linearly dependent channels, say) has no MCD estimate: it
    returns the block's scatter about zero plus the ridge of
    :func:`_ridge`.  A rank-deficient final estimate (an exact fit of its
    minimal-determinant subset) gets the same ridge.  Each block of a stack
    warns on its own, in block order.  A block whose scatter overflows
    float64 (entries near 1e154 and larger) has no representable
    covariance and raises ``ValueError``, as does a stack holding one.

    Parameters
    ----------
    coeffs : (n, M) or (c, n, M) array
        Coefficient rows, treated as zero-mean draws; a stack of c blocks.
    rng : optional
        Ignored: the fit draws nothing.  Accepted for callers that still
        pass a generator.
    """
    x = np.asarray(coeffs, dtype=np.float64)
    stacked = x.ndim == 3
    x = x if stacked else np.atleast_2d(x)[None]
    c, n, m = x.shape
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
    fit = _full_rank(full_scatter)
    sigmas = full_scatter.copy()
    if fit.any():
        sigmas[fit] = _fit_stack(x if fit.all() else x[fit], full_scatter[fit])

    estimates = []
    for sigma, fitted, ranked in zip(sigmas, fit, _full_rank(sigmas)):
        if not ranked:
            if fitted:
                warnings.warn("minimal-determinant subset is rank deficient; adding ridge", RuntimeWarning)
            else:
                warnings.warn("coefficient block is rank deficient; using ridged scatter", RuntimeWarning)
            sigma = sigma + _ridge(sigma) * np.eye(m)
        estimates.append(CovarianceMatrix.from_matrix(sigma))
    return estimates if stacked else estimates[0]


def _full_rank(scatter: np.ndarray) -> np.ndarray:
    """Whether each (..., M, M) scatter has full rank: its least eigenvalue above 1e-12 of its largest."""
    w = np.linalg.eigvalsh(scatter)
    return w[..., 0] > 1e-12 * np.maximum(w[..., -1], 1e-300)


def _fit_stack(x: np.ndarray, full_scatter: np.ndarray) -> np.ndarray:
    """The reweighted MCD scatter of each full-rank block of a (c, n, M) stack, (c, M, M)."""
    c, n, m = x.shape
    h = (n + m + 1) // 2
    conc = _Concentrator(x, h, full_scatter)
    scatters = conc.starts(full_scatter)
    t = scatters.shape[1]
    flat_scatters = scatters.reshape(c * t, m, m)
    # the starts enter with empty subsets, which no step reproduces
    flat_subsets = np.zeros((c * t, n), dtype=bool)

    # Iterate each block's starts until every subset is a fixed
    # point.  Only those whose subset moved in the last step are stepped
    # again: a subset that maps to itself, with its scatter, keeps doing so.
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
    # the raw estimate: the least-determinant fixed point's scatter, made consistent
    sigmas = _consistency_factor(h / n, m) * scatters[np.arange(c), np.argmin(logdets, axis=1)]

    # One-step reweighting: keep rows whose squared distance under the raw
    # estimate is plausible for Gaussian data, then rescale.  This recovers
    # most of the efficiency the h-subset scatter gives up.  A raw estimate
    # that fails the rank rule is kept (its block whitens under I, unused).
    fit = _full_rank(sigmas)
    chol = np.linalg.cholesky(np.where(fit[:, None, None], sigmas, np.eye(m)))
    kept = (_squared_distances(x, chol) <= _chi2_quantile(_REWEIGHT_MASS, m)) & fit[:, None]
    sizes = np.count_nonzero(kept, axis=1)
    more = sizes > m
    sigmas[more] = _consistency_factor(_REWEIGHT_MASS, m) * conc._weighted(kept.astype(float))[more] / sizes[more, None, None]
    return sigmas
