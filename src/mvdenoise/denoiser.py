"""End-to-end multivariate wavelet denoising pipeline.

The chain: decompose the signal channel-wise, estimate the noise covariance
robustly from the finest-scale coefficients, calibrate a per-scale decision
threshold by Monte Carlo for a target false-alarm probability (simulating the
statistic with an estimated covariance, as it is computed on data), slide a window
over each detail block scoring the local empirical distribution of squared
Mahalanobis distances against the reference law, zero every coefficient whose
window looks like pure noise, and reconstruct.  A channel-wise
universal-threshold baseline is included for comparison runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import linalg as sla

from . import gofstat
from .gofstat import ReferenceDistribution, make_reference, reference_cdf
from .robustcov import CovarianceMatrix, SingularCovarianceError, mcd_estimate
from .siggen import average_snr_db, snr_db
from .wavelet import FILTER_NAMES, dwt_forward, dwt_inverse, get_filter

# Replications per calibration batch: reps * N * (window + 1) / 2 stays under
# this.  The windows are scored in chunks of _SCORE_CHUNK_VALUES, so it bounds
# only a batch's noise and transform arrays (reps * N * M floats each); its
# value fixes the batches, and so the benchmark matrix's pool tasks.
_CAL_CHUNK_VALUES = 6_000_000
# floats sorted at once by the window scorer (512 KB, an L2-sized buffer)
_SCORE_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class DenoiseConfig:
    """Pipeline settings.  Defaults follow the reference experimental protocol:

    16-tap Daubechies filter, five decomposition levels, window size
    L = 28 * n_channels, false-alarm probability 0.005, and 1000 Monte Carlo
    replications per calibration.
    """

    filter_name: str = "db8"
    levels: int = 5
    window_l: int | None = None  # None -> 28 * n_channels
    p_fa: float = 0.005
    calibration_reps: int = 1000
    seed: int | None = None

    def validate(self) -> None:
        if self.filter_name not in FILTER_NAMES:
            raise ValueError(f"unknown wavelet filter {self.filter_name!r}; available: {list(FILTER_NAMES)}")
        if not 0.0 < self.p_fa < 0.5:
            raise ValueError("p_fa must lie in (0, 0.5)")
        if self.calibration_reps < 100:
            raise ValueError("calibration_reps must be >= 100")
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.window_l is not None and (self.window_l < 2 or self.window_l % 2):
            raise ValueError("window_l must be a positive even integer")

    def window_size(self, n_channels: int) -> int:
        return self.window_l if self.window_l is not None else 28 * n_channels


@dataclass
class DenoiseReport:
    """Everything the thresholding decision used and produced.

    ``thresholds[k-1]``, ``tau[k-1]`` and ``keep_masks[k-1]`` describe scale k;
    a coefficient was retained iff its window statistic reached the scale
    threshold.  ``null_retention_sd[k-1]`` is the standard deviation, across
    the calibration replications, of the fraction of scale k a pure-noise
    signal keeps; divided by sqrt(calibration_reps) it is the Monte Carlo
    error of the threshold in false-alarm-rate units.  SNR fields are
    populated when a clean reference is supplied.
    """

    thresholds: np.ndarray
    null_retention_sd: np.ndarray
    tau: list
    keep_masks: list
    sigma: CovarianceMatrix
    config: DenoiseConfig
    n_samples: int
    n_channels: int
    snr_per_channel: np.ndarray | None = None
    snr_average: float | None = None
    warnings_issued: list = field(default_factory=list)

    def retained_fraction(self) -> np.ndarray:
        return np.array([float(m.mean()) for m in self.keep_masks])


def _reflected_windows(v: np.ndarray, window: int) -> np.ndarray:
    # (..., B, window) view of the window centred at each index of the last
    # axis; the ends reflect (0 -> 2,1,0,1,2).  Needs B > window // 2.
    half = window // 2
    padded = np.pad(v, [(0, 0)] * (v.ndim - 1) + [(half, half)], mode="reflect")
    return sliding_window_view(padded, window, axis=-1)


def _block_logs(dist: ReferenceDistribution, y: np.ndarray):
    f = reference_cdf(dist, y)
    return gofstat.clamped_log_cdf(f)


def _tau_from_logs(lf: np.ndarray, l1f: np.ndarray, window: int) -> np.ndarray:
    # lf, l1f: (..., B) per-coefficient ln F and ln(1-F) of one or more
    # blocks; window is the full window size (odd).  Returns per-coefficient
    # tau; a block shorter than the window is scored as one shared window.
    #
    # tau = -w - (1/w) sum_l (2l-1) [ln F_(l) + ln(1-F)_(w+1-l)] (Stephens
    # 1974).  With d = ln F - ln(1-F), which increases with F, the sum equals
    # sum_l (2l-1) d_(l) + 2w sum ln(1-F) exactly, ties included: one sort
    # per window, and the second sum is a difference of cumulative sums.
    #
    # The windows are never materialised together: each chunk of at most
    # _SCORE_CHUNK_VALUES floats is copied into one C-ordered buffer, sorted
    # there and weighted, so memory is O(chunk) above the (..., B) inputs and
    # the sort runs on contiguous rows whatever the layout of lf and l1f.
    b = lf.shape[-1]
    if b < window:
        w = b
        s = np.sort(lf - l1f, axis=-1) @ (2.0 * np.arange(1, w + 1) - 1.0) + 2 * w * l1f.sum(axis=-1)
        return np.repeat((-w - s / w)[..., None], b, axis=-1)
    w = window
    d = np.subtract(lf, l1f, order="C")
    weights = 2.0 * np.arange(1, w + 1) - 1.0
    windows = _reflected_windows(d.reshape(-1, b), w)
    s = np.empty(windows.shape[:2])
    span = min(b, max(1, _SCORE_CHUNK_VALUES // w))  # positions per chunk
    buf = np.empty((span, w))
    for r in range(s.shape[0]):
        for lo in range(0, b, span):
            chunk = buf[: min(span, b - lo)]
            np.copyto(chunk, windows[r, lo : lo + span])
            chunk.sort(axis=-1)
            np.matmul(chunk, weights, out=s[r, lo : lo + span])
    s = s.reshape(d.shape)
    # one more reflected value in front, so csum[i + w] - csum[i] is the sum
    # over the window centred at i
    csum = np.cumsum(np.pad(l1f, [(0, 0)] * (l1f.ndim - 1) + [(w // 2 + 1, w // 2)], mode="reflect"), axis=-1)
    s += 2 * w * (csum[..., w:] - csum[..., :-w])
    return -w - s / w


def _block_tau(y_block: np.ndarray, dist: ReferenceDistribution, window: int) -> np.ndarray:
    lf, l1f = _block_logs(dist, np.atleast_2d(y_block))
    out = _tau_from_logs(lf, l1f, window)
    return out[0] if np.asarray(y_block).ndim == 1 else out


def _batch_reps(m: int, n_samples: int, config: DenoiseConfig) -> int:
    # replications per calibration batch: see _CAL_CHUNK_VALUES
    return max(1, _CAL_CHUNK_VALUES // max(n_samples * (config.window_size(m) + 1) // 2, 1))


def _null_tau_pool(m: int, n_samples: int, config: DenoiseConfig, child_seeds):
    """Simulate the statistic ``denoise`` computes on pure noise, per scale.

    Each replication draws ``n_samples`` rows of white noise, decomposes them
    (``dwt_forward`` pads them as it pads an input of that length), estimates
    the noise covariance from its own finest-scale block with the estimator
    ``denoise`` uses, whitens every scale with that estimate and scores the
    windows.  The estimate is in-sample at scale 1 and out-of-sample
    elsewhere, exactly as on real data.  The MCD estimate about zero is
    affine equivariant and the transform acts channel-wise, so the resulting
    law is the same for every noise covariance: drawing from N(0, I) loses
    nothing.

    Runs one replication per entry of ``child_seeds``, in batches of
    :func:`_batch_reps`, and returns one (replications, values per
    replication) array per scale.  Shrunk blocks (shorter than the window)
    have one shared window per replication and contribute a single value
    each.  Replication r draws from the generator seeded by ``child_seeds[r]``
    alone, but the rounding of its statistic depends on which replications
    share its batch (values moved by up to 3e-13 when a batch of 12 was
    split 6+6 or 12x1), so pools of slices of the seeds concatenate to the
    pool of the whole vector bit for bit only when the slices are cut at
    batch boundaries.  The windows are scored in double precision by the
    kernel ``denoise`` uses.
    """
    reps = len(child_seeds)
    window = config.window_size(m)
    dist = make_reference(m)
    filt = get_filter(config.filter_name)
    chunk = _batch_reps(m, n_samples, config)
    pools = None

    for start in range(0, reps, chunk):
        gens = [np.random.default_rng(int(s)) for s in child_seeds[start : start + chunk]]
        c = len(gens)
        noise = np.stack([g.standard_normal((n_samples, m)) for g in gens], axis=1)
        dec = dwt_forward(noise.reshape(n_samples, c * m), filt, config.levels)
        details = [d.reshape(d.shape[0], c, m) for d in dec.details]
        if pools is None:
            # a shrunk block (shorter than the window) has one shared window
            # per realisation: it pools a single value each
            pools = [np.empty((reps, d.shape[0] if d.shape[0] > window else 1)) for d in details]
        # v -> v^T sigma_r^{-1} v evaluated as |ichol_r v|^2, one factor per replication
        ichol = np.empty((c, m, m))
        for j, g in enumerate(gens):
            chol = _noise_covariance(details[0][:, j], g).chol
            ichol[j] = sla.solve_triangular(chol, np.eye(m), lower=True)
        for pool, d in zip(pools, details):
            z = np.einsum("cij,bcj->cbi", ichol, d)
            y = np.einsum("cbi,cbi->cb", z, z)
            tau = _tau_from_logs(*_block_logs(dist, y), window + 1)
            pool[start : start + c] = tau[:, : pool.shape[1]]
    return pools


# Calibration draws from its own stream, never from the caller's rng, so the
# memo below is a pure function of its key: the order of calls changes no result.
_CALIBRATION_SEED = 0
# (channels, input length, calibration settings) -> (thresholds, retention sd)
_NULL_CACHE: dict = {}


def _plugin_null(m: int, n_samples: int, config: DenoiseConfig, map_fn=None):
    """Thresholds and null retention spread for one calibration key, memoised.

    The null law depends on the geometry and test settings only, never on
    the data or its noise covariance, so one Monte Carlo pool per key serves
    every call.  By default the replications run here in one pass.  Given
    ``map_fn`` (a process pool's ``map``, say), they run one batch (a
    contiguous slice of the child seeds) per call through it.  Every batch is
    scored as in the single pass, so the result is the same either way.  The
    single pass stays the default because each call frees its working
    buffers and the next faults them in again: one call per batch took up
    to 1.7 times the page faults, and 2 to 10 % longer, at M=4, N=1024.
    """
    config.validate()
    reps = config.calibration_reps
    if reps < 10.0 / config.p_fa:
        warnings.warn(
            f"calibration_reps={reps} is below 10/p_fa={10.0 / config.p_fa:.0f}; "
            "threshold quantile resolution relies on window pooling",
            RuntimeWarning,
        )
    key = (
        m,
        n_samples,
        config.filter_name,
        config.levels,
        config.window_size(m),
        config.p_fa,
        reps,
    )
    if key not in _NULL_CACHE:
        child_seeds = np.random.default_rng(_CALIBRATION_SEED).integers(np.iinfo(np.int64).max, size=reps)
        if map_fn is None:
            pools = _null_tau_pool(m, n_samples, config, child_seeds)
        else:
            batch = _batch_reps(m, n_samples, config)
            batches = [child_seeds[i : i + batch] for i in range(0, reps, batch)]
            parts = map_fn(partial(_null_tau_pool, m, n_samples, config), batches)
            pools = [np.concatenate(scale) for scale in zip(*parts)]
        thresholds = np.array([float(np.quantile(p, 1.0 - config.p_fa)) for p in pools])
        # spread across replications of the fraction of a block kept at T_k
        sd = np.array([float((p >= t).mean(axis=1).std(ddof=1)) for p, t in zip(pools, thresholds)])
        _NULL_CACHE[key] = (thresholds, sd)
    thresholds, sd = _NULL_CACHE[key]
    return thresholds.copy(), sd.copy()


def calibrate_thresholds(n_channels: int, n_samples: int, config: DenoiseConfig) -> np.ndarray:
    """Per-scale thresholds: the (1 - p_fa) quantile of the plug-in null statistic.

    The null is the statistic ``denoise`` computes when its input is pure
    Gaussian noise, covariance estimate included: every one of
    ``calibration_reps`` simulated signals of ``n_samples`` rows is whitened
    with its own MCD estimate from the finest-scale block, and every window
    position of every replication contributes to the null sample of its scale.
    Whitening by a known covariance instead would give a null with lighter
    tails than the statistic actually used, and a false-alarm rate above
    p_fa at the scales the covariance is not fitted on.  The law does not
    depend on the noise covariance, so thresholds depend only on the
    channel count, the length and the configuration; they are memoised per
    key.  Each replication is padded by ``dwt_forward`` exactly as an input
    of ``n_samples`` rows is, so a non-dyadic length is simulated with the
    mirrored rows its pad duplicates.
    """
    return _plugin_null(n_channels, n_samples, config)[0]


def _precalibrate(n_samples: int, n_channels: int, config: DenoiseConfig, map_fn=None) -> None:
    """Fill the memo entry ``denoise`` reads for an (n_samples, n_channels) input.

    Raises ``ValueError`` where ``denoise`` would reject that geometry, before
    any replication runs.  ``map_fn`` is as in :func:`_plugin_null`.
    """
    _decompose(np.zeros((n_samples, n_channels)), config)
    _plugin_null(n_channels, n_samples, config, map_fn)


def _decompose(x: np.ndarray, config: DenoiseConfig):
    dec = dwt_forward(x, get_filter(config.filter_name), config.levels)
    if dec.approx.shape[0] < 2:
        raise ValueError("signal too short: coarsest block needs at least two coefficients")
    return dec


def _noise_covariance(rows: np.ndarray, rng) -> CovarianceMatrix:
    # Degenerate blocks (noise-free inputs with linearly dependent channels)
    # fall back to a ridged scatter so the pipeline can still run; the test
    # statistics then saturate and essentially everything is retained.
    try:
        return mcd_estimate(rows, rng)
    except SingularCovarianceError:
        m = rows.shape[1]
        scatter = rows.T @ rows / max(rows.shape[0], 1)
        scale = float(np.trace(scatter)) / m
        ridge = 1e-10 * scale if scale > 0 else 1e-20
        warnings.warn("coefficient block is rank deficient; using ridged scatter", RuntimeWarning)
        return CovarianceMatrix.from_matrix(scatter + ridge * np.eye(m))


def denoise(x, config: DenoiseConfig | None = None, rng=None, clean=None):
    """Denoise an (N, M) signal; returns ``(estimate, report)``.

    The approximation block is never tested or thresholded.  A detail
    coefficient at scale k survives iff the statistic of its window reaches
    the calibrated threshold T_k (ties retained).  Thresholds come from the
    plug-in null of :func:`calibrate_thresholds`, shared by every call with
    the same channel count, length and settings.  Deterministic for a
    fixed config seed or caller rng.
    """
    config = config or DenoiseConfig()
    config.validate()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, m = x.shape
    if rng is None:
        rng = np.random.default_rng(config.seed)

    dec = _decompose(x, config)
    window = config.window_size(m)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sigma = _noise_covariance(dec.details[0], rng)
        thresholds, null_sd = _plugin_null(m, n, config)
    dist = make_reference(m)

    taus = []
    masks = []
    new_details = []
    for k, d in enumerate(dec.details):
        y = sigma.quadratic_form(d)
        tau = _block_tau(y, dist, window + 1)
        keep = tau >= thresholds[k]
        taus.append(tau)
        masks.append(keep)
        new_details.append(d * keep[:, None])

    estimate = dwt_inverse(dec.copy_with_details(new_details))
    report = DenoiseReport(
        thresholds=thresholds,
        null_retention_sd=null_sd,
        tau=taus,
        keep_masks=masks,
        sigma=sigma,
        config=config,
        n_samples=n,
        n_channels=m,
        warnings_issued=[str(w.message) for w in caught],
    )
    if clean is not None:
        clean = np.asarray(clean, dtype=np.float64)
        if clean.ndim == 1:
            clean = clean[:, None]
        report.snr_per_channel = np.atleast_1d(snr_db(clean, estimate))
        report.snr_average = average_snr_db(clean, estimate)
    return estimate, report


def baseline_universal(x, config: DenoiseConfig | None = None, rng=None) -> np.ndarray:
    """Channel-wise universal-threshold baseline.

    Per-channel thresholds sqrt(2 * lam_m * log N) are built from the
    eigenvalues of the robust noise covariance estimate; the largest
    eigenvalue is assigned to the channel with the largest estimated noise
    variance, and so on down the ranking.  Coefficients below their
    channel's threshold are zeroed (hard thresholding).
    """
    config = config or DenoiseConfig()
    config.validate()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    n, m = x.shape
    if rng is None:
        rng = np.random.default_rng(config.seed)
    dec = _decompose(x, config)
    sigma = _noise_covariance(dec.details[0], rng)

    thresholds = np.empty(m)
    channel_rank = np.argsort(-np.diag(sigma.sigma), kind="stable")
    thresholds[channel_rank] = np.sqrt(2.0 * sigma.eigenvalues * math.log(n))

    new_details = [np.where(np.abs(d) < thresholds[None, :], 0.0, d) for d in dec.details]
    return dwt_inverse(dec.copy_with_details(new_details))
