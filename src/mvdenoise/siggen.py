"""Synthetic multichannel test signals, correlated Gaussian noise, and SNR metrics.

Clean signals are built from the four classic piecewise test functions
(heavisine, doppler, blocks, bumps) evaluated on t = i/n.  Each primitive
channel is normalized to unit power; composite channels are exact sums or
differences of the primitives so the construction identities hold to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SNR_CAP_DB = 200.0


def heavisine(n: int) -> np.ndarray:
    t = np.arange(1, n + 1) / n
    return 4.0 * np.sin(4.0 * np.pi * t) - np.sign(t - 0.3) - np.sign(0.72 - t)


def doppler(n: int) -> np.ndarray:
    t = np.arange(1, n + 1) / n
    return np.sqrt(t * (1.0 - t)) * np.sin(2.0 * np.pi * 1.05 / (t + 0.05))


_BLOCKS_POS = np.array([0.1, 0.13, 0.15, 0.23, 0.25, 0.40, 0.44, 0.65, 0.76, 0.78, 0.81])
_BLOCKS_HGT = np.array([4.0, -5.0, 3.0, -4.0, 5.0, -4.2, 2.1, 4.3, -3.1, 2.1, -4.2])
_BUMPS_HGT = np.array([4.0, 5.0, 3.0, 4.0, 5.0, 4.2, 2.1, 4.3, 3.1, 5.1, 4.2])
_BUMPS_WTH = np.array([0.005, 0.005, 0.006, 0.01, 0.01, 0.03, 0.01, 0.01, 0.005, 0.008, 0.005])


def blocks(n: int) -> np.ndarray:
    # full step at grid points landing exactly on a breakpoint, so the signal
    # is piecewise constant with 11 jumps for every n
    t = np.arange(1, n + 1) / n
    y = np.zeros(n)
    for p, h in zip(_BLOCKS_POS, _BLOCKS_HGT):
        y += h * (t >= p)
    return y


def bumps(n: int) -> np.ndarray:
    t = np.arange(1, n + 1) / n
    y = np.zeros(n)
    for p, h, w in zip(_BLOCKS_POS, _BUMPS_HGT, _BUMPS_WTH):
        y += h / (1.0 + np.abs((t - p) / w)) ** 4
    return y


def _unit_power(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x**2))


@dataclass(frozen=True)
class TestSignal:
    name: str
    channels: np.ndarray  # (N, M)

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]


def make_signal(name: str, n: int) -> TestSignal:
    """Construct a named multichannel test signal of length n.

    "heavydoppler3" stacks unit-power heavisine, unit-power doppler, and their
    sum; "bumpsblocks4" stacks unit-power blocks, unit-power bumps, their
    difference and their sum.
    """
    if n < 256:
        raise ValueError("n must be >= 256")
    if name == "heavydoppler3":
        c1 = _unit_power(heavisine(n))
        c2 = _unit_power(doppler(n))
        chans = np.column_stack([c1, c2, c1 + c2])
    elif name == "bumpsblocks4":
        c1 = _unit_power(blocks(n))
        c2 = _unit_power(bumps(n))
        chans = np.column_stack([c1, c2, c1 - c2, c1 + c2])
    else:
        raise ValueError(f"unknown signal name {name!r}")
    return TestSignal(name=name, channels=chans)


@dataclass(frozen=True)
class NoiseSpec:
    """Correlated Gaussian noise with per-channel SNR targeting.

    ``correlation`` is either a scalar equicorrelation coefficient or a full
    (M, M) correlation matrix with unit diagonal.  ``target_snr_db`` is a
    single value (balanced noise) or one value per channel (unbalanced).
    """

    n_channels: int
    correlation: object = 0.0
    target_snr_db: object = 0.0

    def correlation_matrix(self) -> np.ndarray:
        m = self.n_channels
        if not np.isfinite(np.asarray(self.correlation, dtype=np.float64)).all():
            raise ValueError(f"correlation must be finite, got {self.correlation}")
        if np.isscalar(self.correlation):
            r = np.full((m, m), float(self.correlation))
            np.fill_diagonal(r, 1.0)
        else:
            r = np.asarray(self.correlation, dtype=np.float64)
            if r.shape != (m, m):
                raise ValueError("correlation matrix shape does not match channel count")
            if np.abs(np.diag(r) - 1.0).max() > 1e-12 or np.abs(r - r.T).max() > 1e-12:
                raise ValueError("correlation matrix must be symmetric with unit diagonal")
        if np.linalg.eigvalsh(r)[0] <= 0:
            raise ValueError("correlation matrix is not positive definite")
        return r

    def snr_targets(self) -> np.ndarray:
        t = np.atleast_1d(np.asarray(self.target_snr_db, dtype=np.float64))
        if t.size == 1:
            t = np.full(self.n_channels, float(t[0]))
        if t.size != self.n_channels:
            raise ValueError("need one SNR target per channel")
        # +inf asks for zero noise; NaN and -inf ask for no definite noise power
        bad = t[np.isnan(t) | (t == -np.inf)]
        if bad.size:
            raise ValueError(f"SNR target must be a number or +inf, got {bad[0]:g}")
        return t


def add_noise(signal: TestSignal, spec: NoiseSpec, rng=None):
    """Add correlated Gaussian noise hitting the per-channel SNR targets exactly.

    The raw noise is drawn with the requested correlation structure and then
    each channel is rescaled against its realized power, so the achieved SNR
    matches the target deterministically (within float rounding) rather than
    in expectation.  ``rng`` is a Generator, used as it is, or a seed (None
    draws fresh entropy) for ``np.random.default_rng``.  Returns
    ``(noisy, psi)``.
    """
    s = signal.channels
    if spec.n_channels != s.shape[1]:
        raise ValueError("noise spec channel count does not match signal")
    rng = np.random.default_rng(rng)
    r = spec.correlation_matrix()
    targets = spec.snr_targets()
    z = rng.standard_normal(s.shape) @ np.linalg.cholesky(r).T
    p_sig = np.mean(s**2, axis=0)
    if (p_sig == 0).any():
        raise ValueError("cannot target SNR on a zero-power channel")
    p_raw = np.mean(z**2, axis=0)
    scale = np.sqrt(p_sig / (p_raw * 10.0 ** (targets / 10.0)))
    psi = z * scale
    return s + psi, psi


def snr_db(clean, estimate) -> np.ndarray:
    """Power-ratio SNR, 10 log10(sum s^2 / sum (s - shat)^2), per channel.

    Exact recovery is capped at 200 dB.  Raises on zero clean energy.  The
    values and the errors of each channel are scaled by the powers of two
    that bring their largest into [0.5, 1) before squaring, and the ratio is
    scaled back after, so no square overflows or loses bits to underflow.
    Power-of-two scaling is exact, so where the plain sums and their ratio
    were exact normal floats the SNR keeps its bits; every SNR is finite.
    """
    s = np.atleast_2d(np.asarray(clean, dtype=np.float64).T).T
    e = np.atleast_2d(np.asarray(estimate, dtype=np.float64).T).T
    if s.shape != e.shape:
        raise ValueError("clean and estimate must have equal shapes")
    d = s - e
    peak = np.abs(s).max(axis=0, initial=0.0)
    if (peak == 0).any():
        raise ValueError("clean signal has zero energy")
    a, b = np.frexp(peak)[1], np.frexp(np.abs(d).max(axis=0, initial=0.0))[1]
    sig = np.sum(np.ldexp(s, -a) ** 2, axis=0)
    err = np.sum(np.ldexp(d, -b) ** 2, axis=0)
    out = np.empty(s.shape[1])
    zero = err == 0
    out[zero] = SNR_CAP_DB
    r, k = sig[~zero] / err[~zero], 2 * (a - b)[~zero]
    ratio = np.ldexp(r, k)
    # a ratio below the normal range is taken in logs, so its SNR stays finite
    small = ratio < np.finfo(np.float64).tiny
    ratio[small] = 1.0
    db = 10.0 * np.log10(ratio)
    db[small] = 10.0 * (np.log10(r[small]) + k[small] * np.log10(2.0))
    out[~zero] = np.minimum(db, SNR_CAP_DB)
    return out if np.asarray(clean).ndim > 1 else float(out[0])


def average_snr_db(clean, estimate) -> float:
    """Mean of the per-channel SNRs in dB."""
    return float(np.mean(snr_db(clean, estimate)))
