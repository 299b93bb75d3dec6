"""Orthogonal discrete wavelet transform, applied channel-wise to multichannel signals.

The analysis/synthesis pair here is the textbook two-channel orthonormal filter
bank, applied periodically: each block wraps around at its ends.  The transform
matrix is then exactly orthogonal for every even block length, so perfect
reconstruction and energy conservation hold to machine precision, and white
Gaussian noise stays white at every scale, which the denoiser's reference law
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

# Scaling (lowpass) filters.  The 16-tap filter with eight vanishing moments is
# hard-coded from a 60-digit spectral factorization of the defining polynomial
# and rounded once to binary64; its orthonormality conditions, which the tests
# check, hold to ~1e-16.
_LOWPASS_TAPS = {
    "haar": (
        0.7071067811865476,
        0.7071067811865476,
    ),
    "db8": (
        0.05441584224310401,
        0.31287159091429995,
        0.6756307362972898,
        0.5853546836542067,
        -0.015829105256349306,
        -0.2840155429615469,
        0.0004724845739132828,
        0.12874742662047847,
        -0.017369301001807547,
        -0.044088253930794755,
        0.013981027917398282,
        0.008746094047405777,
        -0.004870352993451574,
        -0.00039174037337694705,
        0.0006754494064505693,
        -0.00011747678412476953,
    ),
}


@dataclass(frozen=True)
class WaveletFilter:
    """Orthonormal analysis filter pair (quadrature mirror construction)."""

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __len__(self) -> int:
        return self.lowpass.size


def _quadrature_mirror(name: str, taps) -> WaveletFilter:
    lo = np.array(taps, dtype=np.float64)
    hi = ((-1.0) ** np.arange(lo.size)) * lo[::-1]
    # every caller shares one filter, so no caller may change its taps
    lo.flags.writeable = hi.flags.writeable = False
    return WaveletFilter(name=name, lowpass=lo, highpass=hi)


_FILTERS = {name: _quadrature_mirror(name, taps) for name, taps in _LOWPASS_TAPS.items()}


def get_filter(name: str) -> WaveletFilter:
    """The built-in filter named ``name`` ("db8" or "haar"), shared by every caller."""
    try:
        return _FILTERS[name]
    except KeyError:
        raise ValueError(f"unknown wavelet filter {name!r}; available: {sorted(_FILTERS)}") from None


@dataclass
class WaveletDecomposition:
    """Per-channel detail blocks for scales 1..K plus the coarsest approximation.

    ``details[k-1]`` holds the scale-k detail coefficients as a (rows, M)
    block, so K is ``len(details)``; ``approx`` is the coarsest lowpass block.
    ``n_samples`` and ``pad`` record the original signal length and how much
    right-padding was added to reach a multiple of 2**K, so the inverse can
    trim exactly.
    """

    details: list
    approx: np.ndarray
    n_samples: int
    pad: int
    filter_name: str

    def copy_with_details(self, new_details) -> "WaveletDecomposition":
        return replace(self, details=list(new_details))


def _analysis_periodic(x, lo, hi):
    # a[j] = sum_t lo[t] x[(2j + t) mod n], d likewise with hi: window j of
    # the block extended periodically by taps - 2 rows starts at row 2j.  The
    # extension starts with whole copies when the block is shorter than that.
    # as_strided is sliding_window_view(xw, taps, axis=0)[::2] without its
    # checks, a third of its cost: the same view, so the same bits.
    n = x.shape[0]
    extra = lo.size - 2
    xw = np.concatenate([x] * (1 + extra // n) + [x[: extra % n]], axis=0)
    s0, s1 = xw.strides
    v = as_strided(xw, (n // 2, xw.shape[1], lo.size), (2 * s0, s1, s0), writeable=False)
    return v @ lo, v @ hi


def _synthesis_periodic(a, d, lo, hi):
    # out[2j + r] = sum_s lo[2s + r] a[j - s] + hi[2s + r] d[j - s], rows mod h.
    # Window j of the wrapped block holds rows j - half + 1 .. j, so its entry
    # k pairs with s = half - 1 - k: the taps, split by output parity r and
    # reversed along s.  The wrapped block is the last half - 1 rows, then
    # all h; that prefix ends with whole copies when the block is shorter.
    # The windows are sliding_window_view(ad, half, axis=0), by as_strided.
    h, m = a.shape
    half = lo.size // 2
    ad = np.concatenate([a, d], axis=1)
    ad = np.concatenate([ad[h - (half - 1) % h :]] + [ad] * (1 + (half - 1) // h))
    s0, s1 = ad.strides
    v = as_strided(ad, (h, 2 * m, half), (s0, s1, s0), writeable=False)
    out = v[:, :m] @ lo.reshape(half, 2)[::-1] + v[:, m:] @ hi.reshape(half, 2)[::-1]
    return out.transpose(0, 2, 1).reshape(2 * h, m)


def dwt_forward(x, filt: WaveletFilter, levels: int) -> WaveletDecomposition:
    """Decompose an (N, M) signal into detail blocks at scales 1..levels plus approx.

    Each channel is transformed independently with the same filter, each block
    wrapping periodically.  Non-dyadic lengths are right-padded by symmetric
    extension up to the next multiple of 2**levels; the pad is recorded and
    trimmed by :func:`dwt_inverse`.

    Raises ``ValueError`` if the signal is shorter than 2**levels or contains
    non-finite samples.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("signal must be an (N, M) array with N >= 2")
    if not np.isfinite(x).all():
        raise ValueError("non-finite sample encountered")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    n = x.shape[0]
    if n < 2**levels:
        raise ValueError(f"signal of length {n} too short for {levels} levels")

    pad = (-n) % (2**levels)
    xp = np.pad(x, ((0, pad), (0, 0)), mode="symmetric") if pad else x

    lo, hi = filt.lowpass, filt.highpass
    details: list = []
    approx = xp
    for _ in range(levels):
        approx, d = _analysis_periodic(approx, lo, hi)
        details.append(d)
    return WaveletDecomposition(
        details=details,
        approx=approx,
        n_samples=n,
        pad=pad,
        filter_name=filt.name,
    )


def expected_block_lengths(n_samples: int, levels: int):
    """Detail block lengths at scales 1..levels for a signal of ``n_samples`` rows, after padding."""
    n_padded = n_samples + ((-n_samples) % (2**levels))
    return [n_padded // 2**k for k in range(1, levels + 1)]


def dwt_inverse(dec: WaveletDecomposition) -> np.ndarray:
    """Reconstruct the (N, M) signal from a decomposition, trimming any pad.

    Raises ``ValueError`` on any shape inconsistency between the blocks and the
    decomposition metadata.
    """
    filt = get_filter(dec.filter_name)
    lo, hi = filt.lowpass, filt.highpass
    m_channels = dec.approx.shape[1]
    expected = expected_block_lengths(dec.n_samples, len(dec.details))
    if dec.approx.shape[0] != expected[-1]:
        raise ValueError("approximation block length does not match metadata")
    for k, d in enumerate(dec.details, start=1):
        if d.shape != (expected[k - 1], m_channels):
            raise ValueError(f"scale-{k} detail block shape {d.shape} does not match metadata")

    # the checks above make each block the shape of the approximation it meets
    approx = dec.approx
    for d in reversed(dec.details):
        approx = _synthesis_periodic(approx, d, lo, hi)
    return approx[: dec.n_samples]
