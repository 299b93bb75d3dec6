"""Multivariate wavelet signal denoising via a Mahalanobis-distance GoF test.

The package decomposes a multichannel signal with an orthogonal DWT, estimates
the noise covariance robustly from the finest detail scale, tests sliding
windows of coefficients for multivariate normality through the empirical
distribution of their squared Mahalanobis distances, and zeroes the windows
that look like pure noise before reconstructing.
"""

__version__ = "0.1.0"

from .denoiser import DenoiseConfig, DenoiseReport, baseline_universal, denoise
from .gofstat import GofDecision, ad_statistic, gof_test, mahalanobis_edf, make_reference
from .robustcov import CovarianceMatrix, mcd_estimate
from .siggen import NoiseSpec, TestSignal, add_noise, average_snr_db, make_signal, snr_db
from .wavelet import WaveletDecomposition, WaveletFilter, dwt_forward, dwt_inverse, get_filter

__all__ = [
    "DenoiseConfig",
    "DenoiseReport",
    "baseline_universal",
    "denoise",
    "GofDecision",
    "ad_statistic",
    "gof_test",
    "mahalanobis_edf",
    "make_reference",
    "CovarianceMatrix",
    "mcd_estimate",
    "NoiseSpec",
    "TestSignal",
    "add_noise",
    "average_snr_db",
    "make_signal",
    "snr_db",
    "WaveletDecomposition",
    "WaveletFilter",
    "dwt_forward",
    "dwt_inverse",
    "get_filter",
]
