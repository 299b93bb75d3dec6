"""Score windows of multichannel samples against the multivariate-normal null.

A pure-noise window should fall below the calibrated threshold (H0, discard);
a window carrying a deterministic component should exceed it (H1, retain).
"""

import numpy as np

from mvdenoise import CovarianceMatrix, ad_statistic, gof_test, mahalanobis_edf, make_reference
from mvdenoise.denoiser import DenoiseConfig, calibrate_thresholds

rng = np.random.default_rng(7)
m = 3
sigma_true = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
chol = np.linalg.cholesky(sigma_true)
sigma = CovarianceMatrix.from_matrix(sigma_true)
dist = make_reference(m)

window_len = 85
cfg = DenoiseConfig(window_l=window_len - 1, calibration_reps=2000, p_fa=0.005, levels=1)
threshold = calibrate_thresholds(m, 2 * 256, cfg)[0][0]
print(f"calibrated threshold (p_fa=0.005): {threshold:.3f}")

noise_window = rng.standard_normal((window_len, m)) @ chol.T
tau = ad_statistic(mahalanobis_edf(noise_window, sigma), dist)
print(f"pure-noise window:  tau = {tau:7.3f}  -> {gof_test(tau, threshold).value}")

bump = np.zeros((window_len, m))
bump[30:55] = 2.5
signal_window = noise_window + bump
tau = ad_statistic(mahalanobis_edf(signal_window, sigma), dist)
print(f"signal-bearing one: tau = {tau:7.3f}  -> {gof_test(tau, threshold).value}")
