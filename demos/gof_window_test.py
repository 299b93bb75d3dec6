"""Score windows of multichannel samples against the multivariate-normal null.

A pure-noise window should fall below the calibrated threshold (H0, discard);
a window carrying a deterministic component exceeds it (H1, retain) when the
component stands out from the window's own robust covariance fit.  Each
window is scored as ``mvdenoise gof`` scores its rows: the covariance is
fitted on the window itself, and the threshold comes from the null of that
same statistic, one window of 85 white-noise rows with its own estimate.
On 85 rows that fit is loose: the bump below lies along the noise's dominant
direction, the fit absorbs it, and the window is scored as noise.
"""

import numpy as np

from mvdenoise import ad_statistic, gof_test, mahalanobis_edf, make_reference, mcd_estimate
from mvdenoise.denoiser import DenoiseConfig, calibrate_thresholds

rng = np.random.default_rng(7)
m = 3
sigma_true = np.array([[1.0, 0.6, 0.3], [0.6, 1.0, 0.5], [0.3, 0.5, 1.0]])
chol = np.linalg.cholesky(sigma_true)
dist = make_reference(m)

window_len = 85
# one level of 2 * 85 samples is one 85-row block, and a window wider than
# the block scores all of it at once: the key `gof` uses for 85 rows
cfg = DenoiseConfig(levels=1, window_l=window_len + 1, calibration_reps=2000, p_fa=0.005)
threshold = calibrate_thresholds(m, 2 * window_len, cfg)[0][0]
print(f"calibrated threshold (p_fa=0.005): {threshold:.3f}")


def score(window):
    sigma = mcd_estimate(window)
    return ad_statistic(mahalanobis_edf(window, sigma), dist)


noise_window = rng.standard_normal((window_len, m)) @ chol.T
tau = score(noise_window)
print(f"pure-noise window:  tau = {tau:7.3f}  -> {gof_test(tau, threshold).value}")

bump = np.zeros((window_len, m))
bump[30:55] = 2.5
signal_window = noise_window + bump
tau = score(signal_window)
print(f"signal-bearing one: tau = {tau:7.3f}  -> {gof_test(tau, threshold).value}")
