"""Evaluate the squared-distance reference law two ways and compare.

The closed form is the regularized incomplete gamma (the chi-square case the
pipeline uses); the series route implements the general weighted quadratic
form and must agree when all weights are one.
"""

import numpy as np
from scipy import stats

from mvdenoise import make_reference
from mvdenoise.gofstat import reference_cdf

for m in (2, 3, 6):
    closed = make_reference(m)
    series = make_reference(m, eval_mode="series")
    grid = np.linspace(0.0, m + 6 * np.sqrt(2 * m), 200)
    diff = np.abs(reference_cdf(series, grid) - reference_cdf(closed, grid)).max()
    print(f"M={m}: series vs closed form, max |diff| = {diff:.2e}")

# a genuinely weighted form: compare the series against brute-force sampling
weights = np.array([0.5, 1.0, 2.0])
dist = make_reference(3, weights, eval_mode="series")
z = np.random.default_rng(0).standard_normal((500_000, 3))
samples = z**2 @ weights
print("\nweighted form, CDF at a few points (series vs Monte Carlo):")
for t in (1.0, 3.0, 7.0):
    print(f"  t={t}: {reference_cdf(dist, t):.4f} vs {(samples <= t).mean():.4f}")
