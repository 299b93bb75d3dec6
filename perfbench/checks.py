"""Output checks built from computations made apart from the program.

Nothing here calls into ``mvdenoise``: the wavelet filter, the transform, the
Anderson-Darling statistic and the SNR are computed from their textbook
definitions, so a check compares the program against a second, independent
route and never against a stored copy of an earlier output.  Every check
returns a list of failure messages; an empty list means the output passed.
``self_test`` feeds each check a deliberately perturbed output and fails if
any of them lets it through.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

# The program clamps reference CDF values to [1e-15, 1 - 1e-15] before taking
# logarithms (documented in mvdenoise.gofstat); the textbook formula does the same.
CDF_CLAMP = 1e-15
TAU_RTOL = 1e-7
SIGMA_REL_TOL = 0.3  # Frobenius relative error of the MCD estimate against the generated noise rows
RETENTION_BAND_SE = 3.0


def daubechies_lowpass(vanishing_moments: int) -> np.ndarray:
    """Extremal-phase Daubechies scaling filter by spectral factorisation.

    |Q(e^{iw})|^2 = P(sin^2(w/2)) with P(y) = sum_{k<p} C(p-1+k, k) y^k; the
    roots of Q are the minimum-phase roots of z + 1/z = 2 - 4 y_k.
    """
    p = vanishing_moments
    ys = np.roots([math.comb(p - 1 + k, k) for k in range(p)][::-1])
    h = np.array([1.0 + 0j])
    for _ in range(p):
        h = np.convolve(h, [1.0, 1.0])
    for y in ys:
        z = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
        h = np.convolve(h, [1.0, -z[np.argmin(np.abs(z))]])
    h = np.real(h)
    return h * (math.sqrt(2.0) / h.sum())


class ReferenceTransform:
    """Dense orthonormal periodic DWT: coefficients c = W x.

    Rows of W are ordered as the detail blocks of scales 1..levels followed by
    the coarsest approximation, the layout of ``WaveletDecomposition``.  One
    level maps a block a of length m to a'[i] = sum_t lo[t] a[(2i+t) mod m] and
    d[i] = sum_t hi[t] a[(2i+t) mod m], with hi[t] = (-1)^t lo[len-1-t].
    """

    def __init__(self, n: int, levels: int, lowpass: np.ndarray):
        lo = np.asarray(lowpass, dtype=np.float64)
        hi = ((-1.0) ** np.arange(lo.size)) * lo[::-1]
        approx = np.eye(n)
        rows, self.slices, start = [], [], 0
        for _ in range(levels):
            m = approx.shape[0]
            low, high = np.zeros((m // 2, n)), np.zeros((m // 2, n))
            for t in range(lo.size):
                shifted = approx[(2 * np.arange(m // 2) + t) % m]
                low += lo[t] * shifted
                high += hi[t] * shifted
            rows.append(high)
            approx = low
            self.slices.append(slice(start, start + m // 2))
            start += m // 2
        rows.append(approx)
        self.approx_slice = slice(start, n)
        self.matrix = np.vstack(rows)
        self.highpass = hi
        self.n, self.levels = n, levels

    def verify(self) -> list:
        """W must be orthonormal and its highpass must kill polynomials of degree < 8."""
        fails = []
        gram_err = float(np.abs(self.matrix @ self.matrix.T - np.eye(self.n)).max())
        if gram_err > 1e-12:
            fails.append(f"reference transform not orthonormal: max |W W^T - I| = {gram_err:.2e}")
        t = np.arange(self.highpass.size, dtype=np.float64)
        moments = [abs(float(self.highpass @ (t / t[-1]) ** p)) for p in range(8)]
        if max(moments) > 1e-9:
            fails.append(f"reference highpass lacks 8 vanishing moments: {max(moments):.2e}")
        return fails

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def details(self, x: np.ndarray) -> list:
        c = self.forward(x)
        return [c[s] for s in self.slices]

    def masked_reconstruction(self, x: np.ndarray, masks) -> np.ndarray:
        keep = np.ones(self.n, dtype=bool)
        for s, mask in zip(self.slices, masks):
            keep[s] = np.asarray(mask, dtype=bool)
        return self.matrix.T @ (self.forward(x) * keep[:, None])


def snr_db(clean: np.ndarray, estimate: np.ndarray) -> float:
    """Mean over channels of 10 log10(sum s^2 / sum (s - s_hat)^2)."""
    err = np.sum((clean - estimate) ** 2, axis=0)
    return float(np.mean(10.0 * np.log10(np.sum(clean**2, axis=0) / err)))


def reflected_windows(block_len: int, window: int) -> np.ndarray:
    """Index matrix of the window centred at each position, reflected at the ends (0 -> 2,1,0,1,2)."""
    half = window // 2
    idx = np.abs(np.arange(block_len)[:, None] + np.arange(-half, half + 1)[None, :])
    return np.where(idx > block_len - 1, 2 * (block_len - 1) - idx, idx)


def anderson_darling(cdf_values: np.ndarray) -> np.ndarray:
    """A^2 = -n - (1/n) sum_i (2i-1) [ln F(y_(i)) + ln(1 - F(y_(n+1-i)))], over the last axis."""
    f = np.sort(np.clip(cdf_values, CDF_CLAMP, 1.0 - CDF_CLAMP), axis=-1)
    n = f.shape[-1]
    w = 2.0 * np.arange(1, n + 1) - 1.0
    return -n - (np.log(f) @ w + np.log1p(-f[..., ::-1]) @ w) / n


def window_statistics(details: list, sigma: np.ndarray, window_l: int) -> list:
    """tau at every coefficient: AD of the window's chi-square CDFs under sigma.

    The window holds the L + 1 coefficients centred on the position; a block
    shorter than that is scored as one window shared by all its positions.
    """
    m = sigma.shape[0]
    inv = np.linalg.inv(sigma)
    out = []
    for d in details:
        f = stats.chi2.cdf(np.einsum("bi,ij,bj->b", d, inv, d), df=m)
        b = d.shape[0]
        if b < window_l + 1:
            out.append(np.full(b, float(anderson_darling(f))))
        else:
            out.append(anderson_darling(f[reflected_windows(b, window_l + 1)]))
    return out


def check_denoise(x, clean, noise, estimate, masks, sigma, thresholds, ref: ReferenceTransform, window_l, tau=None):
    """Reconstruction, statistic, masks, covariance and SNR of one ``denoise`` output.

    ``tau`` is the program's per-coefficient statistic when it is available
    (library calls); the CLI report carries only masks and thresholds, so
    there the masks are judged against the independently computed tau.
    """
    fails = []
    scale = max(1.0, float(np.abs(x).max()))
    rec_err = float(np.abs(ref.masked_reconstruction(x, masks) - estimate).max())
    if rec_err > 1e-9 * scale:
        fails.append(f"estimate != W^T(mask . Wx): max error {rec_err:.3e}")
    own_tau = window_statistics(ref.details(x), sigma, window_l)
    for k, (t_ref, mask) in enumerate(zip(own_tau, masks), start=1):
        thr = float(thresholds[k - 1])
        if tau is not None:
            t_prog = np.asarray(tau[k - 1])
            gap = float(np.max(np.abs(t_prog - t_ref) / np.maximum(1.0, np.abs(t_ref))))
            if gap > TAU_RTOL:
                fails.append(f"scale {k}: tau differs from the textbook AD statistic by {gap:.2e}")
            if not np.array_equal(np.asarray(mask, dtype=bool), t_prog >= thr):
                fails.append(f"scale {k}: keep mask != (tau >= threshold)")
        decided = np.abs(t_ref - thr) > TAU_RTOL * max(1.0, thr)
        if not np.array_equal(np.asarray(mask, dtype=bool)[decided], (t_ref >= thr)[decided]):
            fails.append(f"scale {k}: keep mask != (textbook tau >= threshold)")
    fails += check_sigma(sigma, noise, ref)
    if clean is not None:
        out_snr, in_snr = snr_db(clean, estimate), snr_db(clean, x)
        if not out_snr > in_snr:
            fails.append(f"output SNR {out_snr:.2f} dB does not exceed input SNR {in_snr:.2f} dB")
    return fails


def check_sigma(sigma, noise, ref: ReferenceTransform) -> list:
    """The estimate against the covariance of the generated noise's scale-1 coefficients, the rows it is fitted on."""
    rows = ref.details(noise)[0]
    generated = rows.T @ rows / rows.shape[0]
    rel = float(np.linalg.norm(sigma - generated) / np.linalg.norm(generated))
    if rel > SIGMA_REL_TOL:
        return [f"covariance estimate off the generated noise covariance by {rel:.3f} (> {SIGMA_REL_TOL})"]
    return []


def check_baseline(x, out, ref: ReferenceTransform) -> list:
    """Hard thresholding keeps each detail coefficient or zeroes it, and never touches the approximation."""
    c_in, c_out = ref.forward(x), ref.forward(out)
    tol = 1e-9 * max(1.0, float(np.abs(c_in).max()))
    bad = (np.abs(c_out) > tol) & (np.abs(c_out - c_in) > tol)
    bad[ref.approx_slice] = np.abs(c_out - c_in)[ref.approx_slice] > tol
    if bad.any():
        return [f"baseline output has {int(bad.sum())} coefficients that are neither 0 nor their input value"]
    return []


def check_retention(keep_fractions: np.ndarray, p_fa: float, null_sd, reps: int, shrunk) -> list:
    """Per-scale retention on pure noise, the realisation being the unit, as in acceptance criterion 3.

    On a scale scored window by window the mean kept fraction must lie within
    3 se of p_fa, se^2 = null_sd^2 (1/R + 1/reps): the spread between
    realisations under the null, which calibration measured over its own
    ``reps`` replications, and the Monte Carlo error of the shared threshold.
    A block shorter than the window is one shared window, kept whole or not at
    all, so its count of keeping realisations is Binomial(R, p_fa); the count
    must lie inside the same two-sided level as 3 se.
    """
    r = keep_fractions.shape[0]
    tail = stats.norm.sf(RETENTION_BAND_SE)
    fails = []
    for k, (fractions, sd, whole) in enumerate(zip(keep_fractions.T, null_sd, shrunk), start=1):
        if whole:
            count = int(np.count_nonzero(fractions))
            if stats.binom.sf(count - 1, r, p_fa) < tail or stats.binom.cdf(count, r, p_fa) < tail:
                fails.append(f"scale {k}: {count} of {r} pure-noise realisations keep the whole block (p_fa={p_fa})")
            continue
        z = (fractions.mean() - p_fa) / (sd * math.sqrt(1.0 / r + 1.0 / reps))
        if abs(z) > RETENTION_BAND_SE:
            fails.append(f"scale {k}: pure-noise retention {fractions.mean():.5f} off p_fa={p_fa} (z = {z:.2f})")
    return fails


def check_gof(result: dict, expect: str) -> list:
    fails = []
    decided = "H1_signal" if result["tau"] >= result["threshold"] else "H0_noise"
    if result["decision"] != decided:
        fails.append(f"gof decision {result['decision']} != (tau >= threshold) -> {decided}")
    if result["decision"] != expect:
        fails.append(f"gof decided {result['decision']} on an input that should give {expect}")
    return fails


def check_matrix(rows: list, method: str, expected_rows: int) -> list:
    """Every cell ok, the expected cardinality, and output SNR above input SNR per cell."""
    fails = []
    if len(rows) != expected_rows:
        fails.append(f"{method} matrix: {len(rows)} rows, expected {expected_rows}")
    not_ok = [r for r in rows if r["status"] != "ok"]
    if not_ok:
        fails.append(f"{method} matrix: {len(not_ok)} rows not ok, e.g. {not_ok[0]['status']}")
    cells = {}
    for r in rows:
        cells.setdefault((r["signal"], r["rho"], r["input_snr_db"], r["seed"]), []).append(float(r["output_snr_db"]))
    for (sig, rho, inp, seed), outs in cells.items():
        if not np.mean(outs) > float(inp):
            fails.append(f"{method} matrix: {sig} rho={rho} seed={seed} output {np.mean(outs):.2f} dB <= input {inp} dB")
    return fails


def check_beats_baseline(mgwd_db: float, baseline_db: float, where: str) -> list:
    if not mgwd_db >= baseline_db:
        return [f"{where}: MGWD {mgwd_db:.2f} dB below the channel-wise baseline {baseline_db:.2f} dB"]
    return []


def self_test(sample: dict, ref: ReferenceTransform) -> list:
    """Every check must reject a perturbed copy of a passing output.

    ``sample`` holds one library ``denoise`` output (x, clean, noise, estimate,
    masks, sigma, thresholds, tau, window_l) and one baseline output.  Returns
    the perturbations that went undetected.
    """
    s = sample
    args = (s["x"], s["clean"], s["noise"])

    def run(**over):
        kw = dict(estimate=s["estimate"], masks=s["masks"], sigma=s["sigma"], thresholds=s["thresholds"], tau=s["tau"])
        kw.update(over)
        return check_denoise(*args, kw["estimate"], kw["masks"], kw["sigma"], kw["thresholds"], ref, s["window_l"], kw["tau"])

    missed = []
    if run():
        missed.append("unperturbed sample fails its own checks")
    flipped = [m.copy() for m in s["masks"]]
    flipped[0][int(np.argmax(np.abs(ref.details(s["x"])[0]).sum(axis=1)))] ^= True
    altered = s["estimate"].copy()
    altered[len(altered) // 2, 0] += 1e-6 * max(1.0, float(np.abs(s["x"]).max()))
    tau_bent = [t.copy() for t in s["tau"]]
    tau_bent[1][0] *= 1.001
    # scale the thresholds by 0.9, or further if no scale-1 tau lies in [0.9 T, T),
    # so that at least one decision changes
    tau1, thr1 = np.asarray(s["tau"][0]), float(s["thresholds"][0])
    factor = min(0.9, float(tau1[tau1 < thr1].max()) / thr1 * (1.0 - 1e-6))
    perturbed = {
        f"threshold x {factor:.3f}": run(thresholds=s["thresholds"] * factor),
        "altered estimate sample": run(estimate=altered),
        "altered tau value": run(tau=tau_bent),
        "wrong sigma (x1.5)": run(sigma=s["sigma"] * 1.5),
        "estimate = input": run(estimate=s["x"]),
    }
    base_bent = s["baseline"].copy()
    base_bent[3, 1] += 1e-3
    perturbed["baseline sample altered"] = check_baseline(s["x"], base_bent, ref)
    loud = np.full((96, 2), 0.05)
    loud[:, 1] = 1.0
    perturbed["retention 10 x p_fa"] = check_retention(loud[:, :1], 0.005, [0.01], 1000, [False])
    perturbed["whole block kept by every realisation"] = check_retention(loud[:, 1:], 0.005, [0.07], 1000, [True])
    perturbed["gof decision flipped"] = check_gof({"tau": 5.0, "threshold": 4.0, "decision": "H0_noise"}, "H0_noise")
    perturbed["gof wrong answer"] = check_gof({"tau": 3.0, "threshold": 4.0, "decision": "H0_noise"}, "H1_signal")
    row = {"signal": "s", "rho": "0", "input_snr_db": "0", "seed": "0", "output_snr_db": "5", "status": "ok"}
    perturbed["matrix cell error"] = check_matrix([dict(row, status="error: x")], "mgwd", 1)
    perturbed["matrix SNR below input"] = check_matrix([dict(row, output_snr_db="-1")], "mgwd", 1)
    perturbed["baseline beats MGWD"] = check_beats_baseline(7.0, 7.5, "self-test")
    missed += [name for name, fails in perturbed.items() if not fails]
    return missed
