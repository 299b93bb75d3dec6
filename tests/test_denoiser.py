import concurrent.futures
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvdenoise import denoiser, gofstat
from mvdenoise.denoiser import (
    DenoiseConfig,
    baseline_universal,
    calibrate_thresholds,
    denoise,
    _NULL_CACHE,
    _UpperTail,
    _batch_reps,
    _null_tau_pool,
    _reflected_windows,
    _scale_taus,
    _tau_from_logs,
    worker_count,
    worker_rule,
)
from mvdenoise.robustcov import CovarianceMatrix
from mvdenoise.siggen import NoiseSpec, add_noise, average_snr_db, make_signal
from mvdenoise.wavelet import dwt_forward, dwt_inverse, get_filter

pytestmark = pytest.mark.filterwarnings("ignore:calibration_reps")


def equicorr(m, rho):
    r = np.full((m, m), rho)
    np.fill_diagonal(r, 1.0)
    return r


# ---------------------------------------------------------------- windows


def block_tau(y, dist, window):
    # per-coefficient tau of one block of squared distances, by the kernel denoise uses
    return _tau_from_logs(*gofstat.clamped_log_cdf(gofstat.reference_cdf(dist, y)), window)


def reflected_window(y, i, half):
    # the window centred at i, built index by index, reflected at both ends
    pos = np.abs(np.arange(i - half, i + half + 1))
    return y[np.where(pos > y.size - 1, 2 * (y.size - 1) - pos, pos)]


def test_sliding_window_reflects_at_left_edge():
    windows = _reflected_windows(np.arange(100), 5)
    assert list(windows[0]) == [2, 1, 0, 1, 2]
    assert list(windows[99]) == [97, 98, 99, 98, 97]


def test_sliding_window_shrinks_to_block():
    # a block shorter than the window is scored as one shared window
    y = np.random.default_rng(1).chisquare(2, size=3)
    dist = gofstat.make_reference(2)
    tau = block_tau(y, dist, 11)
    ref = gofstat.ad_statistic(gofstat.MahalanobisEdf(np.sort(y), 3), dist)
    assert tau.shape == (3,)
    assert np.abs(tau - ref).max() < 1e-12


def test_sliding_window_interior_indices():
    windows = _reflected_windows(np.arange(100), 5)
    assert list(windows[50]) == [48, 49, 50, 51, 52]


def test_window_size_must_be_even():
    with pytest.raises(ValueError, match="even"):
        denoise(np.random.default_rng(2).standard_normal((256, 2)), DenoiseConfig(window_l=5))


# ---------------------------------------------------- statistic plumbing


def test_vectorized_tau_matches_scalar_reference():
    rng = np.random.default_rng(3)
    cov = CovarianceMatrix.from_matrix(equicorr(3, 0.3))
    dist = gofstat.make_reference(3)
    block = rng.standard_normal((160, 3)) @ np.linalg.cholesky(cov.sigma).T
    y = cov.quadratic_form(block)
    tau_vec = _scale_taus([block[:, None]], [cov], 84)[0][0]
    for i in range(0, 160, 17):
        edf = gofstat.MahalanobisEdf(np.sort(reflected_window(y, i, 42)), 85)
        assert abs(tau_vec[i] - gofstat.ad_statistic(edf, dist)) < 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 4),
    block_len=st.integers(2, 200),
    half=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_tau_matches_scalar_statistic_everywhere(m, block_len, half, seed):
    # every position of every block, edges and blocks shorter than the window
    # included, against the scalar statistic on an explicitly built window
    window = 2 * half + 1
    y = np.random.default_rng(seed).chisquare(m, size=block_len)
    dist = gofstat.make_reference(m)
    tau = block_tau(y, dist, window)
    for i in range(block_len):
        win = y if block_len < window else reflected_window(y, i, half)
        ref = gofstat.ad_statistic(gofstat.MahalanobisEdf(np.sort(win), win.size), dist)
        assert abs(tau[i] - ref) < 1e-9


@pytest.mark.parametrize("block_len", [40, 200, 1024])
def test_batched_tau_matches_each_row_in_either_layout(block_len):
    # calibration scores a (replications, B) batch whose layout follows the
    # einsum that made it; blocks shorter than the window, blocks of one
    # scoring chunk and blocks of several chunks all score each row as alone
    window = 85
    y = np.random.default_rng(block_len).chisquare(3, size=(5, block_len))
    lf, l1f = gofstat.clamped_log_cdf(gofstat.reference_cdf(gofstat.make_reference(3), y))
    rows = np.array([_tau_from_logs(lf[r], l1f[r], window) for r in range(5)])
    for order in ("C", "F"):
        batch = _tau_from_logs(np.asarray(lf, order=order), np.asarray(l1f, order=order), window)
        assert np.abs(batch - rows).max() < 1e-12


def test_block_tau_memory_is_bounded_by_its_chunk():
    # the windows are copied and sorted a chunk at a time: all 113-point
    # windows of a 2^17-row block at once would take 113 MB
    block = np.random.default_rng(6).standard_normal((2**17, 1, 4))
    sigma = CovarianceMatrix.from_matrix(np.eye(4))
    tracemalloc.start()
    try:
        _scale_taus([block], [sigma], 112)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ------------------------------------------------------------ calibration


def test_threshold_at_half_pfa_is_null_median():
    cfg = DenoiseConfig(p_fa=0.49999, calibration_reps=400, window_l=56, levels=1)
    t_med = calibrate_thresholds(2, 2 * 256, cfg)[0][0]
    # median of the null statistic for 57-point windows is near the asymptotic
    # null median (~0.77); generous band, the point is the quantile semantics
    assert 0.5 < t_med < 1.2


def test_threshold_monotone_in_pfa():
    ts = []
    for p_fa in (0.3, 0.1, 0.01):
        cfg = DenoiseConfig(p_fa=p_fa, calibration_reps=300, window_l=56, levels=1)
        ts.append(calibrate_thresholds(2, 2 * 256, cfg)[0][0])
    assert ts[0] < ts[1] < ts[2]


def child_seeds(seed, reps):
    return np.random.default_rng(seed).integers(np.iinfo(np.int64).max, size=reps)


def test_threshold_reproducible_across_seeds():
    cfg = DenoiseConfig(p_fa=0.005, calibration_reps=2000, window_l=56, levels=1)
    t1, t2 = (
        float(np.quantile(_null_tau_pool(2, 1024, cfg, child_seeds(seed, cfg.calibration_reps))[0], 1.0 - cfg.p_fa))
        for seed in (11, 12)
    )
    assert abs(t1 - t2) / t1 < 0.10


def test_calibrate_thresholds_deterministic():
    cfg = DenoiseConfig(calibration_reps=150)
    a = calibrate_thresholds(2, 1024, cfg)[0]
    _NULL_CACHE.clear()
    b = calibrate_thresholds(2, 1024, cfg)[0]
    assert np.array_equal(a, b)
    assert a.shape == (5,)


def test_calibration_split_into_batches_is_bit_identical(monkeypatch):
    # a benchmark matrix hands each batch of child seeds to whichever worker
    # process is free; the seeds cut at batch boundaries into 1, 2 or 3
    # contiguous slices give the same pool, and so the same thresholds
    m, n = 3, 512
    cfg = DenoiseConfig(calibration_reps=100, levels=4)
    monkeypatch.setattr(denoiser, "_CAL_CHUNK_VALUES", 40 * n * (cfg.window_size(m) + 1) // 2)
    assert _batch_reps(m, n, cfg) == 40
    seeds = child_seeds(0, cfg.calibration_reps)
    whole = _null_tau_pool(m, n, cfg, seeds)
    for cuts in ([], [40], [40, 80]):
        parts = [_null_tau_pool(m, n, cfg, s) for s in np.split(seeds, cuts)]
        for k, pool in enumerate(whole):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), pool)

    batches = []

    def recording_map(fn, seed_batches):
        batches.extend(seed_batches)
        return map(fn, seed_batches)

    _NULL_CACHE.clear()
    thresholds, sd = calibrate_thresholds(m, n, cfg, recording_map)
    assert [len(b) for b in batches] == [40, 40, 20]
    assert np.array_equal(np.concatenate(batches), seeds)
    assert np.array_equal(thresholds, [np.quantile(p, 1.0 - cfg.p_fa) for p in whole])
    assert np.array_equal(sd, [(p >= t).mean(axis=1).std(ddof=1) for p, t in zip(whole, thresholds)])
    _NULL_CACHE.clear()
    monkeypatch.setenv("MVDENOISE_THREADS", "1")  # one pass, in this process
    single_pass = calibrate_thresholds(m, n, cfg)
    assert np.array_equal(single_pass[0], thresholds) and np.array_equal(single_pass[1], sd)


ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.mark.parametrize(
    "environ, cores, jobs, in_worker, expected",
    [
        ({}, 8, 15, False, 1),  # no BLAS limit: the BLAS may use every core
        (ONE_BLAS_THREAD, 2, 15, False, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 15, False, 8),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 15, False, 2),  # the largest one set
        ({"OMP_NUM_THREADS": "2"}, 2, 15, False, 1),
        ({"OMP_NUM_THREADS": "abc"}, 8, 15, False, 1),  # not a limit
        (ONE_BLAS_THREAD, 8, 3, False, 3),  # no more workers than batches
        (ONE_BLAS_THREAD, 8, 15, True, 1),  # a pool worker never opens a pool
        ({"MVDENOISE_THREADS": "1", **ONE_BLAS_THREAD}, 8, 15, False, 1),
        ({"MVDENOISE_THREADS": "3"}, 8, 15, False, 3),  # the set count, whatever the BLAS
        ({"MVDENOISE_THREADS": "4000"}, 2, 15, False, 2),  # never more processes than cores
        ({"MVDENOISE_THREADS": "4000"}, 64, 15, False, 15),
        ({"MVDENOISE_THREADS": "abc"}, 8, 15, True, 1),
    ],
)
def test_worker_rule(environ, cores, jobs, in_worker, expected):
    assert worker_rule(environ, cores, jobs, in_worker) == expected


@pytest.mark.parametrize("value", ["abc", "0", "-2", "", "1.5"])
def test_worker_rule_rejects_a_bad_count(value):
    with pytest.raises(ValueError, match="MVDENOISE_THREADS"):
        worker_rule({"MVDENOISE_THREADS": value}, 8, 15, False)


@pytest.fixture
def two_worker_rule(monkeypatch):
    """The default rule on two cores with one BLAS thread each; returns the worker counts of the pools opened."""
    monkeypatch.delenv("MVDENOISE_THREADS", raising=False)
    for var, value in ONE_BLAS_THREAD.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(denoiser, "_usable_cores", lambda: 2)
    opened = []

    def recording_pool(workers):
        opened.append(workers)
        return concurrent.futures.ProcessPoolExecutor(workers)

    monkeypatch.setattr(denoiser, "ProcessPoolExecutor", recording_pool)
    return opened


@pytest.mark.parametrize(
    "m, n, cfg, n_batches",
    [
        (3, 1024, DenoiseConfig(calibration_reps=300), 3),
        # gof's key: one level, the whole block one window
        (4, 1024, DenoiseConfig(calibration_reps=100, levels=1, window_l=512), 5),
    ],
)
def test_pool_calibration_is_bit_identical_to_serial(monkeypatch, two_worker_rule, m, n, cfg, n_batches):
    # the batches and their in-order fold are the serial run's, so every bit is
    assert -(-cfg.calibration_reps // _batch_reps(m, n, cfg)) == n_batches
    assert worker_count(n_batches) == 2
    _NULL_CACHE.clear()
    pooled = calibrate_thresholds(m, n, cfg)
    assert two_worker_rule == [2]
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    _NULL_CACHE.clear()
    serial = calibrate_thresholds(m, n, cfg)
    assert two_worker_rule == [2]  # a count of 1 opens no pool
    assert np.array_equal(pooled[0], serial[0]) and np.array_equal(pooled[1], serial[1])


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was opened")


def test_memo_hit_opens_no_pool(monkeypatch, two_worker_rule):
    cfg = DenoiseConfig(calibration_reps=300)
    _NULL_CACHE.clear()
    first = calibrate_thresholds(3, 1024, cfg)
    assert two_worker_rule == [2]
    monkeypatch.setattr(denoiser, "ProcessPoolExecutor", no_pool)
    again = calibrate_thresholds(3, 1024, cfg)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])


def test_calibration_in_a_pool_worker_runs_serially(monkeypatch, two_worker_rule):
    # the worker inherits a rule that gives this process two workers, and a
    # pool that refuses to open: it must calibrate in-process
    cfg = DenoiseConfig(calibration_reps=300)
    monkeypatch.setenv("MVDENOISE_THREADS", "2")
    assert worker_count(3) == 2
    monkeypatch.setattr(denoiser, "ProcessPoolExecutor", no_pool)
    _NULL_CACHE.clear()  # the worker starts with no memo entry
    with concurrent.futures.ProcessPoolExecutor(1) as pool:
        assert pool.submit(worker_count, 3).result(timeout=60) == 1
        in_worker = pool.submit(calibrate_thresholds, 3, 1024, cfg).result(timeout=120)
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    _NULL_CACHE.clear()
    serial = calibrate_thresholds(3, 1024, cfg)
    assert np.array_equal(in_worker[0], serial[0]) and np.array_equal(in_worker[1], serial[1])


def folded_tail(pool, q, rng):
    # the pool's upper tail, fed in random contiguous batches of rows
    tail = _UpperTail(*pool.shape, q)
    start = 0
    while start < pool.shape[0]:
        rows = int(rng.integers(1, pool.shape[0] + 1))
        tail.add(pool[start : start + rows], start)
        start += rows
    return tail


def assert_tail_is_the_full_pool(pool, q, rng):
    tail = folded_tail(pool, q, rng)
    threshold = tail.quantile()
    assert threshold == float(np.quantile(pool, q))
    if pool.shape[0] > 1:
        assert tail.retention_sd(threshold) == float((pool >= threshold).mean(axis=1).std(ddof=1))
    # it holds exactly the values at or above the k-th largest
    cut = np.sort(pool, axis=None)[pool.size - tail.k]
    assert np.array_equal(np.sort(tail.values), np.sort(pool[pool >= cut]))
    return tail


def test_upper_tail_matches_the_full_pool_on_random_pools():
    rng = np.random.default_rng(40)
    for trial in range(400):
        n = int(rng.integers(1, 5001))
        reps = int(rng.integers(1, min(n, 300) + 1))
        width = max(1, n // reps)
        q = float(rng.uniform(0.5, 0.99999))
        pool = rng.standard_normal((reps, width))
        if trial % 3 == 0:
            pool = np.round(pool, 1)  # many ties, at the cut too
        assert_tail_is_the_full_pool(pool, q, rng)


@pytest.mark.parametrize(
    "reps, width, q, gamma",
    [
        (5, 1, 0.75, 0.0),  # integral virtual index, one value per replication
        (5, 9, 0.75, 0.0),  # integral virtual index, (5*9 - 1) q = 33
        (4, 25, 0.5, 0.5),  # the g >= 0.5 branch of the interpolation
        (200, 1, 0.995, None),  # one value per replication at the default p_fa
        (1, 1, 0.99999, 0.0),  # a single value is every quantile
    ],
)
def test_upper_tail_matches_the_full_pool_at_edges(reps, width, q, gamma):
    rng = np.random.default_rng([41, reps, width])
    # three distinct values: ties at the cut, all of which the tail keeps
    for pool in (rng.standard_normal((reps, width)), rng.integers(0, 3, (reps, width)).astype(float)):
        tail = assert_tail_is_the_full_pool(pool, q, rng)
        if gamma is not None:
            assert tail.gamma == gamma


def test_calibration_memory_does_not_grow_with_replications(monkeypatch):
    # calibration keeps only each scale's upper tail, so 4x the replications
    # in batches of 20 peaks within 0.58 MB of 1x; full pools of every value
    # would add 3 * 100 * 961 * 8 bytes = 2.3 MB, and np.quantile's copy more
    m, n = 2, 1024
    monkeypatch.setenv("MVDENOISE_THREADS", "1")  # tracemalloc sees this process only
    monkeypatch.setattr(denoiser, "_CAL_CHUNK_VALUES", 20 * n * 57 // 2)
    peaks = []
    for reps in (100, 400):
        cfg = DenoiseConfig(calibration_reps=reps, window_l=56)
        assert _batch_reps(m, n, cfg) == 20
        _NULL_CACHE.clear()
        tracemalloc.start()
        try:
            calibrate_thresholds(m, n, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    _NULL_CACHE.clear()  # these entries were cut into batches of 20, not the default
    # a replication pools 512 + 256 + 128 + 64 values, and one for scale 5's
    # single window
    full_pools = 3 * 100 * 961 * 8
    assert peaks[1] - peaks[0] < 0.25 * full_pools


def test_calibration_reps_floor_enforced():
    with pytest.raises(ValueError, match="calibration_reps"):
        DenoiseConfig(calibration_reps=50)


def test_low_reps_warn_about_quantile_resolution():
    cfg = DenoiseConfig(calibration_reps=150, window_l=28, levels=1)
    with pytest.warns(RuntimeWarning, match="quantile resolution"):
        calibrate_thresholds(2, 256, cfg)


def test_null_pool_replication_is_the_pipeline_statistic():
    # each calibration replication is exactly what denoise computes on pure
    # noise, covariance estimate included; a null that whitens by a known
    # covariance instead fails this at every scale.  At a non-dyadic length
    # both pad the noise the same way.
    cfg = DenoiseConfig(calibration_reps=100, levels=4)
    m = 2
    child = child_seeds(3, cfg.calibration_reps)
    for n in (512, 500):
        pools = _null_tau_pool(m, n, cfg, child)
        for r in (0, 57):
            g = np.random.default_rng(int(child[r]))
            noise = g.standard_normal((n, m))
            _, rep = denoise(noise, cfg, rng=g)
            for k in range(cfg.levels):
                expected = rep.tau[k] if pools[k].shape[1] > 1 else rep.tau[k][:1]
                assert np.allclose(pools[k][r], expected, rtol=1e-9, atol=1e-9)
    # alone in its batch, a replication is scored by the very code denoise
    # scores with: the statistic is equal bit for bit
    for n in (512, 500, 2048):
        for r in range(6):
            g = np.random.default_rng(int(child[r]))
            _, rep = denoise(g.standard_normal((n, m)), cfg, rng=g)
            pools = _null_tau_pool(m, n, cfg, child[r : r + 1])
            for k in range(cfg.levels):
                expected = rep.tau[k] if pools[k].shape[1] > 1 else rep.tau[k][:1]
                assert np.array_equal(pools[k][0], expected)


def test_calibration_rejects_what_denoise_rejects(monkeypatch):
    # eight levels of 256 rows leave one approximation coefficient: denoise
    # rejects the geometry, and calibration rejects it before any MCD fit
    cfg = DenoiseConfig(levels=8, calibration_reps=100)
    message = "signal too short: coarsest block needs at least two coefficients"
    with pytest.raises(ValueError, match=message):
        denoise(np.random.default_rng(9).standard_normal((256, 3)), cfg)

    def no_fit(*args, **kwargs):
        raise AssertionError("calibration fitted a covariance")

    monkeypatch.setattr(denoiser, "mcd_estimate", no_fit)
    monkeypatch.setenv("MVDENOISE_THREADS", "1")  # any fit would run in this process
    with pytest.raises(ValueError, match=message):
        calibrate_thresholds(3, 256, cfg)


def test_denoise_calibrates_the_unpadded_length():
    # a 500-row input is padded to 512 for the transform, but its null is
    # simulated at 500 rows, where the pad mirrors noise as it mirrors data
    cfg = DenoiseConfig(calibration_reps=100, levels=4)
    x = np.random.default_rng(8).standard_normal((500, 2))
    _, rep = denoise(x, cfg, rng=np.random.default_rng(9))
    assert np.array_equal(rep.thresholds, calibrate_thresholds(2, 500, cfg)[0])


def test_calibration_does_not_depend_on_noise_covariance():
    # denoise fits the covariance; the thresholds it compares against are the
    # same for every input of a given shape
    cfg = DenoiseConfig(calibration_reps=100, levels=3)
    rng = np.random.default_rng(4)
    white = rng.standard_normal((512, 2))
    mixed = white @ np.array([[3.0, 0.0], [1.5, 0.4]])
    _, a = denoise(white, cfg, rng=np.random.default_rng(5))
    _, b = denoise(mixed, cfg, rng=np.random.default_rng(5))
    assert np.array_equal(a.thresholds, b.thresholds)
    assert np.array_equal([k.sum() for k in a.keep_masks], [k.sum() for k in b.keep_masks])


# -------------------------------------------------------------- pipeline


def test_pure_noise_marginal_retention_rate():
    # the calibrated threshold delivers the target false-alarm probability in
    # the marginal sense; exceedances cluster across overlapping windows, so
    # the rate is checked against a generous multi-seed band
    m, p_fa = 2, 0.02
    cfg = DenoiseConfig(p_fa=p_fa, calibration_reps=300)
    kept = total = 0
    for seed in range(6):
        x = np.random.default_rng([60, seed]).standard_normal((1024, m))
        _, rep = denoise(x, cfg, rng=np.random.default_rng([61, seed]))
        kept += sum(int(mask.sum()) for mask in rep.keep_masks)
        total += sum(mask.size for mask in rep.keep_masks)
    rate = kept / total
    assert 0.2 * p_fa < rate < 3.0 * p_fa


def test_clean_structured_signal_passes_through():
    s = make_signal("heavydoppler3", 2048)
    cfg = DenoiseConfig(calibration_reps=200)
    est, rep = denoise(s.channels, cfg, rng=np.random.default_rng(0))
    assert average_snr_db(s.channels, est) >= 30.0


def test_noisy_heavydoppler_snr_recovers():
    s = make_signal("heavydoppler3", 2048)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.0, 0.0), rng=np.random.default_rng(1))
    cfg = DenoiseConfig(calibration_reps=300)
    est, rep = denoise(noisy, cfg, rng=np.random.default_rng(2))
    assert average_snr_db(s.channels, est) > 9.0
    assert est.shape == noisy.shape


def test_masks_reproduce_estimate_bit_identically():
    s = make_signal("heavydoppler3", 1024)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.25, 0.0), rng=np.random.default_rng(3))
    cfg = DenoiseConfig(calibration_reps=150)
    est, rep = denoise(noisy, cfg, rng=np.random.default_rng(4))
    dec = dwt_forward(noisy, get_filter(cfg.filter_name), cfg.levels)
    kept = [d * mask[:, None] for d, mask in zip(dec.details, rep.keep_masks)]
    again = dwt_inverse(dec.copy_with_details(kept))
    assert np.array_equal(est, again)


def test_denoise_deterministic_for_config_seed():
    s = make_signal("heavydoppler3", 1024)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.0, 0.0), rng=np.random.default_rng(5))
    cfg = DenoiseConfig(calibration_reps=150, seed=17)
    a, _ = denoise(noisy, cfg)
    b, _ = denoise(noisy, cfg)
    assert np.array_equal(a, b)


def test_denoising_is_nearly_idempotent():
    s = make_signal("heavydoppler3", 2048)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.0, 0.0), rng=np.random.default_rng(6))
    cfg = DenoiseConfig(calibration_reps=300)
    once, _ = denoise(noisy, cfg, rng=np.random.default_rng(7))
    twice, _ = denoise(once, cfg, rng=np.random.default_rng(8))
    e1 = float((once**2).sum())
    e2 = float((twice**2).sum())
    assert abs(e2 - e1) / e1 < 0.05


def test_report_contents_consistent():
    x = np.random.default_rng(9).standard_normal((512, 2))
    cfg = DenoiseConfig(calibration_reps=150)
    _, rep = denoise(x, cfg, rng=np.random.default_rng(10))
    assert rep.thresholds.shape == (5,)
    for k, (tau, mask) in enumerate(zip(rep.tau, rep.keep_masks), start=1):
        assert tau.shape == mask.shape == (512 // 2**k,)
        assert np.isfinite(tau).all()
        assert np.array_equal(mask, tau >= rep.thresholds[k - 1])


def test_univariate_fallback_runs():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2048)
    cfg = DenoiseConfig(calibration_reps=150)
    est, rep = denoise(x, cfg, rng=np.random.default_rng(12))
    assert est.shape == (2048, 1)
    assert rep.sigma.dim == 1


def test_noise_free_steps_keep_every_coefficient():
    # haar details of unit steps at odd rows: one nonzero row per channel at
    # scale 1, so the MCD fit is exact (all-zero subsets) and takes the ridge
    x = np.zeros((2048, 3))
    for j, p in enumerate([511, 1023, 1535]):
        x[p:, j] = 1.0
    est, rep = denoise(x, DenoiseConfig(filter_name="haar", calibration_reps=150))
    assert all(mask.all() for mask in rep.keep_masks)
    assert np.abs(est - x).max() < 1e-12
    assert "minimal-determinant subset is rank deficient; adding ridge" in rep.warnings_issued


def test_signal_too_short_rejected():
    cfg = DenoiseConfig(calibration_reps=100)
    with pytest.raises(ValueError, match="too short"):
        denoise(np.random.default_rng(21).standard_normal((32, 2)), cfg)


def test_config_validation():
    with pytest.raises(ValueError, match="p_fa"):
        DenoiseConfig(p_fa=0.6)
    with pytest.raises(ValueError, match="window_l"):
        DenoiseConfig(window_l=3)
    with pytest.raises(ValueError, match="unknown wavelet filter 'db99'"):
        DenoiseConfig(filter_name="db99")


# -------------------------------------------------------------- baseline


def test_baseline_thresholds_uniform_for_isotropic_noise():
    # with sigma = s^2 I every channel threshold equals sqrt(2 s^2 log N),
    # so pure noise is almost entirely removed
    rng = np.random.default_rng(22)
    x = 2.0 * rng.standard_normal((2048, 2))
    cfg = DenoiseConfig()
    est = baseline_universal(x, cfg, rng=np.random.default_rng(23))
    assert (est**2).sum() < 0.05 * (x**2).sum()


def test_baseline_kills_subthreshold_coefficients():
    from mvdenoise.robustcov import mcd_estimate
    from mvdenoise.wavelet import dwt_inverse

    rng = np.random.default_rng(24)
    x = rng.standard_normal((1024, 2))
    est = baseline_universal(x, DenoiseConfig(), rng=np.random.default_rng(25))
    # reproduce the contract: per-channel hard threshold from the covariance
    # eigenvalues, largest eigenvalue paired with the noisiest channel
    dec = dwt_forward(x, get_filter("db8"), 5)
    sigma = mcd_estimate(dec.details[0], np.random.default_rng(25))
    thr = np.empty(2)
    eigenvalues = np.linalg.eigh(sigma.sigma)[0][::-1]
    thr[np.argsort(-np.diag(sigma.sigma), kind="stable")] = np.sqrt(2.0 * eigenvalues * np.log(1024))
    expected = dwt_inverse(
        dec.copy_with_details([np.where(np.abs(d) < thr[None, :], 0.0, d) for d in dec.details])
    )
    assert np.abs(est - expected).max() < 1e-12


def test_baseline_beats_nothing_on_signal():
    s = make_signal("heavydoppler3", 2048)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.0, 0.0), rng=np.random.default_rng(28))
    est = baseline_universal(noisy, DenoiseConfig(), rng=np.random.default_rng(29))
    assert average_snr_db(s.channels, est) > average_snr_db(s.channels, noisy)
