import concurrent.futures
import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

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
    _reflect_index,
    _reflected_windows,
    _scale_taus,
    _tau_from_logs,
    worker_count,
    worker_rule,
)
from mvdenoise.robustcov import CovarianceMatrix, _squared_distances, mcd_estimate
from mvdenoise.siggen import NoiseSpec, add_noise, average_snr_db, make_signal
from mvdenoise.wavelet import dwt_forward, dwt_inverse, get_filter

pytestmark = pytest.mark.filterwarnings("ignore:calibration_reps")

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ONE_BLAS_THREAD = dict.fromkeys(BLAS_THREAD_VARS, "1")


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


@pytest.mark.parametrize("window", [3, 5, 29, 85])
@pytest.mark.parametrize("extra_left", [0, 1], ids=["windows", "cumsum"])
def test_reflect_index_matches_numpy_reflect_pad(window, extra_left):
    # reference: the np.pad call each index replaced, the windows' pad and
    # the cumulative-sum pad with one more value in front, for every block
    # length the window scorer pads (a window up to three windows)
    half = window // 2
    for b in range(window, 3 * window + 1):
        v = np.random.default_rng([window, b]).standard_normal((2, b))
        padded = np.pad(v, [(0, 0), (half + extra_left, half)], mode="reflect")
        assert np.array_equal(v[..., _reflect_index(b, half, extra_left)], padded)


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


@pytest.mark.parametrize("m", range(1, 7))
def test_whitening_factor_matches_solve_triangular_bits(m):
    # _scale_taus whitens a stack of signals by their inverse Cholesky
    # factors, one matrix product each.  scipy.linalg.solve_triangular
    # (LAPACK dtrtrs), a triangular solve per factor, is the oracle: the two
    # sum in different orders, so they agree to rounding only.  Over 200
    # stacks of 10 factors per M = 1..8 the largest relative error of a
    # squared distance was 1.7e-15; the bound leaves a margin of 2.
    rng = np.random.default_rng([30, m])
    a = rng.standard_normal((4, m, m))
    chols = np.stack([CovarianceMatrix.from_matrix(s @ s.T + 0.5 * np.eye(m)).chol for s in a])
    x = rng.standard_normal((4, 100, m))
    for chol, rows, d in zip(chols, x, _squared_distances(x, chols)):
        z = solve_triangular(chol, rows.T, lower=True)
        ref = np.einsum("ij,ij->j", z, z)
        assert (np.abs(d - ref) <= 4e-15 * ref).all()


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


def test_calibrate_thresholds_deterministic(threshold_store):
    cfg = DenoiseConfig(calibration_reps=150)
    a = calibrate_thresholds(2, 1024, cfg)[0]
    _NULL_CACHE.clear()
    threshold_store()  # calibrate again, not read the first calibration back
    b = calibrate_thresholds(2, 1024, cfg)[0]
    assert np.array_equal(a, b)
    assert a.shape == (5,)


def test_calibration_split_into_batches_is_bit_identical(monkeypatch, threshold_store):
    # a process pool hands each batch of child seeds to whichever worker is
    # free; the seeds cut at batch boundaries into 1, 2 or 3 contiguous
    # slices give the same pool, and so the same thresholds
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
    with monkeypatch.context() as patch:
        patch.setattr(denoiser, "_pool_map", recording_map)
        thresholds, sd = calibrate_thresholds(m, n, cfg)
    assert [len(b) for b in batches] == [40, 40, 20]
    assert np.array_equal(np.concatenate(batches), seeds)
    assert np.array_equal(thresholds, [np.quantile(p, 1.0 - cfg.p_fa) for p in whole])
    assert np.array_equal(sd, [(p >= t).mean(axis=1).std(ddof=1) for p, t in zip(whole, thresholds)])
    _NULL_CACHE.clear()
    threshold_store()
    monkeypatch.setenv("MVDENOISE_THREADS", "1")  # one pass, in this process
    single_pass = calibrate_thresholds(m, n, cfg)
    assert np.array_equal(single_pass[0], thresholds) and np.array_equal(single_pass[1], sd)


@pytest.mark.parametrize(
    "environ, cores, jobs, in_worker, expected",
    [
        ({}, 8, 15, False, 8),  # a worker per core
        (ONE_BLAS_THREAD, 2, 15, False, 2),
        ({"OMP_NUM_THREADS": "4"}, 8, 15, False, 8),  # the BLAS variables never divide the cores
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8, 15, False, 8),
        ({"OMP_NUM_THREADS": "2"}, 2, 15, False, 2),
        ({"OMP_NUM_THREADS": "abc"}, 8, 15, False, 8),  # nor are they read: no error
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


def test_default_environment_gets_a_worker_per_core(monkeypatch, two_worker_rule):
    # no MVDENOISE_THREADS and no BLAS variable: what a user gets by default
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert worker_count(15) == 2


_CALIBRATION_DIGEST = """
import hashlib
from mvdenoise.denoiser import DenoiseConfig, calibrate_thresholds, worker_count
thresholds, sd = calibrate_thresholds(3, 1024, DenoiseConfig(calibration_reps=150))
print(worker_count(2), hashlib.sha256(thresholds.tobytes() + sd.tobytes()).hexdigest())
"""


def test_calibration_bits_do_not_depend_on_blas_variables(threshold_store):
    # fresh processes, each with the worker rule's default count and its own
    # empty store: the BLAS may run a thread per core in one and one thread
    # in the other
    base = {k: v for k, v in os.environ.items() if k not in (*BLAS_THREAD_VARS, "MVDENOISE_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(sys.path)
    runs = []
    for extra in ({}, ONE_BLAS_THREAD):
        extra = {**extra, "XDG_CACHE_HOME": str(threshold_store().parent)}
        proc = subprocess.run([sys.executable, "-c", _CALIBRATION_DIGEST], env={**base, **extra}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split())
    assert runs[0] == runs[1]
    assert runs[0][0] == str(min(2, denoiser._usable_cores()))  # the pool path, wherever there are two cores


@pytest.mark.parametrize(
    "m, n, cfg, n_batches",
    [
        (3, 1024, DenoiseConfig(calibration_reps=300), 3),
        # gof's key: one level, the whole block one window
        (4, 1024, DenoiseConfig(calibration_reps=100, levels=1, window_l=512), 5),
    ],
)
def test_pool_calibration_is_bit_identical_to_serial(monkeypatch, two_worker_rule, threshold_store, m, n, cfg, n_batches):
    # the batches and their in-order fold are the serial run's, so every bit is
    assert -(-cfg.calibration_reps // _batch_reps(m, n, cfg)) == n_batches
    assert worker_count(n_batches) == 2
    _NULL_CACHE.clear()
    pooled = calibrate_thresholds(m, n, cfg)
    assert two_worker_rule == [2]
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    _NULL_CACHE.clear()
    threshold_store()
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
    monkeypatch.setattr(denoiser, "_process_pool", no_pool)
    again = calibrate_thresholds(3, 1024, cfg)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])


def test_calibration_in_a_pool_worker_runs_serially(monkeypatch, two_worker_rule, threshold_store):
    # the worker inherits a rule that gives this process two workers, and a
    # pool that refuses to open: it must calibrate in-process
    cfg = DenoiseConfig(calibration_reps=300)
    monkeypatch.setenv("MVDENOISE_THREADS", "2")
    assert worker_count(3) == 2
    monkeypatch.setattr(denoiser, "_process_pool", no_pool)
    _NULL_CACHE.clear()  # the worker starts with no memo entry
    with concurrent.futures.ProcessPoolExecutor(1) as pool:
        assert pool.submit(worker_count, 3).result(timeout=60) == 1
        in_worker = pool.submit(calibrate_thresholds, 3, 1024, cfg).result(timeout=120)
    # a spawned worker imports the package afresh, and is a worker all the same
    with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        assert pool.submit(worker_count, 3).result(timeout=60) == 1
    assert worker_count(3) == 2
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    _NULL_CACHE.clear()
    threshold_store()  # the worker's calibration filled the first store
    serial = calibrate_thresholds(3, 1024, cfg)
    assert np.array_equal(in_worker[0], serial[0]) and np.array_equal(in_worker[1], serial[1])


def memo_held(_):
    # module-level, so a spawned worker can unpickle it by name
    return os.getpid(), denoiser._NULL_CACHE


def test_pool_workers_start_with_the_callers_memo(monkeypatch, two_worker_rule):
    # a spawned worker shares no memory with this process: it holds the
    # caller's thresholds only if the pool hands them over as it starts
    memo = {
        (3, 1024, DenoiseConfig(window_l=84)): (np.arange(5.0), np.full(5, 0.5)),
        (4, 1024, DenoiseConfig(levels=1, window_l=512)): (np.array([2.5]), np.array([0.25])),
    }
    monkeypatch.setattr(denoiser, "_NULL_CACHE", memo)
    spawn = partial(concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
    monkeypatch.setattr(denoiser, "_process_pool", spawn)
    assert worker_count(2) == 2
    held = list(denoiser._pool_map(memo_held, [0, 1]))
    for pid, worker_memo in held:
        assert pid != os.getpid()
        assert worker_memo.keys() == memo.keys()
        for key, (thresholds, sd) in memo.items():
            assert np.array_equal(worker_memo[key][0], thresholds) and np.array_equal(worker_memo[key][1], sd)


def test_memo_key_is_the_config_without_its_seed(monkeypatch):
    # a config's seed never reaches calibration, and an unset window is the
    # default one: all three configs share one memo entry
    cfg = DenoiseConfig(calibration_reps=150, levels=3)
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    first = calibrate_thresholds(2, 512, cfg)
    for same in (DenoiseConfig(calibration_reps=150, levels=3, seed=9), DenoiseConfig(calibration_reps=150, levels=3, window_l=56)):
        again = calibrate_thresholds(2, 512, same)
        assert np.array_equal(again[0], first[0]) and np.array_equal(again[1], first[1])
    assert list(denoiser._NULL_CACHE) == [(2, 512, DenoiseConfig(calibration_reps=150, levels=3, window_l=56))]


# ------------------------------------------------------ shipped thresholds


def build_grid():
    # the keys tools/build_thresholds.py calibrates, as memo keys
    path = Path(__file__).resolve().parents[1] / "tools" / "build_thresholds.py"
    spec = importlib.util.spec_from_file_location("build_thresholds", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)  # defines the grid, and runs nothing
    return [denoiser._memo_key(m, n, DenoiseConfig(**fields)) for m, n, fields in script.GRID]


def test_threshold_table_holds_exactly_the_build_grid():
    grid = build_grid()
    assert len(grid) == len(set(grid)) == 112
    entries = json.loads(Path(denoiser._TABLE_PATH).read_text(encoding="utf-8"))
    assert [(e["n_channels"], e["n_samples"], DenoiseConfig(**e["config"])) for e in entries] == grid
    # the reader keeps a table only if every entry is its own memo key, with one value per scale
    assert list(denoiser._read_table(denoiser._TABLE_PATH)) == grid


@pytest.mark.parametrize(
    "m, n, fields",
    [(1, 256, {}), (8, 256, {}), (2, 256, {"levels": 1, "window_l": 128})],
    ids=["denoise-1x256", "denoise-8x256", "gof-2x128"],
)
def test_threshold_table_is_not_stale(monkeypatch, m, n, fields):
    # keys spread over the grid, calibrated afresh: a change that moves the
    # null fails here until tools/build_thresholds.py rebuilds the table.
    # Another machine's BLAS may round the last bits differently
    key = denoiser._memo_key(m, n, DenoiseConfig(**fields))
    shipped = denoiser._read_table(denoiser._TABLE_PATH)[key]
    monkeypatch.setattr(denoiser, "_THRESHOLD_TABLE", {})  # bypass the table
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    fresh = calibrate_thresholds(m, n, key[2])
    for got, want in zip(fresh, shipped):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def table_entry(key, thresholds, sd):
    m, n, cfg = key
    fields = {k: v for k, v in vars(cfg).items() if v != getattr(DenoiseConfig(), k)}
    return {"n_channels": m, "n_samples": n, "config": fields, "thresholds": list(thresholds), "null_retention_sd": list(sd)}


def no_calibration(*args):
    raise AssertionError("calibration entered")


def test_lookup_is_the_memo_then_the_table_then_the_store_then_calibration(tmp_path, monkeypatch, threshold_store):
    key = denoiser._memo_key(1, 256, DenoiseConfig())
    stored_key = denoiser._memo_key(2, 256, DenoiseConfig())
    monkeypatch.setenv("MVDENOISE_THREADS", "1")  # calibration runs here, where the patch below is seen
    table = tmp_path / "thresholds.json"
    table.write_text(json.dumps([table_entry(key, [1.0, 2.0, 3.0, 4.0, 5.0], [0.5] * 5)]), encoding="utf-8")
    monkeypatch.setattr(denoiser, "_TABLE_PATH", str(table))
    monkeypatch.setattr(denoiser, "_THRESHOLD_TABLE", None)
    # the store holds the table's key with other values, and a key the table does not hold
    store = threshold_store()
    denoiser._store_put(key, np.full(5, 7.0), np.full(5, 0.75))
    denoiser._store_put(stored_key, np.full(5, 6.0), np.full(5, 0.125))
    assert len(list(store.iterdir())) == 2
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {key: (np.full(5, 9.0), np.full(5, 0.25))})
    monkeypatch.setattr(denoiser, "_null_tau_pool", no_calibration)
    thresholds, sd = calibrate_thresholds(1, 256, DenoiseConfig())
    assert np.array_equal(thresholds, np.full(5, 9.0)) and np.array_equal(sd, np.full(5, 0.25))
    assert denoiser._THRESHOLD_TABLE is None  # a memo hit reads no table
    denoiser._NULL_CACHE.clear()
    thresholds, sd = calibrate_thresholds(1, 256, DenoiseConfig())
    assert np.array_equal(thresholds, [1.0, 2.0, 3.0, 4.0, 5.0]) and np.array_equal(sd, np.full(5, 0.5))
    assert list(denoiser._NULL_CACHE) == [key]  # the hit is memoised, for this process and its pool workers
    # every call gets its own copies: writing to one changes neither the memo nor the table
    thresholds[:] = -1.0
    sd[:] = -1.0
    again = calibrate_thresholds(1, 256, DenoiseConfig())
    assert np.array_equal(again[0], [1.0, 2.0, 3.0, 4.0, 5.0]) and np.array_equal(again[1], np.full(5, 0.5))
    # a key the table does not hold is read from the store, and memoised
    thresholds, sd = calibrate_thresholds(2, 256, DenoiseConfig())
    assert np.array_equal(thresholds, np.full(5, 6.0)) and np.array_equal(sd, np.full(5, 0.125))
    assert list(denoiser._NULL_CACHE) == [key, stored_key]
    # a key neither holds calibrates
    with pytest.raises(AssertionError, match="calibration entered"):
        calibrate_thresholds(3, 256, DenoiseConfig())


def broken_tables(key, fresh):
    # each file breaks the table; the key's own entry, where there is one,
    # holds values no calibration gives, so serving it would show
    wrong = table_entry(key, fresh[0] + 1.0, fresh[1])
    other = denoiser._memo_key(1, 512, DenoiseConfig())
    return {
        "missing": None,
        "invalid-json": '[{"n_channels": 1, ',
        "wrong-length": [wrong, table_entry(other, [1.0] * 4, [0.5] * 5)],
        "no-window": [wrong, {**table_entry(other, [1.0] * 5, [0.5] * 5), "config": {}}],
        "unknown-field": [wrong, {**table_entry(other, [1.0] * 5, [0.5] * 5), "config": {"window_l": 28, "wavelet": "db8"}}],
        "not-a-list": {"entries": [wrong]},
        # equal to the window of the entry before it, but not an integer
        "float-window": [wrong, {**table_entry(other, [1.0] * 5, [0.5] * 5), "config": {"window_l": 28.0}}],
    }


@pytest.mark.parametrize("case", ["missing", "invalid-json", "wrong-length", "no-window", "unknown-field", "not-a-list", "float-window"])
def test_unreadable_table_falls_back_to_calibration(tmp_path, monkeypatch, threshold_store, case):
    key = denoiser._memo_key(1, 256, DenoiseConfig())
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_THRESHOLD_TABLE", {})
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    fresh = calibrate_thresholds(1, 256, DenoiseConfig())
    content = broken_tables(key, fresh)[case]
    table = tmp_path / "thresholds.json"
    if content is not None:
        table.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    monkeypatch.setattr(denoiser, "_TABLE_PATH", str(table))
    monkeypatch.setattr(denoiser, "_THRESHOLD_TABLE", None)
    denoiser._NULL_CACHE.clear()
    threshold_store()  # calibrate again, not read the first calibration back
    with pytest.warns(RuntimeWarning, match="quantile resolution") as caught:
        thresholds, sd = calibrate_thresholds(1, 256, DenoiseConfig())
    assert len(caught) == 1  # the table's fault raises and warns nothing
    assert denoiser._THRESHOLD_TABLE == {}  # read once, and treated as absent
    assert np.array_equal(thresholds, fresh[0]) and np.array_equal(sd, fresh[1])


# ------------------------------------------------------ per-machine store

# an off-grid key that calibrates in well under a second on one worker
STORE_CONFIG = DenoiseConfig(calibration_reps=150, levels=3)
RESOLUTION_WARNING = "calibration_reps=150 is below 10/p_fa=2000; threshold quantile resolution is coarse"


def calibrate_recording_warnings(m, n, cfg):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = calibrate_thresholds(m, n, cfg)
    return result, [str(w.message) for w in caught]


def test_store_read_is_the_calibration_that_wrote_it(monkeypatch, threshold_store):
    store = threshold_store()
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    key = denoiser._memo_key(2, 500, STORE_CONFIG)
    assert key not in denoiser._table()
    fresh, warned = calibrate_recording_warnings(2, 500, STORE_CONFIG)
    (path,) = store.iterdir()  # one file per key, and no temporary file left
    assert path == Path(denoiser._store_file(key))
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert stored["fingerprint"] == denoiser._fingerprint()
    assert stored["entry"] == denoiser._table_entry(key, *fresh)
    denoiser._NULL_CACHE.clear()
    monkeypatch.setattr(denoiser, "_null_tau_pool", no_calibration)
    hit, hit_warned = calibrate_recording_warnings(2, 500, STORE_CONFIG)
    assert np.array_equal(hit[0], fresh[0]) and np.array_equal(hit[1], fresh[1])
    assert hit_warned == warned == [RESOLUTION_WARNING]  # a hit warns as the calibration did
    assert list(denoiser._NULL_CACHE) == [key]


def test_store_names_a_numpy_integer_key_as_its_python_key():
    key = denoiser._memo_key(2, 500, STORE_CONFIG)
    same = denoiser._memo_key(np.int64(2), np.int64(500), replace(STORE_CONFIG, levels=np.int64(3)))
    assert same == key and denoiser._store_file(same) == denoiser._store_file(key)
    assert json.dumps(denoiser._table_entry(same, [1.0] * 3, [0.5] * 3)) == json.dumps(denoiser._table_entry(key, [1.0] * 3, [0.5] * 3))


def break_store(case, store, path, key, fresh):
    # each case leaves the store unable to serve key; the entries it writes
    # hold values no calibration gives, so serving one would show
    wrong = denoiser._table_entry(key, fresh[0] + 1.0, fresh[1])
    other = denoiser._memo_key(2, 512, STORE_CONFIG)
    fingerprint = denoiser._fingerprint()
    contents = {
        "corrupt": '{"fingerprint": "',
        "not-an-object": json.dumps([fingerprint, wrong]),
        "another-key": json.dumps({"fingerprint": fingerprint, "entry": denoiser._table_entry(other, fresh[0] + 1.0, fresh[1])}),
        "wrong-length": json.dumps({"fingerprint": fingerprint, "entry": {**wrong, "thresholds": wrong["thresholds"][:2]}}),
        "another-fingerprint": json.dumps({"fingerprint": fingerprint + " edited", "entry": wrong}),
    }
    if case in contents:
        store.mkdir(parents=True)
        path.write_text(contents[case], encoding="utf-8")
    elif case == "unwritable":
        # the key's file is a directory: it cannot be read, nor replaced
        (path / "held").mkdir(parents=True)
    elif case == "read-only":
        # read and written as a miss, where permissions bind (not as root)
        store.mkdir(parents=True)
        store.chmod(0o500)
    elif case == "uncreatable":
        # a file where the store's directory would go
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text("not a directory", encoding="utf-8")


BROKEN_STORES = ["corrupt", "not-an-object", "another-key", "wrong-length", "another-fingerprint", "unwritable", "read-only", "uncreatable"]


@pytest.mark.parametrize("case", BROKEN_STORES)
def test_broken_store_falls_back_to_calibration(monkeypatch, threshold_store, case):
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    key = denoiser._memo_key(2, 500, STORE_CONFIG)
    threshold_store()
    fresh = calibrate_thresholds(2, 500, STORE_CONFIG)
    denoiser._NULL_CACHE.clear()
    store = threshold_store()
    path = Path(denoiser._store_file(key))
    break_store(case, store, path, key, fresh)
    try:
        got, warned = calibrate_recording_warnings(2, 500, STORE_CONFIG)
    finally:
        if store.is_dir():
            store.chmod(0o700)
    assert np.array_equal(got[0], fresh[0]) and np.array_equal(got[1], fresh[1])
    assert warned == [RESOLUTION_WARNING]  # the store's fault raises and warns nothing
    if store.is_dir():
        assert not [p for p in store.iterdir() if p.name.endswith(".tmp")]
    if case in ("unwritable", "uncreatable"):
        return
    # a readable store's file was overwritten with the calibration
    denoiser._NULL_CACHE.clear()
    monkeypatch.setattr(denoiser, "_null_tau_pool", no_calibration)
    again = calibrate_thresholds(2, 500, STORE_CONFIG)
    assert np.array_equal(again[0], fresh[0]) and np.array_equal(again[1], fresh[1])


def source_copies(tmp_path, edited):
    # the null's sources, copied, with a comment appended to the one named
    # edited; returns a path to stand for denoiser.__file__
    for name in denoiser._NULL_SOURCES:
        text = Path(denoiser.__file__).with_name(name + ".py").read_text(encoding="utf-8")
        (tmp_path / (name + ".py")).write_text(text + ("# edited\n" if name == edited else ""), encoding="utf-8")
    return str(tmp_path / "denoiser.py")


@pytest.mark.parametrize("changed", ["unchanged", "version", "numpy", *denoiser._NULL_SOURCES])
def test_changing_a_fingerprint_input_misses_the_store(tmp_path, monkeypatch, changed):
    import mvdenoise

    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    calibrate_thresholds(2, 500, STORE_CONFIG)
    denoiser._NULL_CACHE.clear()
    monkeypatch.setattr(denoiser, "_STORE_FINGERPRINT", None)  # computed afresh, as a new process would
    if changed == "version":
        monkeypatch.setattr(mvdenoise, "__version__", mvdenoise.__version__ + ".post1")
    elif changed == "numpy":
        monkeypatch.setattr(np, "__version__", np.__version__ + ".post1")
    elif changed != "unchanged":
        monkeypatch.setattr(denoiser, "__file__", source_copies(tmp_path, changed))
    monkeypatch.setattr(denoiser, "_null_tau_pool", no_calibration)
    if changed == "unchanged":
        calibrate_thresholds(2, 500, STORE_CONFIG)  # a hit: the same code reads its own entry
    else:
        with pytest.raises(AssertionError, match="calibration entered"):
            calibrate_thresholds(2, 500, STORE_CONFIG)


def test_store_is_off_when_its_sources_cannot_be_read(tmp_path, monkeypatch, threshold_store):
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    monkeypatch.setattr(denoiser, "_STORE_FINGERPRINT", None)
    monkeypatch.setattr(denoiser, "__file__", str(tmp_path / "denoiser.py"))  # no sources there
    store = threshold_store()
    fresh, warned = calibrate_recording_warnings(2, 500, STORE_CONFIG)
    assert denoiser._STORE_FINGERPRINT == "" and not store.exists()  # nothing written
    assert warned == [RESOLUTION_WARNING]


_PUT_LOOP = """
import sys
import numpy as np
from mvdenoise import denoiser
from mvdenoise.denoiser import DenoiseConfig

value = float(sys.argv[1])
key = denoiser._memo_key(2, 500, DenoiseConfig(calibration_reps=150, levels=3))
for _ in range(300):
    denoiser._store_put(key, np.full(3, value), np.full(3, value / 8))
"""


def test_two_processes_writing_one_key_leave_a_valid_file(threshold_store):
    store = threshold_store()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    procs = [subprocess.Popen([sys.executable, "-c", _PUT_LOOP, value], env=env, stderr=subprocess.PIPE, text=True) for value in ("1", "2")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    key = denoiser._memo_key(2, 500, STORE_CONFIG)
    assert [p.name for p in store.iterdir()] == [Path(denoiser._store_file(key)).name]  # no temporary file left
    thresholds, sd = denoiser._store_get(key)
    assert thresholds.tolist() in ([1.0] * 3, [2.0] * 3) and np.array_equal(sd, thresholds / 8)


# imports the CLI, takes a table hit and a memo hit, then a miss, and prints
# the store's files each touched; the store is $XDG_CACHE_HOME
_STORE_AUDIT = """
import os
import sys

import numpy as np

root = os.environ["XDG_CACHE_HOME"]
touched = []


def audit(event, args):
    if args and isinstance(args[0], str) and args[0].startswith(root):
        touched.append(event)


sys.addaudithook(audit)
import mvdenoise.cli
from mvdenoise import denoiser
from mvdenoise.denoiser import DenoiseConfig, calibrate_thresholds

imported = list(touched)
calibrate_thresholds(3, 2048, DenoiseConfig())
cfg = DenoiseConfig(calibration_reps=100, levels=3)
denoiser._NULL_CACHE[denoiser._memo_key(2, 500, cfg)] = (np.zeros(3), np.zeros(3))
calibrate_thresholds(2, 500, cfg)
hits = list(touched)
fingerprint = denoiser._STORE_FINGERPRINT
calibrate_thresholds(2, 512, cfg)
print(imported, hits, fingerprint, "open" in touched)
"""


def test_import_memo_hit_and_table_hit_touch_no_store(threshold_store):
    # the store costs nothing until a key misses the memo and the table:
    # not even its fingerprint, which reads the null's sources
    env = dict(os.environ, MVDENOISE_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", _STORE_AUDIT], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] [] None True"  # the miss opens the store, as the hook sees


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
            _, rep = denoise(noise, cfg)
            for k in range(cfg.levels):
                expected = rep.tau[k] if pools[k].shape[1] > 1 else rep.tau[k][:1]
                assert np.allclose(pools[k][r], expected, rtol=1e-9, atol=1e-9)
    # alone in its batch, a replication is scored by the very code denoise
    # scores with: the statistic is equal bit for bit
    for n in (512, 500, 2048):
        for r in range(6):
            g = np.random.default_rng(int(child[r]))
            _, rep = denoise(g.standard_normal((n, m)), cfg)
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
    _, rep = denoise(x, cfg)
    assert np.array_equal(rep.thresholds, calibrate_thresholds(2, 500, cfg)[0])


def test_calibration_does_not_depend_on_noise_covariance():
    # denoise fits the covariance; the thresholds it compares against are the
    # same for every input of a given shape
    cfg = DenoiseConfig(calibration_reps=100, levels=3)
    rng = np.random.default_rng(4)
    white = rng.standard_normal((512, 2))
    mixed = white @ np.array([[3.0, 0.0], [1.5, 0.4]])
    _, a = denoise(white, cfg)
    _, b = denoise(mixed, cfg)
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
        _, rep = denoise(x, cfg)
        kept += sum(int(mask.sum()) for mask in rep.keep_masks)
        total += sum(mask.size for mask in rep.keep_masks)
    rate = kept / total
    assert 0.2 * p_fa < rate < 3.0 * p_fa


def test_gof_false_alarm_rate_at_its_default_key():
    # gof's key (cli.cmd_gof): 512 rows of 4 channels are one window of a
    # one-level null of 1024 samples.  Pure-noise inputs from a stream of
    # their own, fitted as stacks and scored as gof scores its rows, are
    # rejected at p_fa within 3 standard errors: the binomial error of the
    # rate combined with the threshold's Monte Carlo error.  At 1000
    # replications the band's lower edge is below zero, so it bounds the
    # rate from above only.
    n, m, inputs, batch = 512, 4, 4000, 250
    cfg = DenoiseConfig()
    (threshold,), (sd,) = calibrate_thresholds(m, 2 * n, replace(cfg, levels=1, window_l=n))
    rng = np.random.default_rng([62, 1])
    rejected = 0
    for _ in range(inputs // batch):
        x = rng.standard_normal((batch, n, m))
        tau = _scale_taus([x.transpose(1, 0, 2)], mcd_estimate(x), n)[0][:, 0]
        rejected += int((tau >= threshold).sum())
    se = math.sqrt(cfg.p_fa * (1.0 - cfg.p_fa) / inputs + sd**2 / cfg.calibration_reps)
    assert abs(rejected / inputs - cfg.p_fa) <= 3.0 * se


def test_clean_structured_signal_passes_through():
    s = make_signal("heavydoppler3", 2048)
    cfg = DenoiseConfig(calibration_reps=200)
    est, rep = denoise(s.channels, cfg)
    assert average_snr_db(s.channels, est) >= 30.0


def test_noisy_heavydoppler_snr_recovers():
    s = make_signal("heavydoppler3", 2048)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.0, 0.0), rng=np.random.default_rng(1))
    cfg = DenoiseConfig(calibration_reps=300)
    est, rep = denoise(noisy, cfg)
    assert average_snr_db(s.channels, est) > 9.0
    assert est.shape == noisy.shape


def test_masks_reproduce_estimate_bit_identically():
    s = make_signal("heavydoppler3", 1024)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.25, 0.0), rng=np.random.default_rng(3))
    cfg = DenoiseConfig(calibration_reps=150)
    est, rep = denoise(noisy, cfg)
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


def test_denoise_does_not_depend_on_its_seed():
    # the covariance fit draws nothing and calibration has its own stream,
    # so two seeds give the same estimate, statistics, masks and thresholds
    s = make_signal("heavydoppler3", 1024)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.25, 0.0), rng=np.random.default_rng(6))
    a, ra = denoise(noisy, DenoiseConfig(calibration_reps=150, seed=1))
    b, rb = denoise(noisy, DenoiseConfig(calibration_reps=150, seed=2))
    assert np.array_equal(a, b)
    assert np.array_equal(ra.sigma.sigma, rb.sigma.sigma)
    assert np.array_equal(ra.thresholds, rb.thresholds)
    for p, q in zip(ra.tau + ra.keep_masks, rb.tau + rb.keep_masks):
        assert np.array_equal(p, q)


def test_denoise_and_baseline_take_no_generator():
    # both are functions of their input and config alone
    x = np.random.default_rng(6).standard_normal((256, 2))
    for fn in (denoise, baseline_universal):
        with pytest.raises(TypeError, match="rng"):
            fn(x, DenoiseConfig(), rng=np.random.default_rng(0))


def test_denoising_is_nearly_idempotent():
    s = make_signal("heavydoppler3", 2048)
    noisy, _ = add_noise(s, NoiseSpec(3, 0.0, 0.0), rng=np.random.default_rng(6))
    cfg = DenoiseConfig(calibration_reps=300)
    once, _ = denoise(noisy, cfg)
    twice, _ = denoise(once, cfg)
    e1 = float((once**2).sum())
    e2 = float((twice**2).sum())
    assert abs(e2 - e1) / e1 < 0.05


def test_report_contents_consistent():
    x = np.random.default_rng(9).standard_normal((512, 2))
    cfg = DenoiseConfig(calibration_reps=150)
    _, rep = denoise(x, cfg)
    assert rep.thresholds.shape == (5,)
    for k, (tau, mask) in enumerate(zip(rep.tau, rep.keep_masks), start=1):
        assert tau.shape == mask.shape == (512 // 2**k,)
        assert np.isfinite(tau).all()
        assert np.array_equal(mask, tau >= rep.thresholds[k - 1])


def test_univariate_fallback_runs():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(2048)
    cfg = DenoiseConfig(calibration_reps=150)
    est, rep = denoise(x, cfg)
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


def test_signal_with_no_channels_rejected(monkeypatch):
    cfg = DenoiseConfig(calibration_reps=100, window_l=56)
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    with pytest.raises(ValueError, match="at least one channel"):
        denoise(np.zeros((1024, 0)), cfg)
    with pytest.raises(ValueError, match="at least one channel"):
        calibrate_thresholds(0, 1024, cfg)
    # at the default window, 28 per channel, the channel count is named too,
    # before the warning on the replication count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for channels in (0, 2.0, True):
            with pytest.raises(ValueError, match="at least one channel"):
                calibrate_thresholds(channels, 1024, DenoiseConfig(calibration_reps=100))


def test_calibration_refuses_a_length_that_is_not_an_integer(monkeypatch):
    # refused before the memo lookup, where 512.0 would find the key of 512
    cfg = DenoiseConfig(calibration_reps=100, window_l=56)
    monkeypatch.setenv("MVDENOISE_THREADS", "1")
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    for _ in range(2):  # on an empty memo, then on one holding the key of 512
        for n in (512.0, True, "512"):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                calibrate_thresholds(2, n, cfg)
        thresholds, sd = calibrate_thresholds(2, 512, cfg)
    again = calibrate_thresholds(2, np.int64(512), cfg)  # numpy integers are integers
    assert np.array_equal(again[0], thresholds) and np.array_equal(again[1], sd)


def test_config_validation():
    with pytest.raises(ValueError, match="p_fa"):
        DenoiseConfig(p_fa=0.6)
    with pytest.raises(ValueError, match="p_fa"):
        DenoiseConfig(p_fa="0.1")
    with pytest.raises(ValueError, match="p_fa"):
        DenoiseConfig(p_fa=True)
    with pytest.raises(ValueError, match="window_l"):
        DenoiseConfig(window_l=3)
    with pytest.raises(ValueError, match="unknown wavelet filter 'db99'"):
        DenoiseConfig(filter_name="db99")
    # numpy integers are integers
    DenoiseConfig(levels=np.int64(4), window_l=np.int64(56), calibration_reps=np.int32(150), seed=np.uint32(3))


@pytest.mark.parametrize(
    "field, value",
    [
        ("levels", 2.5),
        ("calibration_reps", 150.5),
        ("window_l", 56.0),
        ("seed", -1),
        ("seed", 1.5),
        ("levels", True),
        ("window_l", True),
        ("calibration_reps", True),
        ("seed", True),
        ("seed", False),
    ],
)
def test_config_rejects_a_setting_that_is_not_a_valid_integer(field, value):
    # each once passed the config and failed later, inside denoise, or (a
    # bool, an Integral) was taken as the integer it equals
    with pytest.raises(ValueError, match=field):
        DenoiseConfig(**{field: value})


# -------------------------------------------------------------- baseline


def test_baseline_thresholds_uniform_for_isotropic_noise():
    # with sigma = s^2 I every channel threshold equals sqrt(2 s^2 log N),
    # so pure noise is almost entirely removed
    rng = np.random.default_rng(22)
    x = 2.0 * rng.standard_normal((2048, 2))
    cfg = DenoiseConfig()
    est = baseline_universal(x, cfg)
    assert (est**2).sum() < 0.05 * (x**2).sum()


def test_baseline_kills_subthreshold_coefficients():
    from mvdenoise.robustcov import mcd_estimate
    from mvdenoise.wavelet import dwt_inverse

    rng = np.random.default_rng(24)
    x = rng.standard_normal((1024, 2))
    est = baseline_universal(x, DenoiseConfig())
    # reproduce the contract: per-channel hard threshold from the covariance
    # eigenvalues, largest eigenvalue paired with the noisiest channel
    dec = dwt_forward(x, get_filter("db8"), 5)
    sigma = mcd_estimate(dec.details[0])
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
    est = baseline_universal(noisy, DenoiseConfig())
    assert average_snr_db(s.channels, est) > average_snr_db(s.channels, noisy)


def test_null_fits_each_batch_with_one_mcd_call(monkeypatch):
    # the whole batch is one stack, fitted by one call through the name the
    # pipeline (and a tracer wrapping it) looks up
    m, n = 2, 512
    cfg = DenoiseConfig(calibration_reps=150, levels=3)
    monkeypatch.setattr(denoiser, "_CAL_CHUNK_VALUES", 64 * n * (cfg.window_size(m) + 1) // 2)
    calls = []
    fit = denoiser.mcd_estimate

    def counted(coeffs):
        calls.append(np.shape(coeffs))
        return fit(coeffs)

    monkeypatch.setattr(denoiser, "mcd_estimate", counted)
    monkeypatch.setenv("MVDENOISE_THREADS", "1")  # every batch in this process
    monkeypatch.setattr(denoiser, "_NULL_CACHE", {})
    calibrate_thresholds(m, n, cfg)
    assert calls == [(64, 256, m), (64, 256, m), (22, 256, m)]
