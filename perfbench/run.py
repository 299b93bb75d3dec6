"""Benchmark for mvdenoise: cold CLI calls, warm library calls, and the parallel benchmark matrix.

Run from the repository root:

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 5 --trace 0

Workloads (closed loop, one client; the next operation starts when the last
one has finished):

- ``cli-cold``: fresh-process ``mvdenoise denoise`` of a 2048x3 CSV, then a
  fresh-process ``mvdenoise gof`` of 512x4 CSV rows, at default settings.
- ``library-warm``: in-process ``denoise`` and ``baseline_universal`` calls on
  2048x3 inputs, after set-up has filled the calibration memo.
- ``cli-matrix``: ``mvdenoise benchmark`` with two worker processes, once for
  MGWD and once for the baseline.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process: the matrix's two workers then fill the two
# cores, and single calls do not time BLAS thread hand-offs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 170.0

N, M = 2048, 3
GOF_ROWS, GOF_CHANNELS = 512, 4
MATRIX_ARGS = ["--signals", "heavydoppler3,bumpsblocks4", "--snrs", "0,5", "--rhos", "0,0.75",
               "--seeds", "2", "--n", "2048", "--calib-reps", "300"]
MATRIX_ROWS = 8 * 3 + 8 * 4  # (2 SNRs x 2 rhos x 2 seeds) cells x channels, per signal
MATRIX_WORKERS = min(2, os.cpu_count() or 1)
# Pure-noise realisations for the false-alarm check, from a fixed stream: with
# realisations drawn from --seed the 3-se band rejects a correct program for
# about 1 seed in 80 (retained coefficients come in long runs, so the mean
# kept fraction is skewed), and a check that fails on some seeds cannot gate
# every run.
RETENTION_REALISATIONS = 192
RETENTION_STREAM = 20260101


# ---------------------------------------------------------------- machine speed

# The timed loop of library-warm scales each call's wall and CPU time to a
# nominal machine speed: t * REF_NOMINAL_S / ref, where ref is the median time,
# over the same round, of a fixed numpy kernel that never calls the program.
# On a shared host other tenants change the speed of a CPU-bound process by up
# to a third within a minute: one warm denoise call took 18 to 30 ms in
# 3-second windows of one run.  The kernel, run between the calls, slows with
# them, and the scaled times spread a third as much as the raw ones.  A CLI
# process cannot be interleaved with the kernel: timed before and after a
# matrix run, or beside it, the kernel tracked the program worse than no
# scaling, so CLI times are reported as measured.
REF_NOMINAL_S = 0.010


class MachineSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.windows = rng.standard_normal((400, 85)).astype(np.float32)
        self.rows = rng.standard_normal((1024, 6))
        self.blocks = rng.standard_normal((500, 6, 6)) + 6.0 * np.eye(6)

    def kernel_s(self) -> float:
        """One pass of sorts, small matrix products and inverses, and interpreter work."""
        t0 = time.perf_counter()
        for _ in range(5):
            np.sort(self.windows, axis=1)
            self.rows @ self.rows.T[:, :300]
            np.linalg.inv(self.blocks)
            acc = 0.0
            for i in range(3000):
                acc += i * 0.5
        return time.perf_counter() - t0


# ---------------------------------------------------------------- processes


def program_env(workers: int = 1) -> dict:
    env = dict(os.environ, MVDENOISE_THREADS=str(workers))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_process(argv: list, workers: int = 1) -> dict:
    """Run one process to completion, killed after OP_TIMEOUT_S; also returns the children's rusage so far."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(workers), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"wall": wall, "rc": proc.returncode, "stdout": out, "stderr": err, "usage": usage}


class ProgramRunner:
    """Runs CLI processes; rusage deltas of RUSAGE_CHILDREN attribute CPU to each one."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = trace_dir
        self.usage = resource.getrusage(resource.RUSAGE_CHILDREN)

    def cli(self, args: list, workers: int = 1, traced: bool = False) -> dict:
        if traced:
            argv = [sys.executable, str(HERE / "tracing.py"), "shim", str(self.trace_dir), "--", *args]
        else:
            argv = [sys.executable, "-m", "mvdenoise.cli", *args]
        res = run_process(argv, workers)
        before, after = self.usage, res["usage"]
        self.usage = after
        res["cpu"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        # ru_maxrss of RUSAGE_CHILDREN is the largest child so far; in an
        # untraced run every child is a program process
        res["maxrss_mb"] = after.ru_maxrss / 1024.0
        return res


def start_check(runner: ProgramRunner) -> None:
    res = runner.cli(["--help"])
    if res["rc"] != 0:
        raise RuntimeError(f"mvdenoise CLI did not start: {res['stderr'][-300:]}")


def import_seconds() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mvdenoise.cli"], cwd=ROOT, env=program_env(), check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(work: Path, keys: list, denoise_config: dict, inputs: dict, csv_path: Path) -> dict:
    np.savez(work / "probe_inputs.npz", **inputs)
    spec = {"keys": keys, "denoise_config": denoise_config, "inputs_npz": str(work / "probe_inputs.npz"),
            "csv": str(csv_path)}
    (work / "probe.json").write_text(json.dumps(spec))
    res = run_process([sys.executable, str(HERE / "tracing.py"), "probe", str(work / "probe.json")])
    if res["rc"] != 0:
        raise RuntimeError(f"layer probe failed: {res['stderr'][-500:]}")
    return json.loads(res["stdout"].strip().splitlines()[-1])


def read_trace(trace_dir: Path) -> dict:
    totals: dict = {}
    for f in trace_dir.glob("*.json"):
        for name, (calls, secs) in json.loads(f.read_text()).items():
            slot = totals.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += secs
    for f in trace_dir.glob("*.json"):
        f.unlink()
    return totals


# ---------------------------------------------------------------- inputs


def noise_input(rng, n, m, rho):
    r = np.full((m, m), rho)
    np.fill_diagonal(r, 1.0)
    scales = rng.uniform(0.5, 2.0, size=m)
    return rng.standard_normal((n, m)) @ np.linalg.cholesky(r).T * scales


def signal_input(seed, name, n, snr, rho, stream):
    signal = make_signal(name, n)
    noisy, psi = add_noise(signal, NoiseSpec(signal.n_channels, rho, snr), rng=np.random.default_rng([seed, *stream]))
    return {"x": noisy, "clean": signal.channels, "noise": psi, "snr": snr, "rho": rho}


def stratified_noise(seed, n, m, rho):
    """Gaussian-shaped rows whose squared lengths sit at the chi-square quantiles.

    A plain random draw is rejected by a correct test at rate p_fa; these rows
    have the null law without its sampling scatter, so ``gof`` must accept them.
    """
    rng = np.random.default_rng([seed, 3])
    u = rng.standard_normal((n, m))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    q = stats.chi2.ppf((rng.permutation(n) + 0.5) / n, df=m)
    r = np.full((m, m), rho)
    np.fill_diagonal(r, 1.0)
    return (np.sqrt(q)[:, None] * u) @ np.linalg.cholesky(r).T


def write_input_csv(path: Path, x) -> Path:
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header="c" + ",c".join(str(i + 1) for i in range(x.shape[1])),
               comments="")
    return path


def reference_transform(fails: list) -> checks.ReferenceTransform:
    ref = checks.ReferenceTransform(N, 5, checks.daubechies_lowpass(8))
    fails += ref.verify()
    return ref


# ---------------------------------------------------------------- workloads


def cli_cold(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    fails: list = []
    runner = ProgramRunner(work / "trace")
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        start_check(runner)
        den = signal_input(seed, "heavydoppler3", N, 0.0, 0.75, (1,))
        gof_x = signal_input(seed, "bumpsblocks4", GOF_ROWS, 0.0, 0.75, (2,))["x"]
        den_csv = write_input_csv(work / "noisy.csv", den["x"])
        clean_csv = write_input_csv(work / "clean.csv", den["clean"])
        gof_csv = write_input_csv(work / "gof.csv", gof_x)
        setups.append(time.perf_counter() - t0)

    denoise_args = ["denoise", str(den_csv), "--clean", str(clean_csv), "--out", str(work / "run")]
    ops = [("denoise", denoise_args), ("gof", ["gof", str(gof_csv), "--json"])]
    if trace:
        noise_csv = write_input_csv(work / "gof_noise.csv", stratified_noise(seed, GOF_ROWS, GOF_CHANNELS, 0.75))
        ops.append(("gof-noise", ["gof", str(noise_csv), "--json"]))
    results = {name: [] for name, _ in ops}
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        for name, args in ops:
            res = runner.cli(args, traced=trace)
            attempted += 1
            failed += res["rc"] != 0
            if res["rc"] != 0:
                fails.append(f"{name} exited {res['rc']}: {res['stderr'][-300:]}")
            results[name].append(res)
        if time.perf_counter() - t_start >= seconds:
            break

    ref = reference_transform(fails)
    for res in results["denoise"][:1]:
        if res["rc"] == 0:
            fails += check_cli_denoise(den, work / "run", ref)
    expected = {"gof": "H1_signal", "gof-noise": "H0_noise"}
    for name in results:
        for res in results[name][:1]:
            if name in expected and res["rc"] == 0:
                fails += checks.check_gof(json.loads(res["stdout"].strip().splitlines()[-1]), expected[name])

    if trace:
        shapes = {"x0": den["x"]}
        keys = [key(M, N, {}), key(GOF_CHANNELS, 2 * GOF_ROWS, {"window_l": GOF_ROWS, "levels": 1})]
        layers = layer_metrics(probe(work, keys, {}, shapes, den_csv), read_trace(runner.trace_dir), attempted)
        detail = {"op_wall_s": {k: [r["wall"] for r in v] for k, v in results.items()}}
        return finish(attempted, failed, fails, layers, detail)
    denoised = read_denoised(work / "run")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "mgwd_s": process_median(results["denoise"], "wall"),
        "aux_s": process_median(results["gof"], "wall"),
        "mgwd_cpu_s": process_median(results["denoise"], "cpu"),
        "mgwd_snr_db": (checks.snr_db(den["clean"], denoised), "dB"),
        "peak_rss_mb": (max(r["maxrss_mb"] for rs in results.values() for r in rs), "MB"),
    }
    return finish(attempted, failed, fails, metrics)


def read_denoised(run_dir: Path):
    return np.loadtxt(run_dir / "denoised.csv", delimiter=",", comments="#")


def check_cli_denoise(inp: dict, run_dir: Path, ref) -> list:
    report = json.loads((run_dir / "report.json").read_text())
    est = read_denoised(run_dir)
    masks = [np.asarray(m, dtype=bool) for m in report["keep_masks"]]
    sigma = np.asarray(report["sigma"])
    thresholds = np.asarray(report["thresholds"])
    window_l = 28 * M
    fails = checks.check_denoise(inp["x"], inp["clean"], inp["noise"], est, masks, sigma, thresholds, ref, window_l)
    own_tau = checks.window_statistics(ref.details(inp["x"]), sigma, window_l)
    for k, (summary, t) in enumerate(zip(report["tau_summary"], own_tau), start=1):
        mine = (t.min(), np.median(t), t.max())
        theirs = (summary["min"], summary["median"], summary["max"])
        if not np.allclose(mine, theirs, rtol=checks.TAU_RTOL, atol=checks.TAU_RTOL):
            fails.append(f"scale {k}: tau summary {theirs} != textbook {mine}")
    if abs(report["snr_average_db"] - checks.snr_db(inp["clean"], est)) > 1e-9:
        fails.append("report.json snr_average_db differs from the SNR of denoised.csv")
    base = baseline_universal(inp["x"], DenoiseConfig(seed=0))
    fails += checks.check_baseline(inp["x"], base, ref)
    fails += checks.check_beats_baseline(checks.snr_db(inp["clean"], est), checks.snr_db(inp["clean"], base),
                                         "heavydoppler3 rho=0.75 0 dB")
    sample = dict(inp, estimate=est, masks=masks, sigma=sigma, thresholds=thresholds, tau=own_tau,
                  window_l=window_l, baseline=base)
    fails += [f"self-test: check missed '{p}'" for p in checks.self_test(sample, ref)]
    return fails


def library_inputs(seed: int) -> list:
    signals = [signal_input(seed, "heavydoppler3", N, snr, rho, (10, int(snr), int(rho * 100), rep))
               for snr in (0.0, 5.0, 10.0) for rho in (0.0, 0.75) for rep in range(2)]
    noises = [{"x": noise_input(np.random.default_rng([seed, 20, j]), N, M, (0.0, 0.75)[j % 2]), "clean": None}
              for j in range(12)]
    for inp in noises:
        inp["noise"] = inp["x"]
    return signals + noises


def library_warm(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    fails: list = []
    cfg = DenoiseConfig(seed=0)
    t0 = time.perf_counter()
    inputs = library_inputs(seed)
    denoise(inputs[0]["x"], cfg)  # fills the calibration memo for (M=3, N=2048)
    setup = time.perf_counter() - t0
    speed = MachineSpeed()

    counters: dict = {}
    if trace:
        tracing.install(counters)
    outputs: list = [None] * len(inputs)
    d_wall, d_cpu, b_wall, scales = [], [], [], []
    in_denoise: dict = {}  # layer seconds spent inside denoise calls, traced runs only
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        round_start, refs = len(d_wall), []
        for i, inp in enumerate(inputs):
            attempted += 2
            before = {name: slot[1] for name, slot in counters.items()}
            c0, w0 = time.process_time(), time.perf_counter()
            est, rep = denoise(inp["x"], cfg)
            w1, c1 = time.perf_counter(), time.process_time()
            for name, secs in before.items():
                in_denoise[name] = in_denoise.get(name, 0.0) + counters[name][1] - secs
            base = baseline_universal(inp["x"], cfg)
            w2 = time.perf_counter()
            d_wall.append(w1 - w0)
            d_cpu.append(c1 - c0)
            b_wall.append(w2 - w1)
            refs.append(speed.kernel_s())
            if outputs[i] is None:
                outputs[i] = (est, rep, base)
            elif not (np.array_equal(est, outputs[i][0]) and np.array_equal(base, outputs[i][2])):
                fails.append(f"input {i}: repeated call with the same seed gave a different output")
        scales += [REF_NOMINAL_S / statistics.median(refs)] * (len(d_wall) - round_start)
        if trace or time.perf_counter() - t_start >= seconds:
            break
    loop_counters = {name: list(slot) for name, slot in counters.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = reference_transform(fails)

    mgwd_db, snr_pairs = [], []
    for inp, (est, rep, base) in zip(inputs, outputs):
        fails += checks.check_denoise(inp["x"], inp["clean"], inp["noise"], est, rep.keep_masks, rep.sigma.sigma,
                                      rep.thresholds, ref, cfg.window_size(M), rep.tau)
        fails += checks.check_baseline(inp["x"], base, ref)
        if inp["clean"] is None:
            continue
        mgwd_db.append(checks.snr_db(inp["clean"], est))
        if inp["rho"] == 0.75 and inp["snr"] == 0.0:
            snr_pairs.append((mgwd_db[-1], checks.snr_db(inp["clean"], base)))
    fails += checks.check_beats_baseline(*np.mean(snr_pairs, axis=0), "heavydoppler3 rho=0.75 0 dB")
    est, rep, base = outputs[0]
    sample = dict(inputs[0], estimate=est, masks=rep.keep_masks, sigma=rep.sigma.sigma, thresholds=rep.thresholds,
                  tau=rep.tau, window_l=cfg.window_size(M), baseline=base)
    fails += [f"self-test: check missed '{p}'" for p in checks.self_test(sample, ref)]

    if trace:
        fails += check_false_alarms(cfg)
        shapes = {f"x{i}": inputs[i]["x"] for i in (0, 2, 12, 13)}
        csv_path = write_input_csv(work / "input.csv", inputs[0]["x"])
        layers = layer_metrics(probe(work, [key(M, N, {})], {}, shapes, csv_path), loop_counters, attempted)
        parts = {name: 1e3 * secs / len(d_wall) for name, secs in in_denoise.items()}
        standalone = ("wavelet.dwt_forward_ms", "robustcov.mcd_data_ms", "gofstat.reference_cdf_ms",
                      "wavelet.dwt_inverse_ms")
        detail = {"denoise_call_mean_ms": 1e3 * statistics.fmean(d_wall),
                  "in_call_layer_ms": parts, "in_call_layer_sum_ms": sum(parts.values()),
                  "standalone_layer_sum_ms": sum(layers[name][0] for name in standalone),
                  "probe_denoise_warm_ms": layers["denoiser.denoise_warm_ms"][0]}
        return finish(attempted, failed, fails, layers, detail)
    metrics = {
        "setup_s": (setup, "s"),
        "mgwd_s": (statistics.median(t * f for t, f in zip(d_wall, scales)), "s"),
        "aux_s": (statistics.median(t * f for t, f in zip(b_wall, scales)), "s"),
        "mgwd_cpu_s": (statistics.median(t * f for t, f in zip(d_cpu, scales)), "s"),
        "mgwd_snr_db": (statistics.fmean(mgwd_db), "dB"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return finish(attempted, failed, fails, metrics)


def check_false_alarms(cfg) -> list:
    keep = []
    for j in range(RETENTION_REALISATIONS):
        x = noise_input(np.random.default_rng([RETENTION_STREAM, j]), N, M, (0.0, 0.75)[j % 2])
        _, report = denoise(x, cfg)
        keep.append(report.retained_fraction())
    shrunk = [N // 2**k < cfg.window_size(M) + 1 for k in range(1, cfg.levels + 1)]
    return checks.check_retention(np.array(keep), cfg.p_fa, report.null_retention_sd, cfg.calibration_reps, shrunk)


def read_results(run_dir: Path) -> list:
    with open(run_dir / "results.csv", encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def cli_matrix(seed: int, seconds: float, trace: bool, work: Path) -> dict:
    fails: list = []
    runner = ProgramRunner(work / "trace")
    setups = []
    for _ in range(3):
        t0 = time.perf_counter()
        start_check(runner)
        setups.append(time.perf_counter() - t0)

    def matrix(method, workers, traced=False):
        out = work / f"{method}-{workers}"
        args = ["benchmark", *MATRIX_ARGS, "--methods", method, "--seed", str(seed), "--out", str(out)]
        return runner.cli(args, workers=workers, traced=traced), out

    results = {"mgwd": [], "baseline": []}
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        for method in results:
            res, out = matrix(method, MATRIX_WORKERS, traced=trace)
            attempted += 1
            failed += res["rc"] != 0
            if res["rc"] != 0:
                fails.append(f"{method} matrix exited {res['rc']}: {res['stderr'][-300:]}")
            results[method].append(res)
        if time.perf_counter() - t_start >= seconds:
            break

    rows = {}
    for method in results:
        rows[method] = read_results(work / f"{method}-{MATRIX_WORKERS}")
        fails += checks.check_matrix(rows[method], method, MATRIX_ROWS)

    def mean_snr(method):
        return statistics.fmean(float(r["output_snr_db"]) for r in rows[method]
                                if r["signal"] == "heavydoppler3" and r["rho"] == "0.75" and float(r["input_snr_db"]) == 0)

    fails += checks.check_beats_baseline(mean_snr("mgwd"), mean_snr("baseline"), "matrix heavydoppler3 rho=0.75 0 dB")

    if trace:
        traced = read_trace(runner.trace_dir)
        serial = {}
        for method in results:
            res, out = matrix(method, 1)
            serial[method] = res["wall"]
            if res["rc"] != 0:
                fails.append(f"serial {method} matrix exited {res['rc']}")
            elif (out / "results.csv").read_bytes() != (work / f"{method}-{MATRIX_WORKERS}" / "results.csv").read_bytes():
                fails.append(f"{method} matrix: parallel results.csv differs from the serial run's")
        shapes = {"x0": signal_input(seed, "heavydoppler3", N, 0.0, 0.75, (1,))["x"],
                  "x1": signal_input(seed, "bumpsblocks4", N, 0.0, 0.75, (1,))["x"]}
        csv_path = write_input_csv(work / "input.csv", shapes["x0"])
        keys = [key(3, N, {"calibration_reps": 300}), key(4, N, {"calibration_reps": 300})]
        layers = layer_metrics(probe(work, keys, {"calibration_reps": 300}, shapes, csv_path), traced, attempted)
        parallel = sum(r[0]["wall"] for r in results.values())
        detail = {"op_wall_s": {k: [r["wall"] for r in v] for k, v in results.items()},
                  "matrix_serial_s": sum(serial.values()), "matrix_parallel_s": parallel,
                  "matrix_speedup": sum(serial.values()) / parallel,
                  "serial_wall_s": serial}
        return finish(attempted, failed, fails, layers, detail)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "mgwd_s": process_median(results["mgwd"], "wall"),
        "aux_s": process_median(results["baseline"], "wall"),
        "mgwd_cpu_s": process_median(results["mgwd"], "cpu"),
        "mgwd_snr_db": (statistics.fmean(float(r["output_snr_db"]) for r in rows["mgwd"]), "dB"),
        "peak_rss_mb": (max(r["maxrss_mb"] for rs in results.values() for r in rs), "MB"),
    }
    return finish(attempted, failed, fails, metrics)


# ---------------------------------------------------------------- metrics


def process_median(results: list, field: str):
    return statistics.median(r[field] for r in results), "s"


def key(m: int, n: int, config: dict) -> dict:
    return {"m": m, "n": n, "config": config}


def layer_metrics(p: dict, traced: dict, ops: int) -> dict:
    """Per-layer metrics from the probe's single-call timings and the traced operations' counters."""
    calibrate_s = sum(p["calibrate_s_per_key"])
    mcd_ms = sum(p["mcd_estimate_ms_per_key"])
    mcd_calls, mcd_secs = traced.get("robustcov.mcd_estimate", (0, 0.0))
    return {
        "wavelet.dwt_forward_ms": (p["dwt_forward_ms"], "ms"),
        "wavelet.dwt_inverse_ms": (p["dwt_inverse_ms"], "ms"),
        "robustcov.mcd_estimate_ms": (mcd_ms, "ms"),
        "robustcov.mcd_data_ms": (p["mcd_data_ms"], "ms"),
        "robustcov.mcd_calls": (mcd_calls / ops, "count"),
        "robustcov.mcd_seconds_per_op": (mcd_secs / ops, "s"),
        "gofstat.reference_cdf_ms": (p["reference_cdf_ms"], "ms"),
        "denoiser.calibrate_s": (calibrate_s, "s"),
        "denoiser.calib_ms_per_rep": (1e3 * calibrate_s / p["reps"], "ms"),
        "denoiser.calib_non_mcd_s": (calibrate_s - p["reps"] * mcd_ms / 1e3, "s"),
        "denoiser.denoise_warm_ms": (p["denoise_warm_ms"], "ms"),
        "denoiser.score_ms": (p["denoise_warm_ms"] - p["dwt_forward_ms"] - p["mcd_data_ms"] - p["dwt_inverse_ms"], "ms"),
        "denoiser.baseline_ms": (p["baseline_ms"], "ms"),
        "denoiser.windows_scored": (p["windows_scored"], "count"),
        "denoiser.calib_windows_scored": (p["calib_windows_scored"], "count"),
        "denoiser.denoise_peak_alloc_mb": (p["denoise_peak_alloc_mb"], "MB"),
        "denoiser.calib_peak_alloc_mb": (p["calib_peak_alloc_mb"], "MB"),
        "cli.import_s": (import_seconds(), "s"),
        "cli.read_csv_ms": (p["read_csv_ms"], "ms"),
        "cli.write_csv_ms": (p["write_csv_ms"], "ms"),
    }


def finish(attempted, failed, fails, metrics, detail=None) -> dict:
    return {"attempted": attempted, "failed": failed, "fails": fails, "metrics": metrics, "detail": detail}


WORKLOADS = {"cli-cold": cli_cold, "library-warm": library_warm, "cli-matrix": cli_matrix}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    (work / "trace").mkdir()
    try:
        res = WORKLOADS[args.workload](abs(args.seed), args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in res["fails"]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    if res["detail"] is not None:
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps(res["detail"], indent=1) + "\n")
    print(json.dumps({
        "correct": not res["fails"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "mvdenoise" / "__init__.py").is_file():
        print(f"perfbench: no mvdenoise package under {SRC}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import numpy as np
    from scipy import stats

    import checks
    import tracing
    from mvdenoise import DenoiseConfig, baseline_universal, denoise
    from mvdenoise.siggen import NoiseSpec, add_noise, make_signal

    sys.exit(main())
