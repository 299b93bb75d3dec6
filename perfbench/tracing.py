"""Per-layer measurements from outside the program.

Two entry points, both run in a fresh interpreter by ``run.py --trace 1``:

``python3 perfbench/tracing.py shim TRACE_DIR -- <mvdenoise CLI arguments>``
    Runs the CLI after wrapping public layer functions (``mcd_estimate``,
    ``dwt_forward``, ``dwt_inverse``, ``reference_cdf``) with call counters
    and timers, and writes each process's totals to ``TRACE_DIR/<pid>.json``.
    Benchmark-matrix workers are forked from the patched process, and dump
    their totals after every cell.

``python3 perfbench/tracing.py probe SPEC.json``
    Times single public calls at a workload's shapes and calibration keys and
    prints one JSON object: cold calibration per key, MCD on white-noise and
    data blocks, forward and inverse DWT, reference CDF, warm ``denoise`` and
    ``baseline_universal``, ``tracemalloc`` peaks, CSV read and write.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

LAYER_FUNCTIONS = {
    "robustcov.mcd_estimate": ("mcd_estimate", ("denoiser", "cli")),
    "wavelet.dwt_forward": ("dwt_forward", ("denoiser",)),
    "wavelet.dwt_inverse": ("dwt_inverse", ("denoiser",)),
    "gofstat.reference_cdf": ("reference_cdf", ("denoiser", "gofstat")),
}


def install(counters: dict) -> None:
    """Wrap each layer function where the program looks it up; counters[name] = [calls, seconds]."""
    import importlib

    for name, (attr, modules) in LAYER_FUNCTIONS.items():
        slot = counters.setdefault(name, [0, 0.0])
        mods = [importlib.import_module(f"mvdenoise.{m}") for m in modules]
        wrapped = _timed(getattr(mods[0], attr), slot)
        for mod in mods:
            setattr(mod, attr, wrapped)


def _timed(fn, slot):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            slot[0] += 1
            slot[1] += time.perf_counter() - t0

    return inner


def run_shim(trace_dir: str, cli_args: list) -> int:
    from mvdenoise import cli

    counters: dict = {}
    install(counters)
    out = Path(trace_dir)

    def dump():
        (out / f"{os.getpid()}.json").write_text(json.dumps(counters))

    cell = cli._benchmark_cell

    @functools.wraps(cell)
    def traced_cell(params):
        try:
            return cell(params)
        finally:
            dump()

    # cmd_benchmark looks the cell function up by name, and pickles it by name
    cli._benchmark_cell = traced_cell
    try:
        return cli.main(cli_args)
    finally:
        dump()


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def windows_per_signal(block_lengths, window_l: int) -> int:
    """Windows scored per signal: one per coefficient, or one per block shorter than the window."""
    return sum(b if b >= window_l + 1 else 1 for b in block_lengths)


def run_probe(spec_path: str) -> dict:
    import numpy as np

    from mvdenoise import DenoiseConfig, baseline_universal, denoise, dwt_forward, dwt_inverse, get_filter, mcd_estimate
    from mvdenoise.cli import read_csv, write_csv
    from mvdenoise.denoiser import calibrate_thresholds
    from mvdenoise.gofstat import make_reference, reference_cdf

    spec = json.loads(Path(spec_path).read_text())
    keys = [(k["m"], k["n"], DenoiseConfig(**k["config"])) for k in spec["keys"]]
    out = {"calibrate_s_per_key": [], "mcd_estimate_ms_per_key": []}
    for m, n, cfg in keys:
        t0 = time.perf_counter()
        calibrate_thresholds(m, n, cfg)
        out["calibrate_s_per_key"].append(time.perf_counter() - t0)
    for i, (m, n, cfg) in enumerate(keys):
        block = np.random.default_rng([7, i]).standard_normal((n // 2, m))
        out["mcd_estimate_ms_per_key"].append(_median_ms(lambda: mcd_estimate(block, np.random.default_rng(0)), 5))
    reps = {cfg.calibration_reps for _, _, cfg in keys}
    if len(reps) != 1:
        raise ValueError("a workload's calibration keys must share one replication count")
    out["reps"] = reps.pop()
    out["calib_windows_scored"] = sum(
        cfg.calibration_reps * windows_per_signal([n // 2**k for k in range(1, cfg.levels + 1)], cfg.window_size(m))
        for m, n, cfg in keys
    )
    m0, n0, cfg0 = keys[0]
    small = DenoiseConfig(**{**spec["keys"][0]["config"], "calibration_reps": 100})
    out["calib_peak_alloc_mb"] = _peak_alloc_mb(lambda: calibrate_thresholds(m0, n0, small))

    cfg = DenoiseConfig(**spec["denoise_config"])
    filt = get_filter(cfg.filter_name)
    arrays = np.load(spec["inputs_npz"])
    per_input = []
    for name in arrays.files:
        x = arrays[name]
        dec = dwt_forward(x, filt, cfg.levels)
        _, report = denoise(x, cfg)
        ys = [report.sigma.quadratic_form(d) for d in dec.details]
        dist = make_reference(x.shape[1])
        calls = {
            "dwt_forward_ms": lambda: dwt_forward(x, filt, cfg.levels),
            "dwt_inverse_ms": lambda: dwt_inverse(dec),
            "mcd_data_ms": lambda: mcd_estimate(dec.details[0], np.random.default_rng(0)),
            "reference_cdf_ms": lambda: [reference_cdf(dist, y) for y in ys],
            "denoise_warm_ms": lambda: denoise(x, cfg),
            "baseline_ms": lambda: baseline_universal(x, cfg),
        }
        # interleaved, so that every call sees the same spells of machine speed
        times = {field: [] for field in calls}
        for _ in range(10):
            for field, fn in calls.items():
                times[field].append(_median_ms(fn, 1))
        row = {field: statistics.median(t) for field, t in times.items()}
        row["windows_scored"] = windows_per_signal([d.shape[0] for d in dec.details], cfg.window_size(x.shape[1]))
        row["denoise_peak_alloc_mb"] = _peak_alloc_mb(lambda: denoise(x, cfg))
        per_input.append(row)
    for field in per_input[0]:
        out[field] = statistics.fmean(p[field] for p in per_input)

    csv_in = Path(spec["csv"])
    data = read_csv(csv_in)
    out["read_csv_ms"] = _median_ms(lambda: read_csv(csv_in), 5)
    out["write_csv_ms"] = _median_ms(lambda: write_csv(csv_in.with_suffix(".probe.csv"), data), 5)
    return out


if __name__ == "__main__":
    if len(sys.argv) >= 4 and sys.argv[1] == "shim" and sys.argv[3] == "--":
        sys.exit(run_shim(sys.argv[2], sys.argv[4:]))
    if len(sys.argv) == 3 and sys.argv[1] == "probe":
        print(json.dumps(run_probe(sys.argv[2])))
        sys.exit(0)
    print("usage: tracing.py shim TRACE_DIR -- ARGS... | tracing.py probe SPEC.json", file=sys.stderr)
    sys.exit(64)
