"""Command-line front end: generate test data, denoise CSVs, run the GoF test,
and execute benchmark matrices.

CSV convention: one row per time index, one column per channel, optional single
header row (a first line that is not numeric and has one cell per column),
UTF-8 with or without a byte-order mark, '.' decimal separator.  Lines
starting with '#' are comments; every emitted CSV carries a
'# manifest: manifest.json' reference to the run manifest written next to it.

Every output is written as a new file: an existing file of the same name is
removed first, never truncated and rewritten.  So a hard link to an earlier
output keeps the earlier bytes, and an output path that is a symlink is
replaced by a regular file, not written through.

Exit codes: 0 ok, 2 input parse failure, 3 invalid signal geometry, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import itertools
import json
import sys
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

from . import __version__
from .denoiser import (
    DenoiseConfig,
    _pool_map,
    _replication_values,
    _scale_taus,
    baseline_universal,
    calibrate_thresholds,
    denoise,
    worker_count,
)
from .gofstat import gof_test
from .robustcov import mcd_estimate
from .siggen import NoiseSpec, add_noise, average_snr_db, make_signal, snr_db

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_USAGE = 64

MANIFEST_NAME = "manifest.json"
# cells write_csv formats at once
_WRITE_CHUNK_CELLS = 1 << 16
METHODS = ("mgwd", "baseline")


class UsageError(Exception):
    pass


class ParseFailure(Exception):
    pass


class GeometryError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; route those to the usage exit code
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def read_csv(path) -> np.ndarray:
    """Parse a CSV of one row per time index; auto-detects a single header row.

    All cells convert in one numpy call, which parses each as ``float()``
    does; only a file that fails it is walked line by line, to name its
    first fault.
    """
    try:
        # utf-8-sig drops a leading byte-order mark, which would otherwise
        # make the first data row non-numeric and so be taken for a header
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    # (line number, cells) of each line that is not blank or a comment; a
    # cell keeps its spaces, which float() ignores as strip() would
    lines = [(i, s.split(",")) for i, s in enumerate(map(str.strip, text.splitlines()), start=1) if s and s[0] != "#"]
    # a first line that is not numeric is the header
    header = lines[0] if lines and not all(map(_is_float, lines[0][1])) else None
    rows = [cells for _, cells in lines[1 if header else 0 :]]
    if rows and (header is None or len(header[1]) == len(rows[0])):
        try:
            return np.array(rows, dtype=np.float64)
        except ValueError:
            pass  # a non-numeric cell or a ragged row: named below
    raise ParseFailure(_first_fault(path, lines, header))


def _first_fault(path, lines, header) -> str:
    # the first fault of read_csv's lines, in line order: a non-numeric cell,
    # a header whose width is not the first row's, or a ragged row
    width = None
    for lineno, cells in lines[1 if header else 0 :]:
        bad = next((i for i, c in enumerate(cells) if not _is_float(c)), None)
        if bad is not None:
            return f"{path}: non-numeric cell at row {lineno}, column {bad + 1}"
        if width is None:
            width = len(cells)
            if header and len(header[1]) != width:
                return f"{path}: row {header[0]} is not numeric, and as a header it would have {width} cells, not {len(header[1])}"
        elif len(cells) != width:
            return f"{path}: row {lineno} has {len(cells)} columns, expected {width}"
    return f"{path}: no numeric rows found"


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _new_file(path):
    # Truncating an existing file and writing it again makes ext4
    # (auto_da_alloc) start a writeback when it is closed, which made a rerun
    # of `benchmark` into the same --out spend 0.35-0.56 s writing instead of
    # 0.001 s.  Renaming over the old file triggers the same flush; creating a
    # new one does not.  Nothing here calls fsync, so no durability is lost.
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "x", encoding="utf-8", newline="\n")


def write_csv(path, data) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    n, m = data.shape
    # one format per chunk of rows, "%.17g" being format(v, ".17g") for a
    # float; chunks keep a long signal's text and floats to a few MB at a time
    row = ",".join(["%.17g"] * m) + "\n"
    step = max(1, _WRITE_CHUNK_CELLS // max(m, 1))
    with _new_file(path) as f:
        f.write(f"# manifest: {MANIFEST_NAME}\n")
        for lo in range(0, n, step):
            block = data[lo : lo + step]
            f.write(row * len(block) % tuple(block.ravel().tolist()))


def _digest(arr: np.ndarray) -> str:
    import hashlib  # here, not at the top: _hashlib loads OpenSSL, 2-6 ms a gof never uses

    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def write_manifest(out_dir: Path, command: str, config: DenoiseConfig | None, input_digest: str, extra=None) -> None:
    manifest = {
        "command": command,
        "config": dataclasses.asdict(config) if config else None,
        "input_digest": input_digest,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    with _new_file(out_dir / MANIFEST_NAME) as f:
        f.write(json.dumps(manifest, indent=2, default=str) + "\n")


def _seed(text: str) -> int:
    # generate and benchmark draw their noise from --seed, and its default 0
    # makes each run reproducible; denoise and gof draw nothing, so take none
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# flag -> (DenoiseConfig field, type); a flag left out keeps the field's default
_CONFIG_FLAGS = {
    "--filter": ("filter_name", str),
    "--levels": ("levels", int),
    "--window-l": ("window_l", int),
    "--pfa": ("p_fa", float),
    "--calib-reps": ("calibration_reps", int),
}


def _add_config_flags(p: argparse.ArgumentParser, flags=tuple(_CONFIG_FLAGS)) -> None:
    for flag in flags:
        field, kind = _CONFIG_FLAGS[flag]
        p.add_argument(flag, dest=field, type=kind, default=argparse.SUPPRESS)


def _config_from(args) -> DenoiseConfig:
    # every subcommand that calibrates starts here, so a bad MVDENOISE_THREADS
    # is a usage error before any work
    given = {field: getattr(args, field) for field, _ in _CONFIG_FLAGS.values() if hasattr(args, field)}
    try:
        config = DenoiseConfig(**given)
        worker_count(1)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _parse_snr_spec(text: str) -> object:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"invalid SNR spec {text!r}") from None
    if not vals:
        raise UsageError("empty SNR spec")
    return vals[0] if len(vals) == 1 else vals


def _named_signal(name: str, n: int):
    try:
        return make_signal(name, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_generate(args) -> int:
    signal = _named_signal(args.name, args.n)
    try:
        spec = NoiseSpec(signal.n_channels, args.rho, _parse_snr_spec(args.snr))
        noisy, psi = add_noise(signal, spec, rng=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, "generate", None, _digest(signal.channels), extra={"seed": args.seed, "signal": args.name, "n": args.n, "rho": args.rho, "snr": args.snr})
    write_csv(out_dir / "clean.csv", signal.channels)
    write_csv(out_dir / "noisy.csv", noisy)
    write_csv(out_dir / "noise.csv", psi)
    print(f"wrote clean.csv noisy.csv noise.csv in {out_dir}")
    return EXIT_OK


def _median(values: np.ndarray) -> float:
    # np.median's value bit for bit, the mean of the middle pair (of the middle
    # value with itself at an odd count), without its first call importing numpy.ma
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, [lo, hi])
    return float((part[lo] + part[hi]) / 2)


def cmd_denoise(args) -> int:
    cfg = _config_from(args)
    x = read_csv(args.input)
    clean = read_csv(args.clean) if args.clean else None
    if clean is not None:
        # the SNR compares the reference with the estimate, which has the
        # input's shape: reject a reference it cannot score before calibrating
        if clean.shape != x.shape:
            raise GeometryError("clean and estimate must have equal shapes")
        if not np.isfinite(clean).all():
            raise GeometryError("clean reference holds non-finite values")
        if (clean == 0).all(axis=0).any():
            raise GeometryError("clean signal has zero energy")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        estimate, report = denoise(x, cfg)
    except ValueError as exc:
        raise GeometryError(str(exc)) from exc
    write_manifest(out_dir, "denoise", cfg, _digest(x))
    write_csv(out_dir / "denoised.csv", estimate)
    payload = {
        "manifest": MANIFEST_NAME,
        "thresholds": [float(t) for t in report.thresholds],
        "tau_summary": [
            {"scale": k + 1, "min": float(t.min()), "median": _median(t), "max": float(t.max())}
            for k, t in enumerate(report.tau)
        ],
        "keep_masks": [mask.astype(int).tolist() for mask in report.keep_masks],
        "retained_fraction": report.retained_fraction().tolist(),
        "null_retention_sd": report.null_retention_sd.tolist(),
        "sigma": report.sigma.sigma.tolist(),
        "warnings": report.warnings_issued,
    }
    if clean is not None:
        payload["snr_per_channel_db"] = [float(v) for v in snr_db(clean, estimate)]
        payload["snr_average_db"] = average_snr_db(clean, estimate)
    with _new_file(out_dir / "report.json") as f:
        f.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    print(f"wrote denoised.csv report.json in {out_dir}")
    return EXIT_OK


def cmd_gof(args) -> int:
    cfg = _config_from(args)
    x = read_csv(args.input)
    n, m = x.shape
    # the whole dataset is one window: one level of 2n periodic white noise
    # samples holds n iid rows, the covariance is fitted on those same rows,
    # and a window wider than the block scores them all at once.  The rows
    # are scored by the code that scores the null they are compared with.
    key = dataclasses.replace(cfg, levels=1, window_l=n + n % 2)
    # the fit's fallbacks and calibration's warnings go into the output, as
    # denoise's go into its report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sigma = mcd_estimate(x)
            tau = float(_scale_taus([x[:, None]], [sigma], key.window_l)[0][0, 0])
        except ValueError as exc:
            raise GeometryError(str(exc)) from exc
        threshold = float(calibrate_thresholds(m, 2 * n, key)[0][0])
    decision = gof_test(tau, threshold)
    warned = [str(w.message) for w in caught]
    if args.json:
        print(json.dumps({"tau": tau, "threshold": threshold, "decision": decision.value, "n": n, "channels": m,
                          "warnings": warned}))
    else:
        print(f"tau = {tau:.6g}")
        print(f"threshold (p_fa={cfg.p_fa}) = {threshold:.6g}")
        print(f"decision: {decision.value}")
        for message in warned:
            print(f"warning: {message}")
    return EXIT_OK


def _benchmark_cell(params):
    (signal_name, n, method, rho, snr_spec, balanced, rep_index, master_seed, cfg) = params
    signal = make_signal(signal_name, n)
    spec = NoiseSpec(signal.n_channels, rho, snr_spec)
    # seed words must be non-negative; the modulus leaves every rho >= 0 unchanged
    rho_key = int(rho * 1000) % 2**32
    noisy, _ = add_noise(signal, spec, rng=[master_seed, hash_str(signal_name), rho_key, rep_index])
    try:
        if method == "mgwd":
            estimate, _ = denoise(noisy, cfg)
        else:
            estimate = baseline_universal(noisy, cfg)
        per_channel = np.atleast_1d(snr_db(signal.channels, estimate))
        status = "ok"
    except Exception as exc:  # mark the cell, keep the run going
        per_channel = np.full(signal.n_channels, np.nan)
        status = f"error: {exc}"
    input_per_channel = np.atleast_1d(np.asarray(spec.snr_targets(), dtype=np.float64))
    # the last field names the cell's SNR spec for the aggregate; results.csv omits it
    snr_key = tuple(float(v) for v in input_per_channel)
    rows = []
    for ch in range(signal.n_channels):
        rows.append(
            (signal_name, method, rho, balanced, f"C{ch + 1}", input_per_channel[ch], per_channel[ch], rep_index, status, snr_key)
        )
    return rows


def hash_str(s: str) -> int:
    import hashlib  # see _digest

    return int.from_bytes(hashlib.sha256(s.encode()).digest()[:4], "big")


def cmd_benchmark(args) -> int:
    cfg = _config_from(args)
    signals = [s.strip() for s in args.signals.split(",") if s.strip()]
    snrs = [_parse_snr_spec(s) for s in args.snrs.split(";")] if ";" in args.snrs else [_parse_snr_spec(p) for p in args.snrs.split(",")]
    try:
        rhos = [float(r) for r in args.rhos.split(",") if r.strip()]
    except ValueError:
        raise UsageError(f"invalid rho list {args.rhos!r}") from None
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not signals or not methods or not rhos or not snrs:
        raise UsageError("benchmark matrix must name signals, snrs, rhos and methods")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise UsageError(f"unknown method {unknown[0]!r}; choose from {', '.join(METHODS)}")
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")

    channels = {name: _named_signal(name, args.n).n_channels for name in signals}
    channel_counts = sorted(set(channels.values()))
    for m, rho, snr_spec in itertools.product(channel_counts, rhos, snrs):
        spec = NoiseSpec(m, rho, snr_spec)
        try:
            spec.correlation_matrix()
            spec.snr_targets()
        except ValueError as exc:
            raise UsageError(f"{exc} (rho={rho:g}, snr={snr_spec}, {m} channels)") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # only MGWD cells read thresholds; a baseline-only matrix calibrates nothing.
    # Calibration's warnings go into the manifest, as gof's go into its output.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for m in channel_counts if "mgwd" in methods else []:
            try:
                calibrate_thresholds(m, args.n, cfg)
            except ValueError:
                pass  # denoise rejects this geometry: its cells record the error
    warned = list(dict.fromkeys(str(w.message) for w in caught))
    cells = [
        (sig_name, args.n, method, rho, snr_spec, np.isscalar(snr_spec), rep, args.seed, cfg)
        for sig_name, snr_spec, rho, method, rep in itertools.product(signals, snrs, rhos, methods, range(args.seeds))
    ]
    # a cell costs about one calibration replication of its key, so the pool
    # is sized by the window values the cells score (a baseline cell counted
    # as an MGWD one), not by how many cells there are
    values = sum(_replication_values(channels[cell[0]], args.n, cfg) for cell in cells)
    results = [row for rows in _pool_map(_benchmark_cell, cells, values) for row in rows]

    extra = {"seed": args.seed, "signals": signals, "rhos": rhos, "methods": methods, "snrs": str(snrs), "reps": args.seeds, "warnings": warned}
    write_manifest(out_dir, "benchmark", cfg, _digest(np.array([float(len(cells))])), extra=extra)
    with _new_file(out_dir / "results.csv") as f:
        f.write(f"# manifest: {MANIFEST_NAME}\n")
        f.write("signal,method,rho,balanced,channel,input_snr_db,output_snr_db,seed,status\n")
        for r in results:
            f.write(
                f"{r[0]},{r[1]},{r[2]:g},{str(r[3]).lower()},{r[4]},{r[5]:.17g},{r[6]:.17g},{r[7]},{r[8]}\n"
            )

    _write_aggregate(out_dir, results)
    _write_plot_data(out_dir, results)
    print(f"wrote results.csv aggregate.csv and plot data in {out_dir}")
    for message in warned:
        print(f"warning: {message}")
    return EXIT_OK


def _aggregate_rows(results):
    """Mean output SNR per (signal, method, rho, balanced, SNR spec) with per-channel and Avg columns."""
    groups = defaultdict(lambda: defaultdict(list))
    for sig_name, method, rho, balanced, channel, inp, out, rep, status, snr_key in results:
        if not status == "ok":
            continue
        groups[(sig_name, method, rho, balanced, snr_key)][channel].append((inp, out))
    table = []
    for key in sorted(groups):
        channels = sorted(groups[key], key=lambda c: int(c[1:]))
        means = [float(np.mean([o for _, o in groups[key][c]])) for c in channels]
        inputs = [float(np.mean([i for i, _ in groups[key][c]])) for c in channels]
        table.append((key, channels, inputs, means, float(np.mean(means))))
    return table


def _write_aggregate(out_dir: Path, results) -> None:
    table = _aggregate_rows(results)
    with _new_file(out_dir / "aggregate.csv") as f:
        f.write(f"# manifest: {MANIFEST_NAME}\n")
        f.write("signal,method,rho,balanced,channel,mean_input_snr_db,mean_output_snr_db\n")
        for (sig_name, method, rho, balanced, _), channels, inputs, means, avg in table:
            for c, i, m in zip(channels, inputs, means):
                f.write(f"{sig_name},{method},{rho:g},{str(balanced).lower()},{c},{i:.17g},{m:.17g}\n")
            f.write(f"{sig_name},{method},{rho:g},{str(balanced).lower()},Avg,{float(np.mean(inputs)):.17g},{avg:.17g}\n")
    # aligned text table for humans
    with _new_file(out_dir / "aggregate.txt") as f:
        f.write(f"{'signal':<16}{'method':<10}{'rho':>5}  {'bal':<5}  {'input':>8}  per-channel output SNR (dB) -> Avg\n")
        for (sig_name, method, rho, balanced, snr_key), channels, inputs, means, avg in table:
            # an unbalanced spec is shown per channel: two specs can share a mean
            inp = f"{float(np.mean(inputs)):.2f}" if balanced else "/".join(f"{v:g}" for v in snr_key)
            chans = "  ".join(f"{m:6.2f}" for m in means)
            f.write(f"{sig_name:<16}{method:<10}{rho:>5g}  {str(balanced).lower():<5}  {inp:>8}  {chans}  -> {avg:6.2f}\n")


def _write_plot_data(out_dir: Path, results) -> None:
    # one two-column file per (signal, method, rho): mean input SNR vs mean output SNR
    curves = defaultdict(lambda: defaultdict(list))
    for sig_name, method, rho, balanced, channel, inp, out, rep, status, _ in results:
        if status == "ok":
            curves[(sig_name, method, rho)][round(float(inp), 6)].append(float(out))
    for (sig_name, method, rho), pts in sorted(curves.items(), key=str):
        name = f"plot_{sig_name}_{method}_rho{rho:g}.csv"
        with _new_file(out_dir / name) as f:
            f.write(f"# manifest: {MANIFEST_NAME}\n")
            f.write("input_snr_db,mean_output_snr_db\n")
            for inp in sorted(pts):
                f.write(f"{inp:.17g},{float(np.mean(pts[inp])):.17g}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="mvdenoise", description="Multivariate wavelet denoising via a Mahalanobis-distance GoF test")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write clean/noisy/noise CSV triples for a named test signal")
    g.add_argument("name")
    g.add_argument("--n", type=int, default=2048)
    g.add_argument("--snr", default="0")
    g.add_argument("--rho", type=float, default=0.0)
    g.add_argument("--out", default=".")
    g.add_argument("--seed", type=_seed, default=0)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("denoise", help="denoise a CSV signal")
    d.add_argument("input")
    d.add_argument("--clean", default=None, help="optional clean reference CSV for SNR reporting")
    d.add_argument("--out", default=".")
    _add_config_flags(d)
    d.set_defaults(func=cmd_denoise)

    f = sub.add_parser("gof", help="run the multivariate normality test on CSV rows")
    f.add_argument("input")
    f.add_argument("--json", action="store_true")
    _add_config_flags(f, ("--pfa", "--calib-reps"))
    f.set_defaults(func=cmd_gof)

    b = sub.add_parser("benchmark", help="run a signals x SNRs x rhos x methods x seeds matrix")
    b.add_argument("--signals", default="heavydoppler3,bumpsblocks4")
    b.add_argument("--snrs", default="-5,0,5,10", help="comma list of balanced dB values, or ';'-separated per-channel specs")
    b.add_argument("--rhos", default="0,0.75")
    b.add_argument("--methods", default="mgwd,baseline")
    b.add_argument("--seeds", type=int, default=10, help="replications per cell")
    b.add_argument("--n", type=int, default=2048)
    b.add_argument("--out", default="benchmark_out")
    b.add_argument("--seed", type=_seed, default=0)
    _add_config_flags(b)
    b.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GeometryError as exc:
        print(f"invalid signal geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


if __name__ == "__main__":
    sys.exit(main())
