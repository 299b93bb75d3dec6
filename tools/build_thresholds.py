"""Build ``src/mvdenoise/thresholds.json``, the calibrated thresholds shipped with the package.

Usage: ``python tools/build_thresholds.py [OUTPUT]`` (default: the package's
own ``thresholds.json``).

Runs ``calibrate_thresholds`` of the ``src/`` tree next to this script over
``GRID``, with the shipped table and the per-machine store bypassed so that
every key is calibrated afresh and nothing is written to the store, and
writes one JSON entry per key in the format of ``denoiser._table_entry``:
its channel count, its length, the fields of its memo-key config that
differ from ``DenoiseConfig()``, and its per-scale ``thresholds`` and
``null_retention_sd``.  ``json`` writes each float as its shortest repr,
which reads back as the same float64.  The
three BLAS thread variables are set to 1 before numpy loads: with them
unset, the (8, 16384) key took 58 to 135 s on 2 cores, against about 14 s.
On one machine every rebuild writes the same bytes.
"""

import json
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# (channels, length, config fields that differ from DenoiseConfig())
GRID = [
    # denoise at the default settings
    *((m, 2**k, {}) for m in range(1, 9) for k in range(8, 15)),
    # gof's key (cli.cmd_gof) for r rows: one level of 2r samples, the whole block one window
    *((m, 2 * 2**k, {"levels": 1, "window_l": 2**k}) for m in range(1, 9) for k in range(7, 14)),
]


def main(argv: list) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(REPO / "src"))
    # numpy loads here, after the BLAS variables are set
    from mvdenoise import denoiser
    from mvdenoise.denoiser import DenoiseConfig, calibrate_thresholds

    out = Path(argv[0]) if argv else REPO / "src" / "mvdenoise" / "thresholds.json"
    # calibrate every key, whatever the current table and this machine's store hold
    denoiser._THRESHOLD_TABLE = {}
    denoiser._STORE_FINGERPRINT = ""
    entries = []
    for m, n, fields in GRID:
        t0 = time.perf_counter()
        key = denoiser._memo_key(m, n, DenoiseConfig(**fields))
        entries.append(denoiser._table_entry(key, *calibrate_thresholds(*key)))
        print(f"({m}, {n}, {fields}): {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    text = "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n"
    out.write_text(text, encoding="utf-8")
    print(f"wrote {len(entries)} keys, {len(text.encode())} bytes, to {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
