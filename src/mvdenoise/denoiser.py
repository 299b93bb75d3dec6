"""End-to-end multivariate wavelet denoising pipeline.

The chain: decompose the signal channel-wise, estimate the noise covariance
robustly from the finest-scale coefficients, calibrate a per-scale decision
threshold by Monte Carlo for a target false-alarm probability (simulating the
statistic with an estimated covariance, as it is computed on data; the
default settings' thresholds ship precomputed, and every other key is
calibrated once per machine and stored in the user's cache), slide a window
over each detail block scoring the local empirical distribution of squared
Mahalanobis distances against the reference law, zero every coefficient whose
window looks like pure noise, and reconstruct.  A channel-wise
universal-threshold baseline is included for comparison runs.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from functools import partial
from numbers import Integral, Real

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import gofstat
from .gofstat import make_reference, reference_cdf
from .robustcov import CovarianceMatrix, _squared_distances, mcd_estimate
from .wavelet import dwt_forward, dwt_inverse, expected_block_lengths, get_filter

# Replications per calibration batch: reps * N * (window + 1) / 2 stays under
# this.  The windows are scored in chunks of _SCORE_CHUNK_VALUES, so it bounds
# only a batch's noise and transform arrays (reps * N * M floats each); its
# value fixes the batches every calibration maps, in-process or over workers.
_CAL_CHUNK_VALUES = 6_000_000
# floats sorted at once by the window scorer (512 KB, an L2-sized buffer)
_SCORE_CHUNK_VALUES = 1 << 16


def _is_number(value, kind) -> bool:
    # numpy numbers count; bool, although an Integral, is not a setting's number
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class DenoiseConfig:
    """Pipeline settings.  Defaults follow the reference experimental protocol:

    16-tap Daubechies filter, five decomposition levels, window size
    L = 28 * n_channels, false-alarm probability 0.005, and 1000 Monte Carlo
    replications per calibration.  A config is checked when it is made: an
    invalid one raises ``ValueError`` and never exists.  ``seed`` is inert:
    nothing in the pipeline draws from it.
    """

    filter_name: str = "db8"
    levels: int = 5
    window_l: int | None = None  # None -> 28 * n_channels
    p_fa: float = 0.005
    calibration_reps: int = 1000
    seed: int | None = None

    def __post_init__(self) -> None:
        get_filter(self.filter_name)
        if not _is_number(self.p_fa, Real) or not 0.0 < self.p_fa < 0.5:
            raise ValueError("p_fa must be a number in (0, 0.5)")
        if not _is_number(self.calibration_reps, Integral) or self.calibration_reps < 100:
            raise ValueError("calibration_reps must be an integer >= 100")
        if not _is_number(self.levels, Integral) or self.levels < 1:
            raise ValueError("levels must be an integer >= 1")
        if self.window_l is not None and (not _is_number(self.window_l, Integral) or self.window_l < 2 or self.window_l % 2):
            raise ValueError("window_l must be a positive even integer")
        if self.seed is not None and (not _is_number(self.seed, Integral) or self.seed < 0):
            raise ValueError("seed must be None or a non-negative integer")

    def window_size(self, n_channels: int) -> int:
        return self.window_l if self.window_l is not None else 28 * n_channels


@dataclass
class DenoiseReport:
    """Everything the thresholding decision used and produced.

    ``thresholds[k-1]``, ``tau[k-1]`` and ``keep_masks[k-1]`` describe scale k;
    a coefficient was retained iff its window statistic reached the scale
    threshold.  ``null_retention_sd[k-1]`` is the standard deviation, across
    the calibration replications, of the fraction of scale k a pure-noise
    signal keeps; divided by sqrt(calibration_reps) it is the Monte Carlo
    error of the threshold in false-alarm-rate units.
    """

    thresholds: np.ndarray
    null_retention_sd: np.ndarray
    tau: list
    keep_masks: list
    sigma: CovarianceMatrix
    warnings_issued: list

    def retained_fraction(self) -> np.ndarray:
        return np.array([float(m.mean()) for m in self.keep_masks])


@functools.lru_cache(maxsize=64)
def _reflect_index(b: int, half: int, extra_left: int) -> np.ndarray:
    # indices into a length-b axis that pad it by half + extra_left values
    # at the left and half at the right, each end reflected without
    # repeating its edge (0 -> 2,1,0,1,2): np.pad's "reflect" mode, for
    # pads shorter than b.  The one reflect rule of the window scorer.
    pos = np.abs(np.arange(-(half + extra_left), b + half))
    index = np.where(pos > b - 1, 2 * (b - 1) - pos, pos)
    index.setflags(write=False)
    return index


def _reflected_windows(v: np.ndarray, window: int) -> np.ndarray:
    # (..., B, window) read-only view of the window centred at each index of
    # the last axis; the ends reflect (0 -> 2,1,0,1,2).  Needs B > window // 2.
    # as_strided is sliding_window_view without its checks, a third of the cost.
    padded = v[..., _reflect_index(v.shape[-1], window // 2, 0)]
    step = padded.strides[-1:]
    return as_strided(padded, padded.shape[:-1] + (v.shape[-1], window), padded.strides + step, writeable=False)


def _tau_from_logs(lf: np.ndarray, l1f: np.ndarray, window: int) -> np.ndarray:
    # lf, l1f: (..., B) per-coefficient ln F and ln(1-F) of one or more
    # blocks; window is the full window size (odd).  Returns per-coefficient
    # tau; a block shorter than the window is scored as one shared window.
    #
    # tau = -w - (1/w) sum_l (2l-1) [ln F_(l) + ln(1-F)_(w+1-l)] (Stephens
    # 1974).  With d = ln F - ln(1-F), which increases with F, the sum equals
    # sum_l (2l-1) d_(l) + 2w sum ln(1-F) exactly, ties included: one sort
    # per window, and the second sum is a difference of cumulative sums.
    #
    # The windows are never materialised together: each chunk of at most
    # _SCORE_CHUNK_VALUES floats is copied into one C-ordered buffer, sorted
    # there and weighted, so memory is O(chunk) above the (..., B) inputs and
    # the sort runs on contiguous rows whatever the layout of lf and l1f.
    b = lf.shape[-1]
    if b < window:
        w = b
        s = np.sort(lf - l1f, axis=-1) @ (2.0 * np.arange(1, w + 1) - 1.0) + 2 * w * l1f.sum(axis=-1)
        return np.repeat((-w - s / w)[..., None], b, axis=-1)
    w = window
    d = np.subtract(lf, l1f, order="C")
    weights = 2.0 * np.arange(1, w + 1) - 1.0
    windows = _reflected_windows(d.reshape(-1, b), w)
    s = np.empty(windows.shape[:2])
    span = min(b, max(1, _SCORE_CHUNK_VALUES // w))  # positions per chunk
    buf = np.empty((span, w))
    for r in range(s.shape[0]):
        for lo in range(0, b, span):
            chunk = buf[: min(span, b - lo)]
            np.copyto(chunk, windows[r, lo : lo + span])
            chunk.sort(axis=-1)
            np.matmul(chunk, weights, out=s[r, lo : lo + span])
    s = s.reshape(d.shape)
    # the windows' reflect index with one more reflected value in front, so
    # csum[i + w] - csum[i] is the sum over the window centred at i
    csum = np.cumsum(l1f[..., _reflect_index(b, w // 2, 1)], axis=-1)
    s += 2 * w * (csum[..., w:] - csum[..., :-w])
    return -w - s / w


def _scale_taus(details, sigmas, window: int) -> list:
    """Per-coefficient window statistic of every scale, for c signals at once.

    ``details`` holds one (B, c, M) block per scale and ``sigmas`` the c
    noise covariance estimates; the result is one (c, B) array per scale.
    ``denoise`` scores its input through here with c = 1, and the null
    through here with c replications, so the two compute one statistic.
    Every scale of every signal is whitened by one
    :func:`~mvdenoise.robustcov._squared_distances` call, which gives each
    signal the bits of its lone call.  Finite rows whose squared distance is
    not finite (past the float64 range, under an estimate too close to
    singular for them) raise ``ValueError`` that says so, and no
    ``RuntimeWarning``.
    """
    m = details[0].shape[-1]
    # every scale's squared distances side by side, so the CDF runs once
    sq = _squared_distances(np.concatenate(details).transpose(1, 0, 2), np.stack([s.chol for s in sigmas]))
    if not np.isfinite(sq).all():
        raise ValueError(
            "whitened coefficients overflow float64: the covariance estimate is too close to singular for this input"
        )
    cdf = reference_cdf(make_reference(m), sq)
    lf, l1f = gofstat.clamped_log_cdf(cdf)
    del sq, cdf  # only the (c, B) logs stay alive while the windows are scored
    ends = np.cumsum([d.shape[0] for d in details])[:-1]
    return [_tau_from_logs(f, g, window + 1) for f, g in zip(np.split(lf, ends, axis=1), np.split(l1f, ends, axis=1))]


def _replication_values(m: int, n_samples: int, config: DenoiseConfig) -> int:
    # window values one replication scores, N (window + 1) / 2: what batches and matrix cells are measured in
    return max(n_samples * (config.window_size(m) + 1) // 2, 1)


def _batch_reps(m: int, n_samples: int, config: DenoiseConfig) -> int:
    # replications per calibration batch: see _CAL_CHUNK_VALUES
    return max(1, _CAL_CHUNK_VALUES // _replication_values(m, n_samples, config))


def _null_tau_pool(m: int, n_samples: int, config: DenoiseConfig, child_seeds):
    """Simulate the statistic ``denoise`` computes on pure noise, per scale.

    Each replication draws ``n_samples`` rows of white noise, decomposes them
    as ``denoise`` decomposes an input of that length (padding included, and
    raising the same ``ValueError`` for a geometry it rejects), estimates the
    noise covariance from its own finest-scale block with the estimator
    ``denoise`` uses, and scores every scale through :func:`_scale_taus`.
    The estimate is in-sample at scale 1 and out-of-sample elsewhere,
    exactly as on real data.  The MCD estimate about zero is affine
    equivariant and the transform acts channel-wise, so the resulting law is
    the same for every noise covariance: drawing from N(0, I) loses nothing.

    Scores one replication per entry of ``child_seeds``, all as one batch,
    and returns one (replications, values per replication) array per scale.
    The batch's finest-scale blocks are fitted as one stack, by one
    :func:`~mvdenoise.robustcov.mcd_estimate` call: each estimate equals
    that block's lone fit bit for bit, and the batch shares each C-step's
    inversion and one reweighting.  The fit draws nothing.
    A block no wider than the window is one shared window per replication:
    it contributes a single value each.  Replication r draws from the
    generator seeded by ``child_seeds[r]`` alone, but the rounding of its
    statistic depends on which replications share its batch: at 2 to 4
    channels, values moved by up to 1.5e-12 when a batch of 22 to 24 was
    scored one replication at a time, and by up to 1.1e-13 when it was split
    in two.  So :func:`calibrate_thresholds` always cuts the seeds at the
    same batch boundaries.
    """
    c = len(child_seeds)
    noise = np.stack([np.random.default_rng(int(s)).standard_normal((n_samples, m)) for s in child_seeds], axis=1)
    dec = _decompose(noise.reshape(n_samples, c * m), config)
    del noise  # the decomposition holds no view of it: free it before scoring
    details = [d.reshape(d.shape[0], c, m) for d in dec.details]
    sigmas = mcd_estimate(details[0].transpose(1, 0, 2))
    window = config.window_size(m)
    return [t if t.shape[1] > window else t[:, :1] for t in _scale_taus(details, sigmas, window)]


class _UpperTail:
    """The top of one scale's null pool, enough for its q quantile and retention.

    The pool holds ``reps`` rows of ``width`` values and arrives a batch of
    rows at a time.  ``np.quantile``'s default (Hyndman & Fan 1996, method
    7) interpolates the order statistics x_(i) and x_(i+1), 0-based
    ascending, at i = floor(v), with v = (n - 1) q for n = reps * width:
    numpy's virtual index, in the form numpy evaluates it (the equal form
    n q + (1 - q) - 1 rounds differently).  These are the k-th and (k-1)-th
    largest values, k = n - i, so only values at or above the k-th largest
    seen so far can decide the quantile.  Those are kept, ties included,
    each with its replication, and the rest are dropped as the batches
    arrive: about k = n p_fa + 1 values, not n.  :meth:`quantile` and
    :meth:`retention_sd` equal their full-pool formulas bit for bit.
    """

    def __init__(self, reps: int, width: int, q: float):
        self.reps, self.width, n = reps, width, reps * width
        v = (n - 1) * q
        i = min(math.floor(v), n - 1)  # numpy takes x_(n-1) from v >= n - 1 on
        self.gamma = v - i
        self.k = n - i
        self.cut = -np.inf  # the k-th largest value seen, once k are seen
        self.values = np.empty(0)
        self.rows = np.empty(0, dtype=np.intp)

    def add(self, taus: np.ndarray, first_row: int) -> None:
        """Fold in a (rows, width) batch whose first row is replication ``first_row``."""
        rows, cols = np.nonzero(taus >= self.cut)
        values = np.concatenate([self.values, taus[rows, cols]])
        rows = np.concatenate([self.rows, rows + first_row])
        if values.size > self.k:
            self.cut = np.partition(values, values.size - self.k)[values.size - self.k]
            keep = values >= self.cut
            values, rows = values[keep], rows[keep]
        self.values, self.rows = values, rows

    def quantile(self) -> float:
        """``np.quantile(pool, q)``: numpy's linear interpolation of x_(i) and x_(i+1)."""
        top = np.sort(self.values)[::-1]
        a, b = top[self.k - 1], top[max(self.k - 2, 0)]
        g = self.gamma
        return float(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))

    def retention_sd(self, threshold: float) -> float:
        """Spread across replications of the fraction of the pool at or above ``threshold``.

        Needs ``threshold`` >= x_(i), as :meth:`quantile` is: every pool
        value that reaches it is then in the tail.
        """
        counts = np.bincount(self.rows[self.values >= threshold], minlength=self.reps)
        return float((counts / self.width).std(ddof=1))


# the count of worker processes, when set; see worker_rule
_THREADS_VAR = "MVDENOISE_THREADS"


def worker_rule(environ, cores: int, jobs: int, in_worker: bool) -> int:
    """Worker processes for ``jobs`` independent tasks, from the environment and the cores.

    The one worker rule: calibration, and so ``denoise`` and ``gof``, and
    the ``benchmark`` matrix all follow it.  ``MVDENOISE_THREADS``, when set
    in ``environ``, is the count, and must be an integer >= 1
    (``ValueError`` otherwise); unset, the count is ``cores``, whatever the
    BLAS thread variables say (:func:`calibrate_thresholds` has timings).
    The count is capped at ``cores`` and at ``jobs``: a pool starts all its
    processes at once, and a worker beyond either has no core or no task.
    ``jobs`` counts work, not items, in units of one calibration batch's
    window values (``_CAL_CHUNK_VALUES``): calibration passes its batch
    count, each batch being at most one unit, and the ``benchmark`` matrix
    its cells' window values in units (:func:`_pool_map`), so a matrix
    whose cells add up to one unit runs in-process.  A process that is
    itself a worker (``in_worker``) always gets 1, so pools never nest.
    """
    if in_worker:
        return 1
    text = environ.get(_THREADS_VAR)
    if text is None:
        workers = cores
    else:
        try:
            workers = int(text)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"{_THREADS_VAR} must be an integer >= 1, got {text!r}")
    return max(1, min(workers, cores, jobs))


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(jobs: int) -> int:
    """:func:`worker_rule` for this process: its environment, its usable cores, and whether multiprocessing started it.

    A process that multiprocessing started, under any start method, has
    imported it before it runs a task, so one that has not imported it is
    no worker: the question is answered without importing multiprocessing,
    which a process that opens no pool never loads.
    """
    mp = sys.modules.get("multiprocessing")
    return worker_rule(os.environ, _usable_cores(), jobs, mp is not None and mp.parent_process() is not None)


# Calibration draws from its own stream, so the memo below is a pure function
# of its key: the order of calls changes no result.
_CALIBRATION_SEED = 0
# (channels, input length, config without its seed, window set) -> (thresholds, retention sd)
_NULL_CACHE: dict = {}
# The shipped table of calibrated keys, written by tools/build_thresholds.py.
# _THRESHOLD_TABLE is None until the first memo miss of a process reads it;
# an empty table is a table that was missing or unreadable, or bypassed.
_TABLE_PATH = os.path.join(os.path.dirname(__file__), "thresholds.json")
_THRESHOLD_TABLE: dict | None = None
# The per-machine store of calibrated keys, one file per key (see _store_file),
# read after the table and written by every calibration.  _STORE_FINGERPRINT
# is None until the first store access of a process computes it; an empty
# fingerprint is a store that is off (its sources unreadable, or bypassed):
# nothing is then read or written.
_STORE_FINGERPRINT: str | None = None
# the modules the null runs through: an edit to any of them empties the store
_NULL_SOURCES = ("denoiser", "robustcov", "wavelet", "gofstat", "chisquare")


def _memo_key(n_channels: int, n_samples: int, config: DenoiseConfig) -> tuple:
    # the one key of the memo, the table and the store: the window filled in, the inert seed dropped
    return (n_channels, n_samples, replace(config, seed=None, window_l=config.window_size(n_channels)))


def _table_entry(key: tuple, thresholds, sd) -> dict:
    """One key's entry, as the table and the store hold it.

    The key is named by its channel count, its length and the fields of its
    config that differ from ``DenoiseConfig()``, each a plain Python value
    (a numpy number is stored as the Python number it equals), followed by
    the per-scale ``thresholds`` and ``null_retention_sd``.  ``json``
    writes each float as its shortest repr, which reads back as the same
    float64.  :func:`_parse_entry` reads it back.
    """
    n_channels, n_samples, config = key
    default = DenoiseConfig()
    return {
        "n_channels": int(n_channels),
        "n_samples": int(n_samples),
        "config": {
            k: v.item() if isinstance(v, np.generic) else v for k, v in vars(config).items() if v != getattr(default, k)
        },
        "thresholds": np.asarray(thresholds, dtype=np.float64).tolist(),
        "null_retention_sd": np.asarray(sd, dtype=np.float64).tolist(),
    }


@functools.lru_cache(maxsize=64, typed=True)
def _entry_config(**fields) -> DenoiseConfig:
    # an entry's config, which must be a memo key's (see _memo_key): its
    # window set and no seed.  Built and checked once per distinct fields, as
    # the table's 112 entries share 15 configs; typed, so that a field of 5.0
    # or true is not taken for a cached 5 or 1
    config = DenoiseConfig(**fields)
    if config.window_l is None or config.seed is not None:
        raise ValueError("not the entry of a calibrated key")
    return config


def _parse_entry(entry) -> tuple:
    """``(key, (thresholds, retention sd))`` of one :func:`_table_entry` entry.

    Raises ``ValueError``, ``TypeError`` or ``KeyError`` when ``entry`` is
    not one: its config is not its own :func:`_memo_key`, or its arrays do
    not hold one value per scale.
    """
    key = (entry["n_channels"], entry["n_samples"], _entry_config(**entry["config"]))
    arrays = tuple(np.array(entry[name], dtype=np.float64) for name in ("thresholds", "null_retention_sd"))
    if any(a.shape != (key[2].levels,) for a in arrays):
        raise ValueError("not the entry of a calibrated key")
    return key, arrays


def _read_table(path: str) -> dict:
    """The calibrated keys of the table at ``path``: key -> (thresholds, retention sd).

    The table is a JSON list of :func:`_table_entry` entries.  A file that
    cannot be read or parsed, or any entry that :func:`_parse_entry`
    rejects, gives an empty table: every key then calibrates.  Every entry
    is checked, but the shipped table's 112 entries hold 15 distinct
    configs, and each is built and checked once per process
    (:func:`_entry_config`): 1.6-3.6 ms became 0.6-1.6 ms per first read.
    """
    import json  # not at import: only a process that misses its memo reads the table

    table = {}
    try:
        with open(path, encoding="utf-8") as f:
            for entry in json.load(f):
                key, arrays = _parse_entry(entry)
                table[key] = arrays
    except (OSError, ValueError, TypeError, KeyError):
        return {}
    return table


def _table() -> dict:
    # the shipped table, read by the first call of a process
    global _THRESHOLD_TABLE
    if _THRESHOLD_TABLE is None:
        _THRESHOLD_TABLE = _read_table(_TABLE_PATH)
    return _THRESHOLD_TABLE


def _fingerprint() -> str:
    # the code a stored entry must have been calibrated by: the package and
    # numpy versions and a sha256 of the null's sources, computed once a process
    global _STORE_FINGERPRINT
    if _STORE_FINGERPRINT is None:
        import hashlib

        from . import __version__

        digest = hashlib.sha256()
        try:
            for name in _NULL_SOURCES:
                with open(os.path.join(os.path.dirname(__file__), name + ".py"), "rb") as f:
                    digest.update(hashlib.sha256(f.read()).digest())
        except OSError:
            _STORE_FINGERPRINT = ""
        else:
            _STORE_FINGERPRINT = f"mvdenoise {__version__}, numpy {np.__version__}, sources {digest.hexdigest()}"
    return _STORE_FINGERPRINT


def _store_file(key: tuple) -> str | None:
    # the key's file, named by a hash of the key's fields in its entry, in
    # $XDG_CACHE_HOME/mvdenoise/, or ~/.cache/mvdenoise/ when that variable
    # is unset or not absolute; read at each access.  None without a home
    import hashlib
    import json

    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(root):
            return None
    entry = _table_entry(key, (), ())
    name = json.dumps([entry["n_channels"], entry["n_samples"], entry["config"]])
    return os.path.join(root, "mvdenoise", hashlib.sha256(name.encode()).hexdigest()[:32] + ".json")


def _store_get(key: tuple):
    """The store's (thresholds, retention sd) for ``key``, or None.

    None when the store is off, or when the key's file cannot be read or
    parsed, was written under another fingerprint, holds another key, or
    holds arrays without one value per scale.
    """
    import json

    path = _store_file(key) if _fingerprint() else None
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as f:
            stored = json.load(f)
        if stored["fingerprint"] != _fingerprint():
            return None
        found, arrays = _parse_entry(stored["entry"])
    except (OSError, ValueError, TypeError, KeyError):
        return None
    return arrays if found == key else None


def _store_put(key: tuple, thresholds, sd) -> None:
    # write the key's file: a temporary file in the store directory, then
    # os.replace, so a reader sees a whole file or none.  A failure leaves
    # no temporary file, and raises and warns nothing
    import json
    import tempfile

    path = _store_file(key) if _fingerprint() else None
    if path is None:
        return
    text = json.dumps({"fingerprint": _fingerprint(), "entry": _table_entry(key, thresholds, sd)})
    tmp = None
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.remove(tmp)
            except OSError:
                pass  # a temporary file is never read as an entry


def _adopt_memo(memo: dict) -> None:
    # a pool worker's initializer: a bound _NULL_CACHE.update would fill an unpickled copy under spawn
    _NULL_CACHE.update(memo)


def _process_pool(workers: int, **kwargs):
    # concurrent.futures.ProcessPoolExecutor, imported here: it loads 33
    # modules (multiprocessing, logging, socket, subprocess, queue, ...) that
    # a process which opens no pool never needs.  Tests replace it
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, **kwargs)


def _pool_map(fn, items, values=None):
    """Yield ``fn(item)`` for each of ``items``, in order.

    The one place a process pool opens: over :func:`worker_count` workers
    (the platform's default start method), each starting with a copy of
    this process's threshold memo and fed one item at a time, or
    in-process when that count is 1.  The rule's ``jobs`` is
    ``len(items)`` when ``values`` is None, as for calibration's batches;
    otherwise it is ``values``, the window values all the items score
    (:func:`_replication_values` each for a ``benchmark`` cell), in units
    of ``_CAL_CHUNK_VALUES`` rounded up, and at most ``len(items)``.  A
    pool's first task in each worker costs tens of milliseconds of set-up,
    more than a 2048-row cell, so items that add up to one unit of work run
    in-process whatever their count.  ``fn`` and every item must pickle.
    The pool machinery (``concurrent.futures`` and ``multiprocessing``) is
    imported only when a pool opens, so a one-worker call, a memo hit or a
    table hit never loads it.
    """
    jobs = len(items) if values is None else min(len(items), -(-values // _CAL_CHUNK_VALUES))
    workers = worker_count(jobs)
    if workers == 1:
        yield from map(fn, items)
        return
    with _process_pool(workers, initializer=_adopt_memo, initargs=(dict(_NULL_CACHE),)) as pool:
        yield from pool.map(fn, items)


def calibrate_thresholds(n_channels: int, n_samples: int, config: DenoiseConfig):
    """Per-scale thresholds and null retention spread for one calibration key.

    Returns ``(thresholds, null_retention_sd)``.  ``thresholds[k-1]`` is the
    (1 - p_fa) quantile at scale k of the plug-in null statistic: the
    statistic ``denoise`` computes when its input is pure Gaussian noise,
    covariance estimate included.  Every one of ``calibration_reps``
    simulated signals of ``n_samples`` rows is whitened with its own MCD
    estimate from the finest-scale block, and every window position of every
    replication contributes to the null sample of its scale.  Whitening by a
    known covariance instead would give a null with lighter tails than the
    statistic actually used, and a false-alarm rate above p_fa at the scales
    the covariance is not fitted on.  ``null_retention_sd[k-1]`` is the
    spread across replications of the fraction of scale k kept at its
    threshold.

    The null law depends on the geometry and test settings only, never on
    the data or its noise covariance, so one Monte Carlo pool per key (the
    channel count, the length, and the configuration with its window set
    and its inert seed dropped, :func:`_memo_key`) serves every call: the
    result is memoised per key, and every :func:`_pool_map` worker starts
    with the memo.  A key is looked up in the memo, then in the table
    shipped with the package (``thresholds.json``, written by
    ``tools/build_thresholds.py``), then in the per-machine store, and only
    then calibrated; a hit is memoised like a calibration.  The table
    holds the default settings at 1 to 8 channels and lengths 2^8 to 2^14,
    and ``gof``'s key for 2^7 to 2^13 rows.  The first memo miss of a
    process reads the table, and a missing or unreadable table (see
    :func:`_read_table`) is an empty one.  On the machine that built it,
    an entry equals a fresh calibration bit for bit; elsewhere BLAS may
    round the last bits differently.

    The store holds every other key once this machine has calibrated it:
    one file per key in ``$XDG_CACHE_HOME/mvdenoise/`` (``~/.cache/mvdenoise/``
    when that variable is unset or not absolute), holding the key's
    :func:`_table_entry` and the fingerprint of the code that calibrated it:
    the package and numpy versions and a sha256 of the modules the null runs
    through.  An entry read back equals the calibration that wrote it bit
    for bit.  A file that cannot be read or parsed, or that was written
    under another fingerprint, holds another key or holds arrays without
    one value per scale, is a miss: the key calibrates and the file is
    overwritten.  Each write goes to a temporary file, then ``os.replace``,
    so processes that calibrate one key at once leave one whole file; a
    write that fails raises and warns nothing.  Import, a memo hit and a
    table hit never touch the store.  The warning on a low
    ``calibration_reps`` is issued before any lookup, so every hit warns as
    a calibration does.

    Each replication is padded by ``dwt_forward`` exactly as an input of
    ``n_samples`` rows is, so a non-dyadic length is simulated with the
    mirrored rows its pad duplicates, and a geometry ``denoise`` rejects
    raises the same ``ValueError`` before any covariance fit.  A channel count that is not
    an integer of at least 1, or a length that is not an integer (a float
    or a ``bool`` included), raises ``ValueError`` before anything else,
    memo lookup included.

    The child seeds of a key that misses the memo, the table and the store
    are cut into batches of :func:`_batch_reps`, and :func:`_pool_map` runs
    :func:`_null_tau_pool` on each; a hit opens no pool.  Only the top p_fa
    share of a scale's pool can decide its quantile, so each batch is folded
    into a per-scale :class:`_UpperTail` as it arrives and then dropped: the values
    at or above the running k-th largest, k = n p_fa + 1 for a pool of n
    values, with their replications.  The thresholds and the retention
    spread equal the full-pool ``np.quantile`` and count bit for bit, while
    memory is one batch plus about reps * (sum of pool widths) * p_fa kept
    values, not every value of every replication.  On one BLAS thread, a
    fresh in-process (3, 2048, 1000) calibration added 19 to 22 MB to the
    process's peak RSS (30.6 MB with full pools), and (4, 2^17, 100) added
    29 to 30 MB (153.5 MB).  The batches are the same at every worker
    count, and are folded in order, so the result is too; other batch cuts
    would move the pooled statistics by up to 1.5e-12 (see
    :func:`_null_tau_pool`).  On 2 cores a fresh (3, 2048, 1000)
    calibration took 0.69 to 1.18 s over two workers and 1.20 to 1.47 s on
    one, with the three BLAS thread variables unset or at 1 (4 runs each).
    With none of them and no ``MVDENOISE_THREADS`` set, a cold CLI
    ``denoise`` of a default 2048 x 3 input, most of it that calibration,
    took 0.87 to 0.93 s on the two workers of :func:`worker_rule` (6 runs).
    """
    if not _is_number(n_channels, Integral) or n_channels < 1:
        raise ValueError("need at least one channel")
    if not _is_number(n_samples, Integral):
        raise ValueError(f"n_samples must be an integer, got {n_samples!r}")
    reps = config.calibration_reps
    if reps < 10.0 / config.p_fa:
        warnings.warn(
            f"calibration_reps={reps} is below 10/p_fa={10.0 / config.p_fa:.0f}; "
            "threshold quantile resolution is coarse",
            RuntimeWarning,
        )
    key = _memo_key(n_channels, n_samples, config)
    if key not in _NULL_CACHE:
        found = _table().get(key)
        if found is None:
            found = _store_get(key)
        if found is None:
            found = _calibrate(n_channels, n_samples, config)
            _store_put(key, *found)
        _NULL_CACHE[key] = found
    thresholds, sd = _NULL_CACHE[key]
    return thresholds.copy(), sd.copy()


def _calibrate(n_channels: int, n_samples: int, config: DenoiseConfig) -> tuple:
    # one key's Monte Carlo calibration (see calibrate_thresholds); a
    # geometry denoise rejects raises its ValueError first, before any pool opens
    _decompose(np.zeros((n_samples, 1)), config)
    reps = config.calibration_reps
    window = config.window_size(n_channels)
    child_seeds = np.random.default_rng(_CALIBRATION_SEED).integers(np.iinfo(np.int64).max, size=reps)
    blocks = expected_block_lengths(n_samples, config.levels)
    tails = [_UpperTail(reps, b if b > window else 1, 1.0 - config.p_fa) for b in blocks]
    batch = _batch_reps(n_channels, n_samples, config)
    batches = np.split(child_seeds, range(batch, reps, batch))
    start = 0
    for taus in _pool_map(partial(_null_tau_pool, n_channels, n_samples, config), batches):
        for tail, tau in zip(tails, taus):
            tail.add(tau, start)
        start += len(tau)
        del taus, tau  # free this batch's statistics before the next batch runs
    thresholds = np.array([tail.quantile() for tail in tails])
    return thresholds, np.array([tail.retention_sd(t) for tail, t in zip(tails, thresholds)])


def _decompose(x: np.ndarray, config: DenoiseConfig):
    dec = dwt_forward(x, get_filter(config.filter_name), config.levels)
    if dec.approx.shape[0] < 2:
        raise ValueError("signal too short: coarsest block needs at least two coefficients")
    return dec


def _front_end(x, config: DenoiseConfig | None):
    # shared by denoise and baseline_universal: (config, (N, M), decomposition)
    config = config or DenoiseConfig()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    return config, x.shape, _decompose(x, config)


def denoise(x, config: DenoiseConfig | None = None):
    """Denoise an (N, M) signal; returns ``(estimate, report)``.

    The approximation block is never tested or thresholded.  A detail
    coefficient at scale k survives iff the statistic of its window reaches
    the calibrated threshold T_k (ties retained).  Thresholds come from the
    plug-in null of :func:`calibrate_thresholds`, shared by every call with
    the same channel count, length and settings.  The result is a function
    of the input and the settings alone: nothing is drawn at random, and
    ``config.seed`` changes nothing.
    """
    config, (n, m), dec = _front_end(x, config)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sigma = mcd_estimate(dec.details[0])
        thresholds, null_sd = calibrate_thresholds(m, n, config)

    taus = [t[0] for t in _scale_taus([d[:, None] for d in dec.details], [sigma], config.window_size(m))]
    masks = [tau >= t for tau, t in zip(taus, thresholds)]
    new_details = [d * keep[:, None] for d, keep in zip(dec.details, masks)]

    estimate = dwt_inverse(dec.copy_with_details(new_details))
    return estimate, DenoiseReport(
        thresholds=thresholds,
        null_retention_sd=null_sd,
        tau=taus,
        keep_masks=masks,
        sigma=sigma,
        warnings_issued=[str(w.message) for w in caught],
    )


def baseline_universal(x, config: DenoiseConfig | None = None) -> np.ndarray:
    """Channel-wise universal-threshold baseline.

    Per-channel thresholds sqrt(2 * lam_m * log N) are built from the
    eigenvalues of the robust noise covariance estimate; the largest
    eigenvalue is assigned to the channel with the largest estimated noise
    variance, and so on down the ranking.  Coefficients below their
    channel's threshold are zeroed (hard thresholding).
    """
    config, (n, m), dec = _front_end(x, config)
    sigma = mcd_estimate(dec.details[0])

    thresholds = np.empty(m)
    channel_rank = np.argsort(-np.diag(sigma.sigma), kind="stable")
    # the spectrum of the estimate, descending
    thresholds[channel_rank] = np.sqrt(2.0 * np.linalg.eigh(sigma.sigma)[0][::-1] * math.log(n))

    new_details = [np.where(np.abs(d) < thresholds[None, :], 0.0, d) for d in dec.details]
    return dwt_inverse(dec.copy_with_details(new_details))
