import concurrent.futures

import pytest

from mvdenoise import denoiser


@pytest.fixture(autouse=True)
def threshold_store(tmp_path_factory, monkeypatch):
    """Point every test's threshold store at a fresh, empty directory.

    No test reads or writes a real cache, and subprocesses inherit
    ``XDG_CACHE_HOME``.  Returns a function that points the store at
    another fresh directory and returns that store's path (it does not
    exist until a calibration writes to it): a test that compares two
    calibrations of one key gives each its own empty store.
    """

    def fresh_store():
        cache = tmp_path_factory.mktemp("cache")
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        return cache / "mvdenoise"

    fresh_store()
    return fresh_store


@pytest.fixture
def two_worker_rule(monkeypatch):
    """The default rule on two cores, whatever the BLAS variables say; returns the worker counts of the pools opened."""
    monkeypatch.delenv("MVDENOISE_THREADS", raising=False)
    monkeypatch.setattr(denoiser, "_usable_cores", lambda: 2)
    opened = []

    def recording_pool(workers, **kwargs):
        opened.append(workers)
        return concurrent.futures.ProcessPoolExecutor(workers, **kwargs)

    monkeypatch.setattr(denoiser, "_process_pool", recording_pool)
    return opened
