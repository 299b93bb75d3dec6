import concurrent.futures

import pytest

from mvdenoise import denoiser


@pytest.fixture
def two_worker_rule(monkeypatch):
    """The default rule on two cores, whatever the BLAS variables say; returns the worker counts of the pools opened."""
    monkeypatch.delenv("MVDENOISE_THREADS", raising=False)
    monkeypatch.setattr(denoiser, "_usable_cores", lambda: 2)
    opened = []

    def recording_pool(workers, **kwargs):
        opened.append(workers)
        return concurrent.futures.ProcessPoolExecutor(workers, **kwargs)

    monkeypatch.setattr(denoiser, "ProcessPoolExecutor", recording_pool)
    return opened
