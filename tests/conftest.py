import concurrent.futures

import pytest

from mvdenoise import denoiser

ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@pytest.fixture
def two_worker_rule(monkeypatch):
    """The default rule on two cores with one BLAS thread each; returns the worker counts of the pools opened."""
    monkeypatch.delenv("MVDENOISE_THREADS", raising=False)
    for var, value in ONE_BLAS_THREAD.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(denoiser, "_usable_cores", lambda: 2)
    opened = []

    def recording_pool(workers, **kwargs):
        opened.append(workers)
        return concurrent.futures.ProcessPoolExecutor(workers, **kwargs)

    monkeypatch.setattr(denoiser, "ProcessPoolExecutor", recording_pool)
    return opened
