import concurrent.futures
import importlib.util

import numpy as np
import pytest

import siftpose.solvers  # noqa: F401  (loads numpy's BLAS before any fork)
from siftpose.parallel import (
    ThreadLimit,
    blas_threads,
    limit_worker_threads,
    pool_map,
    resolve_workers,
    worker_thread_limit,
)

CONTROLLED = blas_threads()


@pytest.mark.skipif(not CONTROLLED, reason="no OpenBLAS with a thread setter is loaded")
class TestWorkerThreadLimit:
    def test_pool_worker_runs_one_thread_per_openblas(self):
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=2, initializer=limit_worker_threads) as pool:
            counts = [pool.submit(blas_threads).result() for _ in range(4)]
            limit = pool.submit(worker_thread_limit).result()
        for worker_counts in counts:
            assert set(worker_counts) == set(CONTROLLED)
            assert all(n == 1 for n in worker_counts.values())
        assert limit.effective
        assert set(CONTROLLED) <= set(limit.threads)

    def test_openblas_setters_without_threadpoolctl(self):
        if importlib.util.find_spec("threadpoolctl") is not None:
            pytest.skip("threadpoolctl is installed and takes precedence")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=1, initializer=limit_worker_threads) as pool:
            limit = pool.submit(worker_thread_limit).result()
        assert limit.method == "openblas"
        assert limit.threads == {name: 1 for name in CONTROLLED}


def test_thread_limit_report():
    assert ThreadLimit("openblas", {"b.so": 1, "a.so": 1}).effective
    assert not ThreadLimit("openblas", {"a.so": 2}).effective
    assert not ThreadLimit("none").effective
    assert str(ThreadLimit("openblas", {"b.so": 1, "a.so": 2})) == "openblas: a.so=2, b.so=1"
    assert "no BLAS thread control" in str(ThreadLimit("none"))


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("SIFTPOSE_WORKERS", raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) == 1
    monkeypatch.setenv("SIFTPOSE_WORKERS", "2")
    assert resolve_workers() == 2
    monkeypatch.setenv("SIFTPOSE_WORKERS", "many")
    assert resolve_workers() == 1


def test_pool_map_keeps_task_order():
    tasks = list(range(9))
    assert pool_map(np.sqrt, tasks, workers=2) == pool_map(np.sqrt, tasks, workers=1)
