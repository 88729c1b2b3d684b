"""Warm micro-round kernels (pipelines/frontier.py ``_warm_kernel`` /
``_warm_apply``): a task worker deserializes a boxed kernel ref once and
reuses that instance for later tasks with the same ref; a different ref
gets a fresh instance, and the cache keeps at most ``_WARM_KERNELS_MAX``
kernels, dropping the least recently used."""

from __future__ import annotations

import sys
from collections import OrderedDict

import pyarrow as pa
import pytest
import ray
import ray.cloudpickle as rcp

from searchgov_spider_ray.pipelines import frontier

# this test module is not importable on Ray workers: ship its kernel by value
rcp.register_pickle_by_value(sys.modules[__name__])


class _CountingKernel:
    """Counts its own calls; returns (pid, call number, tag) per call."""

    def __init__(self, tag: str):
        self.tag = tag
        self.calls = 0

    def __call__(self, block: pa.Table) -> tuple[int, int, str]:
        import os

        self.calls += 1
        return os.getpid(), self.calls, self.tag


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(frontier, "_WARM_KERNELS", OrderedDict())
    return frontier._WARM_KERNELS


@pytest.mark.usefixtures("ray_session")
class TestWarmKernelCache:
    def test_same_ref_reuses_instance(self, empty_cache):
        ref = ray.put(_CountingKernel("a"))
        first = frontier._warm_kernel([ref])
        assert frontier._warm_kernel([ref]) is first
        assert len(empty_cache) == 1

    def test_different_ref_gets_fresh_instance(self, empty_cache):
        kern = _CountingKernel("a")
        a = frontier._warm_kernel([ray.put(kern)])
        a(None)
        b = frontier._warm_kernel([ray.put(kern)])
        assert b is not a and b.calls == 0

    def test_lru_bound_evicts_oldest(self, empty_cache):
        n = frontier._WARM_KERNELS_MAX
        refs = [ray.put(_CountingKernel(str(i))) for i in range(n + 1)]
        for ref in refs[:n]:
            frontier._warm_kernel([ref])
        frontier._warm_kernel([refs[0]])  # refs[0] becomes most recent
        frontier._warm_kernel([refs[n]])  # evicts refs[1], the oldest
        assert list(empty_cache) == [r.binary() for r in (*refs[2:n], refs[0], refs[n])]

    def test_tasks_reuse_kernel_per_worker(self):
        """Tasks with one boxed ref: in every worker process the calls
        count up 1, 2, ... on one instance, and with more tasks than
        workers some worker ran several of them. A second ref starts a
        fresh count."""
        block = pa.table({"x": [1]})
        for tag in ("a", "b"):
            ref = ray.put(_CountingKernel(tag))
            out = [ray.get(frontier._warm_apply.remote([ref], block)) for _ in range(12)]
            by_pid: dict[int, list[int]] = {}
            for pid, calls, got in out:
                assert got == tag
                by_pid.setdefault(pid, []).append(calls)
            for calls in by_pid.values():
                assert calls == list(range(1, len(calls) + 1))
            assert max(len(c) for c in by_pid.values()) > 1
