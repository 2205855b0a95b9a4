"""Tests for the shared-memory process pool backend."""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

import repro.parallel.procpool as procpool
from repro.core import contract
from repro.core.common import prepare_x
from repro.core.htycache import HtYCache, cached_plan
from repro.core.profile import RunProfile
from repro.errors import ParallelError
from repro.hashtable.tensor_table import HashTensor
from repro.parallel import (
    attach_operands,
    export_operands,
    parallel_sparta,
    resolve_start_method,
)
from repro.tensor import random_tensor_fibered

HAVE_FORK = "fork" in mp.get_all_start_methods()


@pytest.fixture
def pair():
    x = random_tensor_fibered((10, 12, 12), 500, 1, 24, seed=41)
    y = random_tensor_fibered((12, 12, 8), 800, 2, 60, seed=42)
    return x, y


@pytest.fixture
def serial(pair):
    x, y = pair
    return contract(
        x, y, (1, 2), (0, 1), method="sparta", swap_larger_to_y=False
    )


def assert_bit_identical(z, ref):
    zs, rs = z.sort(), ref.sort()
    np.testing.assert_array_equal(zs.indices, rs.indices)
    np.testing.assert_array_equal(zs.values, rs.values)


class TestCorrectness:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_serial(self, pair, serial, workers):
        x, y = pair
        par = parallel_sparta(
            x, y, (1, 2), (0, 1), threads=workers, backend="process"
        )
        assert par.backend == "process"
        assert par.wall_seconds > 0.0
        assert_bit_identical(par.result.tensor, serial.tensor)

    @pytest.mark.parametrize(
        "method", sorted(mp.get_all_start_methods())
    )
    def test_every_start_method(self, pair, serial, method):
        x, y = pair
        par = parallel_sparta(
            x, y, (1, 2), (0, 1),
            threads=2, backend="process", start_method=method,
        )
        assert_bit_identical(par.result.tensor, serial.tensor)

    def test_empty_input_no_pool(self):
        # The pool still starts, with no stage-1 spans and no chunks.
        from repro.tensor import SparseTensor

        x = SparseTensor.empty((3, 4))
        y = SparseTensor.empty((4, 5))
        par = parallel_sparta(
            x, y, (1,), (0,), threads=4, backend="process"
        )
        assert par.result.nnz == 0
        assert len(par.thread_stats) == 4
        assert par.load_imbalance == 1.0

    def test_worker_stats_cover_all_nnz(self, pair):
        x, y = pair
        par = parallel_sparta(
            x, y, (1, 2), (0, 1), threads=3, backend="process"
        )
        assert sum(s.nnz_x for s in par.thread_stats) == x.nnz
        assert len(par.thread_stats) == 3

    def test_resolve_start_method(self):
        assert resolve_start_method() in mp.get_all_start_methods()
        assert resolve_start_method("spawn") == "spawn"


class TestSharedOperands:
    def test_export_attach_roundtrip(self, pair):
        x, y = pair
        plan = cached_plan(x, y, (1, 2), (0, 1))
        px = prepare_x(x, plan, RunProfile("test"))
        hty = HashTensor.from_coo(y, plan.cy)
        owned = []  # created blocks (close + unlink)
        attached = []  # worker-side attachments (close only)
        apx = ahty = None
        try:
            spec = export_operands(px, hty, owned)
            apx, ahty = attach_operands(spec, attached)
            np.testing.assert_array_equal(apx.ptr, px.ptr)
            np.testing.assert_array_equal(apx.fx_rows, px.fx_rows)
            np.testing.assert_array_equal(apx.cx_ln, px.cx_ln)
            np.testing.assert_array_equal(apx.values, px.values)
            np.testing.assert_array_equal(ahty.values, hty.values)
            assert ahty.shared is True
            assert hty.shared is False  # source never rebound
            key = hty.table.keys[0]
            assert ahty.table.lookup(key) == hty.table.lookup(key)
        finally:
            del apx, ahty
            for blk in attached:
                blk.close()
            for blk in owned:
                blk.close()
                blk.unlink()

    def test_shared_hty_never_served_from_cache(self, pair):
        # A shm-backed HtY placed in the cache (e.g. by a buggy caller)
        # must be rebuilt, not served: its buffers dangle once the pool
        # unlinks the blocks.
        _, y = pair
        cache = HtYCache()
        hty, hit = cache.get_or_build(y, (0, 1))
        assert not hit
        hty.shared = True  # simulate a shm-backed entry
        rebuilt, hit = cache.get_or_build(y, (0, 1))
        assert not hit
        assert rebuilt is not hty
        assert rebuilt.shared is False
        # The replacement is cached normally afterwards.
        again, hit = cache.get_or_build(y, (0, 1))
        assert hit and again is rebuilt

    def test_process_backend_leaves_cache_usable(self, pair, serial):
        x, y = pair
        cache = HtYCache()
        par1 = parallel_sparta(
            x, y, (1, 2), (0, 1),
            threads=2, backend="process", hty_cache=cache,
        )
        # Second run hits the cache; the cached HtY must still be live
        # (the pool copied it into shm instead of rebinding it).
        par2 = parallel_sparta(
            x, y, (1, 2), (0, 1),
            threads=2, backend="process", hty_cache=cache,
        )
        assert cache.stats.hits == 1
        assert_bit_identical(par1.result.tensor, serial.tensor)
        assert_bit_identical(par2.result.tensor, serial.tensor)


@pytest.mark.skipif(
    not HAVE_FORK,
    reason="crash injection monkeypatches the kernel, needs fork",
)
class TestFailureModes:
    def test_worker_exception_raises_parallel_error(
        self, pair, monkeypatch
    ):
        def boom(*args, **kwargs):
            raise RuntimeError("injected kernel failure")

        monkeypatch.setattr(procpool, "fused_compute", boom)
        x, y = pair
        with pytest.raises(ParallelError, match="injected kernel failure"):
            parallel_sparta(
                x, y, (1, 2), (0, 1),
                threads=2, backend="process", start_method="fork",
            )

    def test_worker_hard_death_raises_parallel_error(
        self, pair, monkeypatch
    ):
        def die(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(procpool, "fused_compute", die)
        x, y = pair
        with pytest.raises(ParallelError, match="died"):
            parallel_sparta(
                x, y, (1, 2), (0, 1),
                threads=2, backend="process", start_method="fork",
            )
