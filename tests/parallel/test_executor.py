"""Tests for the thread-parallel Sparta executor."""

import pytest

from repro.core import contract
from repro.errors import ContractionError, ShapeError
from repro.parallel import parallel_sparta
from repro.tensor import random_tensor, random_tensor_fibered


@pytest.fixture
def pair():
    x = random_tensor_fibered((16, 16, 20, 20), 1500, 2, 64, seed=71)
    y = random_tensor_fibered((20, 20, 14, 14), 2500, 2, 300, seed=72)
    return x, y


class TestCorrectness:
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_matches_serial(self, pair, threads):
        x, y = pair
        serial = contract(
            x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
        )
        par = parallel_sparta(x, y, (2, 3), (0, 1), threads=threads)
        assert par.result.tensor.allclose(serial.tensor)

    def test_matches_dense(self):
        x = random_tensor((6, 5, 4, 3), 40, seed=73)
        y = random_tensor((4, 3, 7, 8), 50, seed=74)
        ref = contract(x, y, (2, 3), (0, 1), method="dense")
        par = parallel_sparta(x, y, (2, 3), (0, 1), threads=4)
        assert par.result.tensor.allclose(ref.tensor)

    def test_empty_input(self):
        from repro.tensor import SparseTensor

        x = SparseTensor.empty((3, 4))
        y = SparseTensor.empty((4, 5))
        par = parallel_sparta(x, y, (1,), (0,), threads=4)
        assert par.result.nnz == 0

    def test_unsorted_output_option(self, pair):
        x, y = pair
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=2, sort_output=False
        )
        sorted_par = parallel_sparta(x, y, (2, 3), (0, 1), threads=2)
        assert par.result.tensor.allclose(sorted_par.result.tensor)

    def test_bad_thread_count(self, pair):
        x, y = pair
        with pytest.raises(ShapeError):
            parallel_sparta(x, y, (2, 3), (0, 1), threads=0)


class TestRemovedOptions:
    """The baseline schedule switches are gone, not silently ignored."""

    @pytest.mark.parametrize(
        "option",
        [
            {"parallel_stage1": False},
            {"merge_output": False},
            {"chunking": "count"},
            {"chunks_per_worker": 1},
        ],
        ids=lambda opt: next(iter(opt)),
    )
    def test_schedule_switch_raises_type_error(self, option):
        x = random_tensor((6, 5, 4), 30, seed=75)
        y = random_tensor((4, 7), 20, seed=76)
        with pytest.raises(TypeError):
            parallel_sparta(x, y, (2,), (0,), threads=2, **option)
        with pytest.raises(TypeError):
            contract(x, y, (2,), (0,), method="parallel", **option)

    def test_subtensor_loop_granularity_rejected(self):
        x = random_tensor((6, 5, 4), 30, seed=75)
        y = random_tensor((4, 7), 20, seed=76)
        with pytest.raises(ContractionError, match="granularity"):
            contract(x, y, (2,), (0,), granularity="subtensor_loop")


class TestAccounting:
    def test_same_data_objects_as_serial(self, pair):
        """The parallel profile models the same Table-2 object set."""
        x, y = pair
        serial = contract(
            x, y, (2, 3), (0, 1), method="sparta", swap_larger_to_y=False
        )
        par = parallel_sparta(x, y, (2, 3), (0, 1), threads=4)
        assert set(par.result.profile.object_bytes) == set(
            serial.profile.object_bytes
        )
        assert {rec.obj for rec in par.result.profile.traffic} == {
            rec.obj for rec in serial.profile.traffic
        }

    def test_thread_stats_cover_work(self, pair):
        x, y = pair
        par = parallel_sparta(x, y, (2, 3), (0, 1), threads=4)
        assert sum(s.nnz_x for s in par.thread_stats) == x.nnz
        assert (
            sum(s.output_nnz for s in par.thread_stats)
            == par.result.nnz
        )
        assert sum(s.products for s in par.thread_stats) == (
            par.result.profile.counters["products"]
        )

    def test_load_reasonably_balanced(self, pair):
        x, y = pair
        par = parallel_sparta(x, y, (2, 3), (0, 1), threads=4)
        assert par.load_imbalance < 1.8

    def test_worker_ids_unique(self, pair):
        x, y = pair
        par = parallel_sparta(x, y, (2, 3), (0, 1), threads=4)
        ids = [s.worker for s in par.thread_stats]
        assert len(set(ids)) == len(ids)
