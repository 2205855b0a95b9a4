"""Ablation — thread-local Z_local buffers vs a shared output (§3.5).

With a dynamic output, threads cannot write into Z directly (its size is
unknown until every accumulator is final). Z_local lets each worker emit
results independently and sizes Z exactly before one parallel gather.
This bench compares the gather cost of many locals against one local
(the serial engine's layout) — the overhead of the §3.5 design is the
difference, and should be small.
"""

from __future__ import annotations

import pytest

from repro.datasets import make_case
from repro.parallel import parallel_sparta


@pytest.fixture(scope="module")
def workload():
    return make_case("uber", 2, scale=0.2, seed=0)


@pytest.mark.parametrize("threads", [1, 4])
def test_zlocal_gather(benchmark, workload, threads):
    res = benchmark.pedantic(
        lambda: parallel_sparta(
            workload.x, workload.y, workload.cx, workload.cy,
            threads=threads,
        ),
        rounds=2,
        iterations=1,
    )
    assert res.result.nnz > 0


def test_gather_cost_scales_with_locals(workload):
    """Splitting one output across many locals must not change Z."""
    one = parallel_sparta(
        workload.x, workload.y, workload.cx, workload.cy, threads=1
    )
    many = parallel_sparta(
        workload.x, workload.y, workload.cx, workload.cy, threads=8
    )
    assert one.result.tensor.allclose(many.result.tensor)
