"""The pipeline's one stage 5: merge paths and fallbacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import contract
from repro.core.htycache import cached_plan
from repro.core.kernels import FusedRange, assemble_fused
from repro.core.pipeline import finish_output
from repro.core.profile import RunProfile
from repro.core.stages import Stage
from repro.tensor import SparseTensor
from repro.tensor.random import random_tensor_fibered


def assert_bit_identical(z, ref):
    assert z.shape == ref.shape
    np.testing.assert_array_equal(z.indices, ref.indices)
    np.testing.assert_array_equal(
        z.values.view(np.uint64), ref.values.view(np.uint64)
    )


def stage5_bytes(profile):
    return sum(
        rec.nbytes for rec in profile.traffic
        if rec.stage is Stage.OUTPUT_SORTING
    )


def run(fgrp, fy, vals):
    return FusedRange(
        out_fgrp=np.asarray(fgrp, dtype=np.int64),
        out_fy=np.asarray(fy, dtype=np.int64),
        out_vals=np.asarray(vals, dtype=np.float64),
        products=0, accum_probes=0, max_group_output=0, spa_peak_bytes=0,
        search_seconds=0.0, accum_seconds=0.0,
    )


def test_default_serial_contract_takes_concat_path():
    # The fused kernel emits Z already sorted, so the default serial
    # call's stage 5 is a presorted check + concatenation, not a sort.
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    res = contract(x, y, (2, 3), (0, 1))
    counters = res.profile.counters
    assert "swapped_operands" not in counters
    assert counters["output_merge_concat"] == 1
    assert not any(
        k.startswith("output_merge_") and k != "output_merge_concat"
        for k in counters
    )
    assert res.tensor.nnz > 0
    assert res.tensor.is_sorted()
    assert_bit_identical(res.tensor, res.tensor.sort())
    assert stage5_bytes(res.profile) > 0


@pytest.mark.parametrize("case", ["unsorted_run", "key_overflow"])
def test_forced_fallback_still_lexsorts(case):
    if case == "unsorted_run":
        # a run whose free keys are out of order inside a sub-tensor
        fy_dims = (10,)
        runs = [run([0, 0, 1], [7, 2, 5], [1.0, 2.0, 3.0]),
                run([2, 2], [4, 1], [4.0, 5.0])]
    else:
        # sorted but overlapping runs whose (fgrp, fy) keys cannot pack
        # into one int64, so the k-way merge is out of reach
        fy_dims = (2**62,)
        runs = [run([0, 2], [2**61, 5], [1.0, 2.0]),
                run([1], [2**62 - 1], [3.0])]
    x = SparseTensor.empty((3, 2))
    y = SparseTensor.empty((2,) + fy_dims)
    plan = cached_plan(x, y, (1,), (0,))
    fx_rows = np.arange(3, dtype=np.int64).reshape(3, 1)
    profile = RunProfile("test")
    z = finish_output(runs, fx_rows, plan, profile, sort_output=True)
    assert profile.counters["output_merge_lexsort"] == 1
    unsorted = assemble_fused(
        np.concatenate([r.out_fgrp for r in runs]),
        np.concatenate([r.out_fy for r in runs]),
        np.concatenate([r.out_vals for r in runs]),
        fx_rows, plan, RunProfile("ref"),
    )
    assert not unsorted.is_sorted()
    assert_bit_identical(z, unsorted.sort())
    assert z.is_sorted()
    assert stage5_bytes(profile) > 0
