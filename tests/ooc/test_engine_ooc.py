"""ooc_contract: flags, counters, spill placement and cleanup."""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.core import contract
from repro.errors import ContractionError, SpillError
from repro.ooc import MemoryBudget, SpillManager, ooc_contract
from repro.parallel import parallel_sparta
from repro.tensor import SparseTensor
from repro.tensor.random import random_tensor_fibered


@pytest.fixture(scope="module")
def pair():
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    return x, y, (2, 3), (0, 1)


def _no_orphans(root):
    return not glob.glob(os.path.join(root, "sptc-ooc-*"))


BUDGET_WITH_CACHE_CALLS = {
    "sparta": {"method": "sparta"},
    "parallel_thread": {"method": "parallel", "threads": 2},
    "parallel_process": {
        "method": "parallel", "threads": 2, "backend": "process",
    },
    "plan_auto": {"plan": "auto", "max_workers": 2},
}


@pytest.mark.parametrize(
    "options", BUDGET_WITH_CACHE_CALLS.values(),
    ids=list(BUDGET_WITH_CACHE_CALLS),
)
def test_memory_budget_rejects_hty_cache_on_every_engine(
    pair, options, shm_leak_check
):
    # Cached HtY builds bypass the budget's accounting; one rule in the
    # pipeline's budget front door refuses the pair on every engine.
    x, y, cx, cy = pair
    with pytest.raises(ContractionError, match="HtY cache"):
        contract(
            x, y, cx, cy,
            memory_budget="64K", use_hty_cache=True, **options,
        )


class TestOocEngine:
    def test_spill_flags_and_counters(self, pair):
        x, y, cx, cy = pair
        res = ooc_contract(
            x, y, cx, cy, memory_budget="1M", force_spill=True
        )
        prof = res.profile
        assert prof.flags["ooc"] == "spill"
        assert prof.counters["ooc_plan_out_of_core"] == 1
        assert prof.counters["ooc_spill_bytes"] > 0
        assert prof.counters["ooc_run_files"] >= 1
        assert prof.counters["ooc_budget_cap_bytes"] == 1 << 20
        assert prof.counters["ooc_budget_peak_bytes"] > 0

    def test_shared_budget_instance_accumulates(self, pair):
        x, y, cx, cy = pair
        budget = MemoryBudget("8M")
        ooc_contract(
            x, y, cx, cy, memory_budget=budget, force_spill=True
        )
        first = budget.charges
        assert first > 0
        ooc_contract(
            x, y, cx, cy, memory_budget=budget, force_spill=True
        )
        assert budget.charges > first
        assert budget.used == 0, "runs must release what they charge"

    def test_spill_root_honored_and_cleaned(self, pair, tmp_path):
        x, y, cx, cy = pair
        root = str(tmp_path)
        res = ooc_contract(
            x, y, cx, cy, memory_budget="1M", force_spill=True,
            spill_root=root,
        )
        assert res.profile.counters["ooc_spill_bytes"] > 0
        assert _no_orphans(root), "spill dir leaked under spill_root"
        assert os.listdir(root) == []

    def test_no_orphans_in_default_tmp(self, pair):
        x, y, cx, cy = pair
        before = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "sptc-ooc-*")
        ))
        ooc_contract(x, y, cx, cy, memory_budget="1M", force_spill=True)
        after = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "sptc-ooc-*")
        ))
        assert after <= before, "orphaned spill dirs left in tmp"

    def test_empty_x(self):
        x = SparseTensor(
            np.empty((0, 3), dtype=np.int64),
            np.empty(0, dtype=np.float64),
            (4, 5, 6),
        )
        y = random_tensor_fibered((6, 7), 20, 1, 5, seed=3)
        res = ooc_contract(
            x, y, (2,), (0,), memory_budget="1M", force_spill=True
        )
        assert res.tensor.nnz == 0

    def test_nosort_matches_in_core(self, pair):
        x, y, cx, cy = pair
        base = contract(
            x, y, cx, cy, method="sparta", swap_larger_to_y=False,
            sort_output=False,
        )
        ooc = ooc_contract(
            x, y, cx, cy, memory_budget="1M", force_spill=True,
            sort_output=False,
        )
        np.testing.assert_array_equal(
            ooc.tensor.indices, base.tensor.indices
        )
        np.testing.assert_array_equal(
            ooc.tensor.values, base.tensor.values
        )

    @pytest.mark.faults
    def test_parallel_worker_crash_leaves_no_run_files(self, tmp_path):
        # A killed worker abandons an unsealed run file; recovery must
        # still remove the whole spill tree at the end of the run.
        from repro.faults import ANY, FaultPlan, FaultSpec
        from repro.parallel import parallel_sparta

        x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
        y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=0, stage="index_search", unit=ANY
                ),
            )
        )
        root = str(tmp_path)
        par = parallel_sparta(
            x, y, (2, 3), (0, 1), threads=2, backend="process",
            fault_plan=plan, memory_budget="1M", force_spill=True,
            spill_root=root,
        )
        assert par.result.profile.counters["ft_worker_failures"] >= 1
        assert os.listdir(root) == [], "run files leaked after crash"


class TestRunFileAccounting:
    """Spill counters cover exactly the accepted chunks' run files."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_counts_one_file_per_chunk(self, pair, backend):
        x, y, cx, cy = pair
        par = parallel_sparta(
            x, y, cx, cy, threads=2, backend=backend,
            memory_budget="1M", force_spill=True,
        )
        c = par.result.profile.counters
        assert c["ooc_run_files"] == c["partition_ranges"]
        assert c["ooc_runs"] == c["partition_ranges"]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_unreadable_run_file_raises(self, pair, backend, monkeypatch):
        # An unreadable run file must raise, not leave the spill
        # counters silently under-reported.
        def unreadable(self, path):
            raise SpillError(f"{path}: unreadable")

        monkeypatch.setattr(SpillManager, "account_file", unreadable)
        x, y, cx, cy = pair
        with pytest.raises(SpillError, match="unreadable"):
            parallel_sparta(
                x, y, cx, cy, threads=2, backend=backend,
                memory_budget="1M", force_spill=True,
            )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_raising_run_returns_shared_budget(
        self, pair, threads, monkeypatch
    ):
        # A run that raises mid-way must still return its prepared X
        # and HtY to a caller's shared accountant.
        def unreadable(self, path):
            raise SpillError(f"{path}: unreadable")

        monkeypatch.setattr(SpillManager, "account_file", unreadable)
        x, y, cx, cy = pair
        budget = MemoryBudget("1M")
        with pytest.raises(SpillError, match="unreadable"):
            parallel_sparta(
                x, y, cx, cy, threads=threads, backend="thread",
                memory_budget=budget, force_spill=True,
            )
        assert budget.used == 0

    @pytest.mark.faults
    def test_rejected_chunk_files_not_counted(self, pair):
        # A corrupt chunk's sealed run file stays in the spill tree
        # until cleanup; only the recomputed, accepted file counts.
        from repro.faults import ANY, FaultPlan, FaultSpec

        x, y, cx, cy = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "corrupt", worker=0, stage="accumulation", unit=ANY
                ),
            )
        )
        par = parallel_sparta(
            x, y, cx, cy, threads=2, backend="process", fault_plan=plan,
            memory_budget="1M", force_spill=True,
        )
        c = par.result.profile.counters
        assert c["ft_corrupt_payloads"] >= 1
        assert c["ooc_run_files"] == c["partition_ranges"]
