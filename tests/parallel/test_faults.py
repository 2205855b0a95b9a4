"""Fault-tolerant parallel execution under deterministic fault injection.

Every test here disturbs a `parallel_sparta` run with a
:class:`repro.faults.FaultPlan` — killing, hanging, or corrupting a
worker at a chosen pipeline stage — and asserts the recovery machinery
in :mod:`repro.parallel.procpool` restores the undisturbed contract:
output bit-identical to the serial fused engine, byte-exact Table-2
traffic cells, exact probe/product counters, and no leaked
shared-memory segment. The suite is marked ``faults`` and runs in the
CI chaos job, not in the default tier-1 selection.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from collections import defaultdict

import numpy as np
import pytest

from repro.core import contract
from repro.errors import (
    ContractionError,
    ParallelError,
    PoolDegradedError,
)
from repro.faults import (
    ANY,
    FAULT_STAGES,
    FaultPlan,
    FaultSpec,
    payload_digest,
)
from repro.parallel import parallel_sparta
from repro.tensor import random_tensor_fibered

pytestmark = pytest.mark.faults

MODES = ((2, 3), (0, 1))


def traffic_by_cell(profile):
    """Total bytes per (object, stage, kind, pattern) Table-2 cell."""
    cells = defaultdict(int)
    for rec in profile.traffic:
        cells[(rec.obj, rec.stage, rec.kind, rec.pattern)] += rec.nbytes
    return dict(cells)


def kill_at(stage, worker=0, unit=ANY):
    return FaultPlan(
        specs=(FaultSpec("kill", worker=worker, stage=stage, unit=unit),)
    )


@pytest.fixture(scope="module")
def pair():
    x = random_tensor_fibered((12, 14, 16, 18), 1200, 2, 48, seed=91)
    y = random_tensor_fibered((16, 18, 10, 12), 2000, 2, 200, seed=92)
    return x, y


@pytest.fixture(scope="module")
def serial(pair):
    x, y = pair
    res = contract(
        x, y, *MODES, method="sparta", swap_larger_to_y=False
    )
    return res


def assert_matches_serial(par, serial, label):
    """Faulty run == serial: output bytes, traffic cells, counters."""
    ref = serial.tensor.sort()
    z = par.result.tensor.sort()
    np.testing.assert_array_equal(
        z.indices, ref.indices, err_msg=f"{label}: index mismatch"
    )
    np.testing.assert_array_equal(
        z.values, ref.values, err_msg=f"{label}: value bytes differ"
    )
    cells = traffic_by_cell(par.result.profile)
    serial_cells = traffic_by_cell(serial.profile)
    assert cells.keys() == serial_cells.keys(), label
    for cell, nbytes in serial_cells.items():
        assert cells[cell] == nbytes, (
            f"{label}: traffic drifts on {cell}: "
            f"{cells[cell]} != serial {nbytes}"
        )
    for counter in ("hash_probes", "search_probes", "products"):
        assert (
            par.result.profile.counters.get(counter)
            == serial.profile.counters.get(counter)
        ), f"{label}: counter {counter}"


def wait_no_children(timeout=10.0):
    """All worker processes reaped within *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not mp.active_children():
            return True
        time.sleep(0.05)
    return not mp.active_children()


class TestKillRecovery:
    """Killing one worker at any stage leaves no trace in the result."""

    @pytest.mark.parametrize("stage", FAULT_STAGES)
    def test_process_backend_survives_kill(
        self, pair, serial, stage, shm_leak_check
    ):
        x, y = pair
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process",
            fault_plan=kill_at(stage),
        )
        assert_matches_serial(par, serial, f"kill@{stage}")
        assert (
            par.result.profile.counters.get("ft_worker_failures", 0) >= 1
        ), f"kill@{stage} never fired"
        assert "degraded" not in par.result.profile.flags
        assert wait_no_children()

    @pytest.mark.parametrize("stage", FAULT_STAGES)
    def test_process_backend_survives_kill_on_hty_cache_hit(
        self, pair, stage, shm_leak_check
    ):
        # A cache hit gives the pool no stage-1 spans, so its workers
        # go straight to the chunk phase: stage-1 faults cannot fire
        # (HtY comes from the parent) but must not break it, and
        # chunk-phase recovery runs with no partials drained.
        from repro.core.htycache import HtYCache

        x, y = pair
        cache = HtYCache()
        cache.get_or_build(y, MODES[1])
        serial_hit = contract(
            x, y, *MODES, method="sparta", swap_larger_to_y=False,
            hty_cache=cache,
        )
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process", hty_cache=cache,
            fault_plan=kill_at(stage),
        )
        assert par.result.profile.counters.get("hty_cache_hits") == 1
        assert_matches_serial(par, serial_hit, f"kill@{stage}/cache-hit")
        if stage != "input_processing":
            assert (
                par.result.profile.counters.get("ft_worker_failures", 0)
                >= 1
            )
        assert wait_no_children()

    @pytest.mark.parametrize("stage", FAULT_STAGES)
    def test_thread_backend_survives_kill(self, pair, serial, stage):
        # On threads a "kill" surfaces as InjectedFault and is retried
        # in-process; only the accepted attempt's probes may count.
        x, y = pair
        par = parallel_sparta(
            x, y, *MODES,
            threads=3, backend="thread",
            fault_plan=kill_at(stage),
        )
        assert_matches_serial(par, serial, f"thread-kill@{stage}")
        assert (
            par.result.profile.counters.get("ft_worker_failures", 0) >= 1
        )

    def test_kill_pinned_to_specific_chunk(
        self, pair, serial, shm_leak_check
    ):
        x, y = pair
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process",
            fault_plan=kill_at("index_search", worker=1, unit=2),
        )
        assert_matches_serial(par, serial, "kill@chunk2")


class TestHangsAndTimeouts:
    def test_hung_worker_is_killed_and_chunk_reassigned(
        self, pair, serial, shm_leak_check
    ):
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "delay", worker=0, stage="index_search", seconds=30.0
                ),
            )
        )
        t0 = time.monotonic()
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process",
            fault_plan=plan, unit_timeout=1.0,
        )
        elapsed = time.monotonic() - t0
        assert_matches_serial(par, serial, "hang->reassign")
        counters = par.result.profile.counters
        assert counters.get("ft_hung_workers", 0) >= 1
        assert counters.get("ft_reassigned_units", 0) >= 1
        assert elapsed < 25.0, "hang detector never fired"
        assert wait_no_children()

    def test_phase_timeout_names_pending_chunks(
        self, pair, shm_leak_check
    ):
        # The whole-phase deadline is not recoverable: it must raise,
        # name the still-pending chunk ids, and reap every worker.
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "delay", worker=0, stage="index_search", seconds=30.0
                ),
            )
        )
        with pytest.raises(ParallelError, match=r"timed out") as exc:
            parallel_sparta(
                x, y, *MODES,
                threads=2, backend="process",
                fault_plan=plan, timeout=2.0,
            )
        message = str(exc.value)
        assert "chunks [" in message, message
        assert any(ch.isdigit() for ch in message.split("chunks [")[1])
        assert wait_no_children()

    def test_thread_delay_is_benign(self, pair, serial):
        # Threads cannot be preempted mid-unit; a delay just slows the
        # run and must not perturb anything.
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "delay", worker=0, stage="accumulation", seconds=0.05
                ),
            )
        )
        par = parallel_sparta(
            x, y, *MODES, threads=3, backend="thread", fault_plan=plan
        )
        assert_matches_serial(par, serial, "thread-delay")


class TestRetryExhaustion:
    def irrecoverable_plan(self):
        # worker=ANY matches every worker including respawned ones, so
        # chunk 0 can never complete in a worker process.
        return FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=ANY, stage="index_search", unit=0
                ),
            )
        )

    def test_raises_pool_degraded_after_retries(
        self, pair, shm_leak_check
    ):
        x, y = pair
        with pytest.raises(PoolDegradedError, match=r"retry") as exc:
            parallel_sparta(
                x, y, *MODES,
                threads=2, backend="process",
                fault_plan=self.irrecoverable_plan(), max_retries=1,
            )
        assert "died" in str(exc.value)
        assert wait_no_children()

    def test_degrades_to_serial_when_requested(
        self, pair, serial, shm_leak_check
    ):
        x, y = pair
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process",
            fault_plan=self.irrecoverable_plan(),
            max_retries=1, on_failure="serial",
        )
        assert_matches_serial(par, serial, "degraded-serial")
        profile = par.result.profile
        assert profile.flags.get("degraded") == "serial"
        assert profile.counters.get("ft_degraded_serial", 0) >= 1
        assert profile.counters.get("ft_recovery_rounds", 0) >= 1
        # The serial fallback reports as worker -1 in the stats.
        assert any(s.worker == -1 for s in par.thread_stats)
        assert wait_no_children()

    def test_thread_backend_degrades_to_serial(self, pair, serial):
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=ANY, stage="index_search", unit=ANY
                ),
            )
        )
        par = parallel_sparta(
            x, y, *MODES,
            threads=3, backend="thread",
            fault_plan=plan, max_retries=1, on_failure="serial",
        )
        assert_matches_serial(par, serial, "thread-degraded")
        assert par.result.profile.flags.get("degraded") == "serial"

    def test_thread_backend_raises_after_retries(self, pair):
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "kill", worker=ANY, stage="index_search", unit=ANY
                ),
            )
        )
        with pytest.raises(PoolDegradedError):
            parallel_sparta(
                x, y, *MODES,
                threads=3, backend="thread",
                fault_plan=plan, max_retries=1,
            )


class TestCorruption:
    @pytest.mark.parametrize("backend,threads", [("process", 2), ("thread", 3)])
    def test_corrupt_chunk_payload_detected(
        self, pair, serial, backend, threads, shm_leak_check
    ):
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec("corrupt", worker=0, stage="accumulation"),
            )
        )
        par = parallel_sparta(
            x, y, *MODES,
            threads=threads, backend=backend, fault_plan=plan,
        )
        assert_matches_serial(par, serial, f"corrupt@{backend}")
        assert (
            par.result.profile.counters.get("ft_corrupt_payloads", 0)
            >= 1
        ), "corruption was never detected"

    def test_corrupt_partial_payload_detected(
        self, pair, serial, shm_leak_check
    ):
        x, y = pair
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "corrupt", worker=0, stage="input_processing"
                ),
            )
        )
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process", fault_plan=plan,
        )
        assert_matches_serial(par, serial, "corrupt-partial")
        assert (
            par.result.profile.counters.get("ft_corrupt_payloads", 0)
            >= 1
        )

    def test_payload_digest_is_order_and_shape_sensitive(self):
        a = np.arange(6, dtype=np.int64)
        b = np.arange(6, dtype=np.float64)
        assert payload_digest(a) != payload_digest(b)
        assert payload_digest(a, b) != payload_digest(b, a)
        assert payload_digest(a.reshape(2, 3)) != payload_digest(a)
        c = a.copy()
        c[0] += 1
        assert payload_digest(c) != payload_digest(a)


class TestActivationPaths:
    def test_env_var_activates_plan(
        self, pair, serial, monkeypatch, shm_leak_check
    ):
        x, y = pair
        monkeypatch.setenv(
            "REPRO_FAULTS", kill_at("accumulation").to_json()
        )
        par = parallel_sparta(x, y, *MODES, threads=2, backend="process")
        assert_matches_serial(par, serial, "env-activated")
        assert (
            par.result.profile.counters.get("ft_worker_failures", 0) >= 1
        )

    def test_explicit_plan_overrides_env(self, pair, monkeypatch):
        x, y = pair
        monkeypatch.setenv(
            "REPRO_FAULTS",
            FaultPlan(
                specs=(
                    FaultSpec(
                        "kill", worker=ANY, stage="index_search"
                    ),
                )
            ).to_json(),
        )
        # The explicit empty plan wins: no faults, no failures.
        par = parallel_sparta(
            x, y, *MODES,
            threads=2, backend="process", fault_plan=FaultPlan(),
        )
        assert (
            par.result.profile.counters.get("ft_worker_failures", 0) == 0
        )

    def test_malformed_env_plan_raises(self, pair, monkeypatch):
        x, y = pair
        monkeypatch.setenv("REPRO_FAULTS", "{not json")
        with pytest.raises(ContractionError, match="REPRO_FAULTS"):
            parallel_sparta(x, y, *MODES, threads=2)

    def test_contract_passes_fault_plan_through(
        self, pair, serial, shm_leak_check
    ):
        x, y = pair
        res = contract(
            x, y, *MODES,
            method="parallel", threads=2, backend="process",
            fault_plan=kill_at("index_search"),
        )
        ref = serial.tensor.sort()
        z = res.tensor.sort()
        np.testing.assert_array_equal(z.indices, ref.indices)
        np.testing.assert_array_equal(z.values, ref.values)
        assert res.profile.counters.get("ft_worker_failures", 0) >= 1

    def test_seeded_plans_are_deterministic(self):
        for seed in range(20):
            assert FaultPlan.from_seed(seed) == FaultPlan.from_seed(seed)
        kinds = {
            FaultPlan.from_seed(s).specs[0].kind for s in range(40)
        }
        assert kinds == {"kill", "delay", "corrupt"}


class TestShmLifecycle:
    def test_undisturbed_run_leaks_nothing(self, pair, shm_leak_check):
        x, y = pair
        parallel_sparta(x, y, *MODES, threads=2, backend="process")

    def test_degraded_run_leaks_nothing(self, pair, shm_leak_check):
        x, y = pair
        with pytest.raises(PoolDegradedError):
            parallel_sparta(
                x, y, *MODES,
                threads=2, backend="process", max_retries=0,
                fault_plan=FaultPlan(
                    specs=(
                        FaultSpec(
                            "kill",
                            worker=ANY,
                            stage="index_search",
                            unit=0,
                        ),
                    )
                ),
            )
        assert wait_no_children()
