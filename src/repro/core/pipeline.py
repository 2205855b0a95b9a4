"""The five-stage Sparta pipeline behind every fused engine (paper §3, §3.5).

Serial, out-of-core, thread-parallel and process-parallel Sparta are one
pipeline. Parallel Sparta is the serial algorithm with its outer
sub-tensor loop split across workers (§3.5), so "serial" here is simply
one inline worker. The pieces that vary are chosen per call:

* **stage 1** — X is sorted in the parent (:func:`prepare_x`). Y's search
  structure comes from what the call can observe: a sorted-COO Y for the
  SPA/COO baselines, an HtY cache hit, partial groupings streamed back
  by a process pool (which then stays up for stages 2–4), thread
  partials, spilled partials when the budget plan goes out of core, or
  a plain :meth:`HashTensor.from_coo`. Every partitioned build merges
  into the exact table ``from_coo`` builds;
* **stages 2–4** — the fused kernel (:func:`fused_compute`) runs over
  contiguous sub-tensor ranges through one of three chunk runners:
  inline, a thread pool, or the shared-memory process pool. Accepted
  chunk outputs go to one of two sinks: memory, or (out of core) one
  run file per chunk;
* **stage 5** — :func:`finish_output`, the only stage-5 implementation:
  the presorted check then concat, k-way merge or lexsort fallback
  (:func:`~repro.parallel.merge.merge_fused_runs`), or the streaming
  merge over run files when spilled. It charges the Table-2
  ``OUTPUT_SORTING`` traffic, and nothing else does.

Ranges cut at sub-tensor boundaries and are gathered in range order, so
every output key is reduced inside one range in X-row order and every
configuration is bit-identical to the element-wise reference; all
Table-2 traffic is charged from counts through the shared helpers in
:mod:`repro.core.kernels`, so it is byte-exact across configurations.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.common import (
    _sort_passes,
    coo_row_bytes,
    prepare_x,
    prepare_y_sorted,
)
from repro.core.htycache import HtYCache, cached_plan
from repro.core.kernels import (
    FusedRange,
    assemble_fused,
    fused_compute,
    hta_model_nbytes,
    record_computation_traffic,
    record_hty_build,
)
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.result import ContractionResult
from repro.core.stages import Stage
from repro.errors import ContractionError, PoolDegradedError
from repro.faults import (
    ANY,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    payload_digest,
)
from repro.hashtable.tensor_table import (
    HashTensor,
    build_partial_groups,
    split_contract_modes,
)
from repro.obs.tracer import (
    CAT_CONTRACTION,
    CAT_MERGE,
    CAT_SPILL,
    CAT_WORKER,
    NULL_TRACER,
    Tracer,
)
from repro.tensor.coo import SparseTensor

__all__ = [
    "ParallelResult",
    "ThreadStats",
    "even_spans",
    "finish_output",
    "run_pipeline",
    "swap_operands",
]


@dataclass
class ThreadStats:
    """Work done by one worker (thread or process)."""

    worker: int
    subtensors: int
    nnz_x: int
    products: int
    output_nnz: int
    seconds: float
    #: stage-1 partial-build seconds (0.0 when stage 1 ran serially)
    stage1_seconds: float = 0.0


@dataclass
class ParallelResult:
    """Contraction result plus per-worker accounting."""

    result: ContractionResult
    threads: int
    thread_stats: List[ThreadStats] = field(default_factory=list)
    #: which chunk runner ran stages 2-4 ("inline", "thread", "process")
    backend: str = "thread"
    #: measured end-to-end wall-clock seconds of the call (the real
    #: multi-core number on the process backend)
    wall_seconds: float = 0.0

    @property
    def load_imbalance(self) -> float:
        """max worker products / mean worker products."""
        loads = [s.products for s in self.thread_stats] or [0]
        mean = sum(loads) / len(loads)
        return (max(loads) / mean) if mean else 1.0


def even_spans(n: int, k: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into ≤ *k* near-equal contiguous spans."""
    k = max(min(int(k), int(n)), 1)
    bounds = [(i * n) // k for i in range(k + 1)]
    return [
        (bounds[i], bounds[i + 1])
        for i in range(k)
        if bounds[i + 1] > bounds[i]
    ]


def swap_operands(run, x, y, cx, cy, *, sort_output: bool, tracer=None):
    """The §3.3 rule: contract with the larger operand as Y.

    ``run(y, x, cy, cx)`` contracts the exchanged operands *without*
    stage 5 and returns a :class:`ContractionResult`; its output modes
    come out as (Fy, Fx), so they are permuted back to (Fx, Fy) and —
    because the permutation breaks the lexicographic order — sorted.
    """
    plan = cached_plan(x, y, cx, cy)
    res = run(y, x, cy, cx)
    tr = NULL_TRACER if tracer is None else tracer
    with tr.span(Stage.OUTPUT_SORTING.value, swapped=True):
        z = res.tensor.permute(plan.swap_output_permutation())
        if sort_output:
            z = z.sort()
    res.tensor = z
    res.plan = plan
    res.profile.counters["swapped_operands"] = 1
    return res


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
def run_pipeline(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    engine_name: str,
    backend: str = "inline",
    workers: int = 1,
    y_structure: str = "hash",
    accumulator: str = "hash",
    sort_output: bool = True,
    num_buckets: Optional[int] = None,
    accumulator_buckets: Optional[int] = None,
    x_format: str = "coo",
    hty_cache: Optional[HtYCache] = None,
    codegen: Optional[bool] = None,
    dense_threshold: Optional[float] = None,
    workspace_cap: Optional[int] = None,
    start_method: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_retries: int = 2,
    on_failure: str = "raise",
    unit_timeout: Optional[float] = None,
    timeout: Optional[float] = None,
    memory_budget=None,
    spill_root: Optional[str] = None,
    force_spill: bool = False,
    tracer: Optional[Tracer] = None,
) -> ParallelResult:
    """Run one SpTC through stages 1–5.

    ``backend`` picks the chunk runner: ``"inline"`` (one worker in the
    calling thread — the serial engines), ``"thread"`` or ``"process"``
    with *workers* workers. ``y_structure``/``accumulator`` select the
    paper's engine variants (``"coo"``/``"coo_bsearch"`` Y and the SPA
    accumulator run inline only). The parallel schedule has no
    switches: its workers build HtY whenever the call builds one (no
    cache hit, non-empty Y), stages 2-4 run over nnz-balanced sub-tensor
    ranges (``DEFAULT_CHUNKS_PER_WORKER`` work-stealing chunks per
    process worker) and stage 5 merges the presorted runs.

    ``memory_budget`` (bytes, a ``"64M"``-style string or a shared
    :class:`repro.ooc.MemoryBudget`) is the out-of-core front door:
    :func:`repro.planner.ooc.plan_ooc` decides in-core vs. spill
    (``flags["ooc"]``); spilling sends chunk outputs to run files under
    one :class:`~repro.ooc.SpillManager` directory, removed on return.
    ``force_spill`` pins the spill path. A budget rejects an
    ``hty_cache``: cached builds live outside the budget's accounting.

    Fault tolerance (``fault_plan``, ``max_retries``, ``on_failure``,
    ``unit_timeout``, ``timeout``) and ``start_method`` apply to the
    parallel runners only; see :func:`repro.parallel.parallel_sparta`.
    """
    plan = cached_plan(x, y, cx, cy)
    clock = time.perf_counter
    tr = NULL_TRACER if tracer is None else tracer
    profile = RunProfile(engine_name)
    policy = rlog = injector = None
    per_worker = 1
    if backend != "inline":
        from repro.parallel.procpool import (
            DEFAULT_CHUNKS_PER_WORKER,
            RecoveryLog,
            RecoveryPolicy,
        )

        if backend == "process":
            per_worker = DEFAULT_CHUNKS_PER_WORKER
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        policy = RecoveryPolicy(
            max_retries=max_retries,
            on_failure=on_failure,
            unit_timeout=unit_timeout,
            timeout=timeout,
        )
        rlog = RecoveryLog(tracer=tracer)
        if backend == "thread" and fault_plan:
            injector = FaultInjector(
                fault_plan, kill_mode="raise", tracer=tracer
            )
    budget = decision = spill = pool = None
    # what this run has charged to the budget, returned even on error:
    # a caller's shared accountant outlives the run
    charged = {}
    wall0 = clock()
    try:
        if memory_budget is not None:
            budget, decision, spill = _plan_budget(
                x, y, plan, memory_budget, hty_cache,
                workers=workers, force_spill=force_spill,
                spill_root=spill_root,
            )
        # ---------------- stage 1: input processing ------------------
        t0 = clock()
        stage1_secs = None
        if backend == "process":
            from repro.parallel.executor import start_pool

            # Start the workers *before* preparing X so the parent's
            # sort of X overlaps the partial builds. They get Y spans
            # only when they build HtY (no cache; an empty Y has none).
            pool = start_pool(
                y, plan, workers,
                spans=(
                    even_spans(y.nnz, workers) if hty_cache is None
                    else []
                ),
                start_method=start_method, policy=policy,
                fault_plan=fault_plan, log=rlog,
                spill_dir=spill.root if spill is not None else None,
            )
        px = prepare_x(x, plan, profile, x_format=x_format)
        px_nbytes = int(
            px.ptr.nbytes + px.fx_rows.nbytes + px.cx_ln.nbytes
            + px.values.nbytes
        )
        if budget is not None:
            charged["prepared_x"] = px_nbytes
            budget.charge("prepared_x", px_nbytes)
        resident = 0
        if y_structure != "hash":
            source = prepare_y_sorted(y, plan, profile)
        else:
            cached = False
            partials = None
            if pool is not None:
                partials, stage1_secs = pool.drain_partials()
            if partials:
                _, _, cdims, fdims = split_contract_modes(
                    y.order, y.shape, plan.cy
                )
                source = HashTensor.merge_partials(
                    partials, fdims, cdims, num_buckets=num_buckets
                )
            elif hty_cache is not None:
                source, cached = hty_cache.get_or_build(
                    y, plan.cy, num_buckets=num_buckets
                )
                if not cached:
                    profile.bump("hty_cache_misses")
            elif spill is not None and backend == "inline":
                from repro.ooc.engine import build_hty_spilled

                source = build_hty_spilled(
                    y, plan.cy, decision, spill, budget, num_buckets,
                    tr, clock,
                )
            elif backend == "thread" and workers > 1 and y.nnz > 0:
                source = _build_hty_threads(
                    y, plan.cy, workers, num_buckets,
                    injector=injector, policy=policy, log=rlog,
                )
            else:
                source = HashTensor.from_coo(
                    y, plan.cy, num_buckets=num_buckets
                )
            record_hty_build(y, source, profile, cached=cached)
            resident = _resident_nbytes(source)
        t1 = clock()
        profile.add_time(Stage.INPUT_PROCESSING, t1 - t0)
        tr.add_span(Stage.INPUT_PROCESSING.value, start=t0, end=t1)
        profile.bump("num_subtensors", px.num_subtensors)
        if budget is not None:
            charged["hty"] = resident
            budget.charge("hty", resident)

        # ---------------- stages 2-4: chunked computation ------------
        from repro.parallel.partition import partition_subtensors

        num_chunks = max(
            workers * per_worker,
            decision.num_chunks if spill is not None else 1,
        )
        ranges = partition_subtensors(px.ptr, num_chunks)
        profile.counters["partition_ranges"] = len(ranges)
        tc0 = clock()
        if backend == "process":
            from repro.parallel.executor import run_process_chunks

            fused, stats, counter_dicts, hash_probes, imbalance = (
                run_process_chunks(
                    pool, px, source, ranges,
                    workers=workers, spill=spill, stage1_secs=stage1_secs,
                )
            )
        else:
            kernel = {
                "y_structure": y_structure,
                "accumulator": accumulator,
                "accumulator_buckets": accumulator_buckets,
                "codegen": codegen,
            }
            if dense_threshold is not None:
                kernel["dense_threshold"] = dense_threshold
            if workspace_cap is not None:
                kernel["workspace_cap"] = workspace_cap
            if spill is not None:
                kernel["chunk_pairs"] = decision.chunk_pairs
            fused, stats, counter_dicts, hash_probes, imbalance = (
                _run_ranges(
                    px, source, ranges, kernel,
                    workers=workers, clock=clock,
                    injector=injector, policy=policy, log=rlog,
                    tracer=tracer if backend == "thread" else None,
                    sink=(
                        _spill_sink(spill, budget, tr, clock)
                        if spill is not None else None
                    ),
                )
            )
        tc1 = clock()
        if pool is not None:
            pool.close()
            pool = None

        # Per-stage seconds are *parent wall-clock*: worker timers
        # overlap in real time, so the compute-phase wall is apportioned
        # between search and accumulation by the workers' busy time.
        compute_wall = tc1 - tc0
        search_sum = sum(fr.search_seconds for fr in fused)
        busy = search_sum + sum(fr.accum_seconds for fr in fused)
        fsearch = (search_sum / busy) if busy > 0 else 0.5
        profile.add_time(Stage.INDEX_SEARCH, compute_wall * fsearch)
        profile.add_time(Stage.ACCUMULATION, compute_wall * (1.0 - fsearch))
        if tr.enabled:
            mid = tc0 + compute_wall * fsearch
            tr.add_span(Stage.INDEX_SEARCH.value, start=tc0, end=mid,
                        measured="apportioned")
            tr.add_span(Stage.ACCUMULATION.value, start=mid, end=tc1,
                        measured="apportioned")
        for counters in counter_dicts:
            profile.bump_many(counters)
        products = sum(fr.products for fr in fused)
        profile.bump("products", products)
        profile.bump("accum_probes", sum(fr.accum_probes for fr in fused))

        # ---------------- stages 4-5: gather + output sorting ------
        zl_row = 8 * len(plan.fx) + 16
        z = finish_output(
            fused, px.fx_rows, plan, profile,
            sort_output=sort_output,
            spill=spill,
            # Z_local is per worker on the parallel runners; inline, the
            # one worker's Z_local is the whole output
            zlocal_peak_bytes=(
                None if backend == "inline"
                else max((fr.nnz * zl_row for fr in fused), default=0)
            ),
            codegen=codegen,
            clock=clock,
            tracer=tracer,
        )
        if hash_probes is not None:
            profile.counters["hash_probes"] = hash_probes
        if accumulator == "hash":
            hta_peak = hta_model_nbytes(
                max((fr.max_group_output for fr in fused), default=0),
                accumulator_buckets,
            )
        else:
            hta_peak = max((fr.spa_peak_bytes for fr in fused), default=0)
        record_computation_traffic(
            plan,
            profile,
            x,
            uses_hty=y_structure == "hash",
            products=products,
            hta_peak_bytes=hta_peak,
            created=z.nnz,
        )
        profile.counters["load_imbalance_x1000"] = int(imbalance * 1000)
        if rlog is not None:
            if rlog.counters:
                profile.bump_many(rlog.counters)
            if rlog.degraded:
                profile.set_flag("degraded", "serial")
        if budget is not None:
            profile.set_flag(
                "ooc", "spill" if spill is not None else "in_core"
            )
            profile.counters.update(decision.counters())
            if spill is not None:
                profile.counters.update(spill.counters())
            profile.counters.update(budget.counters())
        wall = clock() - wall0
        tr.add_span(
            engine_name,
            start=wall0,
            end=wall0 + wall,
            cat=CAT_CONTRACTION,
            engine=engine_name,
            backend=backend,
            threads=workers,
            nnz_out=int(z.nnz),
        )
        return ParallelResult(
            result=ContractionResult(z, profile, plan),
            threads=workers,
            thread_stats=stats,
            backend=backend,
            wall_seconds=wall,
        )
    finally:
        while charged:
            budget.release(*charged.popitem())
        if pool is not None:
            pool.close()
        if spill is not None:
            spill.close()


def _plan_budget(x, y, plan, memory_budget, hty_cache, *, workers,
                 force_spill, spill_root):
    """The budget front door: accountant, spill decision, spill tree."""
    if hty_cache is not None:
        raise ContractionError(
            "memory_budget is incompatible with the HtY cache (cached "
            "builds bypass budget accounting); drop use_hty_cache or "
            "the budget"
        )
    # Imported lazily: repro.ooc imports this module.
    from repro.ooc.budget import MemoryBudget
    from repro.ooc.spill import SpillManager
    from repro.planner.ooc import plan_ooc
    from repro.planner.stats import contraction_stats

    budget = (
        memory_budget
        if isinstance(memory_budget, MemoryBudget)
        else MemoryBudget(memory_budget)
    )
    decision = plan_ooc(
        contraction_stats(x, y, plan),
        budget.cap,
        workers=workers,
        force_spill=force_spill,
    )
    spill = SpillManager(spill_root) if decision.out_of_core else None
    return budget, decision, spill


def _resident_nbytes(hty: HashTensor) -> int:
    """HtY bytes held in RAM (payload arrays demoted to disk excluded)."""
    return int(hty.nbytes) - sum(
        int(a.nbytes) for a in (hty.free_ln, hty.values)
        if isinstance(a, np.memmap)
    )


def _join(parts: List[np.ndarray]) -> np.ndarray:
    """Concatenate run arrays, without a copy when there is one run."""
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


# ----------------------------------------------------------------------
# stage 5
# ----------------------------------------------------------------------
def finish_output(
    fused: Sequence,
    fx_rows: np.ndarray,
    plan,
    profile: RunProfile,
    *,
    sort_output: bool,
    spill=None,
    zlocal_peak_bytes: Optional[int] = None,
    codegen: Optional[bool] = None,
    clock=time.perf_counter,
    tracer: Optional[Tracer] = None,
) -> SparseTensor:
    """Stages 4–5: gather the chunk outputs into Z, sorted.

    *fused* holds per-range outputs (``out_fgrp``/``out_fy``/
    ``out_vals``) in range order. Gathering them is Algorithm 2 line 17;
    the fused kernel already leaves each run in ``(fgrp, fy)`` order, so
    stage 5 is a merge rather than a sort:

    * in memory, :func:`~repro.parallel.merge.merge_fused_runs` checks
      the runs (``concat`` when they are globally ordered, ``kway`` when
      they overlap) and falls back to the full lexsort on packed-key
      overflow or an unsorted run — ``output_merge_<path>`` counts the
      path taken;
    * spilled (*spill* given), the streaming k-way merge over the
      mmapped run files assembles Z block by block
      (:func:`repro.ooc.engine.stream_finalize`).

    Every path is byte-identical to ``z.sort()``. The Table-2 stage-5
    traffic is the sort's access signature whichever path ran, and is
    charged here and nowhere else.
    """
    tr = NULL_TRACER if tracer is None else tracer
    if spill is not None:
        from repro.ooc.engine import stream_finalize

        z = stream_finalize(
            [
                {"fgrp": fr.out_fgrp, "fy": fr.out_fy, "vals": fr.out_vals}
                for fr in fused
            ],
            fx_rows,
            plan,
            profile,
            spill,
            clock=clock,
            tracer=tracer,
            zlocal_peak_bytes=zlocal_peak_bytes,
        )
        if sort_output:
            # The streaming merge *is* the stage-5 sort.
            profile.add_time(Stage.OUTPUT_SORTING, 0.0)
            profile.bump("output_merge_stream")
    else:
        from repro.parallel.merge import merge_fused_runs

        t0 = clock()
        if sort_output:
            fgrp, fy, vals, presorted, path = merge_fused_runs(
                fused, plan.fy_dims
            )
        else:
            fgrp, fy, vals = (
                _join([getattr(fr, name) for fr in fused])
                for name in ("out_fgrp", "out_fy", "out_vals")
            )
        merge_seconds = clock() - t0
        if sort_output:
            tr.add_span("merge_output", start=t0, end=t0 + merge_seconds,
                        cat=CAT_MERGE)
        t0 = clock()
        z = assemble_fused(
            fgrp, fy, vals, fx_rows, plan, profile,
            zlocal_peak_bytes=zlocal_peak_bytes,
            codegen=codegen,
        )
        t1 = clock()
        profile.add_time(Stage.WRITEBACK, t1 - t0)
        tr.add_span(Stage.WRITEBACK.value, start=t0, end=t1)
        if sort_output:
            t0 = clock()
            if not presorted:
                z = z.sort()
            t1 = clock()
            profile.add_time(Stage.OUTPUT_SORTING, merge_seconds + (t1 - t0))
            tr.add_span(
                Stage.OUTPUT_SORTING.value, start=t0, end=t1,
                merge_seconds=merge_seconds,
            )
            profile.bump(f"output_merge_{path}")
    if sort_output:
        # A merge of sorted runs and a lexsort both move every output
        # row once per pass; Table-2 cells must not depend on the path.
        nbytes = int(
            z.nnz * coo_row_bytes(plan.out_order) * _sort_passes(z.nnz)
        )
        for kind in (AccessKind.READ, AccessKind.WRITE):
            profile.record_traffic(
                DataObject.Z, Stage.OUTPUT_SORTING, kind,
                AccessPattern.RANDOM, nbytes,
            )
    return z


# ----------------------------------------------------------------------
# stages 2-4: the inline and thread chunk runners, and the run-file sink
# ----------------------------------------------------------------------
def _private_hty_view(hty: HashTensor) -> HashTensor:
    """Zero-copy HtY view with a private probe counter.

    Retried thread-backend attempts probe the same table arrays through
    a fresh view, so only the *accepted* attempt's probes fold into the
    profile — keeping ``hash_probes`` byte-exact with serial even when
    a fault forced recomputation.
    """
    table = hty.table
    return HashTensor.from_shared_buffers(
        heads=table.heads,
        keys=table.keys[: table.size],
        nxt=table.nxt[: table.size],
        group_ptr=hty.group_ptr,
        free_ln=hty.free_ln,
        values=hty.values,
        free_dims=hty.free_dims,
        contract_dims=hty.contract_dims,
    )


def _fault_retry(unit, policy, log, attempt, serial_attempt, what):
    """In-process analogue of the process pool's reassign/respawn loop.

    Thread-backend faults surface as :class:`~repro.faults.InjectedFault`
    (a hard kill makes no sense in-process); each retry re-runs the same
    unit. Pinned-worker specs are one-shot in the shared injector, so a
    single fault recovers on the first retry; ``worker=ANY`` specs
    refire every attempt and exhaust the budget — then *serial_attempt*
    (injection disabled) runs under ``on_failure="serial"`` or
    :class:`~repro.errors.PoolDegradedError` propagates. Mirrors the
    process backend's failure semantics so tests can fuzz both.
    """
    tries = 0
    while True:
        try:
            return attempt()
        except InjectedFault as exc:
            tries += 1
            log.bump("ft_worker_failures")
            log.failures.append(f"thread {what} {unit}: {exc}")
            if tries > policy.max_retries:
                if policy.on_failure == "serial":
                    log.degraded = True
                    log.bump("ft_degraded_serial")
                    return serial_attempt()
                raise PoolDegradedError(
                    f"thread {what} {unit} still failing after "
                    f"{policy.max_retries} retry round(s): {exc}"
                ) from exc
            log.bump("ft_recovery_rounds")
            log.bump("ft_reassigned_units")
            time.sleep(policy.backoff(tries))


def _build_hty_threads(y, cy, threads, num_buckets, *, injector=None,
                       policy=None, log=None) -> HashTensor:
    """Stage 1 on the thread backend: partial builds + merge.

    NumPy releases the GIL inside the argsorts that dominate the partial
    builds, so even Python threads overlap the heavy part; the merge is
    bit-identical to a serial :meth:`HashTensor.from_coo`.
    """
    cmodes, fmodes, cdims, fdims = split_contract_modes(
        y.order, y.shape, cy
    )

    def build_span(lo: int, hi: int):
        return build_partial_groups(
            y.indices, y.values, cmodes, fmodes, cdims, fdims, lo, hi
        )

    def build(args):
        wid, (lo, hi) = args
        if injector is None:
            return build_span(lo, hi)

        def attempt():
            injector.fire("input_processing", wid, worker=wid)
            pg = build_span(lo, hi)
            arrays = (pg.group_keys, pg.group_ptr, pg.free_ln, pg.values)
            digest = payload_digest(*arrays)
            if injector.maybe_corrupt(
                "input_processing", wid, (pg.values,), worker=wid
            ) and payload_digest(*arrays) != digest:
                log.bump("ft_corrupt_payloads")
                raise InjectedFault(f"corrupt partial payload (span {wid})")
            return pg

        return _fault_retry(
            wid, policy, log, attempt, lambda: build_span(lo, hi), "span"
        )

    tasks = list(enumerate(even_spans(y.nnz, threads)))
    with ThreadPoolExecutor(max_workers=threads) as tpool:
        partials = list(tpool.map(build, tasks))
    return HashTensor.merge_partials(
        partials, fdims, cdims, num_buckets=num_buckets
    )


def _spill_sink(spill, budget, tr, clock):
    """Run-file sink: one sealed run file per accepted chunk output.

    Only accepted outputs reach it (post fault-retry, post digest check
    — injected corruption must never reach a read-only map). Each is
    written, accounted (an unreadable file raises) and returned as an
    mmapped view so the in-memory arrays can be collected. The lock
    serializes the spill manager's name sequence and counters and the
    budget, which are not thread-safe.
    """
    from repro.ooc.runfile import load_fused_ref, spill_fused_range

    lock = threading.Lock()

    def sink(fr: FusedRange) -> FusedRange:
        nbytes = int(
            fr.out_fgrp.nbytes + fr.out_fy.nbytes + fr.out_vals.nbytes
        )
        with lock:
            path = spill.path("chunk.run")
            budget.charge("fused_chunk", nbytes)
        t0 = clock()
        try:
            ref = spill_fused_range(fr, path)
        finally:
            with lock:
                budget.release("fused_chunk", nbytes)
        tr.add_span("spill_run", start=t0, end=clock(), cat=CAT_SPILL,
                    rows=int(fr.nnz), bytes=nbytes)
        with lock:
            spill.account_file(path).close()
        return load_fused_ref(ref)

    return sink


def _run_ranges(px, source, ranges, kernel, *, workers, clock,
                injector=None, policy=None, log=None, tracer=None,
                sink=None):
    """Stages 2–4 over *ranges*, inline or on a thread pool.

    One worker (or one range) runs in the calling thread. Without an
    injector every range probes *source* directly and ``hash_probes``
    is the table's counter delta. With one, each attempt probes through
    a private zero-copy view (:func:`_private_hty_view`) and only
    accepted attempts contribute probes — a failed attempt's probes
    must not inflate the Table-2/Eq.(3) accounting.
    """
    from repro.parallel.partition import partition_imbalance

    table = getattr(source, "table", None)
    probes0 = table.probes if table is not None else 0

    def run_range(wid, lo, hi, src):
        t_start = clock()
        wprofile = RunProfile(f"range{wid}")
        fr = fused_compute(
            px, src, profile=wprofile, lo=lo, hi=hi, clock=clock, **kernel
        )
        t_end = clock()
        if tracer is not None:
            # list.append is atomic under the GIL, so worker threads
            # record straight onto the shared tracer.
            tracer.add_span(
                "chunk", start=t_start, end=t_end, cat=CAT_WORKER,
                tid=wid + 1, unit=wid, subtensors=int(hi - lo),
                products=int(fr.products),
            )
        return fr, wprofile, ThreadStats(
            worker=wid,
            subtensors=hi - lo,
            nnz_x=int(px.ptr[hi] - px.ptr[lo]),
            products=fr.products,
            output_nnz=fr.nnz,
            seconds=t_end - t_start,
        )

    def worker(task):
        wid, lo, hi = task
        if injector is None:
            out = run_range(wid, lo, hi, source) + (None,)
        else:
            def attempt():
                injector.fire("index_search", wid, worker=wid)
                view = _private_hty_view(source)
                out = run_range(wid, lo, hi, view)
                fr = out[0]
                injector.fire("accumulation", wid, worker=wid)
                arrays = (fr.out_fgrp, fr.out_fy, fr.out_vals)
                digest = payload_digest(*arrays)
                if injector.maybe_corrupt(
                    "accumulation", wid, (fr.out_vals,), worker=wid
                ) and payload_digest(*arrays) != digest:
                    log.bump("ft_corrupt_payloads")
                    raise InjectedFault(
                        f"corrupt chunk payload (range {wid})"
                    )
                injector.fire("writeback", wid, worker=wid)
                injector.fire("output_sorting", ANY, worker=wid)
                return out + (view.table.probes,)

            def serial_attempt():
                view = _private_hty_view(source)
                return run_range(wid, lo, hi, view) + (view.table.probes,)

            out = _fault_retry(
                wid, policy, log, attempt, serial_attempt, "range"
            )
        if sink is not None:
            out = (sink(out[0]),) + out[1:]
        return out

    tasks = [(i, lo, hi) for i, (lo, hi) in enumerate(ranges)]
    if workers == 1 or len(tasks) <= 1:
        outputs = [worker(t) for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(worker, tasks))
    if table is None:
        hash_probes = None
    elif injector is None:
        hash_probes = table.probes - probes0
    else:
        hash_probes = sum(p for _, _, _, p in outputs)
    return (
        [fr for fr, _, _, _ in outputs],
        [s for _, _, s, _ in outputs],
        [dict(wp.counters) for _, wp, _, _ in outputs],
        hash_probes,
        partition_imbalance(px.ptr, ranges),
    )
