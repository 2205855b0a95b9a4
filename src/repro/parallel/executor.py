"""Parallel Sparta (paper §3.5) — thread and process backends, all stages.

The outer loop over X's mode-F sub-tensors is embarrassingly parallel
once each worker owns a private accumulator and Z_local buffer, so
parallel Sparta is the serial five-stage pipeline
(:func:`repro.core.pipeline.run_pipeline`) with its chunk runner swapped.
The stages around the loop are parallel too: stage 1 partitions Y's
non-zeros into per-worker spans whose partial groupings merge
deterministically into the exact HtY ``from_coo`` would build, and
stage 5 merges the workers' presorted chunk outputs instead of
re-sorting Z (:mod:`repro.parallel.merge`). Two backends run that one
schedule:

* ``backend="thread"`` — a ``ThreadPoolExecutor`` over static balanced
  ranges. Python threads share one interpreter, so this backend models
  the parallel structure (per-worker statistics feed the scalability
  model) but cannot measure true multi-core wall-clock scaling;
* ``backend="process"`` — one
  :class:`~repro.parallel.procpool.SpartaProcessPool` per call: operands
  are exported to shared memory, and persistent worker processes stream
  HtY partials back while the parent sorts X (only when they build HtY;
  a cache hit or an empty operand gives them no stage-1 spans), then
  claim sub-tensor chunks through a shared counter (work stealing).
  The parent gathers per-chunk outputs in deterministic chunk order —
  one pool start-up for all five stages. This backend measures *real*
  wall-clock scaling on multi-core hosts
  (:attr:`ParallelResult.wall_seconds`).

This module holds the public front and the process-pool chunk runner;
both backends are bit-identical to the serial fused engine and charge
the same Table-2 traffic (pinned by
``tests/parallel/test_traffic_conservation.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.htycache import HtYCache
from repro.core.kernels import FusedRange
from repro.core.pipeline import (
    ParallelResult,
    ThreadStats,
    run_pipeline,
)
from repro.errors import ContractionError, ShapeError
from repro.faults import FaultPlan
from repro.hashtable.tensor_table import split_contract_modes
from repro.obs.tracer import Tracer
from repro.parallel.procpool import (
    RecoveryLog,
    RecoveryPolicy,
    SpartaProcessPool,
    chunk_spill_path,
)
from repro.tensor.coo import SparseTensor

__all__ = [
    "BACKENDS",
    "ParallelResult",
    "ThreadStats",
    "parallel_sparta",
]

ENGINE_NAME = "sparta_parallel"

BACKENDS = ("thread", "process")


def parallel_sparta(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    threads: int = 4,
    backend: str = "thread",
    sort_output: bool = True,
    num_buckets: Optional[int] = None,
    hty_cache: Optional[HtYCache] = None,
    start_method: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_retries: int = 2,
    on_failure: str = "raise",
    unit_timeout: Optional[float] = None,
    timeout: Optional[float] = None,
    codegen: Optional[bool] = None,
    tracer: Optional[Tracer] = None,
    memory_budget=None,
    spill_root: Optional[str] = None,
    force_spill: bool = False,
) -> ParallelResult:
    """Run Sparta with *threads* workers over the sub-tensor loop.

    The configuration runs exactly as requested — schedule search is
    ``contract(plan="auto")``'s job. ``backend="process"`` runs the
    workers as separate processes over shared-memory operands (see
    :mod:`repro.parallel.procpool`); ``start_method``
    ("fork"/"spawn"/"forkserver") applies only there, and each worker
    claims :data:`~repro.parallel.procpool.DEFAULT_CHUNKS_PER_WORKER`
    nnz-balanced chunks on average through work stealing.

    Stage 1 builds HtY from per-worker partial groupings merged in the
    parent (skipped when an ``hty_cache`` serves the build, or when Y
    is empty); stage 5 merges the per-range sorted runs instead of
    lexsorting Z. Output is bit-identical across backends and worker
    counts.

    Fault tolerance: worker failures (hard death, hang past
    ``unit_timeout``, corrupt payload) lose only the failed worker's
    chunks, which are reassigned and recomputed — up to ``max_retries``
    respawn rounds, after which ``on_failure="serial"`` recomputes the
    missing chunks with the serial fused kernel in the parent (setting
    ``profile.flags["degraded"]``) while the default ``"raise"`` raises
    :class:`~repro.errors.PoolDegradedError`. ``timeout`` bounds each
    parallel phase end to end (not recoverable — raises
    :class:`~repro.errors.ParallelError` naming the pending chunks).
    Recovered runs stay bit-identical to serial, including the Table-2
    traffic accounting. ``fault_plan`` injects deterministic faults for
    testing (see :mod:`repro.faults`); when omitted, the
    ``REPRO_FAULTS`` environment variable is consulted so faults can be
    activated without touching call sites.

    ``codegen`` controls the per-signature generated kernels of the
    fused path (see :func:`repro.core.kernels.fused_compute`). The
    thread backend honors the per-call value; process-pool workers
    resolve it from the inherited ``REPRO_NO_CODEGEN`` environment
    instead (code objects never cross a pipe — workers compile from
    the shipped operands' signature).

    ``memory_budget`` (bytes, a ``"64M"``-style string, or a shared
    :class:`repro.ooc.MemoryBudget`) lets
    :func:`repro.planner.ooc.plan_ooc` decide in-core vs. out-of-core:
    a working set that fits runs the unmodified pipeline
    (``flags["ooc"] = "in_core"``); otherwise workers spill their fused
    chunk outputs to run files under one :class:`~repro.ooc.SpillManager`
    directory and stage 5 becomes a streaming merge of those files
    (``flags["ooc"] = "spill"``). ``force_spill`` pins the spill path;
    ``spill_root`` overrides the spill directory's parent.

    ``tracer`` (a :class:`repro.obs.Tracer`) records the five stage
    spans on the parent track plus per-worker timelines — spawn/claim
    instants, per-chunk compute spans, fault and recovery events —
    merged from the workers' own records (process backend: shipped back
    over the result pipes). ``None`` records nothing and adds no
    measurable overhead.
    """
    if threads <= 0:
        raise ShapeError(f"threads must be positive, got {threads}")
    if backend not in BACKENDS:
        raise ContractionError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return run_pipeline(
        x, y, cx, cy,
        engine_name=ENGINE_NAME,
        backend=backend,
        workers=threads,
        sort_output=sort_output,
        num_buckets=num_buckets,
        hty_cache=hty_cache,
        codegen=codegen,
        start_method=start_method,
        fault_plan=fault_plan,
        max_retries=max_retries,
        on_failure=on_failure,
        unit_timeout=unit_timeout,
        timeout=timeout,
        memory_budget=memory_budget,
        spill_root=spill_root,
        force_spill=force_spill,
        tracer=tracer,
    )


# ----------------------------------------------------------------------
# the process-pool chunk runner
# ----------------------------------------------------------------------
def start_pool(
    y: SparseTensor,
    plan,
    workers: int,
    *,
    spans: Sequence[Tuple[int, int]],
    start_method: Optional[str],
    policy: RecoveryPolicy,
    fault_plan: Optional[FaultPlan],
    log: RecoveryLog,
    spill_dir: Optional[str],
) -> SpartaProcessPool:
    """Start the call's two-phase pool.

    *spans* are Y's stage-1 spans: empty when the parent serves HtY
    from a cache or Y is empty, and the workers then go straight to
    the chunk phase.
    """
    cmodes, fmodes, cdims, fdims = split_contract_modes(
        y.order, y.shape, plan.cy
    )
    return SpartaProcessPool(
        y.indices,
        y.values,
        cmodes,
        fmodes,
        cdims,
        fdims,
        spans,
        workers=workers,
        start_method=start_method,
        policy=policy,
        fault_plan=fault_plan,
        recovery_log=log,
        spill_dir=spill_dir,
    )


def run_process_chunks(
    pool: SpartaProcessPool,
    px,
    hty,
    chunks: List[Tuple[int, int]],
    *,
    workers: int,
    spill=None,
    stage1_secs: Optional[Dict[int, float]] = None,
) -> Tuple[
    List[FusedRange], List[ThreadStats], List[Dict[str, int]], int, float
]:
    """Stages 2–4 as work-stealing chunks on the call's *pool*.

    Out of core, workers spill each chunk to their own run file;
    exactly the accepted chunks' files are accounted (the parent's
    serial fallback keeps its chunks in memory), and an unreadable
    accepted file raises.
    """
    wchunks = pool.run_chunks(px, hty, chunks)
    if spill is not None:
        for wc in wchunks:
            if wc.worker >= 0:
                spill.account_file(
                    chunk_spill_path(spill.root, wc.chunk, wc.worker)
                ).close()
    return _aggregate_worker_chunks(
        px, chunks, wchunks, workers, stage1_secs
    )


def _aggregate_worker_chunks(
    px,
    chunks: List[Tuple[int, int]],
    wchunks,
    workers: int,
    stage1_secs: Optional[Dict[int, float]] = None,
) -> Tuple[
    List[FusedRange], List[ThreadStats], List[Dict[str, int]], int, float
]:
    """Fold per-chunk process results into per-worker statistics.

    Workers that stole nothing still get a zero row (the scalability
    experiments index stats by worker id). Fault recovery can add rows
    beyond the original worker count: respawned workers carry fresh ids
    past it, and the parent's serial fallback reports as worker ``-1``;
    they are appended after the original rows (``-1`` last), so an
    undisturbed run's stats are exactly one row per requested worker.
    """
    stats_map: Dict[int, ThreadStats] = {}

    def row(wid: int) -> ThreadStats:
        s = stats_map.get(wid)
        if s is None:
            s = ThreadStats(
                worker=wid, subtensors=0, nnz_x=0, products=0,
                output_nnz=0, seconds=0.0,
            )
            stats_map[wid] = s
        return s

    for wid in range(workers):
        row(wid)
    if stage1_secs:
        for wid, secs in stage1_secs.items():
            row(wid).stage1_seconds = float(secs)
    for wc in wchunks:
        lo, hi = chunks[wc.chunk]
        s = row(wc.worker)
        s.subtensors += hi - lo
        s.nnz_x += int(px.ptr[hi] - px.ptr[lo])
        s.products += wc.fused.products
        s.output_nnz += wc.fused.nnz
        s.seconds += wc.seconds
    order = list(range(workers))
    order += sorted(w for w in stats_map if w >= workers)
    if -1 in stats_map:
        order.append(-1)
    stats = [stats_map[wid] for wid in order]
    loads = [s.nnz_x for s in stats] or [0]
    mean = sum(loads) / len(loads)
    imbalance = (max(loads) / mean) if mean else 1.0
    return (
        [wc.fused for wc in wchunks],
        stats,
        [wc.counters for wc in wchunks],
        sum(wc.hash_probes for wc in wchunks),
        imbalance,
    )
