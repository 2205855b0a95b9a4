"""Budget-capped out-of-core Sparta: the spill pieces of the pipeline.

:func:`ooc_contract` is the serial five-stage pipeline
(:func:`repro.core.pipeline.run_pipeline`) under a memory budget. When
:func:`~repro.planner.ooc.plan_ooc` decides the working set does not
fit, no stage holds the full working set:

* **stage 1** — X is prepared as usual (its footprint is charged to the
  budget); HtY is built *partition-by-partition*
  (:func:`build_hty_spilled`): each Y span's partial grouping is spilled
  to a run file as soon as it is built, then the partials are merged
  straight off their memory maps (bit-identical to a serial
  ``from_coo``), and the merged table's bulk payload arrays
  (``free_ln``/``values``) are demoted back to disk and re-mapped
  read-only — only the hash chains, group pointers and X stay resident;
* **stages 2–4** — the sub-tensor loop runs in budget-sized chunks
  through the unmodified :func:`~repro.core.kernels.fused_compute`;
  each chunk's sorted ``(fgrp, fy, vals)`` output goes to its own run
  file and is dropped from memory;
* **stage 5** — a streaming k-way merge over the mmapped runs
  (:func:`stream_finalize`) assembles and writes the final COO arrays
  *incrementally* to two raw files, which are then mapped and
  immediately unlinked — the returned tensor stays valid, the spill
  directory is removed without orphans, and the full accumulator is
  never materialized.

Chunks cover disjoint ascending sub-tensor ranges, so the concatenation
of the per-chunk outputs is exactly the serial fused output, all
probe/product counters sum to the serial totals, and every Table-2
traffic cell is charged through the identical shared helpers — results
and traffic are byte-exact against the in-core engines. A budget that
fits runs the in-core pipeline unchanged.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.common import coo_row_bytes
from repro.core.htycache import HtYCache
from repro.core.pipeline import even_spans, run_pipeline, swap_operands
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.result import ContractionResult
from repro.core.stages import Stage
from repro.hashtable.tensor_table import (
    HashTensor,
    PartialGroups,
    build_partial_groups,
    split_contract_modes,
)
from repro.obs.tracer import CAT_SPILL, NULL_TRACER, Tracer
from repro.planner.ooc import OocDecision
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import delinearize
from repro.types import INDEX_DTYPE, VALUE_DTYPE

from .budget import MemoryBudget
from .merge import DEFAULT_BLOCK_ROWS, stream_merge_fused
from .runfile import RunFileReader
from .spill import SpillManager

__all__ = ["build_hty_spilled", "ooc_contract", "stream_finalize"]

ENGINE_NAME = "sparta"


def _fy_span(fy_dims: Sequence[int]) -> int:
    span = 1
    for d in fy_dims:
        span *= int(d)
    return max(span, 1)


def build_hty_spilled(
    y: SparseTensor,
    cy: Sequence[int],
    decision: OocDecision,
    spill: SpillManager,
    budget: MemoryBudget,
    num_buckets: Optional[int],
    tr: Tracer,
    clock,
) -> HashTensor:
    """Stage 1 for Y: spill per-span partials, merge from their maps.

    The merge reproduces the exact serial ``from_coo`` build (partials
    cover consecutive disjoint spans; see
    :meth:`HashTensor.merge_partials`). The merged table's payload
    arrays — the O(nnz_Y) bulk — are then demoted to a spill file and
    re-mapped read-only, so stage 2's group streams are demand-paged
    while the chains and group pointers stay resident for O(1) lookup.
    """
    cmodes, fmodes, cdims, fdims = split_contract_modes(
        y.order, y.shape, cy
    )
    t0 = clock()
    writer = spill.writer("hty_partials.runs")
    for lo, hi in even_spans(y.nnz, decision.num_y_spans):
        pg = build_partial_groups(
            y.indices, y.values, cmodes, fmodes, cdims, fdims, lo, hi
        )
        pg_bytes = (
            pg.group_keys.nbytes + pg.group_ptr.nbytes
            + pg.free_ln.nbytes + pg.values.nbytes
        )
        with budget.hold("hty_partial", pg_bytes):
            writer.append_run(
                {
                    "group_keys": pg.group_keys,
                    "group_ptr": pg.group_ptr,
                    "free_ln": pg.free_ln,
                    "values": pg.values,
                }
            )
        del pg
    writer.close()
    spill.account(writer)
    tr.add_span(
        "spill_partials", start=t0, end=clock(), cat=CAT_SPILL,
        spans=int(decision.num_y_spans), bytes=int(writer.bytes_written),
    )
    reader = RunFileReader(writer.path)
    partials = []
    for i in range(reader.num_runs):
        arrs = reader.run(i)
        partials.append(
            PartialGroups(
                arrs["group_keys"], arrs["group_ptr"],
                arrs["free_ln"], arrs["values"],
            )
        )
    hty = HashTensor.merge_partials(
        partials, fdims, cdims, num_buckets=num_buckets
    )
    reader.close()
    # Demote the payload bulk to disk; lookups stay O(1) in RAM. The
    # caller charges what stays resident.
    with budget.hold("hty_merged", hty.nbytes):
        if hty.free_ln.nbytes + hty.values.nbytes:
            pw = spill.writer("hty_payload.run")
            pw.append_run({"free_ln": hty.free_ln, "values": hty.values})
            pw.close()
            spill.account(pw)
            arrs = RunFileReader(pw.path).run(0)
            hty.free_ln = arrs["free_ln"]
            hty.values = arrs["values"]
    return hty


def stream_finalize(
    runs: List[Dict[str, np.ndarray]],
    fx_rows: np.ndarray,
    plan,
    profile: RunProfile,
    spill: SpillManager,
    *,
    clock=time.perf_counter,
    tracer: Optional[Tracer] = None,
    zlocal_peak_bytes: Optional[int] = None,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> SparseTensor:
    """Stages 4–5 as a streaming merge-assemble-append over sorted runs.

    The spilled branch of :func:`repro.core.pipeline.finish_output`,
    byte-identical to ``merge_fused_runs`` + ``assemble_fused`` +
    ``z.sort()``: merged blocks are assembled to
    COO rows (same ``fx_rows`` gather and ``delinearize`` arithmetic)
    and appended to two raw files, which are mapped back and unlinked —
    the returned tensor owns the last references to their inodes, so
    the spill directory cleanup leaves nothing behind. Charges exactly
    the traffic `assemble_fused` and the stage-5 sort charge, with
    ``zlocal_peak_bytes`` overriding the Z_local object size for
    callers whose locals are per-worker (the parallel executor), as in
    ``assemble_fused``.
    """
    tr = NULL_TRACER if tracer is None else tracer
    nfx = len(plan.fx)
    out_order = plan.out_order
    fy_span = _fy_span(plan.fy_dims)
    idx_path = spill.path("z_indices.bin")
    val_path = spill.path("z_values.bin")
    total = 0
    t0 = clock()
    with open(idx_path, "wb", buffering=1 << 20) as fi, open(
        val_path, "wb", buffering=1 << 20
    ) as fv:
        for fgrp_blk, fy_blk, vals_blk in stream_merge_fused(
            runs, fy_span, block_rows=block_rows
        ):
            n = int(fgrp_blk.shape[0])
            indices = np.empty((n, out_order), dtype=INDEX_DTYPE)
            indices[:, :nfx] = fx_rows[fgrp_blk]
            indices[:, nfx:] = delinearize(
                fy_blk.astype(INDEX_DTYPE, copy=False), plan.fy_dims
            )
            fi.write(memoryview(indices).cast("B"))
            fv.write(
                memoryview(
                    np.ascontiguousarray(
                        vals_blk.astype(VALUE_DTYPE, copy=False)
                    )
                ).cast("B")
            )
            total += n
    t1 = clock()
    spill.spilled_bytes += total * (8 * out_order + 8)
    tr.add_span(
        "stream_merge", start=t0, end=t1, cat=CAT_SPILL,
        rows=int(total), runs=len(runs),
    )
    if total:
        indices = np.memmap(
            idx_path, dtype=INDEX_DTYPE, mode="r",
            shape=(total, out_order),
        )
        values = np.memmap(
            val_path, dtype=VALUE_DTYPE, mode="r", shape=(total,)
        )
        # POSIX keeps the inodes alive while mapped: the tensor stays
        # valid, and the spill dir can be removed without orphans.
        os.unlink(idx_path)
        os.unlink(val_path)
    else:
        indices = np.empty((0, out_order), dtype=INDEX_DTYPE)
        values = np.empty(0, dtype=VALUE_DTYPE)
        for p in (idx_path, val_path):
            if os.path.exists(p):
                os.unlink(p)
    z = SparseTensor(
        indices, values, plan.out_shape, copy=False, validate=False
    )

    # --- assemble_fused's exact writeback accounting -------------------
    rowb = coo_row_bytes(out_order)
    profile.bump("nnz_z", total)
    profile.note_object_bytes(DataObject.Z, total * rowb)
    zl_bytes = total * (8 * nfx + 16)
    profile.note_object_bytes(
        DataObject.Z_LOCAL,
        zl_bytes if zlocal_peak_bytes is None else zlocal_peak_bytes,
    )
    profile.record_traffic(
        DataObject.Z_LOCAL, Stage.WRITEBACK, AccessKind.READ,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    profile.record_traffic(
        DataObject.Z, Stage.WRITEBACK, AccessKind.WRITE,
        AccessPattern.SEQUENTIAL, total * rowb,
    )
    profile.add_time(Stage.WRITEBACK, t1 - t0)
    tr.add_span(Stage.WRITEBACK.value, start=t0, end=t1,
                measured="streamed")
    return z


def ooc_contract(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    memory_budget: Union[int, str, MemoryBudget],
    sort_output: bool = True,
    swap_larger_to_y: bool = False,
    num_buckets: Optional[int] = None,
    accumulator_buckets: Optional[int] = None,
    spill_root: Optional[str] = None,
    force_spill: bool = False,
    codegen: Optional[bool] = None,
    hty_cache: Optional[HtYCache] = None,
    tracer: Optional[Tracer] = None,
    engine_name: str = ENGINE_NAME,
) -> ContractionResult:
    """Contract under a hard memory budget, spilling when needed.

    ``memory_budget`` caps the engine's live working set (bytes, or a
    ``"64M"``-style string, or a pre-built :class:`MemoryBudget` —
    shared accountants let callers pool several contractions under one
    cap). :func:`~repro.planner.ooc.plan_ooc` routes the call: a
    working set that fits runs the unmodified in-core pipeline
    (``flags["ooc"] = "in_core"``); otherwise the streaming spill
    pipeline runs (``flags["ooc"] = "spill"``). ``force_spill`` pins
    the spill path for tests and benchmarks. Results and Table-2
    traffic are byte-exact against the in-core engine either way. An
    ``hty_cache`` is rejected (:class:`~repro.errors.ContractionError`):
    cached builds bypass the budget's accounting.

    ``swap_larger_to_y`` applies the §3.3 larger-operand rule exactly
    like :func:`repro.core.sparta.sparta`; note the post-swap output
    permutation+sort materializes Z in memory, so budget-critical
    callers should orient operands so no swap triggers.
    """
    def run(x, y, cx, cy, sort_output=sort_output):
        return run_pipeline(
            x, y, cx, cy,
            engine_name=engine_name,
            sort_output=sort_output,
            num_buckets=num_buckets,
            accumulator_buckets=accumulator_buckets,
            codegen=codegen,
            hty_cache=hty_cache,
            memory_budget=memory_budget,
            spill_root=spill_root,
            force_spill=force_spill,
            tracer=tracer,
        ).result

    if swap_larger_to_y and x.nnz > y.nnz:
        return swap_operands(
            lambda *ops: run(*ops, sort_output=False),
            x, y, cx, cy, sort_output=sort_output, tracer=tracer,
        )
    return run(x, y, cx, cy)
