"""The per-sub-tensor reference loops behind the three paper engines.

Algorithm 1 (SpTC-SPA) and Algorithm 2 (Sparta) share their loop nest; the
engines differ only in

* how Y is searched — linear scan over sorted COO vs. HtY hash lookup;
* how partial products accumulate — SPA linear search vs. HtA hashing.

:func:`looped_contract` selects an engine configuration from those two
choices. The default ``"subtensor"`` granularity runs it through the
five-stage pipeline (:func:`repro.core.pipeline.run_pipeline`), whose
stages 2-4 are the fused flat-batch kernel. This module keeps the
loop-nest reference, ``"element"``: one Python iteration per X
non-zero, the semantics every fused configuration is checked against.
It shares stage 1 and stage 5 with the pipeline.
"""

from __future__ import annotations

import time
from typing import Literal, Optional, Sequence

import numpy as np

from repro.core.common import prepare_x, prepare_y_sorted
from repro.core.htycache import HtYCache, cached_plan
from repro.core.kernels import (
    HTA_CACHE_HIT,
    FusedRange,
    record_computation_traffic,
    record_hty_build,
)
from repro.core.pipeline import finish_output, run_pipeline
from repro.core.profile import RunProfile
from repro.core.result import ContractionResult
from repro.core.stages import Stage
from repro.errors import ContractionError
from repro.obs.tracer import CAT_CONTRACTION, NULL_TRACER, Tracer
from repro.hashtable.accumulator import HashAccumulator
from repro.hashtable.spa import SparseAccumulator
from repro.hashtable.tensor_table import HashTensor
from repro.tensor.coo import SparseTensor

YStructure = Literal["coo", "coo_bsearch", "hash"]
AccumulatorKind = Literal["spa", "hash"]
Granularity = Literal["element", "subtensor"]

__all__ = ["looped_contract", "HTA_CACHE_HIT"]


def looped_contract(
    x: SparseTensor,
    y: SparseTensor,
    cx: Sequence[int],
    cy: Sequence[int],
    *,
    engine_name: str,
    y_structure: YStructure,
    accumulator: AccumulatorKind,
    sort_output: bool = True,
    num_buckets: Optional[int] = None,
    accumulator_buckets: Optional[int] = None,
    granularity: Granularity = "subtensor",
    x_format: str = "coo",
    hty_cache: Optional[HtYCache] = None,
    codegen: Optional[bool] = None,
    dense_threshold: Optional[float] = None,
    workspace_cap: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> ContractionResult:
    """Run one SpTC with the given Y structure and accumulator.

    ``granularity`` chooses how the inner stages are driven:

    * ``"subtensor"`` — the five-stage pipeline with the fused flat-batch
      kernel: one batched search over every contract key and one
      segmented accumulation over every partial product (the
      measurement path; the paper's C loops run at this cost level);
    * ``"element"`` — one Python iteration per X non-zero, exactly
      Algorithm 1/2's loop nest (used by semantics tests). Output is
      identical to ``"subtensor"``.

    ``hty_cache`` (hash engines only) reuses a previously built HtY when
    Y, the contract modes and ``num_buckets`` all match a cached entry —
    the hit skips the O(nnz_Y) build and its input-processing traffic,
    and is counted in the ``hty_cache_hits``/``hty_cache_misses``
    profile counters.

    ``codegen``/``dense_threshold``/``workspace_cap`` control the
    per-signature generated kernels of the fused path (see
    :func:`repro.core.kernels.fused_compute`); they never change
    results, only wall time.
    """
    if granularity == "subtensor":
        return run_pipeline(
            x, y, cx, cy,
            engine_name=engine_name,
            y_structure=y_structure,
            accumulator=accumulator,
            sort_output=sort_output,
            num_buckets=num_buckets,
            accumulator_buckets=accumulator_buckets,
            x_format=x_format,
            hty_cache=hty_cache,
            codegen=codegen,
            dense_threshold=dense_threshold,
            workspace_cap=workspace_cap,
            tracer=tracer,
        ).result
    if granularity != "element":
        raise ContractionError(
            f"unknown granularity {granularity!r}; choose 'subtensor' "
            "or 'element'"
        )
    plan = cached_plan(x, y, cx, cy)
    profile = RunProfile(engine_name)
    clock = time.perf_counter
    tr = NULL_TRACER if tracer is None else tracer
    t_root = clock()

    # ---------------- stage 1: input processing ----------------------
    t0 = clock()
    px = prepare_x(x, plan, profile, x_format=x_format)
    hty = sy = None
    if y_structure in ("coo", "coo_bsearch"):
        sy = prepare_y_sorted(y, plan, profile)
    else:
        hit = False
        if hty_cache is not None:
            hty, hit = hty_cache.get_or_build(
                y, plan.cy, num_buckets=num_buckets
            )
            if not hit:
                profile.bump("hty_cache_misses")
        else:
            hty = HashTensor.from_coo(y, plan.cy, num_buckets=num_buckets)
        record_hty_build(y, hty, profile, cached=hit)
        # A cached HtY arrives with probe counts from earlier runs;
        # charge only this contraction's chain walks.
        hty_probes0 = hty.table.probes
    t1 = clock()
    profile.add_time(Stage.INPUT_PROCESSING, t1 - t0)
    tr.add_span(Stage.INPUT_PROCESSING.value, start=t0, end=t1)
    profile.bump("num_subtensors", px.num_subtensors)

    # ---------------- stages 2-4: computation ------------------------
    run, hta_peak_bytes = _loop_stages(
        px, sy, hty, profile,
        accumulator=accumulator,
        accumulator_buckets=accumulator_buckets,
        clock=clock,
    )
    for st in (Stage.INDEX_SEARCH, Stage.ACCUMULATION):
        d = float(profile.stage_seconds.get(st, 0.0))
        tr.add_span(st.value, start=t1, end=t1 + d, measured="aggregate")
        t1 += d

    # ---------------- stages 4-5: gather + output sorting ------------
    # The references keep the generic delinearization, independent of
    # the generated kernels they are checked against.
    z = finish_output(
        [run], px.fx_rows, plan, profile,
        sort_output=sort_output, codegen=False, clock=clock,
        tracer=tracer,
    )
    if hty is not None:
        profile.counters["hash_probes"] = hty.table.probes - hty_probes0
    record_computation_traffic(
        plan,
        profile,
        x,
        uses_hty=hty is not None,
        products=run.products,
        hta_peak_bytes=hta_peak_bytes,
        created=z.nnz,
    )
    tr.add_span(
        engine_name,
        start=t_root,
        end=clock(),
        cat=CAT_CONTRACTION,
        engine=engine_name,
        nnz_out=int(z.nnz),
    )
    return ContractionResult(z, profile, plan)


def _loop_stages(px, sy, hty, profile, *, accumulator,
                 accumulator_buckets, clock):
    """Stages 2-4 through the per-element Python loop.

    Returns the sub-tensors' accumulator exports as one run in
    sub-tensor order (each accumulator exports in insertion order, so
    stage 5 sorts it) and the peak accumulator bytes.
    """

    def make_accumulator() -> SparseAccumulator | HashAccumulator:
        if accumulator == "spa":
            return SparseAccumulator()
        return HashAccumulator(accumulator_buckets)

    search_time = 0.0
    accum_time = 0.0
    write_time = 0.0
    products = 0
    accum_probes = 0
    hta_peak_bytes = 0
    out_fgrp: list = []
    out_fy: list = []
    out_vals: list = []

    ptr = px.ptr
    cx_ln = px.cx_ln
    xvals = px.values

    for f in range(px.num_subtensors):
        acc = make_accumulator()
        s, e = int(ptr[f]), int(ptr[f + 1])
        for i in range(s, e):
            key = int(cx_ln[i])
            t = clock()
            if sy is not None:
                g = sy.linear_search(key, profile)
                found = g is not None
                if found:
                    fkeys, fvals = sy.group(g)  # type: ignore[arg-type]
            else:
                hit = hty.lookup(key)
                found = hit is not None
                if found:
                    fkeys, fvals = hit  # type: ignore[misc]
                profile.bump("search_probes")
            search_time += clock() - t
            if not found:
                continue
            t = clock()
            acc.add_many(fkeys, xvals[i] * fvals)
            accum_time += clock() - t
            products += int(fkeys.shape[0])
        t = clock()
        keys_out, vals_out = acc.export()
        out_fgrp.append(np.full(keys_out.shape[0], f, dtype=np.int64))
        out_fy.append(keys_out)
        out_vals.append(vals_out)
        write_time += clock() - t
        hta_peak_bytes = max(hta_peak_bytes, acc.nbytes)
        accum_probes += getattr(acc, "probes", 0)

    profile.add_time(Stage.INDEX_SEARCH, search_time)
    profile.add_time(Stage.ACCUMULATION, accum_time)
    profile.add_time(Stage.WRITEBACK, write_time)
    profile.bump("products", products)
    profile.bump("accum_probes", accum_probes)

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype)

    run = FusedRange(
        out_fgrp=cat(out_fgrp, np.int64),
        out_fy=cat(out_fy, np.int64),
        out_vals=cat(out_vals, np.float64),
        products=products,
        accum_probes=accum_probes,
        max_group_output=0,
        spa_peak_bytes=0,
        search_seconds=search_time,
        accum_seconds=accum_time,
    )
    return run, hta_peak_bytes
