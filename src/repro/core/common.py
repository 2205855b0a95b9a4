"""Shared machinery of the three paper engines.

All of SpTC-SPA, COOY+HtA and Sparta share stage 1 (input processing of X,
and of Y for the COO engines) and the sub-tensor outer loop structure.
This module implements those pieces once, plus the traffic accounting
constants that feed the heterogeneous-memory simulator; stages 2-5 live
in :mod:`repro.core.kernels` and :mod:`repro.core.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.plan import ContractionPlan
from repro.core.profile import (
    AccessKind,
    AccessPattern,
    DataObject,
    RunProfile,
)
from repro.core.stages import Stage
from repro.errors import ShapeError
from repro.tensor.coo import SparseTensor
from repro.tensor.linearize import linearize

#: bytes per COO non-zero of an order-N tensor (N int64 indices + 1 float64)
def coo_row_bytes(order: int) -> int:
    """Storage bytes of one COO non-zero for an order-*order* tensor."""
    return 8 * order + 8


#: bytes per hash-table entry: key + chain pointer + payload pointer/value
HT_ENTRY_BYTES = 24


def expand_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s+l)`` for each (s, l) pair, vectorized."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(
        starts - np.concatenate(([0], np.cumsum(lens)[:-1])), lens
    )
    return out + np.arange(total, dtype=np.int64)


def _sort_passes(n: int) -> float:
    """Data-movement passes charged for a sort.

    Quicksort makes ~log2(n) comparison passes but they touch cached
    partitions; the memory-visible movement is ~one full pass (read the
    unsorted array, write the sorted permutation). The paper's
    input/output-processing stages are <1% of SpTC time, consistent with
    pass-level (not log-factor) traffic.
    """
    return 1.0


@dataclass
class PreparedX:
    """X after stage 1: permuted to (Fx, Cx) order and sorted.

    ``ptr`` delimits the mode-Fx sub-tensors (Algorithm 2's ``ptr_F``);
    ``fx_rows`` holds each sub-tensor's free indices (one row per
    sub-tensor); ``cx_ln`` holds the LN contract key of every non-zero.
    """

    ptr: np.ndarray
    fx_rows: np.ndarray
    cx_ln: np.ndarray
    values: np.ndarray

    @property
    def num_subtensors(self) -> int:
        """N_F, the outer-loop trip count."""
        return int(self.ptr.shape[0] - 1)


def prepare_x(
    x: SparseTensor,
    plan: ContractionPlan,
    profile: RunProfile,
    *,
    x_format: str = "coo",
) -> PreparedX:
    """Stage 1 for X: permute to "correct mode order", sort, group.

    Permutation is a pointer exchange (free); sorting is the
    O(nnz_X log nnz_X) term of Eqs. (3)/(4).

    ``x_format="hicoo"`` stores X in HiCOO blocks (the paper's stated
    follow-up: "will adopt a more compressed format for the sparse
    tensor X"). The computation is unchanged — HiCOO expands to the
    same sorted stream — but X's footprint and stage-1/2 traffic shrink
    by the measured compression ratio, which the memory experiments see.
    """
    nfx = len(plan.fx)
    xp = x.permute(plan.x_mode_order()).sort()
    ptr = xp.fiber_pointers(nfx)
    fx_rows = xp.indices[ptr[:-1], :nfx]
    cx_ln = linearize(xp.indices[:, nfx:], plan.contract_dims)
    rowb = coo_row_bytes(x.order)
    profile.counters["nnz_x"] = x.nnz
    x_bytes = x.nnz * rowb
    if x_format == "hicoo":
        from repro.tensor.hicoo import HiCOOTensor

        hic = HiCOOTensor.from_coo(xp)
        x_bytes = hic.nbytes
        profile.counters["x_compression_x1000"] = int(
            hic.compression_ratio() * 1000
        )
    elif x_format != "coo":
        raise ShapeError(f"unknown x_format {x_format!r}")
    profile.note_object_bytes(DataObject.X, x_bytes)
    sort_bytes = int(x_bytes * _sort_passes(x.nnz))
    profile.record_traffic(
        DataObject.X, Stage.INPUT_PROCESSING, AccessKind.READ,
        AccessPattern.RANDOM, sort_bytes,
    )
    profile.record_traffic(
        DataObject.X, Stage.INPUT_PROCESSING, AccessKind.WRITE,
        AccessPattern.RANDOM, sort_bytes,
    )
    return PreparedX(ptr, fx_rows, cx_ln, xp.values)


@dataclass
class SortedY:
    """Y after SpTC-SPA's stage 1: permuted to (Cy, Fy) order and sorted.

    ``group_keys[g]`` is the LN contract key of sub-tensor *g*, which
    occupies ``group_ptr[g]:group_ptr[g+1]`` of ``free_ln``/``values``.
    ``nz_keys`` holds the contract key of *every* non-zero: the baseline's
    index search "iterates non-zeros of Y until Y(i3, i4, :, :) is found",
    so each probe pays an O(nnz_Y) scan over this array.
    """

    group_keys: np.ndarray
    group_ptr: np.ndarray
    nz_keys: np.ndarray
    free_ln: np.ndarray
    values: np.ndarray
    #: extents of the free / contracted modes (in permuted order) — lets
    #: the codegen layer derive a kernel signature; empty tuples (the
    #: default, for hand-built instances) disable specialization
    free_dims: Tuple[int, ...] = ()
    contract_dims: Tuple[int, ...] = ()

    @property
    def num_groups(self) -> int:
        """Number of distinct contract-index sub-tensors."""
        return int(self.group_keys.shape[0])

    @property
    def nnz(self) -> int:
        """Stored non-zeros."""
        return int(self.nz_keys.shape[0])

    #: cap on the (batch x nnz) comparison matrix built at once
    _SCAN_BLOCK = 4_000_000

    def linear_search_many(
        self, keys: np.ndarray, profile: RunProfile
    ) -> np.ndarray:
        """Batched linear search: every key scans every Y non-zero.

        Genuine O(batch x nnz_Y) comparison work (blocked to bound
        temporaries) — Eq. 3's nnz_X x nnz_Y term, the cost HtY's O(1)
        lookup removes. Returns the group id per key, -1 where absent.
        """
        keys = np.asarray(keys, dtype=self.nz_keys.dtype)
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        nnz = self.nnz
        profile.bump("search_probes", int(keys.shape[0]) * nnz)
        if nnz == 0 or keys.shape[0] == 0:
            return out
        block = max(1, self._SCAN_BLOCK // nnz)
        for lo in range(0, keys.shape[0], block):
            hi = min(lo + block, keys.shape[0])
            eq = keys[lo:hi, None] == self.nz_keys[None, :]
            any_hit = eq.any(axis=1)
            first_nz = eq.argmax(axis=1)[any_hit]
            # Map the first matching non-zero to its sub-tensor id.
            out[lo:hi][any_hit] = (
                np.searchsorted(self.group_ptr, first_nz, side="right") - 1
            )
        return out

    def binary_search_many(
        self, keys: np.ndarray, profile: RunProfile
    ) -> np.ndarray:
        """O(log num_groups)-per-probe search over the sorted group keys.

        This is what a CSF-style structure buys when the contract modes
        are the *leading* (root) modes: sorted order admits binary
        search. The ablation compares it against the linear scan and
        HtY's O(1) hash probe. Returns group ids, -1 where absent.
        """
        keys = np.asarray(keys, dtype=self.group_keys.dtype)
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        n_groups = self.num_groups
        if n_groups == 0 or keys.shape[0] == 0:
            return out
        profile.bump(
            "search_probes",
            int(keys.shape[0])
            * max(int(np.ceil(np.log2(n_groups + 1))), 1),
        )
        pos = np.searchsorted(self.group_keys, keys)
        pos_c = np.minimum(pos, n_groups - 1)
        hit = self.group_keys[pos_c] == keys
        out[hit] = pos_c[hit]
        return out

    def linear_search(self, key: int, profile: RunProfile) -> Optional[int]:
        """Scan Y's non-zeros for *key*; O(nnz_Y) comparisons per probe."""
        hits = np.flatnonzero(self.nz_keys == key)
        profile.bump("search_probes", self.nnz)
        if hits.size:
            return int(
                np.searchsorted(self.group_ptr, hits[0], side="right") - 1
            )
        return None

    def group(self, g: int) -> Tuple[np.ndarray, np.ndarray]:
        """(free_ln, values) slice views of sub-tensor *g*."""
        s, e = int(self.group_ptr[g]), int(self.group_ptr[g + 1])
        return self.free_ln[s:e], self.values[s:e]


def prepare_y_sorted(
    y: SparseTensor, plan: ContractionPlan, profile: RunProfile
) -> SortedY:
    """Stage 1 for Y in the COO engines: permute+sort, then group.

    Costs the O(nnz_Y log nnz_Y) term of Eq. (3).
    """
    ncy = len(plan.cy)
    yp = y.permute(plan.y_mode_order()).sort()
    ptr = yp.fiber_pointers(ncy)
    nz_keys = linearize(yp.indices[:, :ncy], plan.contract_dims)
    ckeys = nz_keys[ptr[:-1]]
    fkeys = linearize(yp.indices[:, ncy:], plan.fy_dims)
    rowb = coo_row_bytes(y.order)
    profile.counters["nnz_y"] = y.nnz
    profile.note_object_bytes(DataObject.Y, y.nnz * rowb)
    sort_bytes = int(y.nnz * rowb * _sort_passes(y.nnz))
    profile.record_traffic(
        DataObject.Y, Stage.INPUT_PROCESSING, AccessKind.READ,
        AccessPattern.SEQUENTIAL, sort_bytes,
    )
    profile.record_traffic(
        DataObject.Y, Stage.INPUT_PROCESSING, AccessKind.WRITE,
        AccessPattern.RANDOM, sort_bytes,
    )
    return SortedY(
        ckeys,
        ptr,
        nz_keys,
        fkeys,
        yp.values,
        free_dims=tuple(plan.fy_dims),
        contract_dims=tuple(plan.contract_dims),
    )
