"""Work partitioning for the parallel outer loop (paper §3.5).

Sparta parallelizes over mode-F sub-tensors of X; each thread owns a
contiguous range of sub-tensors plus thread-private HtA and Z_local. Real
tensors have skewed fiber sizes, so the partitioner balances by non-zero
count rather than by sub-tensor count.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.errors import ShapeError


def tag_units(
    ranges: Iterable[Tuple[int, int]]
) -> List[Tuple[int, int, int]]:
    """Attach stable unit ids to partition ranges: ``(unit, lo, hi)``.

    The unit id is the range's position in the original partition and
    is what the fault-tolerant pool tracks ownership by — reassignment
    and respawn rounds recompute *by unit id over the original
    boundaries*, so a recovered run gathers the exact same per-chunk
    results (and Table-2 accounting) as an undisturbed one.
    """
    return [
        (i, int(lo), int(hi)) for i, (lo, hi) in enumerate(ranges)
    ]


def select_units(
    units: Iterable[Tuple[int, int, int]], ids: Iterable[int]
) -> List[Tuple[int, int, int]]:
    """Subset of tagged *units* whose unit id is in *ids* (order kept)."""
    wanted = set(int(i) for i in ids)
    return [u for u in units if u[0] in wanted]


def partition_subtensors(
    ptr: np.ndarray,
    num_workers: int,
    *,
    weights: np.ndarray | None = None,
) -> List[Tuple[int, int]]:
    """Split sub-tensors ``0..len(ptr)-2`` into ≤ *num_workers* ranges.

    ``ptr`` is the fiber-pointer array: sub-tensor *f* holds
    ``ptr[f+1] - ptr[f]`` non-zeros. Ranges are contiguous (preserving the
    sorted-X locality) and balanced to ~equal non-zero counts. Returns
    ``(first_subtensor, last_subtensor_exclusive)`` pairs; fewer than
    *num_workers* ranges when there are fewer sub-tensors.

    *weights* replaces the per-sub-tensor cost model: when given (one
    non-negative weight per sub-tensor), ranges balance cumulative weight
    instead of cumulative nnz. ``weights=None`` is exactly the nnz
    behaviour.
    """
    if num_workers <= 0:
        raise ShapeError(f"num_workers must be positive, got {num_workers}")
    n_sub = int(ptr.shape[0] - 1)
    if n_sub <= 0:
        return []
    if weights is not None:
        weights = np.asarray(weights, dtype=np.int64)
        if weights.shape != (n_sub,):
            raise ShapeError(
                f"weights must have one entry per sub-tensor "
                f"({n_sub}), got shape {weights.shape}"
            )
        ptr = np.concatenate(([0], np.cumsum(weights)))
    total = int(ptr[-1] - ptr[0])
    num_workers = min(num_workers, n_sub)
    if num_workers == 1 or total == 0:
        return [(0, n_sub)]
    # Cut at sub-tensor boundaries closest to equal cumulative-weight
    # shares (nnz shares by default).
    targets = (np.arange(1, num_workers) * total) // num_workers
    cuts = np.searchsorted(ptr[1:], ptr[0] + targets, side="left") + 1
    bounds = np.unique(np.concatenate(([0], cuts, [n_sub])))
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(bounds.shape[0] - 1)
        if bounds[i + 1] > bounds[i]
    ]


def partition_imbalance(
    ptr: np.ndarray, ranges: List[Tuple[int, int]]
) -> float:
    """Load imbalance of a partition: max worker nnz / mean worker nnz.

    1.0 is perfect balance; the scalability model uses this as the
    load-imbalance term for the computation stages.
    """
    if not ranges:
        return 1.0
    loads = [int(ptr[hi] - ptr[lo]) for lo, hi in ranges]
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean
