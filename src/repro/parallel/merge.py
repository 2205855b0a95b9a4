"""Merge-based output sorting (parallel stage 5, paper §3.5/Figure 2).

The serial engine ends with a full lexicographic sort of Z. In the
parallel executor each worker range already leaves stage 4 with its
output in ``(fgrp, fy)`` order — ``fused_compute`` emits one segment per
sub-tensor in ascending order with the free keys sorted inside each
segment — and the gather concatenates ranges in ascending sub-tensor
order. So globally sorting Z again is redundant work on the critical
path: stage 5 only needs to *merge* the per-range sorted runs.

:func:`merge_fused_runs` does that with three escalating strategies:

* ``concat`` — ranges cover disjoint ascending sub-tensor spans (the
  executor's normal case), so their runs are already globally ordered:
  verify the O(k) run boundaries and concatenate;
* ``kway`` — runs are individually sorted but overlap: a pairwise
  ``np.searchsorted`` merge tree combines them in ``log2(k)`` vector
  rounds with no Python per-row loop;
* ``lexsort`` — packed 64-bit keys would overflow (astronomical free
  space) or a run is not internally sorted: fall back to the full sort.

All three give output byte-identical to ``z.sort()`` on the
concatenated runs: every (fgrp, fy) key maps monotonically to Z's
lexicographic row order, the merges are stable, and ``np.lexsort`` on
already-sorted unique keys is the identity permutation.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def run_is_sorted(keys: np.ndarray) -> bool:
    """True when one key run is internally non-decreasing."""
    return keys.shape[0] < 2 or bool(np.all(keys[1:] >= keys[:-1]))


def runs_strictly_ordered(keys: Sequence[np.ndarray]) -> bool:
    """True when consecutive runs are already globally ordered.

    Holds for the executor's normal gather (disjoint ascending
    sub-tensor spans concatenated in span order) — and must keep
    holding after fault recovery, because reassigned chunks are
    recomputed over their *original* boundaries and gathered by chunk
    id (pinned by the fault-injection suite).
    """
    return all(
        int(keys[i][-1]) <= int(keys[i + 1][0])
        for i in range(len(keys) - 1)
    )


def _merge_two(
    keys_a: np.ndarray,
    idx_a: np.ndarray,
    keys_b: np.ndarray,
    idx_b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable two-way merge of sorted key runs (a's ties come first)."""
    pos = np.searchsorted(keys_a, keys_b, side="right")
    n = keys_a.shape[0] + keys_b.shape[0]
    where_b = pos + np.arange(keys_b.shape[0], dtype=np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[where_b] = True
    keys = np.empty(n, dtype=keys_a.dtype)
    idx = np.empty(n, dtype=idx_a.dtype)
    keys[mask] = keys_b
    idx[mask] = idx_b
    keys[~mask] = keys_a
    idx[~mask] = idx_a
    return keys, idx


def merge_sorted_runs(
    runs: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """k-way merge of sorted key runs → ``(merged_keys, gather)``.

    ``gather`` indexes the concatenation of *runs* such that
    ``np.concatenate(runs)[gather] == merged_keys``; apply it to any
    payload arrays concatenated in the same run order. The merge is
    stable (ties keep run order, then within-run order), i.e. equivalent
    to a stable sort of the concatenation, and runs as a pairwise
    ``np.searchsorted`` merge tree: ``log2(k)`` rounds of O(n) vector
    work, no Python per-row loop.
    """
    runs = [np.asarray(r) for r in runs]
    if not runs:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    offsets = np.concatenate(
        ([0], np.cumsum([r.shape[0] for r in runs])[:-1])
    )
    pairs = [
        (r, off + np.arange(r.shape[0], dtype=np.int64))
        for r, off in zip(runs, offsets)
    ]
    while len(pairs) > 1:
        nxt = []
        for i in range(0, len(pairs) - 1, 2):
            ka, ia = pairs[i]
            kb, ib = pairs[i + 1]
            nxt.append(_merge_two(ka, ia, kb, ib))
        if len(pairs) % 2:
            nxt.append(pairs[-1])
        pairs = nxt
    return pairs[0]


def merge_fused_runs(
    fused: Sequence,
    fy_dims: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool, str]:
    """Combine per-range fused outputs into globally sorted Z arrays.

    *fused* holds :class:`~repro.core.kernels.FusedRange` objects (or
    anything with ``out_fgrp``/``out_fy``/``out_vals``); *fy_dims* are
    the free-mode dims of Y, bounding ``out_fy`` so the pair packs into
    one int64 key. Returns ``(fgrp, fy, vals, presorted, path)``:
    ``presorted=True`` means the arrays are already in the exact order
    ``z.sort()`` would produce, so the caller can skip the final lexsort
    byte-identically; ``path`` names the strategy taken (``empty`` /
    ``concat`` / ``kway`` / ``lexsort``) for the profile counters.
    """
    runs = [fr for fr in fused if fr.out_fgrp.shape[0]]
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty.astype(np.float64), True, "empty"

    fy_span = 1
    for d in fy_dims:
        fy_span *= int(d)
    fy_span = max(fy_span, 1)

    def concat() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if len(runs) == 1:  # one run (the serial engines): no copy
            fr = runs[0]
            return fr.out_fgrp, fr.out_fy, fr.out_vals
        return (
            np.concatenate([fr.out_fgrp for fr in runs]),
            np.concatenate([fr.out_fy for fr in runs]),
            np.concatenate([fr.out_vals for fr in runs]),
        )

    max_fgrp = max(int(fr.out_fgrp.max()) for fr in runs)
    # Python-int check: the packed (fgrp, fy) key must fit in int64.
    if (max_fgrp + 1) * fy_span > 2**63 - 1:
        fgrp, fy, vals = concat()
        return fgrp, fy, vals, False, "lexsort"

    span = np.int64(fy_span)
    keys = [
        fr.out_fgrp.astype(np.int64) * span
        + fr.out_fy.astype(np.int64)
        for fr in runs
    ]
    if not all(run_is_sorted(k) for k in keys):
        fgrp, fy, vals = concat()
        return fgrp, fy, vals, False, "lexsort"
    if runs_strictly_ordered(keys):
        fgrp, fy, vals = concat()
        return fgrp, fy, vals, True, "concat"
    _, gather = merge_sorted_runs(keys)
    fgrp, fy, vals = concat()
    return fgrp[gather], fy[gather], vals[gather], True, "kway"


__all__: List[str] = [
    "merge_fused_runs",
    "merge_sorted_runs",
    "run_is_sorted",
    "runs_strictly_ordered",
]
