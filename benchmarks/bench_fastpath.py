"""Fast-path bench: HtY-cache reuse across a contraction chain.

HtY/plan reuse across a :class:`~repro.core.sequence.ContractionSequence`
that applies the same operand repeatedly (the sparse-chain use case):
``reuse_hty=True`` must be >= 1.5x faster than rebuilding HtY per step.

Run directly (``python benchmarks/bench_fastpath.py``) to write
``results/BENCH_fastpath.json``; under pytest the same measurement runs
as an assertion.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.sequence import ContractionSequence
from repro.tensor import SparseTensor


def _best_of(fn, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _chain_operands(seed=0):
    """A shape-preserving (permutation-like) Y and a small driver X.

    Each step contracts mode 1 of the running X against mode 0 of the
    same Y, so HtY for Y is rebuilt every step unless cached — the
    pattern iterative solvers and tensor-network sweeps produce.
    """
    rng = np.random.default_rng(seed)
    J, nnz_y, nnz_x = 150_000, 100_000, 2_000
    jrows = np.sort(rng.choice(J, nnz_y, replace=False))
    jcols = rng.permutation(J)[:nnz_y]
    y = SparseTensor(
        np.column_stack((jrows, jcols)), rng.standard_normal(nnz_y), (J, J)
    )
    xi = np.column_stack(
        (rng.integers(0, 60, nnz_x), rng.choice(jrows, nnz_x))
    )
    x = SparseTensor(xi, rng.standard_normal(nnz_x), (60, J))
    return x, y


def measure_sequence_cache(steps=6):
    """Cached vs uncached wall time for a 6-step contraction chain."""
    x, y = _chain_operands()
    seq = ContractionSequence(x)
    for _ in range(steps):
        seq.then(y, (1,), (0,))

    def run(reuse):
        return seq.run(
            method="sparta", swap_larger_to_y=False, reuse_hty=reuse
        )

    cached = run(True)
    uncached = run(False)
    assert np.array_equal(cached.tensor.indices, uncached.tensor.indices)
    assert np.array_equal(cached.tensor.values, uncached.tensor.values)
    t_cached = _best_of(lambda: run(True))
    t_uncached = _best_of(lambda: run(False))
    stats = cached.cache_stats
    return {
        "steps": steps,
        "nnz_y": y.nnz,
        "cached_seconds": t_cached,
        "uncached_seconds": t_uncached,
        "speedup": t_uncached / t_cached,
        "hty_hits": stats.hits,
        "hty_misses": stats.misses,
    }


# ----------------------------------------------------------------------
# pytest entry points


def test_sequence_cache_speedup():
    row = measure_sequence_cache()
    assert row["hty_misses"] == 1
    assert row["hty_hits"] == row["steps"] - 1
    assert row["speedup"] >= 1.5, (
        f"sequence cache speedup {row['speedup']:.2f}x < 1.5x"
    )


# ----------------------------------------------------------------------


def main():
    seq = measure_sequence_cache()
    payload = {"sequence_cache": seq}
    out = Path(__file__).resolve().parent.parent / "results"
    out.mkdir(exist_ok=True)
    path = out / "BENCH_fastpath.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"sequence cache ({seq['steps']} steps): "
        f"uncached {seq['uncached_seconds']:.3f}s  "
        f"cached {seq['cached_seconds']:.3f}s  {seq['speedup']:.2f}x"
    )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
