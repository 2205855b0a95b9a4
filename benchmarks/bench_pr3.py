"""All-stage parallelism benchmark — writes ``BENCH_PR3.json``.

Measures the scaled Figure-6 workloads two ways:

* ``serial`` — the fused engine (the speedup baseline);
* ``allstage`` — the parallel pipeline: partitioned HtY build, fused
  chunk compute, and merge-based output sorting.

The machine-readable record lands at the repo root as ``BENCH_PR3.json``
(per-stage seconds, end-to-end speedups, worker and CPU counts) so CI
can upload it as an artifact, together with two observability
artifacts from one extra traced all-stage run: ``TRACE_SAMPLE.json``
(Chrome trace-event JSON — open in Perfetto) and
``BENCH_PR3_metrics.json`` (the :class:`repro.obs.MetricsRegistry`
flat metric dump).  ``--quick`` runs one workload with one
repeat for the CI smoke job.  Speedup *assertions* are host-gated and
live in ``bench_fig6_scalability.py``; this script only records what it
measures — on a single-core container the parallel numbers will simply
show the overhead floor.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.core import contract
from repro.datasets import make_case
from repro.obs import MetricsRegistry, Tracer
from repro.parallel import parallel_sparta

WORKERS = 4
QUICK_WORKLOADS = (("nips", 1),)
FULL_WORKLOADS = (("nips", 1), ("chicago", 2), ("uracil", 3))
BENCH_SCALE = 0.2


def _stage_seconds(profile):
    return {s.value: secs for s, secs in profile.stage_seconds.items()}


def _best_serial(case, repeats):
    best_wall, best = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = contract(
            case.x, case.y, case.cx, case.cy,
            method="sparta", swap_larger_to_y=False,
        )
        wall = time.perf_counter() - t0
        if wall < best_wall:
            best_wall, best = wall, res
    return best_wall, best


def _best_parallel(case, backend, repeats):
    best_wall, best = float("inf"), None
    for _ in range(repeats):
        par = parallel_sparta(
            case.x, case.y, case.cx, case.cy,
            threads=WORKERS, backend=backend,
        )
        if par.wall_seconds < best_wall:
            best_wall, best = par.wall_seconds, par
    return best_wall, best


def measure_workload(name, modes, *, backend, repeats):
    case = make_case(name, modes, scale=BENCH_SCALE, seed=0)
    serial_wall, serial = _best_serial(case, repeats)
    all_wall, allstage = _best_parallel(case, backend, repeats)
    assert allstage.result.tensor.allclose(serial.tensor)
    return {
        "workload": f"{name}-{modes}mode",
        "nnz_x": int(case.x.nnz),
        "nnz_y": int(case.y.nnz),
        "serial": {
            "wall_seconds": serial_wall,
            "stage_seconds": _stage_seconds(serial.profile),
        },
        "allstage": {
            "wall_seconds": all_wall,
            "stage_seconds": _stage_seconds(allstage.result.profile),
            "speedup": serial_wall / max(all_wall, 1e-12),
            "load_imbalance": allstage.load_imbalance,
        },
    }


def run(*, quick=False, backend=None):
    cores = os.cpu_count() or 1
    if backend is None:
        backend = "process" if cores >= 4 else "thread"
    repeats = 1 if quick else 3
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    rows = [
        measure_workload(name, modes, backend=backend, repeats=repeats)
        for name, modes in workloads
    ]
    return {
        "bench": "pr3_allstage_parallelism",
        "workers": WORKERS,
        "cpu_cores": cores,
        "backend": backend,
        "quick": quick,
        "scale": BENCH_SCALE,
        "workloads": rows,
    }


def write_observability_artifacts(root, *, backend, quick):
    """One traced all-stage run → trace + metrics artifacts for CI.

    The timed measurements above run untraced; this extra run exists
    only to produce the artifacts, so its wall time is irrelevant.
    """
    name, modes = (QUICK_WORKLOADS if quick else FULL_WORKLOADS)[0]
    case = make_case(name, modes, scale=BENCH_SCALE, seed=0)
    tracer = Tracer()
    par = parallel_sparta(
        case.x, case.y, case.cx, case.cy,
        threads=WORKERS, backend=backend, tracer=tracer,
    )
    trace_path = root / "TRACE_SAMPLE.json"
    tracer.write(trace_path)
    metrics_path = root / "BENCH_PR3_metrics.json"
    MetricsRegistry.from_profile(par.result.profile).write(metrics_path)
    return trace_path, metrics_path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="one workload, one repeat (CI smoke mode)",
    )
    parser.add_argument(
        "--backend", choices=("thread", "process"), default=None,
        help="override the cpu-count-based backend choice",
    )
    args = parser.parse_args(argv)
    payload = run(quick=args.quick, backend=args.backend)
    root = Path(__file__).resolve().parent.parent
    path = root / "BENCH_PR3.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"{payload['backend']} backend, {payload['workers']} workers, "
        f"{payload['cpu_cores']} cores"
    )
    for row in payload["workloads"]:
        print(
            f"  {row['workload']}: serial "
            f"{row['serial']['wall_seconds']:.3f}s | all-stage "
            f"{row['allstage']['speedup']:.2f}x"
        )
    print(f"wrote {path}")
    trace_path, metrics_path = write_observability_artifacts(
        root, backend=payload["backend"], quick=args.quick
    )
    print(f"wrote {trace_path}")
    print(f"wrote {metrics_path}")


if __name__ == "__main__":
    main()
