#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table3-output --seed 1 \\
        --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, sets up (several times;
``setup_s`` is the median), measures for ``--seconds`` seconds, checks
every output against the references taken during set-up, checks that
nothing leaked (shared-memory segments, spill trees, child processes),
and prints a summary followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` traces the calls, reports the per-layer metrics and
writes the run's spans to ``perfbench/traces/``. Each result is also
appended to ``perfbench/results/results.jsonl``.

``--compare BASE NEW`` compares two such result files (see
``compare.py``) instead of running anything.

The exit code is 0 only for a correct run with every metric present.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args(argv)
    if args.compare is None and args.workload is None:
        ap.error("--workload is required unless --compare is given")
    return args


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_trace(wl, calls, path: str) -> None:
    """The run's spans: the benchmark's own around each call, plus the
    spans the program emitted into the per-call tracers."""
    from repro.obs import Tracer

    tracer = Tracer()
    tracer.t0 = min([t0 for t0, _ in wl.setup_spans] + [c.start for c in calls])
    for i, (t0, t1) in enumerate(wl.setup_spans):
        tracer.add_span("setup", start=t0, end=t1, cat="bench", repeat=i)
    for c in calls:
        tracer.add_span(
            "call", start=c.start, end=c.end, cat="bench", style=c.style,
            traced=c.traced, error=c.error,
        )
        tracer.ingest(c.records)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.write(path)


def measure(args, bench: dict, spec: dict) -> dict:
    from layers import claims, end_to_end, per_layer
    from measure import PeakRss, sentinel, shm_segments
    from workloads import make_workload

    params = spec["workloads"][args.workload]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    spill_root = os.path.join(HERE, "tmp", "spill")
    os.makedirs(spill_root, exist_ok=True)
    wl = make_workload(args.workload, params, args.seed, spill_root)
    shm_before = shm_segments()
    try:
        wl.setup(params["setup_repeats"])
        with PeakRss() as rss:
            calls = wl.run(seconds, bool(args.trace))
    finally:
        wl.teardown()
    leaks = sentinel(shm_before, [tempfile.gettempdir(), spill_root])

    problems = list(wl.setup_errors) + [f"leak: {x}" for x in leaks]
    problems += [f"{c.style}: {c.error}" for c in calls if c.error]
    try:
        if args.trace:
            metrics = per_layer(wl, calls, rss)
        else:
            metrics = end_to_end(wl, calls, rss)
    except RuntimeError as exc:  # too few good samples for the tail
        problems.append(str(exc))
        metrics = {}
    names = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        trace_path = os.path.join(
            HERE, "traces", f"{args.workload}-seed{args.seed}.json"
        )
        write_trace(wl, calls, trace_path)
        print(f"trace: {os.path.relpath(trace_path, ROOT)}")
        if metrics:
            for line in claims(wl, calls, metrics):
                print(f"claim: {line}")

    out = {}
    for entry in names:
        value = metrics.get(entry["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {entry['name']} missing")
            continue
        out[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    failed = sum(1 for c in calls if c.error)
    for name, cell in out.items():
        print(f"{name:40s} {cell['value']:16.6f} {cell['unit']}")
    print(f"calls: {len(calls)} attempted, {failed} failed; "
          f"setups: {len(wl.setup_seconds)}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if len(problems) > 20:
        print(f"problem: ... {len(problems) - 20} more", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": out,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.compare:
        from compare import compare

        return compare(bench, *args.compare)
    # keep every temporary file the program makes inside the checkout
    tmp = os.path.join(HERE, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    from measure import stop_resource_tracker

    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = measure(args, bench, spec)
    finally:
        stop_resource_tracker()
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "results.jsonl"), "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "result": result,
        }) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
