"""Compare two result sets under the benchmark's own bounds.

    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

Each file holds result lines as ``run.py`` appends them to
``perfbench/results/results.jsonl`` (a directory of such files also
works). Only untraced runs carry end-to-end metrics. For every
workload x end-to-end metric this prints each side's median and
quartiles and a verdict:

* ``improved`` -- every NEW run beats every BASE run; or NEW wins at
  least 9 of 10 seed-paired runs and the medians differ by more than
  BASE's own quartile spread;
* ``unresolved`` -- the spread of either side is wider than the bound,
  so "no worse" cannot be told from noise;
* ``worse`` -- NEW's median is worse than BASE's by more than the bound;
* ``no worse`` -- otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import Dict, List, Tuple


def load(path: str) -> Dict[Tuple[str, str], List[Tuple[int, float]]]:
    """(workload, metric) -> [(seed, value), ...] over untraced runs."""
    files = (
        [os.path.join(path, f) for f in sorted(os.listdir(path))
         if f.endswith(".jsonl")]
        if os.path.isdir(path) else [path]
    )
    out: Dict[Tuple[str, str], List[Tuple[int, float]]] = {}
    for name in files:
        with open(name) as fh:
            for line in fh:
                if not line.strip():
                    continue
                row = json.loads(line)
                if row["trace"] or not row["result"]["correct"]:
                    continue
                for metric, cell in row["result"]["metrics"].items():
                    out.setdefault((row["workload"], metric), []).append(
                        (row["seed"], cell["value"]))
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[Tuple[int, float]], new: List[Tuple[int, float]],
            bound: float, higher: bool) -> str:
    sign = 1.0 if higher else -1.0  # sign * (a - b) > 0 means a is better
    b, n = [v for _, v in base], [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    if all(sign * (x - y) > 0 for x in n for y in b):
        return "improved"
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound:
        return "unresolved"
    # pair runs by seed, one median per seed and side
    by_seed = [{}, {}]
    for side, runs in zip(by_seed, (base, new)):
        for seed, v in runs:
            side.setdefault(seed, []).append(v)
    seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
    wins = sum(
        sign * (statistics.median(by_seed[1][s])
                - statistics.median(by_seed[0][s])) > 0
        for s in seeds
    )
    if (seeds and wins >= 0.9 * len(seeds)
            and abs(nmed - bmed) > (bq3 - bq1)):
        return "improved"
    worse_by = -sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    return "worse" if worse_by > bound else "no worse"


def compare(bench: dict, base_path: str, new_path: str) -> int:
    base, new = load(base_path), load(new_path)
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':14s} {'metric':18s} {'base q1/med/q3':>30s} "
          f"{'new q1/med/q3':>30s}  verdict")
    worse = 0
    for wl in workloads:
        for entry in bench["end_to_end"]:
            key = (wl, entry["name"])
            if key not in base or key not in new:
                print(f"{wl:14s} {entry['name']:18s} {'missing':>30s}")
                worse += 1
                continue
            v = verdict(base[key], new[key], entry["bound"],
                        entry["better"] == "higher")
            worse += v == "worse"
            cells = [
                "/".join(f"{q:.4g}" for q in quartiles([x for _, x in side[key]]))
                + f" n={len(side[key])}"
                for side in (base, new)
            ]
            print(f"{wl:14s} {entry['name']:18s} {cells[0]:>30s} "
                  f"{cells[1]:>30s}  {v}")
    return 1 if worse else 0
