"""Measurement helpers shared by every workload of the benchmark.

Nothing here reaches into the program: outputs are checked through the
public result objects, time is read from ``time.perf_counter`` around
public calls, and the span arithmetic works on the records that the
engines already emit into a :class:`repro.obs.Tracer`.
"""

from __future__ import annotations

import ctypes
import gc
import math
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

MIB = float(1 << 20)

#: the five Sparta stages, in pipeline order (names of the stage spans)
STAGES = (
    "input_processing",
    "index_search",
    "accumulation",
    "writeback",
    "output_sorting",
)

#: engine spans that cover a whole call without naming where its time
#: went; attribution counts only the spans nested below them
UMBRELLA_SPANS = frozenset({"request", "sparta", "sparta_parallel"})


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def samples_needed(q: float, beyond: int = 10) -> int:
    """Smallest sample count that leaves ``beyond`` samples above ``q``."""
    return int(math.ceil(beyond / (1.0 - q) - 1e-9))


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Reference:
    """What a correct call returns: output digest and Table-2 cells."""

    digest: str
    cells: Tuple[Tuple[tuple, int], ...]

    @classmethod
    def of(cls, tensor, profile) -> "Reference":
        return cls(output_digest(tensor), table2_cells(profile))


def output_digest(tensor) -> str:
    import numpy as np

    from repro.faults import payload_digest

    return payload_digest(
        tensor.indices,
        tensor.values,
        np.asarray(tensor.shape, dtype=np.int64),
    )


def table2_cells(profile) -> Tuple[Tuple[tuple, int], ...]:
    from repro.serve import traffic_cells

    return tuple(sorted(
        ((tuple(str(p) for p in key), int(n))
         for key, n in traffic_cells(profile).items()),
    ))


def check_output(tensor, profile, ref: Reference, *, traffic: bool) -> str:
    """Empty string when the call matched its reference, else why not."""
    if output_digest(tensor) != ref.digest:
        return "output differs from the reference digest"
    if traffic and table2_cells(profile) != ref.cells:
        return "Table-2 traffic cells differ from the reference"
    return ""


# ----------------------------------------------------------------------
# one measured call
# ----------------------------------------------------------------------
@dataclass
class Call:
    """One timed call into the program, as the benchmark saw it."""

    style: str
    start: float
    end: float
    traced: bool = False
    error: str = ""
    profile: object = None
    records: list = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def span_sum(records: Iterable, *, names=None, cat=None) -> float:
    total = 0.0
    for r in records:
        if r.dur is None:
            continue
        if names is not None and r.name not in names:
            continue
        if cat is not None and r.cat != cat:
            continue
        total += r.dur
    return total


def stage_seconds(records: Iterable) -> Dict[str, float]:
    out = {s: 0.0 for s in STAGES}
    for r in records:
        if r.dur is not None and r.cat == "stage" and r.name in out:
            out[r.name] += r.dur
    return out


def covered_seconds(records: Iterable, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by named, non-umbrella spans."""
    intervals = sorted(
        (max(r.ts, lo), min(r.ts + r.dur, hi))
        for r in records
        if r.dur is not None and r.name not in UMBRELLA_SPANS
    )
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def worker_busy(records: Iterable) -> Dict[int, float]:
    """Per-worker busy seconds from the engines' worker chunk spans."""
    busy: Dict[int, float] = {}
    for r in records:
        if r.dur is not None and r.cat == "worker" and r.tid > 0:
            busy[r.tid] = busy.get(r.tid, 0.0) + r.dur
    return busy


# ----------------------------------------------------------------------
# peak resident set (benchmark process + its children)
# ----------------------------------------------------------------------
def child_pids() -> List[int]:
    """Live direct children of this process, from procfs."""
    pids: List[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", "rb") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return pids


def _status_kib(pid, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status``; 0 once the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        return 0
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


def _reset_peak(pid) -> None:
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")  # reset the kernel's VmHWM watermark to VmRSS
    except (FileNotFoundError, ProcessLookupError):
        pass  # the child exited meanwhile


def _malloc_trim() -> None:
    """Return the C heap's free pages to the kernel (glibc only)."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class PeakRss:
    """Peak RSS over a window: this process plus its live children.

    The kernel's high-water mark (``VmHWM``) of each process is reset to
    its current RSS when the window opens and read when it closes, so no
    short-lived peak is missed between samples and no sampling thread
    competes with the program. The result is the sum of per-process
    peaks; ``baseline`` is this process's RSS when the window opened.
    """

    def __enter__(self) -> "PeakRss":
        # start from what set-up still holds, not from the garbage and
        # freed heap pages it happened to leave behind
        gc.collect()
        _malloc_trim()
        self.baseline = _status_kib("self", "VmRSS") * 1024
        for pid in ["self"] + child_pids():
            _reset_peak(pid)
        return self

    def __exit__(self, *exc) -> None:
        self.peak = sum(
            _status_kib(pid, "VmHWM") * 1024 for pid in ["self"] + child_pids()
        )


# ----------------------------------------------------------------------
# resource sentinel
# ----------------------------------------------------------------------
SHM_DIR = "/dev/shm"
SHM_PREFIXES = ("psm_", "sptcreg")
SPILL_PREFIX = "sptc-ooc-"


def shm_segments() -> set:
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return set()
    return {n for n in names if n.startswith(SHM_PREFIXES)}


def spill_trees(roots: Sequence[str]) -> List[str]:
    found = []
    for root in roots:
        try:
            names = os.listdir(root)
        except OSError:
            continue
        found.extend(
            os.path.join(root, n) for n in names if n.startswith(SPILL_PREFIX)
        )
    return found


def tracker_pid() -> Optional[int]:
    """Pid of multiprocessing's resource tracker, if one was started."""
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def sentinel(shm_before: set, spill_roots: Sequence[str]) -> List[str]:
    """Leaks left behind by a workload: segments, spill trees, children.

    Leaked children are reported and then killed.

    The resource tracker is started by the serve layer for the life of
    the process; it is stopped when the benchmark exits, not here.
    """
    leaks = [f"shm segment {n}" for n in sorted(shm_segments() - shm_before)]
    leaks += [f"spill tree {p}" for p in spill_trees(spill_roots)]
    tracker = tracker_pid()
    deadline = time.monotonic() + 5.0
    while True:
        live = [p for p in child_pids() if p != tracker]
        if not live or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in live:
        # a leaked worker would keep the interpreter from exiting
        os.kill(pid, signal.SIGKILL)
    leaks += [f"child process {p}" for p in live]
    return leaks


def stop_resource_tracker() -> None:
    """End the resource tracker this process started and wait for it."""
    from multiprocessing import resource_tracker

    if tracker_pid() is not None:
        resource_tracker._resource_tracker._stop()
