"""Turn a workload's measured calls into the named metrics.

End-to-end metrics come from untraced runs; per-layer metrics from a
traced run, mostly from the spans the engines emit and from what each
call already returns (``RunProfile`` counters and flags,
``ServeResponse`` queue/service seconds). Every per-layer metric is
reported on every workload; a layer that does not run on a workload
reads 0 there (no time, no count).
"""

from __future__ import annotations

import math
from typing import Dict, List

from measure import (
    MIB,
    STAGES,
    Call,
    covered_seconds,
    median,
    percentile,
    samples_needed,
    span_sum,
    stage_seconds,
    worker_busy,
)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _counter(call: Call, name: str) -> int:
    return int(call.profile.counters.get(name, 0))


def latency_groups(wl, calls: List[Call]) -> List[List[float]]:
    """Good calls' wall times in consecutive groups, in call order.

    Each group holds at least 1.25x the samples the tail percentile
    needs (ten beyond it). Latency metrics are medians over the groups,
    so a short stall of the shared host moves one group, not the result.
    """
    lat = [c.wall for c in calls if not c.error]
    need = samples_needed(wl.tail_q)
    if len(lat) < need:
        raise RuntimeError(
            f"{len(lat)} good samples, the p{wl.params['tail_percentile']}"
            f" tail needs {need}"
        )
    k = max(len(lat) // math.ceil(1.25 * need), 1)
    bounds = [len(lat) * i // k for i in range(k + 1)]
    return [lat[a:b] for a, b in zip(bounds, bounds[1:])]


def end_to_end(wl, calls: List[Call], rss) -> Dict[str, float]:
    ok = [c for c in calls if not c.error]
    groups = latency_groups(wl, calls)
    # one caller cycling through distinct calls of very different cost:
    # use each distinct call's median, so a stalled call moves its own
    # median and the p50 never sits on the edge between two calls'
    # clusters of samples
    walls: Dict[tuple, List[float]] = {}
    for c in ok:
        walls.setdefault((c.style, c.info["case"]), []).append(c.wall)
    medians = [median(w) for w in walls.values()]
    return {
        "setup_s": median(wl.setup_seconds),
        "throughput_cps": len(medians) / sum(medians),
        "latency_ms.p50": median(medians) * 1e3,
        "latency_ms.tail": median(
            [percentile(g, wl.tail_q) for g in groups]) * 1e3,
        "ok_ratio": len(ok) / len(calls),
        "slo_ok_ratio": sum(c.wall <= wl.slo_s for c in ok) / len(calls),
        "peak_rss_mb": rss.peak / MIB,
    }


def per_layer(wl, calls: List[Call], rss) -> Dict[str, float]:
    from repro.ooc import parse_budget

    ok = [c for c in calls if not c.error]
    traced = [c for c in ok if c.traced]
    m: Dict[str, float] = {}

    # --- core: the five stages and what the stage timers miss --------
    stages = [stage_seconds(c.records) for c in traced]
    for i, name in enumerate(STAGES, start=1):
        m[f"core.stage{i}_s"] = _mean(s[name] for s in stages)
    inner = [c.info.get("service_s", c.wall) for c in traced]
    m["core.unattributed_s"] = _mean(
        w - sum(s.values()) for w, s in zip(inner, stages)
    )
    m["core.kernel_compiles"] = sum(_counter(c, "kernel_compiles") for c in ok)
    hits = sum(_counter(c, "hty_cache_hits") for c in ok)
    misses = sum(_counter(c, "hty_cache_misses") for c in ok)
    m["core.hty_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    refs = list(wl.ref_profiles.values())
    m["core.products"] = sum(p.counters.get("products", 0) for p in refs)
    m["core.hash_probes"] = sum(p.counters.get("hash_probes", 0) for p in refs)
    m["core.traffic_mb"] = sum(r.nbytes for p in refs for r in p.traffic) / MIB

    # --- planner --------------------------------------------------------
    auto = [c for c in ok if c.profile.flags.get("planner", "").startswith("auto:")]
    m["planner.parallel_share"] = (
        sum(c.profile.flags["planner"] != "auto:serial" for c in auto) / len(auto)
        if auto else 0.0
    )
    plans = [
        (c, r) for c in traced for r in c.records
        if r.name == "plan" and r.dur is not None
    ]
    m["planner.plan_ms"] = _med(r.dur * 1e3 for _, r in plans)
    m["planner.residual_s"] = _med(
        c.wall - float(r.args["est_seconds"]) for c, r in plans
    )

    # --- parallel workers -------------------------------------------------
    busy = [(c, worker_busy(c.records)) for c in traced]
    busy = [(c, b) for c, b in busy if b]
    m["parallel.worker_busy_s"] = _mean(sum(b.values()) for _, b in busy)
    m["parallel.load_imbalance"] = _mean(
        max(b.values()) / _mean(b.values()) for _, b in busy
    )
    m["parallel.merge_s"] = _mean(span_sum(c.records, cat="merge") for c, _ in busy)

    # --- out-of-core ------------------------------------------------------
    spilled = [c for c in ok if "ooc_spill_bytes" in c.profile.counters]
    m["ooc.spill_mb"] = _mean(_counter(c, "ooc_spill_bytes") / MIB for c in spilled)
    m["ooc.run_files"] = _mean(_counter(c, "ooc_run_files") for c in spilled)
    spilled_traced = [c for c in spilled if c.traced]
    m["ooc.spill_s"] = _mean(
        span_sum(c.records, names=("spill_partials", "spill_run"))
        for c in spilled_traced
    )
    m["ooc.stream_merge_s"] = _mean(
        span_sum(c.records, names=("stream_merge",)) for c in spilled_traced
    )
    m["ooc.budget_peak_mb"] = max(
        (_counter(c, "ooc_budget_peak_bytes") / MIB for c in spilled), default=0.0
    )
    budget = wl.params.get("budget")
    m["ooc.rss_over_budget"] = (
        (rss.peak - rss.baseline) / parse_budget(budget) if budget else 0.0
    )

    # --- serve --------------------------------------------------------------
    served = [c for c in ok if "queue_s" in c.info]
    m["serve.queue_ms.p50"] = _med(c.info["queue_s"] * 1e3 for c in served)
    m["serve.service_ms.p50"] = _med(c.info["service_s"] * 1e3 for c in served)
    m["serve.compute_ms.p50"] = _med(
        c.profile.total_seconds * 1e3 for c in served
    )
    m["serve.overhead_ms.p50"] = _med(
        (c.wall - span_sum(c.records, names=("queue_wait",))
         - sum(stage_seconds(c.records).values())) * 1e3
        for c in served if c.traced
    )
    batches = {c.info["batch"] for c in served}
    m["serve.batch_size.mean"] = len(served) / len(batches) if batches else 0.0
    m["serve.overload_retries"] = sum(bool(c.info.get("refused")) for c in calls)
    m["serve.degraded"] = sum(bool(c.info.get("degraded")) for c in served)

    # --- memory layer (simulated seconds, never mixed with wall time) -----
    m.update(memory_metrics(_memory_stream(wl, ok)))

    # --- observability, datasets, the benchmark itself ----------------------
    m["obs.trace_overhead"] = _trace_overhead(ok)
    walls = [c.wall for c in traced]
    m["obs.attributed_share"] = (
        sum(covered_seconds(c.records, c.start, c.end) for c in traced)
        / sum(walls) if walls else 0.0
    )
    m["datasets.gen_s"] = median(wl.gen_seconds)
    m["error_rate"] = (len(calls) - len(ok)) / len(calls)
    return m


def _trace_overhead(ok: List[Call]) -> float:
    on = [c for c in ok if c.traced]
    off = [c for c in ok if not c.traced]
    if not on or not off:
        return 0.0
    # every traced call is paired with an untraced twin
    return sum(c.wall for c in on) / sum(c.wall for c in off) - 1


def _memory_stream(wl, ok: List[Call]) -> list:
    """Profiles the memory layer replays.

    Served requests: the first uncached replies in submission order
    (their traffic was checked byte-exact, so the stream is a pure
    function of the seed). Closed loops: one reference call per case,
    streamed twice, as in ``repro.experiments.dynamic_placement``.
    """
    served = [
        c.profile for c in ok if "queue_s" in c.info and not c.info["cached"]
    ]
    if served:
        return served[: wl.params["memory_stream_requests"]]
    return list(wl.ref_profiles.values()) * 2


def _traffic_timed(profile):
    """A copy whose stage seconds are the all-DRAM time of its traffic.

    The simulator adds memory penalties to each stage's CPU seconds;
    replacing measured seconds with this traffic-derived figure makes
    every simulated total a pure function of the recorded bytes.
    """
    from repro.core.profile import RunProfile
    from repro.memory import dram

    fast = dram(1)
    copy = RunProfile.from_dict(profile.to_dict())
    copy.stage_seconds = {}
    for rec in copy.traffic:
        copy.add_time(rec.stage, rec.nbytes / fast.effective_bandwidth(
            rec.kind, rec.pattern))
    return copy


def memory_metrics(profiles) -> Dict[str, float]:
    from repro.core.profile import DataObject
    from repro.experiments.dynamic_placement import (
        PIN_FRACTION,
        POLICIES,
        PRESSURE_FACTOR,
        run_scenario,
    )
    from repro.memory import (
        HMSimulator,
        all_pmm_placement,
        dram,
        pmm,
        sparta_policy_characterized,
    )
    from repro.memory.devices import HeterogeneousMemory
    from repro.memory.objects import ALWAYS_PMM

    profiles = [_traffic_timed(p) for p in profiles]
    # Figure 7: Sparta's static placement vs. Optane-only, DRAM holding
    # half of each run's peak footprint
    logs = []
    for p in profiles:
        peak = max(p.peak_bytes(), 1)
        hm = HeterogeneousMemory(
            dram=dram(max(peak // 2, 1)), pmm=pmm(peak * 20)
        )
        sim = HMSimulator(hm)
        optane = sim.simulate(p, all_pmm_placement()).total_seconds
        sparta = sim.simulate(
            p, sparta_policy_characterized(p, sim, hm.dram.capacity_bytes)
        ).total_seconds
        logs.append(math.log(optane / sparta))
    out = {"memory.hm_speedup.sparta": math.exp(_mean(logs))}
    # the pressured stream scenario of repro.experiments.dynamic_placement
    largest = max(
        p.object_bytes.get(o, 0)
        for p in profiles for o in DataObject if o not in ALWAYS_PMM
    )
    dram_bytes = max(int(largest * PRESSURE_FACTOR), 1)
    row = run_scenario(
        profiles, scenario="pressured", dram_bytes=dram_bytes,
        pinned_bytes=int(dram_bytes * PIN_FRACTION),
    )
    for policy in POLICIES:
        out[f"memory.stream_sim_s.{policy.replace(':', '_')}"] = row.seconds[policy]
    return out


def claims(wl, calls: List[Call], m: Dict[str, float]) -> List[str]:
    """Checks of the workload's stated reason, from the traced run."""
    ok = [c for c in calls if not c.error]
    traced = [c for c in ok if c.traced]
    lines = []
    if not traced:
        return ["no traced call succeeded"]
    if wl.params["kind"] == "table3":
        default = [c for c in traced if c.style == "default"] or traced
        late = sum(
            sum(stage_seconds(c.records)[s] for s in STAGES[2:]) for c in default
        )
        lines.append(
            f"stages 3-5 take {late / sum(c.wall for c in default):.1%} "
            f"of the default calls' wall time"
        )
        stage5 = sum(stage_seconds(c.records)["output_sorting"] for c in traced)
        lines.append(
            f"stage 5 takes {stage5 / sum(c.wall for c in traced):.1%} "
            f"of all calls' wall time"
        )
    elif wl.params["kind"] == "ooc":
        spilled = sum(c.profile.flags.get("ooc") == "spill" for c in ok)
        lines.append(f"{spilled} of {len(ok)} budgeted calls spilled")
    else:
        compute = sum(c.profile.total_seconds for c in ok)
        lines.append(
            f"compute takes {compute / sum(c.wall for c in ok):.1%} of the "
            f"served requests' latency"
        )
    lines.append(
        f"{m['obs.attributed_share']:.1%} of traced call wall time is "
        f"covered by named spans"
    )
    return lines
