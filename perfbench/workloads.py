"""The benchmark's workloads: how each sets up, runs and checks itself.

Each workload builds its inputs from the seed alone, sets up (inputs,
server, pinned operands, one untimed warm-up pass that also records the
reference output digest and Table-2 traffic cells of every distinct
call), then drives the program through its public entry points for the
measured window and checks every output against those references.
Parameters live in ``spec.json`` beside this file.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

from measure import Call, Reference, check_output, samples_needed

now = time.perf_counter


class Workload:
    """Common set-up bookkeeping; subclasses fill in the calls."""

    def __init__(self, name: str, params: dict, seed: int, spill_root: str):
        self.name = name
        self.params = params
        self.seed = seed
        self.spill_root = spill_root
        self.tail_q = params["tail_percentile"] / 100.0
        self.slo_s = params["slo_ms"] / 1e3
        #: reference per distinct call, from the first set-up
        self.refs: Dict[object, Reference] = {}
        #: the reference calls' profiles (Table-2 traffic, counters)
        self.ref_profiles: Dict[object, object] = {}
        self.setup_errors: List[str] = []
        self.gen_seconds: List[float] = []
        self.setup_seconds: List[float] = []
        self.setup_spans: List[Tuple[float, float]] = []

    def _note_reference(self, key, label: str, tensor, profile) -> None:
        """The first set-up call of *key* is its reference; every later
        set-up call of *key*, of any call style, must match it."""
        ref = Reference.of(tensor, profile)
        if key not in self.refs:
            self.refs[key] = ref
            self.ref_profiles[key] = profile
        elif ref != self.refs[key]:
            self.setup_errors.append(
                f"set-up call {label} of {key} differs from the reference"
            )

    def setup(self, repeats: int) -> None:
        """Set up *repeats* times from scratch, keeping the last state."""
        for i in range(repeats):
            if i:
                self.teardown()
            t0 = now()
            self._setup_once()
            t1 = now()
            self.setup_seconds.append(t1 - t0)
            self.setup_spans.append((t0, t1))

    def _setup_once(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, traced: bool) -> List[Call]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# closed loops: one caller, whole cycles over the distinct calls
# ----------------------------------------------------------------------
class ClosedLoop(Workload):
    """One caller issuing the distinct calls in turn until time is up.

    The window always ends on a whole cycle, so every distinct call is
    equally represented, and runs on (past ``seconds`` if need be)
    until the tail percentile has ten samples beyond it. Checks run
    between calls and are not timed.
    """

    def _calls(self) -> List[Tuple[str, object, dict]]:
        """(style, case key, contract kwargs) per distinct call."""
        raise NotImplementedError

    def _invoke(self, style, key, kwargs, traced) -> Call:
        from repro import contract
        from repro.obs import Tracer

        case = self.cases[key]
        tracer = Tracer() if traced else None
        t0 = now()
        try:
            res = contract(
                case.x, case.y, case.cx, case.cy, tracer=tracer, **kwargs
            )
        except Exception as exc:  # a failed call is a measured outcome
            t1 = now()
            return Call(style, t0, t1, traced,
                        error=f"{type(exc).__name__}: {exc}")
        t1 = now()
        # the HtY cache is off, so Table-2 traffic must match too
        error = check_output(
            res.tensor, res.profile, self.refs[key], traffic=True
        )
        return Call(
            style, t0, t1, traced, error=error, profile=res.profile,
            records=tracer.records if traced else [],
            info={"case": key},
        )

    def run(self, seconds: float, traced: bool) -> List[Call]:
        calls = self._calls()
        need = samples_needed(self.tail_q)
        out: List[Call] = []
        busy, untraced, cycle = 0.0, 0, 0
        while busy < seconds or (not traced and untraced < need):
            for style, key, kwargs in calls:
                # traced runs pair every call with an untraced twin,
                # alternating which goes first, for the overhead ratio
                order = ((False, True) if cycle % 2 == 0 else (True, False)
                         ) if traced else (False,)
                for tr in order:
                    call = self._invoke(style, key, kwargs, tr)
                    busy += call.wall
                    untraced += not tr
                    out.append(call)
            cycle += 1
        return out


class Table3(ClosedLoop):
    """Table-3 contractions at full scale, default and planned calls."""

    def _setup_once(self) -> None:
        from repro import contract
        from repro.datasets import make_case

        p = self.params
        t0 = now()
        self.cases = {
            f"{ds}-{n}mode": make_case(ds, n, scale=p["scale"], seed=self.seed)
            for ds, n in p["cases"]
        }
        self.gen_seconds.append(now() - t0)
        for key, case in self.cases.items():
            for style, kwargs in p["call_styles"].items():
                res = contract(case.x, case.y, case.cx, case.cy, **kwargs)
                # every call style must reproduce the default call's
                # output and traffic: they share one reference
                self._note_reference(key, style, res.tensor, res.profile)

    def _calls(self):
        return [
            (style, key, kwargs)
            for key in self.cases
            for style, kwargs in self.params["call_styles"].items()
        ]


class _OocCase:
    """The out-of-core 10x case: X and Y drawn from a shared key pool.

    Same construction as the out-of-core budget benchmark
    (``benchmarks/bench_ooc.py``), with the seed as a parameter: the
    pool keeps X probes landing on real Y fibers, so products and spill
    volume scale with ``nnz_x``.
    """

    def __init__(self, nnz_x: int, seed: int):
        from repro.datasets import make_large_tensor

        dims_c, pool = (24, 28), 600
        self.x = make_large_tensor(
            (nnz_x * 4,) + dims_c, nnz_x, seed=seed,
            pool_modes=2, pool_at="trail", pool_size=pool, pool_seed=7,
        )
        self.y = make_large_tensor(
            dims_c + (nnz_x * 6,), 2 * pool, seed=seed + 1,
            pool_modes=2, pool_at="lead", pool_size=pool, pool_seed=7,
        )
        self.cx, self.cy = (1, 2), (0, 1)


class OocSpill(ClosedLoop):
    """The 10x case under a memory budget that forces spilling."""

    def _setup_once(self) -> None:
        from repro import contract

        t0 = now()
        self.cases = {"ooc-10x": _OocCase(self.params["nnz_x"], self.seed)}
        self.gen_seconds.append(now() - t0)
        case = self.cases["ooc-10x"]
        # the in-core run is the reference the spilling run must match
        res = contract(case.x, case.y, case.cx, case.cy)
        self._note_reference("ooc-10x", "in-core", res.tensor, res.profile)
        del res
        res = contract(case.x, case.y, case.cx, case.cy, **self._kwargs())
        self._note_reference("ooc-10x", "budgeted", res.tensor, res.profile)

    def _kwargs(self) -> dict:
        return {
            "memory_budget": self.params["budget"],
            "spill_root": self.spill_root,
        }

    def _calls(self):
        return [("budgeted", "ooc-10x", self._kwargs())]


# ----------------------------------------------------------------------
# the contraction server, driven by one caller
# ----------------------------------------------------------------------
class ServeClosed(ClosedLoop):
    """One caller submitting to the contraction server and waiting for
    each reply, cycling over every (case, tenant) pair.

    Latency runs from submission to the moment the reply is in hand, so
    dispatch, IPC and reply decode all count, and no queue forms: a
    slower service shows in latency directly instead of being amplified
    by queueing into swings the shared host's drift already causes.
    """

    def _setup_once(self) -> None:
        from repro import contract
        from repro.serve import (
            LoadGenerator,
            LoadSpec,
            ServeClient,
            ServeConfig,
            SpTCServer,
        )

        p = self.params
        # one outstanding request leaves no parallel work, and on a
        # shared VM host waking an idle vCPU for each hop between the
        # caller, the dispatcher and a worker costs host scheduling
        # latency that dominated the tail; the server's threads and
        # worker processes inherit this single-CPU affinity
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.server = SpTCServer(
            ServeConfig(workers=p["workers"], tracing=False)
        ).start()
        self.client = ServeClient(self.server)
        spec = LoadSpec(
            seed=self.seed,
            datasets=tuple(p["datasets"]),
            n_modes=p["n_modes"],
            scale=p["scale"],
            tenants=tuple(p["tenant_options"]),
            distinct_cases=p["distinct_cases"],
        )
        t0 = now()
        self.gen = LoadGenerator(self.client, spec=spec)
        self.gen_seconds.append(now() - t0)
        self.gen.pin_all()
        for i, case in enumerate(self.gen.cases):
            res = contract(case.x, case.y, case.cx, case.cy)
            self._note_reference(i, "direct", res.tensor, res.profile)
        # warm every worker's kernel and HtY caches on every request
        # kind, a round at a time so no tenant's queue overflows; these
        # replies are checked like measured ones
        for _ in range(p["warmup_rounds"]):
            pending = [
                (i, tenant, self._submit(i, tenant, False))
                for i, tenant in self._pairs()
            ]
            for i, tenant, pend in pending:
                resp = pend.result(60.0)
                error = check_output(
                    resp.tensor, resp.profile, self.refs[i],
                    traffic=not self._cached(tenant),
                )
                if error:
                    self.setup_errors.append(f"warm-up request: {error}")

    def _pairs(self) -> List[Tuple[int, str]]:
        return [
            (i, tenant)
            for i in range(len(self.gen.cases))
            for tenant in self.params["tenant_options"]
        ]

    def _calls(self):
        return [(tenant, i, None) for i, tenant in self._pairs()]

    def _cached(self, tenant: str) -> bool:
        return bool(self.params["tenant_options"][tenant].get("use_hty_cache"))

    def _submit(self, case_index: int, tenant: str, traced: bool):
        case = self.gen.cases[case_index]
        hx, hy = self.gen.handle_names(case_index)
        return self.client.submit_nowait(
            hx, hy, case.cx, case.cy, tenant=tenant,
            options=dict(self.params["tenant_options"][tenant]),
            trace=traced,
        )

    def _invoke(self, tenant, key, _kwargs, traced) -> Call:
        from repro.errors import ServiceOverloadedError

        t0 = now()
        try:
            resp = self._submit(key, tenant, traced).result(60.0)
        except ServiceOverloadedError:
            t1 = now()
            return Call(tenant, t0, t1, traced, error="refused",
                        info={"case": key, "refused": True})
        except Exception as exc:  # a failed request is a measured outcome
            t1 = now()
            return Call(tenant, t0, t1, traced,
                        error=f"{type(exc).__name__}: {exc}",
                        info={"case": key})
        t1 = now()
        cached = self._cached(tenant)
        # HtY-cached replies skip stage-1 traffic, so only their output
        # digest is checked
        error = check_output(
            resp.tensor, resp.profile, self.refs[key], traffic=not cached
        )
        return Call(
            tenant, t0, t1, traced, error=error, profile=resp.profile,
            records=resp.records,
            info={
                "case": key,
                "cached": cached,
                "queue_s": resp.queue_seconds,
                "service_s": resp.service_seconds,
                "batch": resp.batch_id,
                "degraded": resp.degraded,
            },
        )

    def teardown(self) -> None:
        gen, server = getattr(self, "gen", None), getattr(self, "server", None)
        if gen is not None:
            gen.unpin_all()
        if server is not None:
            server.close()
        self.gen = self.server = None


KINDS = {"table3": Table3, "ooc": OocSpill, "serve": ServeClosed}


def make_workload(name: str, params: dict, seed: int, spill_root: str,
                  ) -> Workload:
    return KINDS[params["kind"]](name, params, seed, spill_root)
