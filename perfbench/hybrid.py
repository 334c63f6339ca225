"""hybrid_inproc: the library entry point, no HTTP.

``lower_and_coalesce(..., frontend="dsl")`` and ``compile_mp_procedure``
once, then repeated Gauss-Jordan solves.  The serial pivot loop runs in
the parent and dispatches the row update about 550 times per call, and
every call starts (and stops) its own worker pool: the paper's hybrid
model, where per-dispatch cost dominates.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass

from repro.api import lower_and_coalesce
from repro.cache import configure, default_cache
from repro.parallel.backend import compile_mp_procedure

import probes
import served
from cluster import SetupError, count_c_builds, stop_all, store_bytes
from common import OP_ERRORS, WORKERS, Context, CpuMeter, closed_loop
from programs import block_order, gauss_program
from stats import Tally, median

#: Distinct seeded systems the calls cycle through.
DATASETS = 4
#: Time given to serving the same program, for the off-path HTTP layers.
SERVED_PROBE_S = 2.0


@dataclass
class Call:
    data: int
    arrays: dict  # a fresh copy, solved in place by the call
    scalars: dict
    expected: dict

    label = "gauss"


class HybridWorkload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.program = gauss_program()
        self.mp = None
        self.store = None
        self.datasets = []

    def setup(self) -> None:
        """Lower, compile, and make one checked call (it builds the C
        kernels into a fresh store)."""
        self.store = self.ctx.fresh_dir("cache")
        configure(dir=self.store)
        _, proc, _, _ = lower_and_coalesce(self.program.source,
                                           frontend="dsl")
        self.mp = compile_mp_procedure(proc, workers=WORKERS)
        self.datasets = []
        for d in range(DATASETS):
            arrays, scalars = self.program.inputs(self.ctx.seed * 100 + d)
            self.datasets.append(
                (arrays, scalars, self.program.expected(arrays, scalars)))
        call = next(self.order())
        reason = self.check(call, self.call(call))
        if reason is not None:
            raise SetupError(f"warm-up failed: {reason}")

    def retire(self) -> list:
        self.mp = None
        return []

    def order(self):
        for d in block_order(DATASETS, random.Random(self.ctx.seed)):
            arrays, scalars, expected = self.datasets[d]
            yield Call(d, {n: a.copy() for n, a in arrays.items()},
                       scalars, expected)

    def call(self, call: Call):
        self.mp.run(call.arrays, call.scalars)
        return self.mp

    def check(self, call: Call, mp) -> str | None:
        if mp.fallback_reason is not None:
            return f"serial-fallback: {mp.fallback_reason}"
        if mp.last is None or not mp.last.dispatches:
            return "no dispatch"
        return self.program.check(call.arrays, call.expected)

    def measure(self, deadline: float, tally: Tally):
        return closed_loop(deadline, self.order(), self.call, self.check,
                           tally, CpuMeter())

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced -------------------------------------------------------------
    def trace(self, deadline: float, tally: Tally) -> dict:
        rows: dict[str, list[float]] = {}
        e2e: list[float] = []
        counts = {"pool.starts": 0.0, "tuning.calibrations": 0.0,
                  "tuning.pinned_hits": 0.0}
        builds0 = count_c_builds(self.store)
        store = default_cache()
        cache0 = store.stats.as_dict()
        bytes0 = store_bytes(self.store)
        tracer = probes.Tracer()
        for call in self.order():
            if time.monotonic() >= deadline:
                break
            try:
                with tracer.installed():
                    ms, mp = probes.timed(self.call, call)
                reason = self.check(call, mp)
            except OP_ERRORS as exc:
                tracer.take()
                tally.fail(f"{type(exc).__name__}: {exc}")
                continue
            spans = tracer.take()
            if reason is not None:
                tally.fail(reason)
                continue
            tally.ok()
            e2e.append(ms)
            row = probes.span_row(spans)
            row.update(probes.kernel_stats(mp.last))
            row["engine.dispatch_overhead_ms"] = probes.dispatch_overhead(row)
            row["e2e_ms"] = ms
            row["attributed_ms"] = row["engine.run_ms"]
            counts["pool.starts"] += sum(
                1 for s in spans if s.name == "pool.start")
            counts["tuning.calibrations"] += mp.last.calibrations
            counts["tuning.pinned_hits"] += mp.last.pinned_decisions
            for name, value in row.items():
                rows.setdefault(name, []).append(value)
        counts["codegen.c_builds"] = float(count_c_builds(self.store) - builds0)
        cache1 = store.stats.as_dict()
        counts["cache.hits"] = float(cache1["hits"] - cache0["hits"])
        counts["cache.misses"] = float(cache1["misses"] - cache0["misses"])
        counts["cache.bytes_written"] = float(store_bytes(self.store) - bytes0)
        arrays, scalars, _ = self.datasets[0]
        off = served.off_path_row(self.ctx, self.program.source, {},
                                  self.mp.proc, arrays, scalars)
        off.update(self._served_layers(tally))
        return {"per_type": {"gauss": rows}, "e2e": e2e, "counts": counts,
                "per_program": {"gauss": off}}

    def _served_layers(self, tally: Tally) -> dict:
        """HTTP, router hop and queue wait for this program when served.

        They are not on this workload's path; they are measured on the same
        program so every workload reports every layer.
        """
        sw = served.ServedWorkload(self.ctx, [self.program], ("wire",))
        try:
            sw.setup()
            tr = sw.trace(time.monotonic() + SERVED_PROBE_S, tally,
                          off_path=False)
        finally:
            stop_all(sw.retire())
        rows = next(iter(tr["per_type"].values()), {})
        keys = ("http.replica_ms", "router.hop_ms", "router.queue_wait_ms")
        if not all(k in rows for k in keys):
            raise SetupError("serving the hybrid program produced no trace")
        return {k: median(rows[k]) for k in keys}
