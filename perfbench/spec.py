"""What the benchmark measures: workloads, metrics, units, bounds.

``python3 perfbench/run.py --write-spec`` writes this into BENCHMARK.json.
"""

from __future__ import annotations

RUN_SECONDS = 25

#: The workloads BENCHMARK.json lists: every change is judged on these.
WORKLOADS = (
    ("serve_small",
     "warm /run over json, wire and shm of four small programs: per-run "
     "static work, HTTP, the router hop and the JSON codec dominate"),
    ("serve_large",
     "warm /run over wire and shm of four large programs, one through the "
     "runtime inspector: kernel, shm load/copy-back and bytes on the socket "
     "dominate"),
)

#: Run by the same command but not listed in BENCHMARK.json: on a shared
#: 2-CPU host their p50 moves 1.4x (gcc-bound) to 4x (dispatch-bound) with
#: the CPU time other guests steal, far past any bound a gate could hold.
UNGATED_WORKLOADS = (
    ("compile_churn",
     "compile a never-seen program, then run it once: the miss side of "
     "every cache, gcc builds, pool starts and evictions"),
    ("hybrid_inproc",
     "library calls of gauss_jordan with no HTTP: about 550 dispatches and "
     "one pool start per call, so per-dispatch cost dominates"),
)

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "cpu_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)

PER_LAYER = (
    ("caller.wall_p50_ms", "ms", "lower"),
    ("pipeline.lower_ms", "ms", "lower"),
    ("safety.verify_ms", "ms", "lower"),
    ("codegen.chunk_emit_ms", "ms", "lower"),
    ("codegen.kernel_lookup_ms", "ms", "lower"),
    ("codegen.c_build_ms", "ms", "lower"),
    ("codegen.c_builds", "count", "lower"),
    ("tuning.calibrations", "count", "lower"),
    ("tuning.pinned_hits", "count", "higher"),
    ("pool.start_ms", "ms", "lower"),
    ("pool.close_ms", "ms", "lower"),
    ("pool.starts", "count", "lower"),
    ("engine.run_ms", "ms", "lower"),
    ("engine.dispatches", "count", "lower"),
    ("engine.dispatch_overhead_ms", "ms", "lower"),
    ("kernel.busy_ms", "ms", "lower"),
    ("counter.claims", "count", "lower"),
    ("counter.lock_ops", "count", "lower"),
    ("counter.claim_wait_ms", "ms", "lower"),
    ("shm.load_ms", "ms", "lower"),
    ("shm.copy_back_ms", "ms", "lower"),
    ("shm.stage_ms", "ms", "lower"),
    ("inspector.ms", "ms", "lower"),
    ("wire.encode_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("wire.bytes", "bytes", "lower"),
    ("json.encode_ms", "ms", "lower"),
    ("json.decode_ms", "ms", "lower"),
    ("json.bytes", "bytes", "lower"),
    ("http.replica_ms", "ms", "lower"),
    ("router.hop_ms", "ms", "lower"),
    ("router.queue_wait_ms", "ms", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("baseline.c_failures", "count", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [dict(m) for m in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
