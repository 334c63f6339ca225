"""Per-layer measurement from outside the program.

:class:`Tracer` records a :class:`~stats.Span` around every call into a
layer's public function while it is installed.  It wraps the functions
where the engine looks them up (module attributes and ``WorkerPool``
methods) and puts them back on exit; nothing under ``src/`` changes.
Spans nest, so each layer's self time is its duration minus its
children's.

The helpers below time one call of a layer on a workload's own inputs:
the codecs, a C build, a pool start, the inspector, the serial-C baseline.
"""

from __future__ import annotations

import contextlib
import json
import time

import numpy as np

import repro.analysis.safety as safety_mod
import repro.parallel.backend as backend_mod
import repro.parallel.runtime as runtime_mod
from repro import wire
from repro.analysis.safety import dispatchable
from repro.codegen.cgen import generate_chunk_c
from repro.codegen.cload import (
    CCompileError,
    compile_c_procedure,
    compile_chunk_library,
)
from repro.ir.expr import Var
from repro.ir.stmt import Assign, Loop
from repro.ir.visitor import free_vars, walk_stmts
from repro.parallel.pool import WorkerPool
from repro.parallel.shm import SharedArrayPool, attach_array
from repro.runtime.inspector import inspect_dispatch
from repro.tuning.variants import available_variants
from stats import Span, self_times

#: (span name, owner, attribute): the public calls the tracer wraps.
TRACED_CALLS = (
    ("safety.verify", safety_mod, "verify_procedure"),
    ("codegen.chunk_emit", runtime_mod, "generate_chunk_c"),
    ("codegen.kernel_lookup", runtime_mod, "compile_chunk_library"),
    ("inspector", runtime_mod, "inspect_dispatch"),
    ("engine.run", runtime_mod, "run_parallel_procedure"),
    ("engine.run", backend_mod, "run_parallel_procedure"),
    ("pool.start", WorkerPool, "__init__"),
    ("pool.close", WorkerPool, "close"),
    ("shm.load", WorkerPool, "load"),
    ("shm.copy_back", WorkerPool, "copy_back"),
    ("engine.dispatch", WorkerPool, "dispatch"),
)


class Tracer:
    """Spans around calls into layer functions, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, t0, t1, parent)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, owner, attr in TRACED_CALLS:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def take(self) -> list[Span]:
        """The finished spans since the last call (and forget them)."""
        spans = [s for s in self.spans if s is not None]
        self.spans, self._stack = [], []
        return spans


#: Span name -> the per-layer metric its total time reports.
SPAN_METRICS = {
    "engine.run": "engine.run_ms",
    "safety.verify": "safety.verify_ms",
    "codegen.chunk_emit": "codegen.chunk_emit_ms",
    "codegen.kernel_lookup": "codegen.kernel_lookup_ms",
    "inspector": "inspector.ms",
    "pool.start": "pool.start_ms",
    "pool.close": "pool.close_ms",
    "shm.load": "shm.load_ms",
    "shm.copy_back": "shm.copy_back_ms",
}


def span_row(spans: list[Span]) -> dict[str, float]:
    """Total ms per layer metric, for the layers that were called.

    ``engine.self_ms`` is the engine's own time: the self time of
    ``run_parallel_procedure`` plus that of every ``WorkerPool.dispatch``
    (the pool message and gather, with the kernel still inside).
    """
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
    row = {metric: totals[name] * 1e3
           for name, metric in SPAN_METRICS.items() if name in totals}
    own = self_times(spans)
    row["engine.self_ms"] = (
        own.get("engine.run", 0.0) + own.get("engine.dispatch", 0.0)) * 1e3
    return row


def dispatch_overhead(row: dict) -> float:
    """Engine time outside every named layer and the kernel: job build,
    the pool message, gather, the serial residue run in the parent."""
    return row.pop("engine.self_ms") - row["kernel.busy_ms"]


def kernel_stats(result) -> dict[str, float]:
    """Kernel and claim figures from a run's ``ClaimEvent`` timestamps.

    Per dispatch the busiest worker blocks the barrier, so kernel time and
    claim wait are summed per worker and the maximum is taken.
    """
    busy = wait = 0.0
    for d in result.dispatches:
        per_busy: dict[int, float] = {}
        per_wait: dict[int, float] = {}
        for e in d.events:
            per_busy[e.worker] = per_busy.get(e.worker, 0.0) + e.t_end - e.t_work
            per_wait[e.worker] = per_wait.get(e.worker, 0.0) + e.t_work - e.t_claim
        busy += max(per_busy.values(), default=0.0)
        wait += max(per_wait.values(), default=0.0)
    return {
        "kernel.busy_ms": busy * 1e3,
        "counter.claim_wait_ms": wait * 1e3,
        "counter.claims": float(result.claims),
        "counter.lock_ops": float(result.lock_ops),
        "engine.dispatches": float(len(result.dispatches)),
    }


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return (time.perf_counter() - t0) * 1e3, out


# -- codecs -----------------------------------------------------------------


def wire_codec(body: dict, arrays: dict) -> dict[str, float]:
    """One request and one response frame through ``repro.wire``."""
    enc_req, req = timed(wire.encode_frame, body, arrays)
    dec_req, (_, views) = timed(wire.decode_frame, req)
    enc_resp, resp = timed(wire.encode_frame, {"engine": "mp-pool"}, views)
    dec_resp, _ = timed(wire.decode_frame, resp)
    return {
        "wire.encode_ms": enc_req + enc_resp,
        "wire.decode_ms": dec_req + dec_resp,
        "wire.bytes": float(len(req) + len(resp)),
    }


def _json_encode(arrays: dict) -> bytes:
    doc = {
        "arrays": {n: wire.jsonable_array(a) for n, a in arrays.items()},
        "array_dtypes": wire.dtype_tags(arrays),
    }
    return json.dumps(doc, allow_nan=False).encode("utf-8")


def _json_decode(data: bytes) -> dict:
    doc = json.loads(data)
    tags = doc["array_dtypes"]
    return {n: wire.array_from_json(v, tags[n]) for n, v in doc["arrays"].items()}


def json_codec(arrays: dict) -> dict[str, float]:
    """One request and one response body through the JSON array codec."""
    enc_req, req = timed(_json_encode, arrays)
    dec_req, back = timed(_json_decode, req)
    enc_resp, resp = timed(_json_encode, back)
    dec_resp, _ = timed(_json_decode, resp)
    return {
        "json.encode_ms": enc_req + enc_resp,
        "json.decode_ms": dec_req + dec_resp,
        "json.bytes": float(len(req) + len(resp)),
    }


def shm_stage(arrays: dict) -> float:
    """The shm transport's staging: the client creates and fills segments,
    the server attaches them, the client copies results out and unlinks."""
    t0 = time.perf_counter()
    pool = SharedArrayPool(arrays)
    try:
        for spec in pool.specs():
            view, handle = attach_array(spec)
            del view  # the segment cannot close while a view exports it
            handle.close()
        for view in pool.views.values():
            np.array(view)
    finally:
        pool.close()
    return (time.perf_counter() - t0) * 1e3


# -- one call of a layer on a workload's inputs ------------------------------


def _assigned(loop: Loop) -> set[str]:
    return {s.target.name for s in walk_stmts(loop)
            if isinstance(s, Assign) and isinstance(s.target, Var)}


def dispatch_loops(proc) -> list[Loop]:
    """Outermost dispatchable loops that read no scalar but the procedure's
    parameters, so they can be emitted, built and inspected on their own."""
    out: list[Loop] = []
    inner: set[int] = set()
    for s in walk_stmts(proc.body):
        if (isinstance(s, Loop) and dispatchable(s) and id(s) not in inner
                and free_vars(s) - _assigned(s) <= set(proc.scalars)):
            out.append(s)
            inner.update(id(t) for t in walk_stmts(s.body))
    return out


def c_build_ms(proc, store) -> dict[str, float]:
    """Chunk-kernel codegen costs for the first dispatched loop.

    ``codegen.chunk_emit_ms`` emits its C source once;
    ``codegen.c_build_ms`` is the mean gcc build over every C variant the
    farm would build for it (into the empty store ``store``, as a
    ``/compile`` does); ``codegen.kernel_lookup_ms`` resolves the last
    build again, which is a store hit.
    """
    loops = dispatch_loops(proc)
    if not loops:
        raise ValueError(f"{proc.name} has no dispatchable loop")
    name = f"{proc.name}__chunk"
    types = {s: "long" for s in proc.scalars}
    emit, _ = timed(generate_chunk_c, proc, loop=loops[0], name=name,
                    scalar_types=types)
    builds = []
    for v in available_variants("c"):
        source = generate_chunk_c(proc, loop=loops[0], name=name,
                                  scalar_types=types, omp=v.omp)
        ms, (_, hit) = timed(compile_chunk_library, source, name, cc=v.cc,
                             optimize=v.optimize, omp=v.omp, cache=store)
        if hit:
            raise ValueError(f"{name} ({v.name}): expected a build")
        builds.append(ms)
    if not builds:
        raise ValueError("no C compiler variant is available")
    lookup, (_, hit) = timed(compile_chunk_library, source, name, cc=v.cc,
                             optimize=v.optimize, omp=v.omp, cache=store)
    if not hit:
        raise ValueError(f"{name}: expected a store hit")
    return {"codegen.chunk_emit_ms": emit,
            "codegen.c_build_ms": sum(builds) / len(builds),
            "codegen.kernel_lookup_ms": lookup}


def pool_ms(arrays: dict, workers: int) -> dict[str, float]:
    """Start a pool on ``arrays``, load and copy back once, close it."""
    start, pool = timed(WorkerPool, arrays, workers=workers)
    try:
        load, _ = timed(pool.load, arrays)
        back, _ = timed(pool.copy_back, {n: a.copy() for n, a in arrays.items()})
    finally:
        close, _ = timed(pool.close)
    return {"pool.start_ms": start, "pool.close_ms": close,
            "shm.load_ms": load, "shm.copy_back_ms": back}


def inspector_ms(proc, arrays: dict, scalars: dict) -> float:
    """``inspect_dispatch`` over every top-level dispatched loop."""
    t0 = time.perf_counter()
    for lp in dispatch_loops(proc):
        inspect_dispatch(lp, scalars, arrays)
    return (time.perf_counter() - t0) * 1e3


def serial_c_ms(proc, arrays: dict, scalars: dict, reps: int = 3) -> float:
    """Single-thread compiled C (no OpenMP): the strongest serial baseline.

    Raises :class:`CCompileError` where the C backend cannot build the
    program (a known defect for gauss_jordan, reported, not worked around).
    """
    lib = compile_c_procedure(proc, omp=False, cache=None)
    times = []
    for _ in range(reps):
        copies = {n: a.copy() for n, a in arrays.items()}
        ms, _ = timed(lib.run, copies, scalars)
        times.append(ms)
    return sorted(times)[len(times) // 2]

