"""Warm ``/run`` workloads through ``python -m repro cluster --replicas 1``.

Untraced, a run measures what the caller sees: one client thread, one
connection, each ``/run`` blocking until its answer is back and checked.

Traced, each operation is followed by replays of the same request that
split its latency into layers:

- the same request straight to the replica port (router hop = through the
  router minus direct);
- the transport's codec on the same arrays;
- the engine (``run_parallel_procedure`` on a warm pool the benchmark
  owns, with the tracer's spans around verify, emit, dispatch, inspector)
  and ``WorkerPool.load`` / ``copy_back``;
- the replica's HTTP handling, as the direct latency minus codec and shm
  staging time and minus the handler's own ``wall_s``;
- the same request through ``/submit``, for the router's queue wait.
"""

from __future__ import annotations

import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import repro.parallel.runtime as runtime_mod
from repro.analysis.safety import verify_procedure
from repro.api import lower_and_coalesce
from repro.cache import configure
from repro.parallel.pool import WorkerPool

import probes
from cluster import Cluster, SetupError
from common import OP_ERRORS, WORKERS, Context, CpuMeter, closed_loop
from programs import Program, block_order
from stats import Tally

#: How long a queued ``/submit`` job may take before it counts as failed.
JOB_DEADLINE_S = 30.0

#: Client- and codec-side layers of a served run (whichever of the codecs
#: and shm staging the transport uses).
TRANSPORT_LAYERS = (
    "wire.encode_ms", "wire.decode_ms", "json.encode_ms", "json.decode_ms",
    "shm.stage_ms",
)
#: Layers inside the replica's run handler, replayed in-process.
HANDLER_LAYERS = ("shm.load_ms", "shm.copy_back_ms", "engine.run_ms")


def http_replica_ms(direct_ms: float, direct: dict, row: dict) -> float:
    """The replica's HTTP handling: the direct latency minus the codec and
    staging work and minus the handler's own ``wall_s`` (lease, load,
    engine, copy-back)."""
    return (direct_ms - direct["wall_s"] * 1e3
            - sum(row.get(k, 0.0) for k in TRANSPORT_LAYERS))


def attributed_ms(row: dict) -> float:
    """Sum of one served run's layers, each timed on its own.  It differs
    from the latency by how far the in-process handler replay is from the
    replica's ``wall_s``."""
    return sum(row.get(k, 0.0)
               for k in (*TRANSPORT_LAYERS, *HANDLER_LAYERS)) + (
        row["http.replica_ms"] + row["router.hop_ms"])


@dataclass
class Op:
    program: Program
    transport: str
    key: str
    arrays: dict
    scalars: dict
    expected: dict

    @property
    def label(self) -> str:
        return f"{self.program.label}/{self.transport}"

    @property
    def options(self) -> dict:
        return {"backend": "mp", "workers": WORKERS,
                **self.program.run_options}


def check_run(op: Op, out: dict) -> str | None:
    if out.get("engine") != "mp-pool":
        return (f"{op.label}: engine {out.get('engine')!r} "
                f"({out.get('fallback_reason')})")
    if not out.get("dispatches"):
        return f"{op.label}: no dispatch"
    reason = op.program.check(out.get("arrays") or {}, op.expected)
    return None if reason is None else f"{op.label}: {reason}"


class ServedWorkload:
    """Programs × transports, warm, through a one-replica cluster."""

    def __init__(self, ctx: Context, programs: list[Program],
                 transports: tuple[str, ...]) -> None:
        self.ctx = ctx
        self.programs = programs
        self.transports = transports
        self.cluster: Cluster | None = None
        self.ops: list[Op] = []
        self.procs: dict[str, object] = {}

    # -- lifecycle ----------------------------------------------------------
    def setup(self) -> None:
        """Start the cluster, compile every program, warm every operation.

        The warm-up runs start the replica's pools (one per program, within
        its default four) and assert that each program really dispatches.
        """
        # Owned before it starts, so an interrupted start is still stopped.
        self.cluster = Cluster(self.ctx.fresh_dir("cache"), self.ctx.env)
        self.cluster.start()
        client = self.cluster.client
        self.ops = []
        for i, prog in enumerate(self.programs):
            desc = client.compile(prog.source, frontend="dsl", backend="mp",
                                  **prog.compile_options)
            arrays, scalars = prog.inputs(self.ctx.seed * 100 + i)
            expected = prog.expected(arrays, scalars)
            for t in self.transports:
                self.ops.append(
                    Op(prog, t, desc["key"], arrays, scalars, expected)
                )
        for op in self.ops:
            out = self.call(op)
            reason = check_run(op, out)
            if reason is not None:
                raise SetupError(f"warm-up failed: {reason}")
            spec = op.program.run_options.get("safety") == "speculate"
            if spec and not out.get("speculate", {}).get("inspected"):
                raise SetupError(f"{op.label}: the inspector did not run")

    def retire(self) -> list[Cluster]:
        """Hand over the current cluster, still running, for a later stop."""
        retired, self.cluster = [self.cluster], None
        return [c for c in retired if c is not None]

    def call(self, op: Op, client=None) -> dict:
        client = client or self.cluster.client
        return client.run(op.key, op.arrays, op.scalars,
                          transport=op.transport, **op.options)

    def order(self):
        return (self.ops[k] for k in
                block_order(len(self.ops), random.Random(self.ctx.seed)))

    # -- untraced -----------------------------------------------------------
    def measure(self, deadline: float, tally: Tally):
        return closed_loop(deadline, self.order(), self.call, check_run, tally,
                           CpuMeter(self.cluster.proc.pid))

    def peak_rss_mb(self) -> float:
        return self.cluster.replica_peak_rss_mb()

    # -- traced -------------------------------------------------------------
    def trace(self, deadline: float, tally: Tally,
              off_path: bool = True) -> dict:
        """Per-operation layer replays until ``deadline``; see module doc."""
        replay_store(self.ctx, self.cluster)
        for prog in self.programs:
            _, proc, _, _ = lower_and_coalesce(
                prog.source, frontend="dsl", cache=None,
                **prog.compile_options,
            )
            self.procs[prog.label] = proc
        pools = {}
        try:
            for op in self.ops:
                if op.program.label not in pools:
                    pools[op.program.label] = WorkerPool(op.arrays,
                                                         workers=WORKERS)
            out = self._trace_loop(deadline, tally, pools)
        finally:
            for pool in pools.values():
                pool.close()
        out["per_program"] = self._per_program() if off_path else {}
        return out

    def _trace_loop(self, deadline, tally, pools) -> dict:
        cl = self.cluster
        per_type: dict[str, dict[str, list[float]]] = {}
        e2e: list[float] = []
        counts = {"pool.starts": 0.0, "tuning.calibrations": 0.0,
                  "tuning.pinned_hits": 0.0}
        before_cache = cl.replica_metrics()["cache"]
        builds0, bytes0 = cl.c_builds(), cl.store_bytes()
        children = cl.replica_children()
        tracer = probes.Tracer()
        for op in self.order():
            if time.monotonic() >= deadline:
                break
            try:
                ms, out = probes.timed(self.call, op)
                reason = check_run(op, out)
                if reason is not None:
                    tally.fail(reason)
                    continue
                row = self._replay(op, out, pools[op.program.label], tracer)
            except OP_ERRORS as exc:
                tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            tally.ok()
            e2e.append(ms)
            row["e2e_ms"] = ms
            row["router.hop_ms"] = ms - row["direct_ms"]
            row["attributed_ms"] = attributed_ms(row)
            counts["tuning.calibrations"] += out.get("calibrations", 0)
            counts["tuning.pinned_hits"] += out.get("pinned_decisions", 0)
            now = cl.replica_children()
            counts["pool.starts"] += len(now - children) / WORKERS
            children = now
            for name, value in row.items():
                per_type.setdefault(op.label, {}).setdefault(name, []).append(
                    value)
        after_cache = cl.replica_metrics()["cache"]
        counts["codegen.c_builds"] = float(cl.c_builds() - builds0)
        counts["cache.hits"] = float(after_cache["hits"] - before_cache["hits"])
        counts["cache.misses"] = float(
            after_cache["misses"] - before_cache["misses"])
        counts["cache.bytes_written"] = float(cl.store_bytes() - bytes0)
        return {"per_type": per_type, "e2e": e2e, "counts": counts}

    def _replay(self, op: Op, out: dict, pool, tracer) -> dict:
        """Layer timings for one operation, by replaying its parts."""
        row: dict[str, float] = {}
        ms, direct = probes.timed(self.call, op, self.cluster.replica_client)
        reason = check_run(op, direct)
        if reason is not None:
            raise ValueError(f"direct replay: {reason}")
        row["direct_ms"] = ms
        if op.transport == "wire":
            body = {"key": op.key, "scalars": op.scalars, **op.options}
            row.update(probes.wire_codec(body, op.arrays))
        elif op.transport == "json":
            row.update(probes.json_codec(op.arrays))
        else:
            row["shm.stage_ms"] = probes.shm_stage(op.arrays)
        row.update(engine_replay(
            self.procs[op.program.label], pool, op.arrays, op.scalars,
            op.program.run_options,
            lambda views: op.program.check(views, op.expected),
            tracer, copy_back=op.transport != "wire"))
        row["http.replica_ms"] = http_replica_ms(ms, direct, row)
        row["router.queue_wait_ms"] = queue_wait(
            self.cluster.client, op.key, op.arrays, op.scalars,
            "json" if op.transport == "json" else "wire", op.options,
            lambda doc: check_run(op, doc))
        return row

    def _per_program(self) -> dict[str, dict[str, float]]:
        """One call of each off-path layer on each program's inputs."""
        out = {}
        for prog in self.programs:
            op = next(o for o in self.ops if o.program is prog)
            proc = self.procs[prog.label]
            row = off_path_row(self.ctx, prog.source, prog.compile_options,
                               proc, op.arrays, op.scalars)
            out[prog.label] = row
        return out


def replay_store(ctx: Context, cluster: Cluster) -> Path:
    """Point in-process runs at a copy of the replica's store: they hit the
    kernels and pinned decisions the replica built, and what they write
    does not count as the replica's cache traffic."""
    copy = ctx.fresh_dir("replay-cache")
    sync_store(cluster.run_store, copy)
    configure(dir=copy)
    return copy


def sync_store(src: Path, dst: Path) -> None:
    """Copy the entries of store ``src`` that ``dst`` does not have yet."""
    (dst / "objects").mkdir(parents=True, exist_ok=True)
    for entry in (src / "objects").glob("*"):
        if not (dst / "objects" / entry.name).exists():
            shutil.copytree(entry, dst / "objects" / entry.name)


def engine_replay(proc, pool, arrays, scalars, run_options, check, tracer,
                  copy_back: bool) -> dict:
    """One served run's engine work, in-process on a warm ``pool``.

    The first run is traced (verify, emit, kernel lookup, inspector,
    dispatch, ``WorkerPool.load``/``copy_back``) with claim logging off, as
    served; a second run with claim logging on gives kernel and counter
    times.  ``check(views)`` validates the second run's arrays.
    """
    with tracer.installed():
        pool.load(arrays)
        runtime_mod.run_parallel_procedure(
            proc, pool.views, scalars, pool=pool, preloaded=True,
            workers=WORKERS, log_events=False, **run_options,
        )
        if copy_back:
            pool.copy_back({n: a.copy() for n, a in arrays.items()})
    row = probes.span_row(tracer.take())
    pool.load(arrays)
    result = runtime_mod.run_parallel_procedure(
        proc, pool.views, scalars, pool=pool, preloaded=True,
        workers=WORKERS, log_events=True, **run_options,
    )
    reason = check(pool.views)
    if reason is not None:
        raise ValueError(f"engine replay: {reason}")
    row.update(probes.kernel_stats(result))
    row["engine.dispatch_overhead_ms"] = probes.dispatch_overhead(row)
    return row


def queue_wait(client, key, arrays, scalars, transport, options,
               check) -> float:
    """The router's queue wait for the same run sent through ``/submit``."""
    job = client.submit_run(key, arrays, scalars, transport=transport,
                            **options)
    doc = client.wait(job["job_id"], timeout=JOB_DEADLINE_S, interval=0.005)
    if doc.get("state") != "done":
        raise ValueError(f"job {doc.get('state')}: {doc.get('error')}")
    reason = check(doc["result"])
    if reason is not None:
        raise ValueError(f"submitted job: {reason}")
    return (doc["started_at"] - doc["submitted_at"]) * 1e3


def off_path_row(ctx, source: str, compile_options: dict, proc,
                 arrays: dict, scalars: dict) -> dict:
    """Every layer's cost, by one direct call each on a program's inputs.

    A layer's figure comes from here only on workloads whose timed path
    does not call it (see :func:`report.layer_metrics`).
    """
    row: dict[str, float] = {}
    row["pipeline.lower_ms"], _ = probes.timed(
        lower_and_coalesce, source, frontend="dsl", cache=None,
        **compile_options)
    row["safety.verify_ms"], _ = probes.timed(verify_procedure, proc)
    row.update(probes.c_build_ms(proc, ctx.fresh_dir("probe-cache")))
    row.update(probes.pool_ms(arrays, WORKERS))
    row["inspector.ms"] = probes.inspector_ms(proc, arrays, scalars)
    row["shm.stage_ms"] = probes.shm_stage(arrays)
    row.update(probes.json_codec(arrays))
    row.update(probes.wire_codec({"scalars": scalars}, arrays))
    try:
        row["baseline.serial_c_ms"] = probes.serial_c_ms(proc, arrays, scalars)
        row["baseline.c_failures"] = 0.0
    except probes.CCompileError:
        row["baseline.c_failures"] = 1.0
    return row
