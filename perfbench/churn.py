"""compile_churn: ``/compile`` a never-seen program, then run it once.

Every operation misses every cache the warm workloads hit: lowering,
verification, the gcc variant-farm builds, artifact-cache writes, the
router's sticky map and, because the eight array shapes outnumber the
replica's four warm pools, usually a pool start and an eviction.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import repro.parallel.runtime as runtime_mod
from repro.api import lower_and_coalesce
from repro.parallel.pool import WorkerPool

import probes
import served
from cluster import Cluster, SetupError
from common import OP_ERRORS, WORKERS, Context, CpuMeter, closed_loop
from programs import ChurnProgram, churn_program
from stats import Tally

RUN_OPTIONS = {"backend": "mp", "workers": WORKERS}


@dataclass
class ChurnOp:
    program: ChurnProgram
    arrays: dict
    scalars: dict
    expected: dict
    key: str = ""
    compile_ms: float = 0.0
    proc: object = None  # the lowered program, once a trace lowered it

    #: Every operation compiles a program of its own; they form one type.
    kind = "compile+run"

    @property
    def label(self) -> str:
        return f"churn{self.program.index}"


check = served.check_run


class ChurnWorkload:
    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.cluster: Cluster | None = None
        self._index = itertools.count()

    def setup(self) -> None:
        """Start the cluster and push one program through it."""
        # Owned before it starts, so an interrupted start is still stopped.
        self.cluster = Cluster(self.ctx.fresh_dir("cache"), self.ctx.env)
        self.cluster.start()
        op = next(self.order())
        reason = check(op, self.call(op))
        if reason is not None:
            raise SetupError(f"warm-up failed: {reason}")

    def retire(self) -> list[Cluster]:
        """Hand over the current cluster, still running, for a later stop."""
        retired, self.cluster = [self.cluster], None
        return [c for c in retired if c is not None]

    def order(self):
        """Fresh programs, each with inputs made before its timing starts."""
        while True:
            prog = churn_program(self.ctx.seed, next(self._index))
            arrays, scalars = prog.inputs(self.ctx.seed * 7919 + prog.index)
            yield ChurnOp(prog, arrays, scalars,
                          prog.expected(arrays, scalars))

    def call(self, op: ChurnOp) -> dict:
        client = self.cluster.client
        t0 = time.perf_counter()
        op.key = client.compile(op.program.source, frontend="dsl",
                                backend="mp")["key"]
        op.compile_ms = (time.perf_counter() - t0) * 1e3
        return self.run(op, client)

    def run(self, op: ChurnOp, client) -> dict:
        return client.run(op.key, op.arrays, op.scalars, transport="wire",
                          **RUN_OPTIONS)

    def measure(self, deadline: float, tally: Tally):
        return closed_loop(deadline, self.order(), self.call, check, tally,
                           CpuMeter(self.cluster.proc.pid))

    def peak_rss_mb(self) -> float:
        return self.cluster.replica_peak_rss_mb()

    # -- traced -------------------------------------------------------------
    def trace(self, deadline: float, tally: Tally) -> dict:
        cl = self.cluster
        replay = served.replay_store(self.ctx, cl)
        rows: dict[str, list[float]] = {}
        e2e: list[float] = []
        counts = {"pool.starts": 0.0, "codegen.c_builds": 0.0,
                  "tuning.calibrations": 0.0, "tuning.pinned_hits": 0.0}
        before_cache = cl.replica_metrics()["cache"]
        bytes0 = cl.store_bytes()
        children = cl.replica_children()
        tracer = probes.Tracer()
        last = None
        for op in self.order():
            if time.monotonic() >= deadline:
                break
            builds0 = cl.c_builds()
            try:
                ms, out = probes.timed(self.call, op)
                reason = check(op, out)
                if reason is not None:
                    tally.fail(reason)
                    continue
                builds = cl.c_builds() - builds0
                served.sync_store(cl.run_store, replay)
                now = cl.replica_children()
                starts = len(now - children) / WORKERS
                children = now
                row = self._replay(op, tracer)
            except OP_ERRORS as exc:
                tally.fail(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            tally.ok()
            last = op
            e2e.append(ms)
            counts["pool.starts"] += starts
            counts["codegen.c_builds"] += builds
            counts["tuning.calibrations"] += out.get("calibrations", 0)
            counts["tuning.pinned_hits"] += out.get("pinned_decisions", 0)
            row["e2e_ms"] = ms
            row["compile_ms"] = op.compile_ms
            row["first_run_ms"] = ms - op.compile_ms
            # Per operation: one lowering, ``builds`` emit+gcc builds, a
            # pool start (and the eviction's close) when one happened, the
            # run's engine on a fresh pool, shm load and codec, and two
            # requests' HTTP and router hop.
            row["attributed_ms"] = (
                row["pipeline.lower_ms"]
                + builds * (row["codegen.chunk_emit_ms"]
                            + row["codegen.c_build_ms"])
                + starts * (row["pool.start_ms"] + row["pool.close_ms"])
                + row["engine.cold_ms"] + row["shm.load_ms"]
                + row["wire.encode_ms"] + row["wire.decode_ms"]
                + 2 * (row["http.replica_ms"] + row["router.hop_ms"])
            )
            for name, value in row.items():
                rows.setdefault(name, []).append(value)
        after_cache = cl.replica_metrics()["cache"]
        counts["cache.hits"] = float(after_cache["hits"] - before_cache["hits"])
        counts["cache.misses"] = float(
            after_cache["misses"] - before_cache["misses"])
        counts["cache.bytes_written"] = float(cl.store_bytes() - bytes0)
        per_program = {}
        if last is not None:
            per_program["churn"] = served.off_path_row(
                self.ctx, last.program.source, {}, last.proc,
                last.arrays, last.scalars)
        return {"per_type": {"churn": rows}, "e2e": e2e, "counts": counts,
                "per_program": per_program}

    def _replay(self, op: ChurnOp, tracer) -> dict:
        """Layer costs of this operation's program, by direct calls."""
        row: dict[str, float] = {}
        row["pipeline.lower_ms"], lowered = probes.timed(
            lower_and_coalesce, op.program.source, frontend="dsl", cache=None)
        proc = op.proc = lowered[1]
        row.update(probes.c_build_ms(proc, self.ctx.fresh_dir("probe-cache")))
        row["pool.start_ms"], pool = probes.timed(
            WorkerPool, op.arrays, workers=WORKERS)
        try:
            # The replica's first run meets a fresh pool: time that run
            # for the attribution, then measure the layers warm.
            pool.load(op.arrays)
            row["engine.cold_ms"], _ = probes.timed(
                runtime_mod.run_parallel_procedure, proc, pool.views,
                op.scalars, pool=pool, preloaded=True, workers=WORKERS,
                log_events=False)
            eng = served.engine_replay(
                proc, pool, op.arrays, op.scalars, {},
                lambda views: op.program.check(views, op.expected),
                tracer, copy_back=False)
        finally:
            row["pool.close_ms"], _ = probes.timed(pool.close)
        row.update(eng)
        row.update(probes.wire_codec(
            {"key": op.key, "scalars": op.scalars, **RUN_OPTIONS}, op.arrays))
        cl = self.cluster
        direct_ms, out = probes.timed(self.run, op, cl.replica_client)
        via_ms, out2 = probes.timed(self.run, op, cl.client)
        for o in (out, out2):
            reason = check(op, o)
            if reason is not None:
                raise ValueError(f"replay: {reason}")
        row["router.hop_ms"] = via_ms - direct_ms
        row["http.replica_ms"] = served.http_replica_ms(direct_ms, out, row)
        row["router.queue_wait_ms"] = served.queue_wait(
            cl.client, op.key, op.arrays, op.scalars, "wire", RUN_OPTIONS,
            lambda doc: check(op, doc))
        return row

