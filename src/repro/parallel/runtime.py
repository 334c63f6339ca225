"""Process-parallel drivers for coalesced DOALL procedures.

:func:`run_parallel_doall` executes a procedure whose body is one flat DOALL
(the shape coalescing produces) across worker processes: arrays move into
shared memory once, workers claim chunks through the shared fetch&add
counter, and the parent copies results back on success.

:func:`run_parallel_procedure` generalizes to whole programs (the paper's
*hybrid* case, e.g. Gauss–Jordan): every dispatchable DOALL — top-level or
nested under serial control flow — is handed to workers, everything else
runs serially in the parent over the same shared-memory views.  A hybrid
program therefore really performs one dispatch per serial-outer iteration
(one per pivot row), which is exactly the overhead profile the paper's
coalescing argument is about.

Both are "build a :class:`DispatchPlan`, then execute it": the plan holds
everything static about a procedure under one set of run options (the
verifier report, speculation and reduction routes, chunk sources, kernels,
tuning decisions), so a caller that keeps it — the server, or
:class:`repro.parallel.backend.MPCompiledProcedure` — pays for that work
once and each later run only evaluates bounds, dispatches and gathers.

Two dispatch engines execute a plan:

* ``reuse_pool=True`` (the default for whole procedures) — a persistent
  :class:`repro.parallel.pool.WorkerPool`: workers spawn once, each
  dispatch is a job message plus a gather barrier, chunk sources are
  cached by loop shape on both sides, and the shared claim counter is
  reset between loops instead of recreated.
* ``reuse_pool=False`` — the spawn-per-dispatch baseline: a fresh fleet
  of processes per DOALL (PR-1 behavior, kept as the comparison point —
  ``benchmarks/bench_p02_dispatch_overhead.py`` measures the gap).

``claim_batch=k`` lets unit/fixed self-scheduling take ``k`` chunks per
counter critical section (GSS keeps its one-chunk atomic
read-of-remaining semantics — see
:meth:`repro.parallel.counter.SharedClaimCounter.claim_batch`).  The
default ``claim_batch="auto"`` sizes the batch from the measured
per-chunk service time via the variant farm's micro-calibration
(:mod:`repro.tuning.calibrate`), pinning the decision in the artifact
cache so warm runs dispatch with zero re-measurement.

Robustness contract:

* the procedure is validated and checked for a dispatchable (DOALL,
  unit-step) loop *before* any process or segment is created —
  :class:`ParallelDispatchError` otherwise;
* a worker that raises (or dies) triggers termination of its peers and a
  :class:`WorkerCrashError` carrying the worker traceback;
* a per-run ``timeout`` kills the fleet and raises
  :class:`ParallelTimeoutError` (the ``backend="mp"`` adapter turns this
  into a graceful serial fallback);
* shared-memory segments are unlinked on **every** exit path — success,
  crash, or timeout — on pool close / context-manager exit, so
  ``/dev/shm`` never accumulates garbage.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from repro.analysis.pdg import Reduction, recognize_reduction
from repro.cache import artifact_key, resolve_cache
from repro.codegen.cgen import generate_chunk_c, scalar_c_types
from repro.codegen.cload import compile_chunk_library, have_compiler
from repro.codegen.npgen import generate_chunk_numpy
from repro.codegen.pygen import generate_chunk_source, generate_source
from repro.ir.expr import (
    INTRINSICS,
    ArrayRef,
    BinOp,
    Const,
    Var,
    apply_binop,
    min_,
)
from repro.ir.printer import to_source
from repro.ir.stmt import Assign, Block, If, Loop, LoopKind, Procedure, Stmt
from repro.ir.validate import validate
from repro.ir.visitor import walk_exprs, walk_stmts
from repro.parallel.counter import SharedClaimCounter, policy_plan
from repro.parallel.errors import (
    ParallelDispatchError,
    ParallelError,
    ParallelTimeoutError,
    SafetyVerificationError,
    WorkerCrashError,
)
from repro.parallel.observe import (
    record_chunk_emit,
    record_chunk_fallback,
    record_plan_build,
    record_plan_hit,
    record_reduction_dispatch,
    record_run,
    record_safety,
    record_safety_block,
    record_speculate,
)
from repro.parallel.pool import (
    WorkerPool,
    gather_results,
    mp_context,
    raise_worker_crashes,
    terminate_procs,
)
from repro.parallel.shm import SharedArrayPool
from repro.parallel.speculate import (
    SpecCertificate,
    SpecPlan,
    shadow_alias,
    speculation_plan,
    validate_chunk_logs,
)
from repro.parallel.worker import worker_main
from repro.runtime.inspector import inspect_dispatch
from repro.runtime.interp import Interpreter, InterpreterError, eval_bound
from repro.scheduling.policies import SchedulingPolicy
from repro.tuning.calibrate import TuningTally, make_tuner
from repro.tuning.variants import default_variant, variant_by_name

__all__ = [
    "ClaimEvent",
    "DispatchPlan",
    "ParallelDispatchError",
    "ParallelError",
    "ParallelProcedureResult",
    "ParallelRunResult",
    "ParallelTimeoutError",
    "PlanCache",
    "SafetyVerificationError",
    "WorkerCrashError",
    "resolve_chunk_lang",
    "resolve_safety",
    "run_parallel_doall",
    "run_parallel_procedure",
]


def resolve_chunk_lang(requested: str | None) -> str:
    """Resolve a requested chunk language to what this host can run.

    ``None``/``"auto"`` pick ``"c"`` when a compiler is on PATH, else
    ``"numpy"`` — a compiler-less host runs whole-slice vectorized chunks
    rather than the interpreted ones (shapes the numpy generator refuses
    still degrade per-dispatch to ``"py"``).  An explicit ``"c"`` without
    a compiler degrades to ``"numpy"`` and records a chunk fallback (the
    run still succeeds — native chunks are an optimization, never a
    requirement).  Anything else raises :class:`ValueError`.
    """
    if requested in (None, "auto"):
        return "c" if have_compiler() else "numpy"
    if requested not in ("py", "c", "numpy"):
        raise ValueError(
            "chunk_lang must be 'py', 'c', 'numpy', or 'auto' "
            f"(got {requested!r})"
        )
    if requested == "c" and not have_compiler():
        record_chunk_fallback()
        return "numpy"
    return requested


def resolve_safety(requested: str | None) -> str:
    """Resolve a requested chunk-safety mode.

    ``None`` defaults to ``"warn"``: every run is verified and the report
    is attached to the result, but nothing is refused.  ``"enforce"``
    additionally refuses to dispatch any loop the verifier cannot prove
    race-free (it runs serially instead, or — when *nothing* is provable —
    the whole run raises :class:`SafetyVerificationError` before any
    worker is created).  ``"speculate"`` gives those unproven loops a
    dynamic chance instead: a runtime inspector proves disjointness where
    it can, speculation with commit/rollback covers the rest, and only
    loops neither can handle (scalar hazards) drop to serial.  ``"off"``
    skips verification entirely.
    """
    if requested is None:
        return "warn"
    if requested not in ("off", "warn", "enforce", "speculate"):
        raise ValueError(
            "safety must be 'off', 'warn', 'enforce', or 'speculate' "
            f"(got {requested!r})"
        )
    return requested


def _safety_gate(proc: Procedure, mode: str):
    """Verify ``proc``; return ``(report, blocked-loop-id set)``.

    Under ``"enforce"`` and ``"speculate"`` a verifier crash fails closed
    (the run is refused rather than optimistically dispatched); under
    ``"warn"`` it degrades to an unchecked run.  The blocked set is the
    statically-unproven loops — what enforce runs serially and speculate
    hands to the inspector/speculation machinery.
    """
    if mode == "off":
        return None, frozenset()
    from repro.analysis.safety import verify_procedure

    try:
        report = verify_procedure(proc)
    except Exception as exc:
        if mode in ("enforce", "speculate"):
            raise SafetyVerificationError(
                f"safety={mode}: chunk-safety verification of "
                f"{proc.name!r} failed: {exc}"
            ) from exc
        return None, frozenset()
    record_safety(report)
    if mode not in ("enforce", "speculate"):
        return report, frozenset()
    blocked = frozenset(
        loop_id for loop_id, v in report.by_id.items() if not v.proven
    )
    return report, blocked


def _unproven_summary(report) -> str:
    """One-line refusal reason: each unproven loop with its rule codes."""
    parts = []
    for v in report.loops:
        if not v.proven:
            rules = sorted({f.rule for f in v.findings}) or ["unproven"]
            parts.append(f"loop {v.loop_var} ({', '.join(rules)})")
    return "; ".join(parts)


@dataclass(frozen=True)
class ClaimEvent:
    """One executed chunk: who claimed it, what range, when (run-relative)."""

    worker: int
    lo: int
    hi: int  # inclusive loop values
    t_claim: float  # claim issued (seconds from run start)
    t_work: float  # claim granted, body work begins
    t_end: float  # chunk finished

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass
class ParallelRunResult:
    """Measured outcome of one parallel DOALL dispatch."""

    loop_var: str
    lo: int
    hi: int
    workers: int
    policy: str
    wall_time: float
    iterations_per_worker: list[int]
    claims: int
    events: list[ClaimEvent] = field(default_factory=list)
    #: Counter critical sections entered; < ``claims`` when claims were
    #: batched, 0 for static plans (no shared counter at all).
    lock_ops: int = 0
    #: Chunk language the workers actually executed: ``"c"`` (every worker
    #: ran the native kernel), ``"numpy"`` (whole-slice vectorized),
    #: ``"py"``, or ``"mixed"`` (some workers degraded mid-fleet).
    chunk_lang: str = "py"
    #: Variant-farm build the dispatch executed (``"gcc-O3"``,
    #: ``"numpy"``, ``"py"``, ...) or None when workers disagreed.
    variant: str | None = None
    #: Chunks claimed per counter critical section, as actually resolved
    #: (the calibrated/heuristic value behind ``claim_batch="auto"``).
    claim_batch: int = 1
    #: How ``safety=speculate`` handled this dispatch: ``"proven-dynamic"``
    #: (inspector certified, normal execution), ``"committed"`` /
    #: ``"rolled-back"`` (speculative execution), or None (not speculated).
    speculation: str | None = None
    #: The workers' recorded chunk access logs (speculative dispatches
    #: only): ``(lo, hi, writes, reads)`` per executed chunk.
    spec_logs: list = field(default_factory=list, repr=False)
    #: Set when this dispatch ran through the partial-accumulator
    #: reduction engine: the accumulator's name and its folded final
    #: value (also written back into the caller's scalar environment).
    reduction_scalar: str | None = None
    reduction_value: float | None = None

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations_per_worker)

    def to_sim_result(self):
        """Measured schedule as a :class:`repro.machine.trace.SimResult`."""
        from repro.parallel.observe import to_sim_result

        return to_sim_result(self)

    def gantt(self, width: int = 50, time_scale: float = 1e6) -> str:
        """Text Gantt chart of the *measured* schedule (default: µs)."""
        from repro.machine.gantt import render_gantt
        from repro.parallel.observe import to_sim_result

        return render_gantt(to_sim_result(self, time_scale), width=width)


@dataclass
class ParallelProcedureResult:
    """Outcome of a whole-procedure run: one entry per dispatched DOALL."""

    wall_time: float
    dispatches: list[ParallelRunResult] = field(default_factory=list)
    serial_stmts: int = 0
    #: Whether the run used one persistent worker pool for every dispatch
    #: (True) or spawned a fresh fleet per dispatch (False).
    reused_pool: bool = False
    #: Chunk-safety mode the run executed under ("off", "warn", "enforce").
    safety_mode: str = "off"
    #: The verifier's :class:`~repro.analysis.safety.SafetyReport`
    #: (None when ``safety_mode == "off"`` or verification crashed under
    #: "warn").
    safety: object | None = field(default=None, repr=False)
    #: Dispatches refused under enforce and executed serially instead.
    blocked_dispatches: int = 0
    #: ``safety=speculate`` accounting: dispatches the inspector addressed,
    #: the subset it proved (dispatched normally with a certificate),
    #: dispatches run speculatively, and how those resolved.
    inspected: int = 0
    proven_dynamic: int = 0
    speculated: int = 0
    committed: int = 0
    rolled_back: int = 0
    #: Dispatches executed through the partial-accumulator reduction
    #: engine (recognized ``s := s ⊕ expr`` loops).
    reductions: int = 0
    #: Variant-farm accounting: micro-calibrations this run performed
    #: (full + quick) and decisions served from a pinned manifest entry
    #: with zero re-measurement.
    calibrations: int = 0
    pinned_decisions: int = 0

    @property
    def variants(self) -> list[str]:
        """Distinct variant-farm builds the run's dispatches executed."""
        return sorted({d.variant for d in self.dispatches if d.variant})

    @property
    def certificates(self) -> list:
        """Runtime certificates recorded on the safety report (may be [])."""
        report = self.safety
        return list(getattr(report, "dynamic", ()) or ())

    @property
    def claims(self) -> int:
        return sum(d.claims for d in self.dispatches)

    @property
    def lock_ops(self) -> int:
        return sum(d.lock_ops for d in self.dispatches)

    @property
    def total_iterations(self) -> int:
        return sum(d.total_iterations for d in self.dispatches)

    @property
    def chunk_lang(self) -> str:
        """Aggregate chunk language across dispatches
        (``c``/``numpy``/``py``/``mixed``)."""
        langs = {d.chunk_lang for d in self.dispatches}
        if not langs:
            return "py"
        if len(langs) == 1:
            return langs.pop()
        return "mixed"


def _dispatchable(loop: Loop) -> bool:
    """A loop we can hand to workers: DOALL with unit step."""
    return loop.is_doall and isinstance(loop.step, Const) and loop.step.value == 1


def _contains_dispatchable(stmt: Stmt) -> bool:
    """Does this statement tree contain any dispatchable DOALL?"""
    if isinstance(stmt, Loop):
        return _dispatchable(stmt) or _contains_dispatchable(stmt.body)
    if isinstance(stmt, Block):
        return any(_contains_dispatchable(s) for s in stmt.stmts)
    if isinstance(stmt, If):
        return _contains_dispatchable(stmt.then) or _contains_dispatchable(
            stmt.orelse
        )
    return False


def _dispatchable_loops(stmt: Stmt) -> list[Loop]:
    """Every loop :func:`_exec_hybrid` would dispatch, in program order.

    Mirrors the executor's traversal: a dispatchable loop is a leaf (its
    body is never searched — workers own it), everything else recurses.
    """
    if isinstance(stmt, Loop):
        if _dispatchable(stmt):
            return [stmt]
        return _dispatchable_loops(stmt.body)
    if isinstance(stmt, Block):
        return [lp for s in stmt.stmts for lp in _dispatchable_loops(s)]
    if isinstance(stmt, If):
        return _dispatchable_loops(stmt.then) + _dispatchable_loops(stmt.orelse)
    return []


# ---------------------------------------------------------------------------
# The dispatch plan: the static half of a run, built once and run many times
# ---------------------------------------------------------------------------


class _Kernel(NamedTuple):
    """A compiled chunk kernel plus what rebuilding it takes."""

    so_path: str
    fname: str
    sig: tuple[str, ...]
    scalar_types: tuple[str, ...]
    source: str
    build: dict


def _widened(proc: Procedure, extra: tuple[str, ...]) -> Procedure:
    """``proc`` whose parameter list also carries the env-local scalars."""
    return Procedure(
        proc.name, proc.body, proc.arrays, tuple(proc.scalars) + extra
    )


def _extra_scalars(proc: Procedure, loop: Loop, env) -> tuple[str, ...]:
    """Env-local scalars a chunk also takes (outer serial loop variables)."""
    return tuple(
        sorted(k for k in env if k not in proc.scalars and k != loop.var)
    )


class DispatchPlan:
    """Everything static about running one procedure, computed once.

    The paper's amortization argument applied to the runtime itself: a
    program is validated, verified and code-generated once, and each run
    pays only for its loop bounds, the dispatch and the gather.  A plan is
    built for one procedure and its static run options — ``safety``,
    ``chunk_lang``, ``variants``, ``calibrate`` — and every run with those
    options executes it (:meth:`execute`).

    Built eagerly: the validated procedure, the verifier report and its
    blocked-loop set, the speculation plans, the tuner, and — when
    nothing can dispatch — the refusal every run raises.  Filled on first
    use and kept for the plan's lifetime: per-loop chunk sources (py,
    numpy), compiled C kernels keyed by ``(loop, extra scalars, scalar C
    types, variant)``, derived reduction procedures, compiled serial
    residues, and (inside the tuner) tuning decisions keyed by ``(loop,
    scalar types, rule, chunk, workers)``.  Keys use loop identity, which
    is stable because the plan keeps the procedure — and every derived
    procedure — alive.

    Per run stays: loop-bound evaluation, the dtype/contiguity/rank check
    on the views, counter reset, dispatch and gather, inspector runs and
    their certificates (each run gets its own copy of the report), and the
    tuner's activity counts.

    Fills are thread-safe — a hit reads a dict without locking, a miss
    fills under the plan's lock — so two pools can run one plan at once.
    A memoized kernel whose ``.so`` was evicted from the store is rebuilt
    from its kept C source on the next dispatch that needs it.
    """

    def __init__(
        self,
        proc: Procedure,
        safety: str | None = None,
        chunk_lang: str | None = None,
        variants=None,
        calibrate: bool | None = None,
        cache: object = "default",
    ) -> None:
        validate(proc)
        self.proc = proc
        self.mode = resolve_safety(safety)
        self.lang = resolve_chunk_lang(chunk_lang)
        self.store = resolve_cache(cache)
        self.tuner = make_tuner(self.lang, variants, calibrate, store=self.store)
        self.loops = _dispatchable_loops(proc.body)
        self.report = None
        self.blocked: frozenset[int] = frozenset()
        self.spec_plans: dict[int, SpecPlan] = {}
        #: ``(exception class, message, loops refused)`` every run raises
        #: when nothing can be dispatched, else None.
        self.refusal: tuple[type, str, int] | None = None
        self._lock = threading.Lock()
        self._sources: dict = {}
        self._kernels: dict = {}
        self._np_chunks: dict = {}
        self._reductions: dict = {}
        self._residues: dict = {}
        record_plan_build()
        if not self.loops:
            self.refusal = (
                ParallelDispatchError,
                f"procedure {proc.name!r} has no dispatchable unit-step "
                "DOALL (coalesce it first, or run the serial backend)",
                0,
            )
            return
        try:
            self.report, self.blocked = _safety_gate(proc, self.mode)
        except SafetyVerificationError as exc:
            self.refusal = (SafetyVerificationError, str(exc), 0)
            return
        if not self.blocked:
            return
        if self.mode == "speculate":
            self.spec_plans = _speculation_plans(
                self.loops, self.blocked, self.report
            )
            if all(
                id(lp) in self.blocked
                and self.spec_plans[id(lp)].action == "refuse"
                for lp in self.loops
            ):
                self.refusal = (
                    SafetyVerificationError,
                    f"safety=speculate refused every dispatch in "
                    f"{proc.name!r}: {_unproven_summary(self.report)}",
                    len(self.loops),
                )
        elif all(id(lp) in self.blocked for lp in self.loops):
            self.refusal = (
                SafetyVerificationError,
                f"safety=enforce refused every dispatch in {proc.name!r}: "
                f"{_unproven_summary(self.report)}",
                len(self.loops),
            )

    def _fill(self, memo: dict, key, produce):
        """``memo[key]``, produced once under the plan's lock on a miss."""
        hit = memo.get(key, _MISSING)
        if hit is not _MISSING:
            return hit
        with self._lock:
            hit = memo.get(key, _MISSING)
            if hit is _MISSING:
                hit = memo[key] = produce()
        return hit

    def chunk_source(
        self, proc: Procedure, loop: Loop, extra: tuple[str, ...]
    ) -> tuple[str, str, list[str]]:
        """``(source, fname, scalar_order)`` of the Python chunk.

        Generated sources are also memoized in the artifact store (kind
        ``"chunk"``), keyed by the printed loop — variable, bounds *and*
        body — plus the calling convention, so another plan of the same
        program (another process, another server) emits nothing either.
        """

        def produce():
            fname = f"{proc.name}__chunk"
            scalar_order = list(proc.scalars) + list(extra)

            def generate() -> str:
                record_chunk_emit()
                return generate_chunk_source(_widened(proc, extra), loop=loop)

            if self.store is None:
                return generate(), fname, scalar_order
            # Two loops that collide on this key generate identical chunk
            # sources, so a collision is harmless by construction.
            ckey = artifact_key(
                "chunk",
                loop=to_source(loop),
                name=fname,
                arrays=list(proc.arrays),
                scalars=scalar_order,
            )
            source = self.store.memo_text(ckey, "chunk.py", generate)
            return source, fname, scalar_order

        return self._fill(self._sources, (id(loop), extra), produce)

    def chunk_kernel(
        self,
        proc: Procedure,
        loop: Loop,
        extra: tuple[str, ...],
        env: Mapping[str, int | float],
        variant=None,
    ) -> tuple[str, str, tuple[str, ...], tuple[str, ...]] | None:
        """Compiled C kernel for this loop shape, or None (stay on Python).

        Returns ``(so_path, fname, sig, scalar_types)`` — everything the
        job descriptor needs for the native path.  Keyed by loop identity
        plus the *C types* of the live scalar values (a hybrid program can
        feed the same loop integer scalars on one dispatch and serially
        computed floats on the next — those are different kernels) plus
        the farm variant: ``variant`` (a
        :class:`repro.tuning.variants.Variant`) selects the compiler,
        flag set, and — for the OpenMP variants — the in-chunk
        ``parallel for`` body; None means the default build.  A codegen
        or compile failure is memoized as None, so a shape that cannot go
        native costs one attempt per plan, not one per dispatch.

        :func:`compile_chunk_library` is content-addressed in the
        artifact store, so across processes each build compiles once.  A
        memoized kernel whose ``.so`` has since been evicted is rebuilt
        from its C source (a store miss, then one compile).
        """
        variant = variant or default_variant("c")
        scalar_order = list(proc.scalars) + list(extra)
        types = scalar_c_types(scalar_order, env)
        key = (id(loop), extra, types, variant.name)

        def produce():
            if variant.lang != "c":
                return None  # no compiler: nothing native to build
            fname = f"{proc.name}__chunk"
            try:
                record_chunk_emit()
                source = generate_chunk_c(
                    _widened(proc, extra),
                    loop=loop,
                    name=fname,
                    scalar_types=dict(zip(scalar_order, types)),
                    omp=variant.omp,
                )
                build = dict(
                    cc=variant.cc, optimize=variant.optimize, omp=variant.omp
                )
                so_path, _ = compile_chunk_library(
                    source, fname, cache=self.store, **build
                )
            except Exception:
                return None
            sig: list[str] = []
            for rank in proc.arrays.values():
                sig.append("ptr")
                sig.extend(["long"] * rank)
            sig.extend(types)
            return _Kernel(so_path, fname, tuple(sig), types, source, build)

        kernel = self._fill(self._kernels, key, produce)
        if kernel is None:
            return None
        if not os.path.exists(kernel.so_path):
            with self._lock:
                try:
                    so_path, _ = compile_chunk_library(
                        kernel.source, kernel.fname, cache=self.store,
                        **kernel.build,
                    )
                except Exception:
                    self._kernels[key] = None
                    return None
                kernel = self._kernels[key] = kernel._replace(
                    so_path=so_path
                )
        return kernel[:4]

    def numpy_chunk(
        self, proc: Procedure, loop: Loop, extra: tuple[str, ...]
    ) -> tuple[str, str] | None:
        """Whole-slice numpy chunk ``(np_source, np_fname)``, or None.

        None marks a shape outside :mod:`repro.codegen.npgen`'s
        vectorization-safety rules (memoized like an accepted source,
        which is also kept in the store under kind ``"chunk_numpy"``).
        """

        def produce():
            fname = f"{proc.name}__chunk_np"

            def generate() -> str:
                record_chunk_emit()
                return generate_chunk_numpy(
                    _widened(proc, extra), loop=loop, name=fname
                )

            try:
                if self.store is None:
                    return generate(), fname
                ckey = artifact_key(
                    "chunk_numpy",
                    loop=to_source(loop),
                    name=fname,
                    arrays=list(proc.arrays),
                    scalars=list(proc.scalars) + list(extra),
                )
                return self.store.memo_text(ckey, "chunk_np.py", generate), fname
            except Exception:
                return None

        return self._fill(self._np_chunks, (id(loop), extra), produce)

    def reduction_plan(self, loop: Loop) -> "_ReductionPlan | None":
        """The derived partial-accumulator form of ``loop``, or None.

        Recognition runs once per loop per plan; a loop that is not the
        reduction idiom memoizes None and costs nothing on re-dispatch.
        """

        def produce():
            red = recognize_reduction(loop)
            if red is None or red.scalar in self.proc.arrays:
                return None
            try:
                return derive_reduction_dispatch(self.proc, loop, red)
            except Exception:
                return None

        return self._fill(self._reductions, id(loop), produce)

    def residue(self, stmt: Loop, env: Mapping[str, int | float]):
        """The compiled serial residue of ``stmt`` (see
        :func:`_compile_residue`), or False to interpret it."""
        return self._fill(
            self._residues, id(stmt), lambda: _compile_residue(stmt, env)
        )

    def drop_residue(self, stmt: Loop) -> None:
        """Interpret ``stmt`` from now on (its compiled form failed)."""
        self._residues[id(stmt)] = False

    def execute(
        self,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int | float] | None = None,
        workers: int = 4,
        policy: SchedulingPolicy | str = "gss",
        chunk: int | None = None,
        timeout: float | None = None,
        log_events: bool = True,
        method: str | None = None,
        reuse_pool: bool = True,
        claim_batch: int | str = "auto",
        pool: WorkerPool | None = None,
        preloaded: bool = False,
        strict: bool = False,
    ) -> "ParallelProcedureResult":
        """Run the procedure once (see :func:`run_parallel_procedure`).

        ``strict=True`` is the single-loop contract of
        :func:`run_parallel_doall`: an inspector that refutes a blocked
        loop raises :class:`SafetyVerificationError` instead of running
        the loop serially.
        """
        if self.refusal is not None:
            cls, message, refused = self.refusal
            if refused:
                record_safety_block(refused)
            raise cls(message)
        report = self.report
        if report is not None:
            report = dataclasses.replace(report, dynamic=[])
        out = ParallelProcedureResult(
            0.0,
            reused_pool=reuse_pool or pool is not None,
            safety_mode=self.mode,
            safety=report,
        )
        run = _Run(
            self,
            policy,
            chunk,
            claim_batch if claim_batch == "auto" else int(claim_batch),
            None if timeout is None else time.monotonic() + timeout,
            log_events,
            TuningTally() if self.tuner is not None else None,
        )
        env: dict[str, int | float] = dict(scalars or {})
        interp = Interpreter()
        t_start = time.monotonic()

        def execute_on(views, nworkers, raw) -> None:
            dispatch = _with_reduction(raw, self, views, nworkers, policy, out)
            handler = _make_blocked_handler(
                self, report, interp, views, out, dispatch, strict
            )
            _exec_hybrid(
                self.proc.body, dispatch, interp, env, views, out,
                run.deadline, self.blocked, handler,
                _make_residue_runner(self, interp, views),
            )

        if pool is not None:
            # ``preloaded=True`` is the zero-copy serving path: the caller
            # has already written the request data into ``pool.views``
            # and reads results out of them itself, so the load/copy-back
            # round trip through ``arrays`` is skipped.
            if not preloaded:
                pool.load(arrays)
            execute_on(
                pool.views, pool.workers,
                functools.partial(_dispatch_pool, run, pool),
            )
            if not preloaded:
                pool.copy_back(arrays)
        elif reuse_pool:
            with WorkerPool(arrays, workers=workers, method=method) as wpool:
                execute_on(
                    wpool.views, wpool.workers,
                    functools.partial(_dispatch_pool, run, wpool),
                )
                wpool.copy_back(arrays)
        else:
            ctx = mp_context(method)
            with SharedArrayPool(arrays) as spool:
                execute_on(
                    spool.views, workers,
                    functools.partial(
                        _dispatch_spawn, run, spool, ctx, workers
                    ),
                )
                spool.copy_back(arrays)
        out.wall_time = time.monotonic() - t_start
        if run.tally is not None:
            out.calibrations = (
                run.tally.calibrations + run.tally.quick_calibrations
            )
            out.pinned_decisions = run.tally.pinned_hits
        record_run(out)
        return out


def _variants_key(variants):
    """A hashable spelling of a ``variants`` option (names list or string)."""
    if variants is None or isinstance(variants, str):
        return variants
    return tuple(variants)


class PlanCache:
    """The dispatch plans of one procedure, one per static option set.

    What a long-lived holder of a compiled program keeps (the server's
    registry entry, :class:`repro.parallel.backend.MPCompiledProcedure`):
    :meth:`get` builds a plan on first use of an option set and returns
    the same plan afterwards, counting a plan hit.  Thread-safe.
    """

    def __init__(self, proc: Procedure, cache: object = "default") -> None:
        self.proc = proc
        self.cache = cache
        self._plans: dict[tuple, DispatchPlan] = {}
        self._lock = threading.Lock()

    def get(
        self,
        safety: str | None = None,
        chunk_lang: str | None = None,
        variants=None,
        calibrate: bool | None = None,
    ) -> DispatchPlan:
        key = (
            resolve_safety(safety),
            resolve_chunk_lang(chunk_lang),
            _variants_key(variants),
            calibrate,
        )
        plan = self._plans.get(key)
        if plan is None:
            with self._lock:
                plan = self._plans.get(key)
                if plan is None:
                    plan = self._plans[key] = DispatchPlan(
                        self.proc, *key, cache=self.cache
                    )
                    return plan
        record_plan_hit()
        return plan


@dataclass
class _Run:
    """One run's dispatch options, shared by every dispatch of the run."""

    plan: DispatchPlan
    policy: SchedulingPolicy | str
    chunk: int | None
    batch: int | str
    deadline: float | None
    log_events: bool
    #: The run's tuner activity (None when the plan has no tuner).
    tally: TuningTally | None
    #: Scheduling plans by (policy, trip count, workers), per run.
    scheds: dict = field(default_factory=dict)

    def sched(self, n: int, active: int):
        key = (
            self.policy if isinstance(self.policy, str) else id(self.policy),
            n,
            active,
        )
        hit = self.scheds.get(key)
        if hit is None:
            hit = self.scheds[key] = policy_plan(
                self.policy, n, active, self.chunk
            )
        return hit


def _empty_result(
    loop: Loop, lo: int, hi: int, workers: int, policy: SchedulingPolicy | str
) -> ParallelRunResult:
    name = policy if isinstance(policy, str) else policy.name
    return ParallelRunResult(
        loop.var, lo, hi, workers, name, 0.0, [0] * workers, 0
    )


def _build_job(
    run: _Run,
    proc: Procedure,
    loop: Loop,
    pool: SharedArrayPool,
    env: Mapping[str, int | float],
    sched,
    lo: int,
    batch: int,
    speculate: dict | None = None,
    decision=None,
    extra_specs: list | None = None,
    extra_views: Mapping[str, np.ndarray] | None = None,
) -> dict:
    """The picklable job descriptor both worker flavors execute.

    The Python chunk source is always present (the safety net every
    fallback lands on).  When ``chunk_lang == "c"`` and the shape compiles
    — every array float64 C-contiguous at its declared rank, codegen and
    the compiler both succeed — the descriptor also carries the native
    kernel (``c_so``/``c_fname``/``c_sig``/``c_scalar_types``); when
    ``chunk_lang == "numpy"`` and the shape passes the vectorization
    rules it carries the whole-slice chunk (``np_source``/``np_fname``);
    otherwise the dispatch degrades to Python and the fallback is counted
    in metrics.  ``job["variant"]`` names the farm build attached.

    A pinned/measured ``decision``
    (:class:`repro.tuning.calibrate.TuningDecision`) overrides the build:
    its variant selects both the chunk language and — for C variants —
    the compiler, flag set, and in-chunk OpenMP body.

    A speculative dispatch instead ships the dispatched ``Loop`` itself
    plus shadow-segment specs and the written→shadow alias map: workers
    run the recording interpreter against the shadows (chunk kernels
    cannot log element accesses), so the chunk source is ignored and the
    native path is skipped.

    ``extra_specs``/``extra_views`` ship side-channel arrays that live
    outside the main pool — the reduction engine's per-dispatch partial
    accumulators.  They extend ``job["specs"]`` (workers attach them on
    demand) and participate in the native-path eligibility check, but are
    never copied back through the main pool.
    """
    plan = run.plan
    extra = _extra_scalars(proc, loop, env)
    source, fname, scalar_order = plan.chunk_source(proc, loop, extra)
    job = {
        "source": source,
        "fname": fname,
        "specs": pool.specs(),
        "array_order": list(proc.arrays),
        "scalar_order": scalar_order,
        "scalars": {name: env[name] for name in scalar_order},
        "plan": sched,
        "lo": lo,
        "batch": batch,
        "log_events": run.log_events,
        "variant": "py",
    }
    if extra_specs:
        job["specs"] = list(job["specs"]) + list(extra_specs)
    if speculate is not None:
        job["specs"] = list(job["specs"]) + list(speculate["specs"])
        job["speculate"] = {
            "loop": speculate["loop"],
            "written": tuple(speculate["written"]),
            "aliases": dict(speculate["aliases"]),
        }
        return job
    variant = None
    lang = plan.lang
    if decision is not None:
        try:
            variant = variant_by_name(decision.variant)
            lang = variant.lang
        except ValueError:
            variant = None
    if lang == "c":
        views = dict(pool.views)
        if extra_views:
            views.update(extra_views)
        eligible = all(
            a in views
            and views[a].dtype == np.float64
            and views[a].flags["C_CONTIGUOUS"]
            and views[a].ndim == rank
            for a, rank in proc.arrays.items()
        )
        kernel = (
            plan.chunk_kernel(proc, loop, extra, env, variant=variant)
            if eligible
            else None
        )
        if kernel is not None:
            so_path, c_fname, sig, scalar_types = kernel
            job["chunk_lang"] = "c"
            job["c_so"] = so_path
            job["c_fname"] = c_fname
            job["c_sig"] = sig
            job["c_scalar_types"] = scalar_types
            job["variant"] = (variant or default_variant("c")).name
        else:
            record_chunk_fallback()
    elif lang == "numpy":
        npk = plan.numpy_chunk(proc, loop, extra)
        if npk is not None:
            np_source, np_fname = npk
            job["chunk_lang"] = "numpy"
            job["np_source"] = np_source
            job["np_fname"] = np_fname
            job["variant"] = "numpy"
        else:
            record_chunk_fallback()
    return job


def _resolve_claim_batch(
    requested, decision, plan, n: int, active: int
) -> int:
    """Resolve ``claim_batch`` (int or ``"auto"``) to the value workers use.

    Explicit integers pass through (floored at 1).  ``"auto"`` takes the
    calibrated batch when a decision carries one — clamped so this
    dispatch still gives every worker at least one claim round — and
    otherwise a conservative load-balance heuristic.  GSS and static
    plans never batch.
    """
    if requested != "auto":
        return max(1, int(requested))
    if plan.rule is None or plan.rule[0] == "gss":
        return 1
    per_claim = 1 if plan.rule[0] == "unit" else max(1, plan.rule[1])
    chunks = max(1, -(-n // per_claim))
    cap = max(1, chunks // max(1, active))
    if decision is not None and decision.claim_batch:
        return max(1, min(decision.claim_batch, cap))
    return max(1, min(64, chunks // (max(1, active) * 8), cap))


def _finalize_result(
    results: Mapping[int, tuple],
    loop: Loop,
    lo: int,
    hi: int,
    n: int,
    active: int,
    plan,
    t_base: float,
) -> ParallelRunResult:
    """Fold per-worker result messages into one :class:`ParallelRunResult`."""
    wall = time.monotonic() - t_base
    per_worker = [0] * active
    claims = 0
    lock_ops = 0
    langs: set[str] = set()
    events: list[ClaimEvent] = []
    spec_logs: list = []
    for wid, msg in results.items():
        _, _, iters, wclaims, wlocks, wevents, wlang, wextra = msg
        langs.add(wlang)
        spec_logs.extend(wextra.get("spec_log", ()))
        if wid < active:
            per_worker[wid] = iters
        elif iters:  # pragma: no cover - plan contract violated
            raise ParallelError(
                f"idle worker {wid} executed {iters} iterations"
            )
        claims += wclaims
        lock_ops += wlocks
        for (clo, chi, t0, t1, t2) in wevents:
            events.append(
                ClaimEvent(wid, clo, chi, t0 - t_base, t1 - t_base, t2 - t_base)
            )
    if sum(per_worker) != n:
        raise ParallelError(
            f"claim accounting violated: {sum(per_worker)} iterations "
            f"executed for a range of {n}"
        )
    events.sort(key=lambda e: (e.worker, e.t_claim))
    if not langs:
        chunk_lang = "py"
    elif len(langs) == 1:
        chunk_lang = next(iter(langs))
    else:
        chunk_lang = "mixed"
    spec_logs.sort(key=lambda log: (log[0], log[1]))
    return ParallelRunResult(
        loop.var,
        lo,
        hi,
        active,
        plan.name,
        wall,
        per_worker,
        claims,
        events,
        lock_ops=lock_ops,
        chunk_lang=chunk_lang,
        spec_logs=spec_logs,
    )


# ---------------------------------------------------------------------------
# Dispatch engines
# ---------------------------------------------------------------------------


def _tuned_decision(
    run: _Run,
    proc: Procedure,
    loop: Loop,
    env: Mapping[str, int | float],
    views: Mapping[str, np.ndarray],
    sched,
    n: int,
    workers: int,
    speculate: dict | None,
):
    """Consult the plan's tuner (never for speculative dispatches)."""
    tuner = run.plan.tuner
    if speculate is not None or tuner is None:
        return None
    return tuner.decision_for(
        proc, loop, env, views, sched, n, workers, run.chunk, run.plan,
        run.batch, run.tally,
    )


def _stamp_result(result: ParallelRunResult, job: dict, batch: int):
    """Record the dispatch's resolved batch and variant on its result.

    The variant reflects what workers *actually executed*: a fleet that
    degraded from the attached build (dlopen/bind failure) reports
    ``"py"`` and counts a chunk fallback, exactly like a parent-side
    degradation.
    """
    result.claim_batch = batch
    wanted = job.get("chunk_lang", "py")
    if result.chunk_lang == wanted:
        result.variant = job.get("variant", "py")
    elif result.chunk_lang == "py":
        result.variant = "py"
        record_chunk_fallback()  # worker-side dlopen/bind degradation
    else:
        record_chunk_fallback()  # mixed fleet: some workers degraded
    return result


def _dispatch_spawn(
    run: _Run,
    pool: SharedArrayPool,
    ctx: multiprocessing.context.BaseContext,
    workers: int,
    proc: Procedure,
    loop: Loop,
    env: Mapping[str, int | float],
    speculate: dict | None = None,
    extra_specs: list | None = None,
    extra_views: Mapping[str, np.ndarray] | None = None,
) -> ParallelRunResult:
    """Run one DOALL on a freshly spawned fleet (the PR-1 baseline path)."""
    lo = eval_bound(loop.lower, env, pool.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, pool.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    if n == 0:
        return _empty_result(loop, lo, hi, workers, run.policy)
    active = max(1, min(workers, n))
    sched = run.sched(n, active)
    decision = _tuned_decision(
        run, proc, loop, env, pool.views, sched, n, workers, speculate
    )
    batch_n = _resolve_claim_batch(run.batch, decision, sched, n, active)
    job = _build_job(
        run, proc, loop, pool, env, sched, lo, batch_n, speculate, decision,
        extra_specs, extra_views,
    )
    counter = (
        None if sched.static is not None else SharedClaimCounter(lo, hi, ctx)
    )
    q = ctx.Queue()
    procs = [
        ctx.Process(
            target=worker_main,
            args=(wid, job, counter, q),
            name=f"repro-par-{wid}",
            daemon=True,
        )
        for wid in range(active)
    ]
    t_base = time.monotonic()
    for p in procs:
        p.start()
    try:
        results = gather_results(procs, q, run.deadline, set(range(active)))
        raise_worker_crashes(results, procs)
    except BaseException:
        terminate_procs(procs)
        raise
    for p in procs:
        p.join(timeout=5.0)
    result = _finalize_result(results, loop, lo, hi, n, active, sched, t_base)
    return _stamp_result(result, job, batch_n)


def _dispatch_pool(
    run: _Run,
    wpool: WorkerPool,
    proc: Procedure,
    loop: Loop,
    env: Mapping[str, int | float],
    speculate: dict | None = None,
    extra_specs: list | None = None,
    extra_views: Mapping[str, np.ndarray] | None = None,
) -> ParallelRunResult:
    """Run one DOALL on the persistent pool: a message, not a fork."""
    lo = eval_bound(loop.lower, env, wpool.views, "loop lower bound")
    hi = eval_bound(loop.upper, env, wpool.views, "loop upper bound")
    n = max(0, hi - lo + 1)
    if n == 0:
        # Nothing to do — and nothing sent: the pool idles through empty
        # ranges and stays usable for the next dispatch.
        return _empty_result(loop, lo, hi, wpool.workers, run.policy)
    active = max(1, min(wpool.workers, n))
    sched = run.sched(n, active)
    decision = _tuned_decision(
        run, proc, loop, env, wpool.views, sched, n, wpool.workers, speculate
    )
    batch_n = _resolve_claim_batch(run.batch, decision, sched, n, active)
    job = _build_job(
        run, proc, loop, wpool.shared, env, sched, lo, batch_n, speculate,
        decision, extra_specs, extra_views,
    )
    t_base, results = wpool.dispatch(job, lo, hi, run.deadline)
    result = _finalize_result(results, loop, lo, hi, n, active, sched, t_base)
    return _stamp_result(result, job, batch_n)


# ---------------------------------------------------------------------------
# Reduction dispatch (recognized ``s := s ⊕ expr`` loops)
# ---------------------------------------------------------------------------

#: Upper bound on partial accumulators per reduction dispatch.  The chunk
#: grid is a pure function of the trip count (never the worker count), so
#: the folded result is deterministic across fleet sizes.
_RED_MAX_CHUNKS = 64

#: Identity constants for the derived init statement: the true IEEE
#: identities, so a partial that folds nothing leaves the accumulator
#: bit-identical to serial — ``-0.0`` for ``+`` (``-0.0 + x == x`` for
#: every x, ``-0.0`` included) and ±inf for ``min``/``max`` (which every
#: generator spells: ``float("inf")`` in Python, ``INFINITY`` in C).
_RED_IDENTITY: dict[str, float] = {
    "+": -0.0,
    "*": 1.0,
    "min": float("inf"),
    "max": float("-inf"),
}


@dataclass(frozen=True)
class _ReductionPlan:
    """Everything one recognized reduction loop needs to dispatch.

    ``origin`` is the loop as written (``s := s ⊕ expr``); ``proc`` /
    ``loop`` are the derived strip-mined form the workers actually
    execute; ``partial``/``chunks``/``stride`` name the partial array and
    the two symbolic grid scalars, so one cached chunk kernel serves
    every trip count.
    """

    reduction: Reduction
    origin: Loop
    proc: Procedure
    loop: Loop
    partial: str
    chunks: str
    stride: str


def _fresh_red_name(base: str, used: set[str]) -> str:
    name = base
    while name in used:
        name += "_"
    used.add(name)
    return name


def derive_reduction_dispatch(
    proc: Procedure, loop: Loop, red: Reduction
) -> _ReductionPlan:
    """Build the strip-mined partial-accumulator form of a reduction loop.

    The original ``for i = lo, hi: s := s ⊕ u(i)`` becomes::

        doall __rc = 0, __red_c - 1:
            __red_p(__rc) := identity
            for i = lo + __rc*__red_k, min(hi, lo + (__rc+1)*__red_k - 1):
                [if guard then] __red_p(__rc) := __red_p(__rc) ⊕ u(i)

    ``__red_c`` (chunk count) and ``__red_k`` (chunk stride) stay
    *symbolic* — shipped as env scalars per dispatch — so the generated
    chunk source, and therefore the compiled kernel, is one per loop
    shape rather than one per trip count.  The inner loop keeps the
    original induction variable, so ``u(i)`` and the guard need no
    renaming.  Each ``__rc`` owns exactly one partial element and a
    disjoint slice of the original range: the derived loop is race-free
    by construction (and the safety verifier can re-prove it).
    """
    used = set(proc.arrays) | set(proc.scalars)
    for s in walk_stmts(proc.body):
        if isinstance(s, Loop):
            used.add(s.var)
    for e in walk_exprs(proc.body):
        if isinstance(e, Var):
            used.add(e.name)
    partial = _fresh_red_name("__red_p", used)
    chunks = _fresh_red_name("__red_c", used)
    stride = _fresh_red_name("__red_k", used)
    rc = _fresh_red_name("__rc", used)

    pref = ArrayRef(partial, (Var(rc),))
    update = Assign(pref, BinOp(red.op, pref, red.update))
    body: Stmt = (
        update if red.guard is None else If(red.guard, Block((update,)))
    )
    inner_lo = loop.lower + Var(rc) * Var(stride)
    inner_hi = min_(loop.upper, loop.lower + (Var(rc) + 1) * Var(stride) - 1)
    inner = Loop(
        loop.var, inner_lo, inner_hi, Block((body,)), Const(1),
        LoopKind.SERIAL,
    )
    outer = Loop(
        rc, Const(0), Var(chunks) - 1,
        Block((Assign(pref, Const(_RED_IDENTITY[red.op])), inner)),
        Const(1), LoopKind.DOALL,
    )
    arrays = dict(proc.arrays)
    arrays[partial] = 1
    derived = Procedure(
        f"{proc.name}__red", Block((outer,)), arrays,
        tuple(proc.scalars) + (chunks, stride),
    )
    validate(derived)
    return _ReductionPlan(red, loop, derived, outer, partial, chunks, stride)


def _reduction_grid(n: int) -> tuple[int, int]:
    """``(chunk_count, chunk_stride)`` for a trip count of ``n``.

    A pure function of ``n`` alone: the same input always folds through
    the same partials in the same order, whatever the worker count.
    """
    n_chunks = max(1, min(_RED_MAX_CHUNKS, n))
    return n_chunks, -(-n // n_chunks)


def _dispatch_reduction(
    plan: _ReductionPlan,
    env: dict,
    views: Mapping[str, np.ndarray],
    workers: int,
    policy: SchedulingPolicy | str,
    engine,
) -> ParallelRunResult:
    """Run a recognized reduction through partial accumulators + ordered fold.

    ``engine(env2, extra_specs, extra_views)`` must dispatch the derived
    loop through a normal engine with the partial array attached as a
    side-channel shared segment.  On return the parent folds the partials
    in ascending chunk order, seeded with the incoming accumulator value,
    and writes the result back into ``env`` — exactly the serial
    association ``((s ⊕ p₁) ⊕ p₂) …`` with ``p_c = ((id ⊕ u_{c,1}) ⊕ …)``,
    which is bit-identical to serial execution whenever ⊕ is exact on the
    data (min/max always; float +/* on integer-valued data).

    The partial array lives in its own :class:`SharedArrayPool`, shipped
    via the job's extra specs and unlinked before this function returns —
    it never flows through the main pool's ``copy_back``.
    """
    red = plan.reduction
    if red.scalar not in env:
        raise ParallelDispatchError(
            f"reduction scalar {red.scalar!r} has no incoming value"
        )
    lo = eval_bound(plan.origin.lower, env, views, "loop lower bound")
    hi = eval_bound(plan.origin.upper, env, views, "loop upper bound")
    n = max(0, hi - lo + 1)
    result = _empty_result(plan.origin, lo, hi, workers, policy)
    if n > 0:
        n_chunks, stride = _reduction_grid(n)
        seed = np.full(n_chunks, _RED_IDENTITY[red.op], dtype=np.float64)
        env2 = dict(env)
        env2[plan.chunks] = n_chunks
        env2[plan.stride] = stride
        with SharedArrayPool({plan.partial: seed}) as ppool:
            result = engine(env2, ppool.specs(), ppool.views)
            parts = ppool.views[plan.partial][:n_chunks].tolist()
        acc = env[red.scalar]
        for part in parts:
            acc = apply_binop(red.op, acc, part)
        env[red.scalar] = acc
    result.reduction_scalar = red.scalar
    result.reduction_value = float(env[red.scalar])
    record_reduction_dispatch()
    return result


def _with_reduction(dispatch_raw, plan, views, workers, policy, out):
    """Wrap an engine closure so recognized reductions take the partial path.

    ``dispatch_raw(dproc, dloop, env, speculate, extra_specs,
    extra_views)`` is the underlying engine.  The returned closure has the
    ``dispatch(loop, env, speculate=None)`` signature
    :func:`_exec_hybrid` expects.  Routing is independent of the safety
    mode: a DOALL-tagged reduction loop would otherwise dispatch with the
    accumulator silently frozen at its incoming value (each worker holds
    a private scalar copy), so the reduction engine is a correctness
    matter, not an optimization.  Speculative dispatches never take this
    path — a blocked loop is by definition not a proven reduction.
    """

    def dispatch(
        loop: Loop, env, speculate: dict | None = None
    ) -> ParallelRunResult:
        if speculate is None:
            red = plan.reduction_plan(loop)
            if red is not None:
                result = _dispatch_reduction(
                    red, env, views, workers, policy,
                    lambda env2, specs, pviews: dispatch_raw(
                        red.proc, red.loop, env2, None, specs, pviews
                    ),
                )
                out.reductions += 1
                return result
        return dispatch_raw(plan.proc, loop, env, speculate, None, None)

    return dispatch


# ---------------------------------------------------------------------------
# Speculative dispatch (safety="speculate")
# ---------------------------------------------------------------------------

#: Process-global counter making shadow alias names unique per dispatch
#: occurrence, so a persistent worker never mistakes a stale shadow
#: attachment for the current one.
_SPEC_TOKEN = itertools.count()


def _speculative_dispatch(dispatch_fn, loop, env, views, written):
    """Dispatch ``loop`` into shadow copies of its written arrays.

    ``dispatch_fn(info)`` must run the loop through a normal engine with
    the speculation descriptor attached (workers then execute the
    recording interpreter against the shadows).  The gathered chunk logs
    are validated for cross-chunk conflicts; on success the shadows are
    committed into ``views`` by bulk copy-back, on failure ``views`` are
    left exactly as before the dispatch (the caller retries serially).
    Returns ``(result, validation)``.  The shadow segments are unlinked
    on every exit path.
    """
    token = next(_SPEC_TOKEN)
    aliases = {name: shadow_alias(name, token) for name in written}
    shadow = SharedArrayPool({aliases[name]: views[name] for name in written})
    try:
        info = {
            "loop": loop,
            "written": tuple(written),
            "aliases": aliases,
            "specs": shadow.specs(),
        }
        result = dispatch_fn(info)
        validation = validate_chunk_logs(result.spec_logs)
        if validation.ok:
            for name in written:
                np.copyto(views[name], shadow.views[aliases[name]])
        return result, validation
    finally:
        shadow.close()


def _speculation_plans(
    loops, blocked: frozenset[int], report
) -> dict[int, SpecPlan]:
    """The per-loop speculation plan for every statically-blocked loop."""
    plans: dict[int, SpecPlan] = {}
    for lp in loops:
        if id(lp) in blocked:
            verdict = report.by_id.get(id(lp)) if report is not None else None
            plans[id(lp)] = speculation_plan(lp, verdict)
    return plans


def _inspect_certificate(loop, insp) -> SpecCertificate:
    return SpecCertificate(
        loop_var=loop.var,
        mode="inspector",
        status="proven-dynamic" if insp.proven else "refuted",
        iterations=insp.iterations,
        conflicts=len(insp.conflicts),
        wall_s=insp.wall_s,
        detail=insp.describe(),
    )


# ---------------------------------------------------------------------------
# Hybrid program execution (serial segments + nested dispatch)
# ---------------------------------------------------------------------------


_MISSING = object()

#: Namespace for compiled serial-residue functions (mirrors the chunk
#: compiler's: the IR intrinsics plus the builtins codegen emits).
_RESIDUE_NAMESPACE = {**INTRINSICS, "min": min, "max": max, "range": range}


def _compile_residue(stmt: Loop, env: Mapping[str, int | float]):
    """Compile one dispatch-free serial loop into a callable, or ``False``.

    Wraps the subtree in a throwaway procedure, generates Python with
    :func:`repro.codegen.pygen.generate_source` (the backend the test
    suite holds bit-identical to the interpreter), and appends a return
    of every scalar the subtree writes so the parent can fold the
    results back into ``env``.  Returns ``(fn, array_order, params,
    returns)`` or ``False`` when the shape cannot be compiled (the
    caller interprets instead).
    """
    try:
        refs: dict[str, int] = {}
        for e in walk_exprs(stmt):
            if isinstance(e, ArrayRef):
                refs.setdefault(e.name, len(e.indices))
        bound = {s.var for s in walk_stmts(stmt) if isinstance(s, Loop)}
        names = {e.name for e in walk_exprs(stmt) if isinstance(e, Var)}
        writes = {
            s.target.name
            for s in walk_stmts(stmt)
            if isinstance(s, Assign) and isinstance(s.target, Var)
        } - bound
        params = tuple(sorted((names - bound - set(refs)) & set(env)))
        returns = tuple(sorted(writes))
        wrapper = Procedure("__residue", Block((stmt,)), refs, params)
        source = generate_source(wrapper, name="__residue")
        source += "    return (" + "".join(f"{r}, " for r in returns) + ")\n"
        namespace = dict(_RESIDUE_NAMESPACE)
        code = compile(source, filename="<residue>", mode="exec")
        exec(code, namespace)
        return namespace["__residue"], tuple(refs), params, returns
    except Exception:
        return False


def _make_residue_runner(plan: DispatchPlan, interp, views):
    """Compiled execution of dispatch-free serial loops in the parent.

    The serial residue of a fissioned program (the cyclic-SCC sub-loops)
    runs in the parent; driving it through the tree interpreter would
    dominate the wall clock and bury the dispatched majority's speedup.
    Each residue loop compiles once per plan (generated Python, the same
    backend E10 proves bit-identical to the interpreter) and falls back
    to the interpreter on any failure — compile or call.
    """

    def run(stmt: Loop, env: dict) -> None:
        entry = plan.residue(stmt, env)
        if entry is not False:
            fn, array_order, params, returns = entry
            try:
                args = [views[a] for a in array_order]
                args += [env[p] for p in params]
                out_vals = fn(*args)
            except Exception:
                plan.drop_residue(stmt)
            else:
                for name, val in zip(returns, out_vals):
                    env[name] = val
                return
        interp._exec(stmt, env, views)

    return run


def _exec_hybrid(
    stmt: Stmt,
    dispatch,
    interp: Interpreter,
    env: dict[str, int | float],
    views: Mapping[str, np.ndarray],
    out: ParallelProcedureResult,
    deadline: float | None,
    blocked: frozenset[int] = frozenset(),
    on_blocked=None,
    residue=None,
) -> None:
    """Execute a statement tree, dispatching every reachable DOALL.

    Serial loops *containing* dispatchable DOALLs are driven by the
    parent (their control flow must interleave with dispatches — the
    pivot loop of Gauss–Jordan); everything else falls through to the
    interpreter over the shared views in one call.  Loops whose ``id`` is
    in ``blocked`` (statically unproven) go to ``on_blocked``: under
    ``safety="enforce"`` that runs them serially in the parent and counts
    the refusal; under ``"speculate"`` it tries the inspector or a
    speculative dispatch first (see :func:`_make_blocked_handler`).
    Dispatch-free serial loops go to ``residue`` when provided — the
    compiled serial-residue runner (:func:`_make_residue_runner`).
    """
    if on_blocked is None:
        on_blocked = _serial_blocked_handler(interp, views, out)
    if isinstance(stmt, Block):
        for s in stmt.stmts:
            _exec_hybrid(
                s, dispatch, interp, env, views, out, deadline, blocked,
                on_blocked, residue,
            )
        return
    if deadline is not None and time.monotonic() > deadline:
        raise ParallelTimeoutError(
            "parallel run exceeded its deadline in a serial segment"
        )
    if isinstance(stmt, Loop) and _dispatchable(stmt):
        if id(stmt) in blocked:
            on_blocked(stmt, env)
            return
        out.dispatches.append(dispatch(stmt, env))
        return
    if isinstance(stmt, Loop) and _contains_dispatchable(stmt.body):
        lo = eval_bound(stmt.lower, env, views, "loop lower bound")
        hi = eval_bound(stmt.upper, env, views, "loop upper bound")
        st = eval_bound(stmt.step, env, views, "loop step")
        if st <= 0:
            raise InterpreterError(
                f"loop {stmt.var!r}: non-positive step {st}"
            )
        saved = env.get(stmt.var, _MISSING)
        for value in range(lo, hi + 1, st):
            env[stmt.var] = value
            _exec_hybrid(
                stmt.body, dispatch, interp, env, views, out, deadline,
                blocked, on_blocked, residue,
            )
        if saved is _MISSING:
            env.pop(stmt.var, None)
        else:
            env[stmt.var] = saved
        out.serial_stmts += 1
        return
    if isinstance(stmt, If) and _contains_dispatchable(stmt):
        cond = interp._eval(stmt.cond, env, views)
        branch = stmt.then if cond else stmt.orelse
        _exec_hybrid(
            branch, dispatch, interp, env, views, out, deadline, blocked,
            on_blocked, residue,
        )
        out.serial_stmts += 1
        return
    if isinstance(stmt, Loop) and residue is not None:
        residue(stmt, env)
        out.serial_stmts += 1
        return
    interp._exec(stmt, env, views)
    out.serial_stmts += 1


def _serial_blocked_handler(interp, views, out):
    """Enforce-mode handling of a blocked loop: serial in the parent."""

    def handler(stmt: Loop, env: dict[str, int | float]) -> None:
        record_safety_block()
        out.blocked_dispatches += 1
        interp._exec(stmt, env, views)
        out.serial_stmts += 1

    return handler


def _make_blocked_handler(
    plan: DispatchPlan,
    report,
    interp: Interpreter,
    views: Mapping[str, np.ndarray],
    out: ParallelProcedureResult,
    dispatch,
    strict: bool = False,
) -> object:
    """The per-dispatch policy for statically-unproven loops.

    Enforce (and any plan-less loop under speculate) drops to serial.
    Speculate routes by the plan's speculation plans: inspector-eligible
    loops are addressed first and dispatched normally when proven (a
    refuted loop runs serially, or raises when ``strict``);
    value-carrying loops run speculatively into shadows with
    commit-or-rollback; scalar-hazard loops are refused to serial.  Every
    dynamic decision leaves a :class:`SpecCertificate` on the run's copy
    of the safety report.
    """
    serial = _serial_blocked_handler(interp, views, out)
    if plan.mode != "speculate":
        return serial

    def handler(stmt: Loop, env: dict[str, int | float]) -> None:
        spec = plan.spec_plans.get(id(stmt))
        if spec is None or spec.action == "refuse":
            serial(stmt, env)
            return
        if spec.action == "inspect":
            record_speculate(inspected=1)
            out.inspected += 1
            insp = inspect_dispatch(stmt, env, views)
            if report is not None:
                report.dynamic.append(_inspect_certificate(stmt, insp))
            if not insp.proven:
                if strict:
                    record_safety_block()
                    raise SafetyVerificationError(
                        f"safety=speculate: runtime inspector refuted "
                        f"dispatch of {plan.proc.name!r}: {insp.describe()}"
                    )
                serial(stmt, env)
                return
            record_speculate(proven_dynamic=1)
            out.proven_dynamic += 1
            result = dispatch(stmt, env)
            result.speculation = "proven-dynamic"
            out.dispatches.append(result)
            return
        # spec.action == "speculate"
        record_speculate(speculated=1)
        out.speculated += 1
        t0 = time.monotonic()
        result, validation = _speculative_dispatch(
            lambda info: dispatch(stmt, env, speculate=info),
            stmt, env, views, spec.written,
        )
        status = "committed" if validation.ok else "rolled-back"
        result.speculation = status
        out.dispatches.append(result)
        if report is not None:
            report.dynamic.append(
                SpecCertificate(
                    loop_var=stmt.var,
                    mode="speculative",
                    status=status,
                    iterations=result.total_iterations,
                    chunks=validation.chunks,
                    conflicts=len(validation.conflicts),
                    wall_s=time.monotonic() - t0,
                    detail=validation.describe(),
                )
            )
        if validation.ok:
            record_speculate(committed=1)
            out.committed += 1
        else:
            # Misspeculation: the shadows are gone, the primaries
            # untouched — retry serially for the exact serial result.
            record_speculate(rolled_back=1)
            out.rolled_back += 1
            interp._exec(stmt, env, views)
            out.serial_stmts += 1

    return handler


# ---------------------------------------------------------------------------
# Public drivers
# ---------------------------------------------------------------------------


def run_parallel_doall(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    workers: int = 4,
    policy: SchedulingPolicy | str = "gss",
    chunk: int | None = None,
    timeout: float | None = None,
    log_events: bool = True,
    method: str | None = None,
    reuse_pool: bool = False,
    claim_batch: int | str = "auto",
    chunk_lang: str | None = None,
    safety: str | None = None,
    variants=None,
    calibrate: bool | None = None,
) -> ParallelRunResult:
    """Execute a single-DOALL procedure across worker processes.

    The procedure body must be exactly one top-level unit-step DOALL (what
    :func:`repro.transforms.coalesce.coalesce_procedure` produces).  On
    success the caller's ``arrays`` hold the results; on any failure they
    are untouched (workers mutate only the shared copies).  A single
    dispatch gains nothing from pool reuse, so ``reuse_pool`` defaults to
    False here; pass True to exercise the pool engine.

    ``chunk_lang`` selects how workers execute claimed blocks: ``"c"``
    (native kernel via ctypes — the default when a compiler is available),
    ``"numpy"`` (whole-slice vectorized — the compiler-less default),
    ``"py"`` (generated Python), or ``None``/``"auto"``.  Faster paths
    degrade automatically on any codegen, compile, or load failure; the
    language actually used is reported in ``result.chunk_lang``.

    ``claim_batch`` is an explicit chunks-per-critical-section count or
    ``"auto"`` (default): unit/fixed dispatches size the batch from the
    measured per-chunk service time — a bounded first-use
    micro-calibration whose decision is pinned in the artifact cache, so
    warm runs re-measure nothing (see :mod:`repro.tuning.calibrate`).
    ``variants`` restricts the farm to named builds
    (:data:`repro.tuning.variants.VARIANTS`; comma string or list), and
    ``calibrate=True`` runs a full variant sweep — measure every
    available build of the chunk shape, dispatch the winner — while
    ``calibrate=False`` disables measurement entirely.  The build
    executed is reported in ``result.variant`` and the resolved batch in
    ``result.claim_batch``.

    ``safety`` selects the chunk-safety mode (see :func:`resolve_safety`;
    default ``"warn"``).  Under ``"enforce"`` a loop the verifier cannot
    prove race-free raises :class:`SafetyVerificationError` *before* any
    worker or shared segment is created.  Under ``"speculate"`` that loop
    gets a dynamic chance first: the runtime inspector certifies it when
    it can (normal dispatch, ``result.speculation == "proven-dynamic"``),
    otherwise the dispatch runs speculatively into shadow segments and is
    committed or — on a detected cross-chunk conflict — rolled back and
    re-run serially, leaving the caller's arrays bit-identical to a
    serial execution (``result.speculation`` is ``"committed"`` or
    ``"rolled-back"``).  Only a scalar-hazard loop (or an
    inspector-refuted one) still raises, exactly like enforce.

    Builds a :class:`DispatchPlan` and executes it once; callers that run
    one procedure many times should keep a plan (see
    :func:`run_parallel_procedure`'s ``plan``).
    """
    body = proc.body
    if len(body) != 1 or not isinstance(body.stmts[0], Loop):
        raise ParallelDispatchError(
            "procedure body must be a single loop (use run_parallel_procedure "
            "for mixed serial/parallel programs)"
        )
    loop = body.stmts[0]
    if not _dispatchable(loop):
        raise ParallelDispatchError(
            f"outer loop {loop.var!r} is not a unit-step DOALL"
        )
    plan = DispatchPlan(
        proc, safety=safety, chunk_lang=chunk_lang, variants=variants,
        calibrate=calibrate,
    )
    out = plan.execute(
        arrays, scalars, workers=workers, policy=policy, chunk=chunk,
        timeout=timeout, log_events=log_events, method=method,
        reuse_pool=reuse_pool, claim_batch=claim_batch, strict=True,
    )
    return out.dispatches[0]


def run_parallel_procedure(
    proc: Procedure,
    arrays: Mapping[str, np.ndarray],
    scalars: Mapping[str, int | float] | None = None,
    workers: int = 4,
    policy: SchedulingPolicy | str = "gss",
    chunk: int | None = None,
    timeout: float | None = None,
    log_events: bool = True,
    method: str | None = None,
    reuse_pool: bool = True,
    claim_batch: int | str = "auto",
    pool: WorkerPool | None = None,
    chunk_lang: str | None = None,
    safety: str | None = None,
    variants=None,
    calibrate: bool | None = None,
    preloaded: bool = False,
    plan: DispatchPlan | None = None,
) -> ParallelProcedureResult:
    """Execute a whole procedure, dispatching every reachable DOALL.

    Statements between DOALLs (the serial pivot loop of a hybrid program,
    scalar setup, non-unit-step loops) run in the parent over the same
    shared-memory views, so array state flows through the whole program
    without extra copies.  DOALLs nested under serial control flow are
    dispatched too — one dispatch per enclosing serial iteration, the
    paper's hybrid execution model.  Raises
    :class:`ParallelDispatchError` if there is nothing to dispatch — a
    purely serial program should use the serial backends instead of
    paying for a pool.

    With ``reuse_pool=True`` (default) one persistent worker fleet serves
    every dispatch; ``reuse_pool=False`` restores the spawn-per-dispatch
    baseline.  Passing an already-warm ``pool`` (the server's per-shape
    fleets) skips even the per-run spawn: the caller's arrays are loaded
    into the pool's shared views, the run dispatches through the resident
    workers, results are copied back, and the pool is left running for
    the next run.  The pool's array environment must match ``arrays`` by
    name and shape, and the caller must serialize concurrent runs on one
    pool.  ``preloaded=True`` additionally skips the load/copy-back pair
    for callers that stage data into ``pool.views`` themselves and read
    results straight out of them (the binary wire transport).

    ``chunk_lang``, ``claim_batch`` (default ``"auto"``), ``variants``,
    and ``calibrate`` behave exactly as in :func:`run_parallel_doall`;
    decisions are resolved per dispatched loop shape, so a hybrid program
    calibrates each of its DOALLs at most once and every later dispatch of
    the same shape reuses the pinned decision (``result.calibrations`` /
    ``result.pinned_decisions`` count both, once per shape per run).

    ``safety`` selects the chunk-safety mode (default ``"warn"``: verify
    and report, dispatch everything).  Under ``"enforce"``, unproven
    loops execute serially in the parent instead of being dispatched
    (counted in ``result.blocked_dispatches``); when *no* dispatchable
    loop is proven, the run raises :class:`SafetyVerificationError`
    before any worker is created — a run that could only ever execute
    serially should not pay for a pool.  Under ``"speculate"``, unproven
    loops are inspected (dispatching with a certificate when proven) or
    run speculatively with commit/rollback; per-dispatch outcomes land in
    ``result.inspected`` / ``proven_dynamic`` / ``speculated`` /
    ``committed`` / ``rolled_back`` and certificates on the safety
    report.  The refuse-everything raise then only fires when every
    dispatchable loop has a scalar hazard no dynamic mode can fix.

    ``plan`` is a :class:`DispatchPlan` built earlier for ``proc`` (the
    server's registry and :class:`~repro.parallel.backend.MPCompiledProcedure`
    keep one per option set, see :class:`PlanCache`): the run then skips
    validation, verification, chunk codegen and kernel resolution, and the
    plan's ``safety``/``chunk_lang``/``variants``/``calibrate`` apply —
    those four arguments are ignored.  Without one, a plan is built for
    this call and dropped afterwards.
    """
    if plan is None:
        plan = DispatchPlan(
            proc, safety=safety, chunk_lang=chunk_lang, variants=variants,
            calibrate=calibrate,
        )
    elif plan.proc is not proc:
        raise ValueError(
            f"dispatch plan was built for {plan.proc.name!r}, not for this "
            f"{proc.name!r} object"
        )
    return plan.execute(
        arrays, scalars, workers=workers, policy=policy, chunk=chunk,
        timeout=timeout, log_events=log_events, method=method,
        reuse_pool=reuse_pool, claim_batch=claim_batch, pool=pool,
        preloaded=preloaded,
    )
