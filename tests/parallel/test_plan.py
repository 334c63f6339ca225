"""The dispatch plan: static work done once, every warm run reuses it.

A kept plan (:class:`MPCompiledProcedure`, the server's registry) must make
a second run of the same program and shape do no static work at all — no
verification, no chunk codegen, no artifact-store lookup — while results
stay bit-identical to serial, a changed scalar type gets its own kernel,
certificates stay per run, and an evicted kernel is rebuilt rather than
silently degraded.
"""

import math
import os

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.codegen.cload import have_compiler
from repro.frontend.dsl import parse
from repro.parallel import DispatchPlan, run_parallel_procedure
from repro.parallel.backend import compile_mp_procedure
from repro.parallel.observe import DISPATCH
from repro.runtime.interp import Interpreter
from repro.transforms import coalesce_procedure
from repro.workloads import IRREGULAR_WORKLOADS, get_workload, make_env

WORKERS = 2
needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")


def _static_counters(store) -> dict:
    d = DISPATCH.as_dict()
    stats = store.stats
    return {
        "verifications": d["safety"]["checked"],
        "chunk_emits": d["plan"]["chunk_emits"],
        "plan_builds": d["plan"]["builds"],
        "store_lookups": stats.hits + stats.misses,
    }


def _serial(proc, arrays, scalars) -> dict:
    out = {k: v.copy() for k, v in arrays.items()}
    Interpreter()._exec(proc.body, dict(scalars), out)
    return out


class TestWarmRunsDoNoStaticWork:
    @pytest.mark.parametrize("name", ["saxpy2d", "matmul", "gauss_jordan"])
    def test_second_run_is_static_free(self, name, tmp_path):
        store = ArtifactCache(tmp_path / "store")
        w = get_workload(name)
        proc, _ = coalesce_procedure(w.proc)
        plan = DispatchPlan(proc, cache=store)
        cold_arrays, sc = make_env(w, seed=1)
        expected = _serial(proc, cold_arrays, sc)
        run_parallel_procedure(
            proc, cold_arrays, sc, workers=WORKERS, plan=plan
        )
        before = _static_counters(store)
        warm_arrays, _ = make_env(w, seed=1)
        result = run_parallel_procedure(
            proc, warm_arrays, sc, workers=WORKERS, plan=plan
        )
        assert _static_counters(store) == before
        assert result.dispatches
        for k in expected:
            np.testing.assert_array_equal(warm_arrays[k], cold_arrays[k])
            np.testing.assert_allclose(warm_arrays[k], expected[k])

    def test_mp_backend_keeps_its_plan(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        compiled = compile_mp_procedure(proc, workers=WORKERS)
        arrays, sc = make_env(w, seed=2)
        compiled.run(arrays, sc)
        builds, hits = DISPATCH.plan_builds, DISPATCH.plan_hits
        checked = DISPATCH.safety_checked
        compiled.run(arrays, sc)
        assert DISPATCH.plan_builds == builds
        assert DISPATCH.plan_hits == hits + 1
        assert DISPATCH.safety_checked == checked
        # A changed static option is another plan, built once.
        compiled.safety = "enforce"
        compiled.run(arrays, sc)
        assert DISPATCH.plan_builds == builds + 1

    def test_plan_for_another_procedure_is_refused(self):
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        other, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w)
        with pytest.raises(ValueError, match="plan"):
            run_parallel_procedure(
                other, arrays, sc, workers=WORKERS, plan=DispatchPlan(proc)
            )


SCALE = parse(
    """
    procedure scale(A[1], B[1]; n, a)
      doall i = 1, n
        B(i) := a * A(i)
      end
    end
    """
)


@needs_gcc
class TestKernelKeys:
    def test_float_scalar_gets_its_own_kernel(self):
        plan = DispatchPlan(SCALE, chunk_lang="c")
        n = 64
        A = np.arange(n + 1, dtype=np.float64)
        for a in (2, 2.5):
            B = np.zeros(n + 1)
            result = run_parallel_procedure(
                SCALE, {"A": A, "B": B}, {"n": n, "a": a},
                workers=WORKERS, plan=plan,
            )
            assert result.chunk_lang == "c"
            np.testing.assert_array_equal(B[1:], a * A[1:])
        types = {key[2] for key in plan._kernels}
        assert types == {("long", "long"), ("long", "double")}

    def test_evicted_kernel_is_rebuilt(self, tmp_path):
        store = ArtifactCache(tmp_path / "store")
        plan = DispatchPlan(SCALE, chunk_lang="c", cache=store)
        n = 64
        A = np.arange(n + 1, dtype=np.float64)
        B = np.zeros(n + 1)
        run_parallel_procedure(
            SCALE, {"A": A, "B": B}, {"n": n, "a": 3},
            workers=WORKERS, plan=plan,
        )
        (kernel,) = [k for k in plan._kernels.values() if k is not None]
        store.clear()
        assert not os.path.exists(kernel.so_path)
        B[:] = 0.0
        # A fresh pool has never loaded the kernel: it must get the file.
        result = run_parallel_procedure(
            SCALE, {"A": A, "B": B}, {"n": n, "a": 3},
            workers=WORKERS, plan=plan,
        )
        assert result.chunk_lang == "c"
        assert os.path.exists(kernel.so_path)
        np.testing.assert_array_equal(B[1:], 3 * A[1:])


class TestPerRunState:
    def test_certificates_do_not_accumulate(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        compiled = compile_mp_procedure(
            w.proc, workers=WORKERS, safety="speculate"
        )
        for seed in (0, 1, 2):
            arrays, sc = make_env(w, seed=seed)
            compiled.run(arrays, sc)
            assert compiled.last.inspected == 1
            assert len(compiled.last.certificates) == 1
        plan = compiled._plans.get(safety="speculate")
        assert plan.report.dynamic == []

    def test_refusal_is_raised_every_run(self):
        from repro.parallel import ParallelDispatchError

        serial_only = parse(
            """
            procedure scan(A[1]; n)
              for i = 2, n
                A(i) := A(i - 1) + A(i)
              end
            end
            """
        )
        plan = DispatchPlan(serial_only)
        arrays = {"A": np.ones(9)}
        for _ in range(2):
            with pytest.raises(ParallelDispatchError, match="dispatchable"):
                run_parallel_procedure(
                    serial_only, arrays, {"n": 8}, workers=WORKERS, plan=plan
                )


GUARDED_MAX = parse(
    """
    procedure gmax(A[1], R[1]; n, s)
      for i = 1, n
        if A(i) > 100.0 then
          s := max(s, A(i))
        end
      end
      R(1) := s
    end
    """
)


class TestReductionIdentity:
    """A partial that folds nothing must leave the accumulator exact."""

    @pytest.mark.parametrize(
        "chunk_lang",
        ["py", pytest.param("c", marks=needs_gcc)],
    )
    @pytest.mark.parametrize("s", [-math.inf, -0.0])
    def test_guard_never_fires(self, chunk_lang, s):
        from repro.transforms.reduction import reduction_procedure

        proc = reduction_procedure(GUARDED_MAX).procedure
        n = 256
        arrays = {"A": np.linspace(-1.0, 1.0, n + 1), "R": np.zeros(2)}
        expected = _serial(GUARDED_MAX, arrays, {"n": n, "s": s})
        result = run_parallel_procedure(
            proc, arrays, {"n": n, "s": s}, workers=WORKERS,
            chunk_lang=chunk_lang,
        )
        assert result.reductions == 1
        assert result.chunk_lang == chunk_lang
        got, want = arrays["R"][1], expected["R"][1]
        assert got == want and math.copysign(1, got) == math.copysign(1, want)

    @pytest.mark.parametrize(
        "chunk_lang",
        ["py", pytest.param("c", marks=needs_gcc)],
    )
    def test_sum_keeps_negative_zero(self, chunk_lang):
        from repro.transforms.reduction import reduction_procedure
        from repro.workloads import guarded_sum

        w = guarded_sum()
        proc = reduction_procedure(w.proc).procedure
        arrays, sc = make_env(w)
        arrays["A"][:] = 0.0  # the guard never fires
        sc = dict(sc, s=-0.0)
        run_parallel_procedure(
            proc, arrays, sc, workers=WORKERS, chunk_lang=chunk_lang
        )
        assert arrays["R"][1] == 0.0
        assert math.copysign(1, arrays["R"][1]) == -1.0


class TestConcurrentUse:
    """One plan, many threads: the threaded server runs a key on two
    pools at once, so every memo must fill exactly once."""

    def test_fills_happen_once_under_contention(self):
        import sys
        import threading

        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        loop = proc.body.stmts[0]
        _, sc = make_env(w)
        plan = DispatchPlan(proc, cache=None)
        got: list = []
        start = threading.Barrier(8)

        def fill():
            start.wait(timeout=30)
            got.append((
                plan.chunk_source(proc, loop, ()),
                plan.numpy_chunk(proc, loop, ()),
                plan.chunk_kernel(proc, loop, (), sc),
                plan.reduction_plan(loop),
            ))

        before = DISPATCH.chunk_emits
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=fill) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8
        assert all(g == got[0] for g in got)
        # py + numpy (+ C where a compiler exists), each generated once.
        assert DISPATCH.chunk_emits - before == (3 if have_compiler() else 2)

    def test_two_pools_run_one_plan_at_once(self):
        import threading

        from repro.parallel import WorkerPool

        w = get_workload("matmul")
        proc, _ = coalesce_procedure(w.proc)
        plan = DispatchPlan(proc)
        arrays, sc = make_env(w, seed=5)
        expected = _serial(proc, arrays, sc)
        errors: list = []

        def serve(pool):
            try:
                for _ in range(10):
                    out = {k: v.copy() for k, v in arrays.items()}
                    run_parallel_procedure(
                        proc, out, sc, pool=pool, plan=plan, workers=WORKERS
                    )
                    for k in expected:
                        np.testing.assert_allclose(out[k], expected[k])
            except Exception as exc:  # reported below
                errors.append(exc)

        builds = DISPATCH.plan_builds
        with WorkerPool(arrays, workers=WORKERS) as p1, \
                WorkerPool(arrays, workers=WORKERS) as p2:
            threads = [threading.Thread(target=serve, args=(p,))
                       for p in (p1, p2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert DISPATCH.plan_builds == builds
