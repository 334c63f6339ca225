"""Tests for the C / OpenMP backend.

Source-structure tests always run; compile-and-execute tests skip when no
gcc is available.
"""

import numpy as np
import pytest

from repro.codegen.cgen import generate_c
from repro.codegen.cload import compile_c_procedure, have_compiler
from repro.frontend import parse
from repro.ir.builder import assign, block, c, doall, proc, ref, serial, v
from repro.runtime.equivalence import copy_env, random_env
from repro.runtime.interp import run
from repro.transforms import coalesce_procedure, coalesce_triangular
from repro.workloads import WORKLOADS, get_workload, make_env

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

MATMUL = """
procedure matmul(A[2], B[2], C[2]; n)
  doall i = 1, n
    doall j = 1, n
      C(i, j) := 0.0
      for k = 1, n
        C(i, j) := C(i, j) + A(i, k) * B(k, j)
      end
    end
  end
end
"""


class TestSourceStructure:
    def test_signature(self):
        src = generate_c(parse(MATMUL))
        assert (
            "void matmul(double *A, long A_d0, long A_d1, double *B, "
            "long B_d0, long B_d1, double *C, long C_d0, long C_d1, long n)"
            in src
        )

    def test_collapse_pragma_on_perfect_doall_pair(self):
        src = generate_c(parse(MATMUL))
        assert "#pragma omp parallel for collapse(2)" in src
        # Inner doall is folded into the collapse region: exactly one pragma.
        assert src.count("#pragma") == 1

    def test_flat_doall_gets_plain_pragma(self):
        coalesced, _ = coalesce_procedure(parse(MATMUL))
        src = generate_c(coalesced)
        assert "#pragma omp parallel for\n" in src
        assert "collapse" not in src

    def test_omp_false_suppresses_pragmas(self):
        src = generate_c(parse(MATMUL), omp=False)
        assert "#pragma" not in src

    def test_row_major_indexing(self):
        src = generate_c(parse(MATMUL))
        assert "C[(i) * C_d1 + (j)]" in src

    def test_floor_semantics_helpers_used(self):
        coalesced, _ = coalesce_procedure(parse(MATMUL))
        src = generate_c(coalesced)
        assert "ceildiv_(" in src and "floordiv_(" in src

    def test_recovery_scalars_declared_inside_loop(self):
        coalesced, _ = coalesce_procedure(parse(MATMUL))
        src = generate_c(coalesced)
        # `long i;` declared inside the flat loop body → OpenMP-private.
        loop_body = src.split("i_flat += 1L) {", 1)[1]
        assert "long i;" in loop_body and "long j;" in loop_body

    def test_double_inference_for_float_temporaries(self):
        p = proc(
            "t",
            serial("i", 1, v("n"))(
                assign(v("x"), ref("A", v("i")) * c(2.0)),
                assign(ref("A", v("i")), v("x")),
            ),
            arrays={"A": 1},
            scalars=("n",),
        )
        src = generate_c(p)
        assert "double x;" in src

    def test_long_inference_for_index_temporaries(self):
        p = proc(
            "t",
            serial("i", 1, v("n"))(
                assign(v("k"), v("i") + 1),
                assign(ref("A", v("k")), c(1.0)),
            ),
            arrays={"A": 1},
            scalars=("n",),
        )
        src = generate_c(p)
        assert "long k;" in src


@needs_gcc
class TestCompileAndRun:
    def _check_against_interpreter(self, p, sizes, scalars, seed=0, **kwargs):
        env = random_env(p, sizes, seed=seed)
        e_py, e_c = copy_env(env), copy_env(env)
        run(p, e_py, scalars)
        compiled = compile_c_procedure(p, **kwargs)
        compiled.run(e_c, scalars)
        for name in p.arrays:
            np.testing.assert_array_equal(e_py[name], e_c[name], err_msg=name)

    def test_matmul_with_collapse_pragma(self):
        self._check_against_interpreter(
            parse(MATMUL), {k: (9, 9) for k in "ABC"}, {"n": 8}
        )

    def test_coalesced_matmul(self):
        coalesced, _ = coalesce_procedure(parse(MATMUL))
        self._check_against_interpreter(
            coalesced, {k: (9, 9) for k in "ABC"}, {"n": 8}
        )

    def test_without_openmp(self):
        self._check_against_interpreter(
            parse(MATMUL), {k: (7, 7) for k in "ABC"}, {"n": 6}, omp=False
        )

    def test_triangular_exact_with_isqrt(self):
        tri = proc(
            "tri",
            doall("i", 1, v("n"))(
                doall("j", 1, v("i"))(
                    assign(ref("T", v("i"), v("j")), v("i") * 100 + v("j"))
                )
            ),
            arrays={"T": 2},
            scalars=("n",),
        )
        result = coalesce_triangular(tri.body.stmts[0], strategy="exact")
        p2 = tri.with_body(block(result.loop))
        self._check_against_interpreter(p2, {"T": (9, 9)}, {"n": 8})

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_compiles_and_agrees(self, name):
        w = get_workload(name)
        arrays, sc = make_env(w, seed=2)
        baseline = copy_env(arrays)
        run(w.proc, baseline, sc)
        compiled = compile_c_procedure(w.proc)
        compiled.run(arrays, sc)
        for arr in w.proc.arrays:
            np.testing.assert_allclose(
                baseline[arr], arrays[arr], rtol=1e-12, atol=1e-12, err_msg=arr
            )

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_coalesced_workload_compiles_and_agrees(self, name):
        # Coalescing can reuse an index name as both a loop variable (the
        # pivot nest of gauss_jordan) and a recovered scalar in another
        # nest; each must be declared in its own scope.
        w = get_workload(name)
        coalesced, _ = coalesce_procedure(w.proc)
        arrays, sc = make_env(w, seed=3)
        baseline = copy_env(arrays)
        run(w.proc, baseline, sc)
        compile_c_procedure(coalesced).run(arrays, sc)
        for arr in w.proc.arrays:
            np.testing.assert_allclose(
                baseline[arr], arrays[arr], rtol=1e-12, atol=1e-12, err_msg=arr
            )

    def test_dtype_check(self):
        p = parse(MATMUL)
        compiled = compile_c_procedure(p)
        bad = {k: np.zeros((5, 5), dtype=np.float32) for k in "ABC"}
        with pytest.raises(TypeError, match="float64"):
            compiled.run(bad, {"n": 4})

    def test_scalar_type_check(self):
        p = parse(MATMUL)
        compiled = compile_c_procedure(p)
        env = {k: np.zeros((5, 5)) for k in "ABC"}
        with pytest.raises(TypeError, match="integer"):
            compiled.run(env, {"n": 2.5})

    def test_identical_compiles_reuse_one_so(self, tmp_path):
        # Regression: per-call tempdirs used to leak; now identical
        # compiles resolve to a single cached shared library.
        from repro.cache import ArtifactCache

        store = ArtifactCache(tmp_path)
        p = parse(MATMUL)
        first = compile_c_procedure(p, cache=store)
        second = compile_c_procedure(p, cache=store)
        assert second.from_cache
        assert first.library_path == second.library_path
        assert store.entry_count() == 1
