"""The programs each workload runs, their sizes, inputs and oracles.

Every input is generated from the run's seed; the program under test only
ever receives the generated arrays and scalars.  Every oracle is an
independent numpy computation (``Workload.reference`` or
``gauss_reference``), never the program's own serial backend.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from repro.ir.printer import to_source
from repro.workloads import (
    Workload,
    dot_product,
    gauss_jordan,
    gauss_reference,
    make_env,
    matmul,
    saxpy2d,
    scatter_perm,
    stencil3d,
)

#: Outputs must match the numpy reference to this tolerance.  The C and
#: numpy chunk kernels sum in another order than numpy's BLAS matmul, so
#: equality is not expected; 1e-9 is far above float64 rounding for these
#: sizes and far below any real indexing error (values are O(1)).
RTOL, ATOL = 1e-9, 1e-9
#: Gauss-Jordan is compared on the solution block against LAPACK's solve,
#: a different algorithm; the system is diagonally dominant, so 1e-8 holds.
GAUSS_RTOL, GAUSS_ATOL = 1e-8, 1e-10


@dataclass(frozen=True)
class Program:
    """One compiled program at one size, with its compile and run options."""

    workload: Workload
    scalars: dict
    compile_options: dict = field(default_factory=dict)
    run_options: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        size = "x".join(str(v) for k, v in sorted(self.scalars.items())
                        if k != "s")
        return f"{self.workload.name}@{size}"

    @property
    def source(self) -> str:
        return to_source(self.workload.proc)

    def inputs(self, seed: int) -> tuple[dict, dict]:
        return make_env(self.workload, self.scalars, seed=seed)

    def expected(self, arrays: dict, scalars: dict) -> dict:
        """Every array as the run must leave it."""
        out = {name: a.copy() for name, a in arrays.items()}
        self.workload.reference(out, scalars)
        return out

    def check(self, got: dict, expected: dict) -> str | None:
        return check_arrays(got, expected)


class GaussProgram(Program):
    """Gauss-Jordan has no in-place oracle: its solution block is checked
    against ``numpy.linalg.solve`` on the same system."""

    def expected(self, arrays: dict, scalars: dict) -> dict:
        return {"X": gauss_reference(arrays, scalars)}

    def check(self, got: dict, expected: dict) -> str | None:
        want = expected["X"]
        n, m = want.shape
        x = np.asarray(got["X"])[1 : n + 1, 1 : m + 1]
        if not np.allclose(x, want, rtol=GAUSS_RTOL, atol=GAUSS_ATOL):
            err = float(np.max(np.abs(x - want)))
            return f"gauss solution differs from numpy solve by {err:.3g}"
        return None


def check_arrays(got: dict, want: dict) -> str | None:
    """None when every array matches, else a one-line reason."""
    for name, w in want.items():
        g = got.get(name)
        if g is None:
            return f"array {name} missing from the result"
        g = np.asarray(g)
        if g.shape != w.shape:
            return f"array {name} has shape {g.shape}, want {w.shape}"
        if not np.allclose(g, w, rtol=RTOL, atol=ATOL):
            err = float(np.max(np.abs(g - w)))
            return f"array {name} differs from the reference by {err:.3g}"
    return None


def _prog(w, compile_options=None, run_options=None, **scalars) -> Program:
    sc = dict(w.default_scalars)
    sc.update(scalars)
    return Program(w, sc, dict(compile_options or {}), dict(run_options or {}))


def small_programs() -> list[Program]:
    """Warm per-run static work dominates at these sizes (about 10 ms)."""
    return [
        _prog(saxpy2d(), n=64, m=64),
        _prog(matmul(), n=40),
        _prog(stencil3d(), n=16),
        _prog(dot_product(), {"transforms": "reduction"}, n=4096),
    ]


def large_programs() -> list[Program]:
    """Kernel time, shm load/copy-back and bytes on the socket dominate."""
    return [
        _prog(saxpy2d(), n=384, m=384),
        _prog(matmul(), n=128),
        _prog(stencil3d(), n=48),
        # Compiled without DOALL analysis the scatter loop stays tagged
        # parallel but unproven, so safety=speculate runs the inspector on
        # every run.  With analysis on it silently runs serially.
        _prog(scatter_perm(), {"analyze": False}, {"safety": "speculate"},
              n=131072),
    ]


def gauss_program() -> GaussProgram:
    """The hybrid program at the size whose serial-C build fails (a known
    cgen defect, reported as a failed baseline)."""
    w = gauss_jordan()
    return GaussProgram(w, {**w.default_scalars, "n": 24, "m": 4})


# ---------------------------------------------------------------------------
# compile_churn: a never-seen program per operation
# ---------------------------------------------------------------------------

#: Eight array shapes, twice the replica's four warm pools, so a first run
#: usually starts a pool and evicts another.
CHURN_SHAPES = (
    (4096,), (6144,),
    (64, 64), (96, 48), (40, 100),
    (16, 16, 16), (20, 16, 12), (12, 24, 16),
)


@dataclass(frozen=True)
class ChurnProgram:
    """A 1-3 deep DOALL nest ``B := c1 * A + c2`` with seeded constants."""

    index: int
    shape: tuple
    c1: float
    c2: float

    @property
    def dims(self) -> int:
        return len(self.shape)

    @property
    def scalars(self) -> dict:
        return {f"n{d + 1}": s for d, s in enumerate(self.shape)}

    @property
    def source(self) -> str:
        idx = [f"i{d + 1}" for d in range(self.dims)]
        sub = ", ".join(idx)
        lines = [f"procedure churn{self.index}(A[{self.dims}], "
                 f"B[{self.dims}]; {', '.join(self.scalars)})"]
        for d, var in enumerate(idx):
            lines.append("  " * (d + 1) + f"doall {var} = 1, n{d + 1}")
        lines.append("  " * (self.dims + 1)
                     + f"B({sub}) := {self.c1!r} * A({sub}) + {self.c2!r}")
        for d in reversed(range(self.dims)):
            lines.append("  " * (d + 1) + "end")
        lines.append("end")
        return "\n".join(lines) + "\n"

    def inputs(self, seed: int) -> tuple[dict, dict]:
        rng = np.random.default_rng(seed)
        shape = tuple(s + 1 for s in self.shape)
        return ({"A": rng.standard_normal(shape),
                 "B": rng.standard_normal(shape)}, self.scalars)

    def expected(self, arrays: dict, scalars: dict) -> dict:
        out = {name: a.copy() for name, a in arrays.items()}
        inner = (slice(1, None),) * self.dims
        out["B"][inner] = self.c1 * arrays["A"][inner] + self.c2
        return out

    def check(self, got: dict, expected: dict) -> str | None:
        return check_arrays(got, expected)


def churn_program(seed: int, index: int) -> ChurnProgram:
    """Operation ``index``'s program; the index is part of ``c2``, so no
    two operations of one run share a source text (or a cache key)."""
    rng = random.Random(seed * 1_000_003 + index)
    shape = CHURN_SHAPES[rng.randrange(len(CHURN_SHAPES))]
    c1 = round(rng.uniform(0.5, 2.0), 6)
    c2 = index + round(rng.uniform(0.0, 0.5), 6)
    return ChurnProgram(index, shape, c1, c2)


def block_order(n_types: int, rng: random.Random):
    """Endless operation order: every block is a fresh shuffle of all
    ``n_types`` operation types, so each type appears equally often (to
    within one block) wherever the time budget stops the run."""
    while True:
        block = list(range(n_types))
        rng.shuffle(block)
        yield from block
