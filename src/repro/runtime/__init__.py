"""Execution of IR procedures on real data.

* :mod:`repro.runtime.interp` — sequential reference interpreter over numpy
  arrays, with optional operation counting (used by the recovery-cost
  experiment E2).
* :mod:`repro.runtime.executor` — ordered and shuffled DOALL iteration
  drivers used to demonstrate that coalesced iterations can run in any
  order.
* :mod:`repro.runtime.equivalence` — harness asserting transformed programs
  compute the same arrays as the original.
* :mod:`repro.runtime.inspector` — the dynamic half of ``safety=speculate``:
  subscript-only inspection proving statically-unproven dispatches disjoint
  at runtime, plus the chunk-recording executor speculation uses.
"""

from repro.runtime.inspector import (
    InspectionResult,
    inspect_dispatch,
    record_chunk,
)
from repro.runtime.interp import (
    Interpreter,
    InterpreterError,
    OpCounts,
    eval_bound,
    run,
)
from repro.runtime.executor import run_doall_serial, run_doall_shuffled
from repro.runtime.equivalence import assert_equivalent, random_env

__all__ = [
    "InspectionResult",
    "Interpreter",
    "InterpreterError",
    "OpCounts",
    "assert_equivalent",
    "eval_bound",
    "inspect_dispatch",
    "random_env",
    "record_chunk",
    "run",
    "run_doall_serial",
    "run_doall_shuffled",
]
