"""Compiler transformations on the loop-nest IR.

The headline pass is :func:`repro.transforms.coalesce.coalesce` — the loop
coalescing transformation of the paper.  Supporting passes: loop
normalization, loop collapsing (the recovery-free special case), interchange,
strip-mining (chunking), and index-recovery strength reduction for block
execution.
"""

from repro.transforms.base import TransformError, fresh_name, used_names
from repro.transforms.normalize import normalize_loop, normalize_procedure
from repro.transforms.coalesce import (
    CoalesceResult,
    coalesce,
    coalesce_procedure,
    extract_perfect_nest,
    recovery_expressions,
)
from repro.transforms.collapse import CollapseResult, collapse, pack_linear, unpack_linear
from repro.transforms.distribute import distribute, distribute_procedure
from repro.transforms.fission import (
    FissionOutcome,
    FissionPiece,
    FissionResult,
    fission_loop,
    fission_procedure,
)
from repro.transforms.fuse import fuse, fuse_procedure, fusion_preventing
from repro.transforms.reduction import (
    ReductionOutcome,
    ReductionResult,
    reduction_procedure,
)
from repro.transforms.interchange import interchange
from repro.transforms.triangular import (
    TriangularResult,
    coalesce_triangular,
    coalesce_triangular_exact,
    coalesce_triangular_guarded,
    guarded_waste,
)
from repro.transforms.stripmine import strip_mine
from repro.transforms.strength import block_recovered_loop
from repro.transforms.pipeline import Pipeline

__all__ = [
    "CoalesceResult",
    "CollapseResult",
    "FissionOutcome",
    "FissionPiece",
    "FissionResult",
    "Pipeline",
    "ReductionOutcome",
    "ReductionResult",
    "TransformError",
    "TriangularResult",
    "block_recovered_loop",
    "coalesce",
    "coalesce_procedure",
    "coalesce_triangular",
    "coalesce_triangular_exact",
    "coalesce_triangular_guarded",
    "guarded_waste",
    "collapse",
    "distribute",
    "distribute_procedure",
    "extract_perfect_nest",
    "fission_loop",
    "fission_procedure",
    "fresh_name",
    "fuse",
    "reduction_procedure",
    "fuse_procedure",
    "fusion_preventing",
    "interchange",
    "normalize_loop",
    "normalize_procedure",
    "pack_linear",
    "recovery_expressions",
    "strip_mine",
    "unpack_linear",
    "used_names",
]
