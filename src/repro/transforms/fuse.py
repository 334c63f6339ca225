"""Loop fusion (jamming): merge adjacent conformable loops.

The paper's efficiency analysis wants *large* loop bodies — overhead per
iteration is amortized over the body size.  Fusion is the transformation
that buys body size: two adjacent loops with identical headers become one
loop running both bodies per iteration.  In this library it is the natural
post-pass after ``distribute → coalesce``: distribution splits an imperfect
nest so each piece can coalesce, and fusion can then merge coalesced loops
whose flat spaces match (the matmul init + reduction loops, for instance),
restoring a single fork/join for the whole computation.

Legality (classic): in the unfused code every iteration of the first loop
precedes every iteration of the second, so all cross-loop dependences point
first → second.  After fusion, instance i of the first body precedes
instance i′ of the second iff i ≤ i′; a dependence needing i > i′ (a
feasible ``>`` direction between the aligned index variables) is
*fusion-preventing*.  The test builds the PDG of the candidate fused loop
(:func:`repro.analysis.pdg.build_pdg`), where such a dependence is a
carried edge from a second-body statement to a first-body one.  Written
scalars with an upward-exposed use on either side are rejected
conservatively.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.doall import upward_exposed_scalars
from repro.analysis.pdg import build_pdg, scalar_reads, scalar_writes
from repro.ir.expr import Expr, Var
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt
from repro.ir.visitor import transform_exprs
from repro.transforms.base import TransformError


def _headers_conformable(a: Loop, b: Loop) -> bool:
    return (
        a.lower == b.lower
        and a.upper == b.upper
        and a.step == b.step
        and a.kind == b.kind
    )


def _rename_induction(body: Block, old: str, new: str) -> Block:
    """Rename the induction variable uses in a loop body."""
    if old == new:
        return body

    def fn(e: Expr) -> Expr:
        if isinstance(e, Var) and e.name == old:
            return Var(new)
        return e

    out = transform_exprs(body, fn)
    assert isinstance(out, Block)
    return out


def _fused(first: Loop, second: Loop) -> Loop:
    """``first``'s header over ``first``'s body then ``second``'s, the
    latter renamed to ``first``'s induction variable."""
    renamed = _rename_induction(second.body, second.var, first.var)
    return first.with_body(Block(first.body.stmts + renamed.stmts))


def fusion_preventing(first: Loop, second: Loop, outer: Sequence[Loop] = ()) -> bool:
    """True when some dependence forbids fusing ``first`` with ``second``.

    Assumes conformable headers.  Read off the PDG of the candidate fused
    loop: fusion is prevented by a carried array dependence running from a
    statement of ``second`` back to one of ``first``.
    """
    # Scalars: a written scalar vetoes fusion only when some use of it is
    # *upward-exposed* (read before any same-iteration write) — then its
    # value flows between loop instances with no per-iteration alignment.
    # Private temporaries (defined before use in their own body, like the
    # index-recovery scalars coalescing emits) are harmless.
    e1, _ = upward_exposed_scalars(first.body)
    e2, _ = upward_exposed_scalars(second.body)
    w1 = scalar_writes(first.body) - {first.var}
    w2 = scalar_writes(second.body) - {second.var}
    exposed = (e1 | e2) - {first.var, second.var}
    if (w1 | w2) & exposed:
        return True

    n_first = len(first.body.stmts)
    return any(
        e.carried and e.kind != "scalar" and e.src >= n_first > e.dst
        for e in build_pdg(_fused(first, second), outer).edges
    )


def fuse(first: Loop, second: Loop, outer: Sequence[Loop] = ()) -> Loop:
    """Fuse two adjacent conformable loops into one.

    The fused loop keeps ``first``'s induction variable; ``second``'s body
    is renamed accordingly and appended.
    """
    if not _headers_conformable(first, second):
        raise TransformError(
            "cannot fuse: loop headers differ (bounds, step, or kind)"
        )
    if fusion_preventing(first, second, outer):
        raise TransformError(
            "cannot fuse: a dependence would be reversed (or scalars are "
            "shared across the loops)"
        )
    if second.var != first.var and first.var in (
        scalar_writes(second.body) | scalar_reads(second.body)
    ):
        raise TransformError(
            f"cannot fuse: renaming {second.var!r} to {first.var!r} would "
            f"capture an existing use of {first.var!r} in the second body"
        )
    return _fused(first, second)


def fuse_procedure(proc: Procedure, max_rounds: int = 4) -> Procedure:
    """Greedily fuse adjacent fusable loops everywhere, to a fixed point."""

    def fuse_block(stmts: tuple[Stmt, ...], outer: tuple[Loop, ...]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for s in stmts:
            s = descend(s, outer)
            if (
                out
                and isinstance(out[-1], Loop)
                and isinstance(s, Loop)
                and _headers_conformable(out[-1], s)
                and not fusion_preventing(out[-1], s, outer)
            ):
                out[-1] = fuse(out[-1], s, outer)
            else:
                out.append(s)
        return tuple(out)

    def descend(s: Stmt, outer: tuple[Loop, ...]) -> Stmt:
        if isinstance(s, Loop):
            body = Block(fuse_block(s.body.stmts, outer + (s,)))
            return s.with_body(body)
        if isinstance(s, If):
            return If(
                s.cond,
                Block(fuse_block(s.then.stmts, outer)),
                Block(fuse_block(s.orelse.stmts, outer)),
            )
        return s

    current = proc
    for _ in range(max_rounds):
        nxt = current.with_body(Block(fuse_block(current.body.stmts, ())))
        if nxt == current:
            return nxt
        current = nxt
    return current
