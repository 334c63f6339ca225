"""Loop distribution (fission): split a loop over its body statements.

Coalescing needs *perfect* nests; real bodies often carry a prologue
statement next to an inner loop (`C(i,j) := 0` before the k-reduction, say).
Distribution rewrites::

    for i: { S1; S2 }   ⇒   for i: { S1 } ; for i: { S2 }

whenever the statement-level dependence structure allows, turning imperfect
nests into sequences of perfect ones that coalescing can then attack.

Legality (classic) is read off the statement-level dependence graph
(:func:`repro.analysis.pdg.build_pdg`): statements in one strongly
connected component must remain in one loop, and the components are
emitted in topological order, independent ones in textual order.  Every
piece keeps the original loop's header and kind;
:mod:`repro.transforms.fission` builds the same pieces and re-classifies
them.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.pdg import PDG, build_pdg
from repro.ir.stmt import Block, If, Loop, Procedure, Stmt


def split_loop(pdg: PDG) -> list[Loop]:
    """One copy of ``pdg.loop`` per dependence SCC, in ``pdg.sccs()`` order,
    each holding that component's statements."""
    return [
        pdg.loop.with_body(Block(tuple(pdg.stmts[k] for k in comp)))
        for comp in pdg.sccs()
    ]


def distribute(loop: Loop, outer: Sequence[Loop] = ()) -> list[Loop]:
    """Split ``loop`` into a sequence of loops, one per dependence SCC.

    Returns the replacement loops in a legal execution order.  A body that
    cannot be split (single statement, or one big SCC) comes back as
    ``[loop]`` unchanged.
    """
    if len(loop.body.stmts) < 2:
        return [loop]
    pieces = split_loop(build_pdg(loop, outer))
    return pieces if len(pieces) > 1 else [loop]


def distribute_procedure(proc: Procedure, max_rounds: int = 4) -> Procedure:
    """Apply distribution everywhere, repeatedly, until a fixed point.

    Distribution exposes perfect nests for :func:`repro.transforms.coalesce.
    coalesce_procedure`; run it first in a pipeline.  ``max_rounds`` bounds
    the (already-terminating) iteration as a safety net.
    """

    def go(s: Stmt, outer: tuple[Loop, ...]) -> list[Stmt]:
        if isinstance(s, Loop):
            pieces = distribute(s, outer)
            result: list[Stmt] = []
            for piece in pieces:
                inner_stmts: list[Stmt] = []
                for child in piece.body.stmts:
                    inner_stmts.extend(go(child, outer + (piece,)))
                result.append(piece.with_body(Block(tuple(inner_stmts))))
            return result
        if isinstance(s, If):
            then = Block(tuple(x for c in s.then.stmts for x in go(c, outer)))
            orelse = Block(
                tuple(x for c in s.orelse.stmts for x in go(c, outer))
            )
            return [If(s.cond, then, orelse)]
        return [s]

    current = proc
    for _ in range(max_rounds):
        new_body = Block(
            tuple(x for s in current.body.stmts for x in go(s, ()))
        )
        nxt = current.with_body(new_body)
        if nxt == current:
            return nxt
        current = nxt
    return current
