"""PDG-driven loop fission: split mixed bodies into serial and DOALL parts.

:mod:`repro.transforms.distribute` splits loops to expose perfect nests
but leaves every piece with the original loop's kind — a mixed serial
loop (one racy statement next to a clean one) distributes into serial
pieces that the mp runtime never dispatches.  Fission closes that gap:

1. build the statement-level PDG (:mod:`repro.analysis.pdg`) over the
   loop body;
2. condense to SCCs and emit them in topological order, one sub-loop
   per component — exactly the pieces
   :func:`repro.transforms.distribute.split_loop` builds (the classic
   legality argument: statements in a dependence cycle must stay in one
   loop; acyclic components may be separated and the topological order
   preserves every cross-component dependence);
3. re-classify each acyclic piece with the DOALL analyser
   (:func:`repro.analysis.doall.classify_loop`) — clean pieces become
   dispatchable DOALL loops, cyclic residues stay serial.

The verifier remains the oracle: every fissioned procedure re-enters
the normal coalesce→verify→dispatch pipeline and
:func:`repro.analysis.safety.verify_procedure` re-proves each piece
before anything is dispatched.  Outcomes surface as lint findings —
``FISS001`` (info: fission applied, pieces listed) and ``FISS002``
(info: fission refused, the blocking SCC and one of its dependence
edges named).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.doall import classify_loop
from repro.analysis.pdg import PDG, PDGEdge, build_pdg
from repro.analysis.safety import SafetyFinding
from repro.ir.stmt import Block, If, Loop, LoopKind, Procedure, Stmt
from repro.transforms.distribute import split_loop

__all__ = [
    "FissionOutcome",
    "FissionPiece",
    "FissionResult",
    "fission_loop",
    "fission_procedure",
]


@dataclass(frozen=True)
class FissionPiece:
    """One emitted sub-loop: its statement indices and final kind."""

    statements: tuple[int, ...]
    kind: str  # "doall" | "serial"


@dataclass(frozen=True)
class FissionOutcome:
    """What happened to one multi-statement serial loop."""

    loop_var: str
    applied: bool
    pieces: tuple[FissionPiece, ...]
    blocking_statements: tuple[int, ...]
    blocking_edge: PDGEdge | None

    def finding(self) -> SafetyFinding:
        if self.applied:
            doall = [p for p in self.pieces if p.kind == "doall"]
            pieces = "; ".join(
                f"[{', '.join(f'S{k}' for k in p.statements)}] -> {p.kind}"
                for p in self.pieces
            )
            src_stmt = dst_stmt = None
            if doall:
                src_stmt = doall[0].statements[0]
                dst_stmt = doall[0].statements[-1]
            return SafetyFinding(
                rule="FISS001",
                severity="info",
                loop_var=self.loop_var,
                message=(
                    f"fission split loop {self.loop_var} into "
                    f"{len(self.pieces)} sub-loops ({len(doall)} DOALL): "
                    f"{pieces}"
                ),
                hint=(
                    "the DOALL pieces dispatch to the worker fleet; only "
                    "the cyclic residue runs serially"
                ),
                src_stmt=src_stmt,
                dst_stmt=dst_stmt,
            )
        edge = self.blocking_edge
        detail = f" ({edge.describe()})" if edge is not None else ""
        members = ", ".join(f"S{k}" for k in self.blocking_statements)
        return SafetyFinding(
            rule="FISS002",
            severity="info",
            loop_var=self.loop_var,
            message=(
                f"fission refused for loop {self.loop_var}: statements "
                f"{{{members}}} form one dependence cycle{detail}"
            ),
            hint=(
                "break the cycle (buffer the overwritten values or "
                "restructure the recurrence) so the clean statements can "
                "be split into their own DOALL loop"
            ),
            src_stmt=edge.src if edge is not None else None,
            dst_stmt=edge.dst if edge is not None else None,
            directions=edge.directions if edge is not None and edge.directions else None,
        )


@dataclass(frozen=True)
class FissionResult:
    """A fissioned procedure plus one outcome per attempted loop."""

    procedure: Procedure
    outcomes: tuple[FissionOutcome, ...]

    @property
    def applied(self) -> int:
        return sum(1 for o in self.outcomes if o.applied)

    @property
    def refused(self) -> int:
        return sum(1 for o in self.outcomes if not o.applied)

    @property
    def findings(self) -> list[SafetyFinding]:
        return [o.finding() for o in self.outcomes]

    def summary(self) -> str:
        return (
            f"fission: {self.applied} loop(s) split, "
            f"{self.refused} refused"
        )


def _pick_blocking_edge(pdg: PDG, component: tuple[int, ...]) -> PDGEdge | None:
    """A representative edge of the cycle: prefer carried array edges."""
    edges = pdg.blocking_edges(component)
    for e in edges:
        if e.kind != "scalar" and e.carried:
            return e
    for e in edges:
        if e.carried:
            return e
    return edges[0] if edges else None


def fission_loop(
    loop: Loop, outer: tuple[Loop, ...] = ()
) -> tuple[list[Loop], FissionOutcome]:
    """Split one serial loop along its PDG's SCC condensation.

    Returns the replacement loops (in legal topological order) and the
    outcome record.  A body that is one big SCC comes back unchanged
    with a refusal outcome naming the blocking component.
    """
    pdg = build_pdg(loop, outer)
    components = pdg.sccs()
    if len(components) == 1:
        comp = components[0]
        return [loop], FissionOutcome(
            loop_var=loop.var,
            applied=False,
            pieces=(FissionPiece(comp, "serial"),),
            blocking_statements=comp,
            blocking_edge=_pick_blocking_edge(pdg, comp),
        )
    out: list[Loop] = []
    pieces: list[FissionPiece] = []
    for comp, piece in zip(components, split_loop(pdg)):
        doall = not pdg.cyclic(comp) and classify_loop(piece, outer)
        kind = LoopKind.DOALL if doall else LoopKind.SERIAL
        out.append(piece.with_kind(kind))
        pieces.append(FissionPiece(comp, "doall" if doall else "serial"))
    return out, FissionOutcome(
        loop_var=loop.var,
        applied=True,
        pieces=tuple(pieces),
        blocking_statements=(),
        blocking_edge=None,
    )


def fission_procedure(proc: Procedure) -> FissionResult:
    """Apply fission to every multi-statement serial loop in ``proc``.

    DOALL loops are left alone (they are already fully parallel and are
    dispatched whole); loops nested inside a DOALL body execute inside
    chunk iterations and are likewise untouched.  Pieces are revisited
    recursively, so a split residue can split again at inner levels.
    """
    outcomes: list[FissionOutcome] = []

    def go(s: Stmt, outer: tuple[Loop, ...]) -> list[Stmt]:
        if isinstance(s, Loop):
            if s.is_doall:
                return [s]
            candidates = [s]
            if len(s.body.stmts) >= 2:
                candidates, outcome = fission_loop(s, outer)
                outcomes.append(outcome)
            result: list[Stmt] = []
            for piece in candidates:
                if piece.is_doall:
                    result.append(piece)
                    continue
                inner: list[Stmt] = []
                for child in piece.body.stmts:
                    inner.extend(go(child, outer + (piece,)))
                result.append(piece.with_body(Block(tuple(inner))))
            return result
        if isinstance(s, If):
            then = Block(
                tuple(x for c in s.then.stmts for x in go(c, outer))
            )
            orelse = Block(
                tuple(x for c in s.orelse.stmts for x in go(c, outer))
            )
            return [If(s.cond, then, orelse)]
        return [s]

    body = Block(tuple(x for s in proc.body.stmts for x in go(s, ())))
    return FissionResult(proc.with_body(body), tuple(outcomes))
