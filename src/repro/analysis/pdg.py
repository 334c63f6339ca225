"""Statement-level program dependence graph (PDG) with SCC condensation.

The verifier (:mod:`repro.analysis.safety`) judges a dispatch as a whole;
this module looks *inside* a loop body, one top-level statement at a
time, so the transform layer can stop treating partially-parallel loops
as all-or-nothing:

* **nodes** are the top-level statements of one loop body (index = the
  statement's position in ``loop.body.stmts``);
* **edges** are typed dependences — ``flow`` (write then read), ``anti``
  (read then overwrite), ``output`` (write then write) from the
  Banerjee/direction-vector machinery of
  :mod:`repro.analysis.dependence`, plus conservative ``scalar`` def-use
  edges (a scalar is one memory cell, so any shared touch with a write
  orders two statements both ways);
* each array edge carries its **direction vector** (outer loops first,
  the analyzed loop last, then any shared inner loops) and a
  ``carried`` bit: carried edges cross iterations of the analyzed loop,
  loop-independent edges order statements within one iteration.

Edges are oriented source-executes-before-sink.  For a statement pair
``(a, b)`` a dependence exists a→b when the direction at the analyzed
loop's level is ``<`` (an earlier iteration of *a* reaches a later
iteration of *b*) or ``=`` with *a* textually before *b*; ``>``
directions are covered by enumerating the reversed ordered pair.  Self
edges (``a == b``, carried) are kept: a statement in a dependence cycle
with itself must stay serial, and the SCC condensation below treats such
a singleton as cyclic.

On top of the graph: the SCC condensation in topological order, ties
broken by textual position — the legality skeleton for both loop
distribution (:mod:`repro.transforms.distribute`) and fission
(:mod:`repro.transforms.fission`).  Fusion legality
(:mod:`repro.transforms.fuse`) is a query on the PDG of the candidate
fused loop.

This module also hosts **reduction recognition** shared by the safety
verifier, the transform layer, and the mp runtime: ``s := s ⊕ expr``
(``⊕`` one of ``+ * min max``, optionally under a guard that does not
read ``s``) is the idiom the runtime can execute as per-chunk partial
accumulators with a deterministic ordered combine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.dependence import DependenceTester, LoopInfo
from repro.analysis.doall import AccessInfo, collect_accesses
from repro.ir.expr import BinOp, Const, Expr, Var
from repro.ir.stmt import Assign, Block, If, Loop, Stmt
from repro.ir.visitor import walk_exprs, walk_stmts

__all__ = [
    "PDG",
    "PDGEdge",
    "REDUCTION_IDENTITY",
    "Reduction",
    "build_pdg",
    "recognize_reduction",
    "scalar_reads",
    "scalar_writes",
]


@dataclass(frozen=True)
class PDGEdge:
    """One dependence between two top-level statements of a loop body.

    ``src`` executes (some instance) before ``dst``.  ``directions`` is
    the feasible direction vector for array edges — positions cover the
    outer serial loops, then the analyzed loop, then shared inner loops
    — and empty for scalar edges (always conservative, always ordered
    both ways).  ``carried`` marks edges that cross iterations of the
    analyzed loop; loop-independent edges merely order statements inside
    one iteration and never force two statements into one loop.
    """

    src: int
    dst: int
    kind: str  # "flow" | "anti" | "output" | "scalar"
    var: str  # array or scalar name carrying the dependence
    directions: tuple[str, ...]
    carried: bool

    def describe(self) -> str:
        span = (
            f" at directions ({', '.join(self.directions)})"
            if self.directions
            else ""
        )
        flavor = "carried" if self.carried else "loop-independent"
        return (
            f"S{self.src} -> S{self.dst}: {flavor} {self.kind} "
            f"dependence on '{self.var}'{span}"
        )


@dataclass(frozen=True)
class PDG:
    """The dependence graph over one loop body's top-level statements."""

    loop: Loop
    stmts: tuple[Stmt, ...]
    edges: tuple[PDGEdge, ...]

    def successors(self, node: int) -> list[int]:
        return sorted({e.dst for e in self.edges if e.src == node})

    def edges_between(self, src: int, dst: int) -> list[PDGEdge]:
        return [e for e in self.edges if e.src == src and e.dst == dst]

    def has_self_cycle(self, node: int) -> bool:
        return any(
            e.src == node and e.dst == node and e.carried
            for e in self.edges
        )

    def sccs(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components in topological order.

        Among components whose predecessors are all placed, the one
        holding the lowest statement index goes first, so statements keep
        their textual order unless a dependence forces otherwise.  Carried
        and loop-independent edges both count: a loop-independent cycle
        (mutual scalar touches in one iteration) still pins statements
        together.
        """
        n = len(self.stmts)
        reach: list[set[int]] = [set() for _ in range(n)]
        for e in self.edges:
            reach[e.src].add(e.dst)
        for k in range(n):  # Warshall's transitive closure
            for row in reach:
                if k in row:
                    row |= reach[k]
        # Each statement's component is named by its lowest member.
        root = [
            min([a] + [b for b in reach[a] if a in reach[b]])
            for a in range(n)
        ]
        preds: dict[int, set[int]] = {r: set() for r in root}
        for e in self.edges:
            if root[e.src] != root[e.dst]:
                preds[root[e.dst]].add(root[e.src])
        out: list[tuple[int, ...]] = []
        while preds:
            ready = min(r for r, before in preds.items() if not before)
            del preds[ready]
            for before in preds.values():
                before.discard(ready)
            out.append(tuple(a for a in range(n) if root[a] == ready))
        return tuple(out)

    def cyclic(self, component: tuple[int, ...]) -> bool:
        """Must this component stay inside one (serial) loop?

        True for multi-statement components and for singletons with a
        carried self dependence.
        """
        if len(component) > 1:
            return True
        return self.has_self_cycle(component[0])

    def blocking_edges(
        self, component: tuple[int, ...]
    ) -> list[PDGEdge]:
        """The edges that make ``component`` cyclic (internal edges)."""
        members = set(component)
        return [
            e
            for e in self.edges
            if e.src in members
            and e.dst in members
            and (len(members) > 1 or e.carried)
        ]

    def to_dict(self) -> dict[str, object]:
        return {
            "loop": self.loop.var,
            "statements": len(self.stmts),
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "kind": e.kind,
                    "var": e.var,
                    "directions": list(e.directions),
                    "carried": e.carried,
                }
                for e in self.edges
            ],
            "sccs": [list(c) for c in self.sccs()],
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def scalar_reads(s: Stmt) -> set[str]:
    """Scalar names read in ``s``, excluding loops' own induction vars."""
    bound = {lp.var for lp in walk_stmts(s) if isinstance(lp, Loop)}
    return {
        e.name for e in walk_exprs(s) if isinstance(e, Var)
    } - bound


def scalar_writes(s: Stmt) -> set[str]:
    """Scalar names assigned anywhere in ``s``."""
    return {
        sub.target.name
        for sub in walk_stmts(s)
        if isinstance(sub, Assign) and isinstance(sub.target, Var)
    }


def _dep_kind(src_write: bool, sink_write: bool) -> str:
    if src_write and sink_write:
        return "output"
    return "flow" if src_write else "anti"


def _common_prefix(a: tuple[Loop, ...], b: tuple[Loop, ...]) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] is b[k]:
        k += 1
    return k


def _array_edges(
    a: int,
    b: int,
    acc_a: Sequence[AccessInfo],
    acc_b: Sequence[AccessInfo],
    loop: Loop,
    outer: Sequence[Loop],
) -> list[PDGEdge]:
    """Typed dependence edges a→b via array elements.

    Keeps a vector when statement *a*'s access can precede statement
    *b*'s: direction ``<`` at the analyzed loop's level (carried), or
    ``=`` with *a* textually before *b* (loop independent).  Outer
    serial loops are pinned ``=`` — a dispatch happens within one outer
    iteration.
    """
    level = len(outer)
    edges: list[PDGEdge] = []
    seen: set[tuple[str, str, tuple[str, ...], bool]] = set()
    textual_forward = a < b
    for src in acc_a:
        for sink in acc_b:
            if src.ref.name != sink.ref.name:
                continue
            if not (src.is_write or sink.is_write):
                continue
            k = _common_prefix(src.inner_chain, sink.inner_chain)
            common = list(outer) + [loop] + list(src.inner_chain[:k])
            tester = DependenceTester(
                [LoopInfo.of(lp) for lp in common],
                [LoopInfo.of(lp) for lp in src.inner_chain[k:]],
                [LoopInfo.of(lp) for lp in sink.inner_chain[k:]],
            )
            for directions in tester.feasible_directions(src.ref, sink.ref):
                if any(d != "=" for d in directions[:level]):
                    continue  # a different outer iteration
                d = directions[level]
                if d == ">":
                    continue  # covered by the reversed ordered pair
                carried = d == "<"
                if not carried and not textual_forward:
                    continue  # same iteration, b executes first
                if not carried and a == b:
                    continue  # one statement instance: no ordering
                kind = _dep_kind(src.is_write, sink.is_write)
                key = (kind, src.ref.name, directions, carried)
                if key in seen:
                    continue
                seen.add(key)
                edges.append(
                    PDGEdge(a, b, kind, src.ref.name, directions, carried)
                )
    return edges


def build_pdg(loop: Loop, outer: Sequence[Loop] = ()) -> PDG:
    """The PDG over ``loop``'s top-level body statements.

    ``outer`` is the chain of loops enclosing ``loop``; their indices
    are held equal on both sides of every tested pair (the transform
    layer splits one loop at a time, in place).
    """
    stmts = tuple(loop.body.stmts)
    accesses = [collect_accesses(Block((s,))) for s in stmts]
    reads = [scalar_reads(s) for s in stmts]
    writes = [scalar_writes(s) for s in stmts]
    bound = {loop.var} | {lp.var for lp in outer}

    edges: list[PDGEdge] = []
    for a in range(len(stmts)):
        for b in range(len(stmts)):
            edges.extend(
                _array_edges(a, b, accesses[a], accesses[b], loop, outer)
            )
            # Scalars: one memory cell — any shared touch with at least
            # one write orders the statements both ways across
            # iterations (conservative; induction variables excluded).
            if a == b:
                continue
            shared = (
                (writes[a] & ((reads[b] | writes[b]) - bound))
                | (writes[b] & (reads[a] - bound))
            )
            for name in sorted(shared):
                edges.append(PDGEdge(a, b, "scalar", name, (), True))
    # Scalar self edges: a statement that reads a scalar it also writes
    # (``s := s + …``) carries a value into its own next iteration.
    for k in range(len(stmts)):
        for name in sorted((writes[k] & reads[k]) - bound):
            edges.append(PDGEdge(k, k, "scalar", name, (), True))
    return PDG(loop, stmts, tuple(edges))


# ---------------------------------------------------------------------------
# reduction recognition
# ---------------------------------------------------------------------------

#: Identity element per reduction operator (float arithmetic).
REDUCTION_IDENTITY: dict[str, float] = {
    "+": 0.0,
    "*": 1.0,
    "min": float("inf"),
    "max": float("-inf"),
}


@dataclass(frozen=True)
class Reduction:
    """A recognized ``s := s ⊕ expr`` accumulation loop.

    ``update`` is the ⊕-contribution of one iteration (the non-``s``
    operand), ``guard`` the optional dominating condition (``None`` for
    an unguarded body).  The runtime executes the loop as per-chunk
    partial accumulators seeded with :data:`REDUCTION_IDENTITY` and
    folds the partials in ascending chunk order seeded with the
    incoming scalar — deterministic for a fixed trip count, and exact
    (bit-identical to serial) whenever ⊕ is exact on the data
    (``min``/``max`` always; float ``+``/``*`` on integer-valued data).
    """

    scalar: str
    op: str  # "+" | "*" | "min" | "max"
    update: Expr
    guard: Expr | None

    @property
    def identity(self) -> float:
        return REDUCTION_IDENTITY[self.op]


def _reads_scalar(e: Expr, name: str) -> bool:
    return any(
        isinstance(sub, Var) and sub.name == name for sub in walk_exprs(e)
    )


def recognize_reduction(loop: Loop) -> Reduction | None:
    """Match ``loop`` against the reduction idiom, or return ``None``.

    The body must be exactly one assignment — optionally wrapped in one
    ``If`` with an empty else branch whose condition does not read the
    accumulator — of the form ``s := s ⊕ e`` or ``s := e ⊕ s`` with
    ``⊕`` in ``+ * min max`` and ``e`` free of ``s``.  Anything else
    (a second statement reading ``s``, a non-commutative operator, a
    guard on ``s``) is not a reduction the ordered combine can honor,
    and the loop keeps its serial verdict.
    """
    stmts = list(loop.body.stmts)
    guard: Expr | None = None
    if len(stmts) == 1 and isinstance(stmts[0], If):
        cond = stmts[0]
        if len(cond.orelse) != 0:
            return None
        guard = cond.cond
        stmts = list(cond.then.stmts)
    if len(stmts) != 1 or not isinstance(stmts[0], Assign):
        return None
    assign = stmts[0]
    if not isinstance(assign.target, Var):
        return None
    name = assign.target.name
    if name == loop.var:
        return None
    value = assign.value
    if not isinstance(value, BinOp) or value.op not in REDUCTION_IDENTITY:
        return None
    lhs_is_s = isinstance(value.lhs, Var) and value.lhs.name == name
    rhs_is_s = isinstance(value.rhs, Var) and value.rhs.name == name
    if lhs_is_s == rhs_is_s:  # neither side, or s ⊕ s
        return None
    update = value.rhs if lhs_is_s else value.lhs
    if _reads_scalar(update, name):
        return None
    if guard is not None and _reads_scalar(guard, name):
        return None
    # The loop's step must be the unit constant the runtime strip-mines.
    if not (isinstance(loop.step, Const) and loop.step.value == 1):
        return None
    return Reduction(scalar=name, op=value.op, update=update, guard=guard)
