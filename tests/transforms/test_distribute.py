"""Unit tests for loop distribution (fission)."""


from repro.analysis.pdg import build_pdg
from repro.frontend.dsl import parse
from repro.ir import validate
from repro.ir.builder import assign, c, doall, proc, ref, serial, v
from repro.ir.visitor import collect_loops
from repro.runtime.equivalence import assert_equivalent
from repro.transforms.coalesce import coalesce_procedure
from repro.transforms.distribute import distribute, distribute_procedure
from repro.transforms.fission import fission_loop
from repro.workloads import get_workload


def ordered_pairs(lp):
    """(src, dst) statement pairs the PDG orders, self edges left out."""
    return {(e.src, e.dst) for e in build_pdg(lp).edges if e.src != e.dst}


class TestDependenceGraph:
    """The statement graph distribution reads: :func:`build_pdg`."""

    def test_independent_statements_unordered(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), c(2.0)),
        )
        assert not build_pdg(lp).edges

    def test_same_iteration_flow_ordered(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        assert ordered_pairs(lp) == {(0, 1)}

    def test_cross_iteration_backward_creates_cycle(self):
        # S1 reads what S2 wrote in an earlier iteration AND S2 reads S1's
        # same-iteration value: a genuine cycle.
        lp = serial("i", 2, 9)(
            assign(ref("A", v("i")), ref("B", v("i") - 1)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        assert {(0, 1), (1, 0)} <= ordered_pairs(lp)

    def test_shared_scalar_fuses(self):
        lp = doall("i", 1, 9)(
            assign(v("t"), ref("A", v("i"))),
            assign(ref("B", v("i")), v("t")),
        )
        assert {(0, 1), (1, 0)} <= ordered_pairs(lp)


class TestDistribute:
    def test_independent_statements_split(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), c(2.0)),
        )
        pieces = distribute(lp)
        assert len(pieces) == 2
        assert all(len(p.body) == 1 for p in pieces)

    def test_flow_dependent_statements_split_in_order(self):
        lp = doall("i", 1, 9)(
            assign(ref("A", v("i")), c(1.0)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        pieces = distribute(lp)
        assert len(pieces) == 2
        # Producer loop must come first.
        assert pieces[0].body.stmts[0].target.name == "A"

    def test_cycle_stays_together(self):
        lp = serial("i", 2, 9)(
            assign(ref("A", v("i")), ref("B", v("i") - 1)),
            assign(ref("B", v("i")), ref("A", v("i"))),
        )
        assert distribute(lp) == [lp]

    def test_single_statement_unchanged(self):
        lp = doall("i", 1, 9)(assign(ref("A", v("i")), c(1.0)))
        assert distribute(lp) == [lp]

    def test_equivalence_simple_split(self):
        p = proc(
            "p",
            doall("i", 1, 9)(
                assign(ref("A", v("i")), v("i") * 2),
                assign(ref("B", v("i")), ref("A", v("i")) + 1),
            ),
            arrays={"A": 1, "B": 1},
        )
        out = distribute_procedure(p)
        validate(out)
        assert len(collect_loops(out)) == 2
        assert_equivalent(p, out, {"A": (10,), "B": (10,)})


class TestDistributeProcedure:
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

    def test_matmul_split_makes_nests_perfect(self):
        mm = parse(self.MATMUL)
        out = distribute_procedure(mm)
        validate(out)
        # Top level now has two (i, j) nests.
        assert len(out.body) == 2
        assert_equivalent(mm, out, {k: (7, 7) for k in "ABC"}, {"n": 6})

    def test_matmul_distribute_then_coalesce_both_nests(self):
        mm = parse(self.MATMUL)
        out = distribute_procedure(mm)
        coalesced, results = coalesce_procedure(out)
        assert len(results) == 2
        validate(coalesced)
        assert_equivalent(mm, coalesced, {k: (7, 7) for k in "ABC"}, {"n": 6})

    def test_recurrence_not_split_incorrectly(self):
        p = parse(
            """
            procedure rec(A[1], B[1]; n)
              for i = 2, n
                A(i) := B(i - 1) + 1.0
                B(i) := A(i) * 2.0
              end
            end
            """
        )
        out = distribute_procedure(p)
        validate(out)
        assert_equivalent(p, out, {"A": (20,), "B": (20,)}, {"n": 19})

    def test_fixed_point_is_stable(self):
        mm = parse(self.MATMUL)
        once = distribute_procedure(mm)
        twice = distribute_procedure(once)
        assert once == twice

    def test_statements_inside_if(self):
        p = proc(
            "p",
            doall("i", 1, 6)(
                assign(ref("A", v("i")), c(1.0)),
            ),
            serial("t", 1, 2)(
                assign(ref("A", v("t")), c(0.0)),
                assign(ref("B", v("t")), c(0.0)),
            ),
            arrays={"A": 1, "B": 1},
        )
        out = distribute_procedure(p)
        validate(out)
        assert_equivalent(p, out, {"A": (8,), "B": (8,)})

    def test_anti_dependence_order_preserved(self):
        # S1 reads A(i+1) which S2 writes: S1 must run before S2 for the
        # same element — distribution must keep S1's loop first.
        p = proc(
            "anti",
            serial("i", 1, 8)(
                assign(ref("B", v("i")), ref("A", v("i") + 1)),
                assign(ref("A", v("i")), c(0.0)),
            ),
            arrays={"A": 1, "B": 1},
        )
        out = distribute_procedure(p)
        validate(out)
        assert_equivalent(p, out, {"A": (10,), "B": (10,)})


class TestTextualOrder:
    """Independent pieces come out in textual order; only a dependence
    reorders them (``PDG.sccs`` tie-break), in distribution and fission
    alike."""

    @staticmethod
    def first_statements(pieces):
        return [p.body.stmts[0] for p in pieces]

    def test_mixed_update_keeps_textual_order(self):
        loop = get_workload("mixed_update").proc.body.stmts[0]
        stmts = list(loop.body.stmts)
        assert self.first_statements(distribute(loop)) == stmts
        pieces, outcome = fission_loop(loop)
        assert self.first_statements(pieces) == stmts
        assert [p.statements for p in outcome.pieces] == [(0,), (1,)]
        assert [p.kind for p in outcome.pieces] == ["doall", "serial"]

    def test_only_a_dependence_reorders(self):
        # S1 feeds S0 across iterations (S0 reads B(i-1)), so S1's loop
        # must run first; S2 is independent and stays after S0.
        loop = serial("i", 2, 9)(
            assign(ref("A", v("i")), ref("B", v("i") - 1)),
            assign(ref("B", v("i")), ref("C", v("i"))),
            assign(ref("D", v("i")), c(1.0)),
        )
        s0, s1, s2 = loop.body.stmts
        assert self.first_statements(distribute(loop)) == [s1, s0, s2]
        pieces, _ = fission_loop(loop)
        assert self.first_statements(pieces) == [s1, s0, s2]
        assert_equivalent(
            proc("p", loop, arrays=dict.fromkeys("ABCD", 1)),
            proc("p", *distribute(loop), arrays=dict.fromkeys("ABCD", 1)),
            {k: (10,) for k in "ABCD"},
        )
