"""Property tests over randomly generated loop nests.

A hypothesis strategy builds arbitrary rectangular DOALL nests — varying
depth, extents, lower bounds, steps, body statements, and affine subscript
offsets — and every transformation in the library must preserve program
results on them.  This is the widest net the suite casts.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import assume, given, settings

from repro.ir.builder import assign, block, ref, serial
from repro.ir.expr import BinOp, Const, Expr, Var
from repro.ir.stmt import Block, Loop, LoopKind, Procedure
from repro.ir.validate import validate
from repro.runtime.equivalence import assert_equivalent
from repro.transforms import (
    block_recovered_loop,
    coalesce,
    coalesce_procedure,
    distribute_procedure,
    fuse,
    fusion_preventing,
    strip_mine,
)
from repro.transforms.normalize import normalize_procedure

MAX_DEPTH = 3
MAX_EXTENT = 4
PAD = 8  # array slack so offset subscripts stay in bounds


@st.composite
def random_nests(draw) -> tuple[Procedure, dict[str, tuple[int, ...]]]:
    """A procedure holding one rectangular DOALL nest with affine bodies."""
    depth = draw(st.integers(1, MAX_DEPTH))
    extents = [draw(st.integers(1, MAX_EXTENT)) for _ in range(depth)]
    lowers = [draw(st.integers(0, 2)) for _ in range(depth)]
    steps = [draw(st.integers(1, 2)) for _ in range(depth)]
    index_names = [f"i{k}" for k in range(depth)]

    def subscript(k: int) -> Expr:
        off = draw(st.integers(0, 2))
        e: Expr = Var(index_names[k])
        if off:
            e = BinOp("+", e, Const(off))
        return e

    def value_expr() -> Expr:
        # linear marker over the indices, optionally plus a load of U
        e: Expr = Const(draw(st.integers(1, 5)))
        for k in range(depth):
            e = BinOp(
                "+",
                e,
                BinOp("*", Const(draw(st.integers(1, 7))), Var(index_names[k])),
            )
        if draw(st.booleans()):
            e = BinOp(
                "+", e, ref("U", *[subscript(k) for k in range(depth)])
            )
        return e

    n_stmts = draw(st.integers(1, 3))
    stmts = [
        assign(ref("T", *[subscript(k) for k in range(depth)]), value_expr())
        for _ in range(n_stmts)
    ]

    body: Block = Block(tuple(stmts))
    for k in range(depth - 1, -1, -1):
        lo = lowers[k]
        hi = lo + (extents[k] - 1) * steps[k]
        body = Block(
            (
                Loop(
                    index_names[k],
                    Const(lo),
                    Const(hi),
                    body,
                    Const(steps[k]),
                    LoopKind.DOALL,
                ),
            )
        )

    p = Procedure("rand", body, {"T": depth, "U": depth}, ())
    # Max index per axis: lo + (extent-1)*step + offset(≤2); PAD covers it.
    sizes = {
        "T": tuple(lo + (n - 1) * s + PAD for lo, n, s in zip(lowers, extents, steps)),
        "U": tuple(lo + (n - 1) * s + PAD for lo, n, s in zip(lowers, extents, steps)),
    }
    validate(p)
    return p, sizes


@given(data=random_nests(), style=st.sampled_from(["ceiling", "divmod"]),
       seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_property_coalesce_any_nest(data, style, seed):
    p, sizes = data
    loop = p.body.stmts[0]
    result = coalesce(loop, style=style, auto_normalize=True)
    p2 = p.with_body(block(result.loop))
    validate(p2)
    assert_equivalent(p, p2, sizes, seed=seed)


@given(data=random_nests(), block_size=st.integers(1, 9),
       seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_block_recovery_any_nest(data, block_size, seed):
    p, sizes = data
    loop = p.body.stmts[0]
    result = coalesce(loop, auto_normalize=True)
    sr = block_recovered_loop(result, block_size)
    p2 = p.with_body(block(sr))
    validate(p2)
    assert_equivalent(p, p2, sizes, seed=seed)


@given(data=random_nests(), block_size=st.integers(1, 9),
       seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_coalesce_then_stripmine(data, block_size, seed):
    p, sizes = data
    loop = p.body.stmts[0]
    result = coalesce(loop, auto_normalize=True)
    sm = strip_mine(result.loop, block_size)
    p2 = p.with_body(block(sm))
    validate(p2)
    assert_equivalent(p, p2, sizes, seed=seed)


@given(data=random_nests(), seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_distribute_then_coalesce(data, seed):
    p, sizes = data
    p_norm = normalize_procedure(p)
    distributed = distribute_procedure(p_norm)
    validate(distributed)
    assert_equivalent(p, distributed, sizes, seed=seed)
    coalesced, _ = coalesce_procedure(distributed)
    validate(coalesced)
    assert_equivalent(p, coalesced, sizes, seed=seed)


@given(data=random_nests(), seed=st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_property_codegen_matches_interpreter(data, seed):
    from repro.codegen import compile_procedure
    from repro.runtime.equivalence import copy_env, random_env
    from repro.runtime.interp import run

    p, sizes = data
    env = random_env(p, sizes, seed=seed)
    e1, e2 = copy_env(env), copy_env(env)
    run(p, e1)
    compile_procedure(p).run(e2)
    for name in p.arrays:
        assert np.array_equal(e1[name], e2[name])


FUSE_EXTENT = 12  # 1-based loop 3..n+2 (n ≤ 6) with offsets in [-2, 2]


@st.composite
def loop_pairs(draw) -> tuple[Loop, Loop]:
    """Two adjacent conformable loops over shared arrays.

    Bodies mix shifted 1-D accesses (so either dependence direction can
    cross the loops), a private temporary ``t``, the parameter scalar
    ``s`` read or accumulated, and an inner serial ``k`` loop over 2-D
    arrays.
    """
    kind = draw(st.sampled_from([LoopKind.DOALL, LoopKind.SERIAL]))
    upper = Const(draw(st.integers(1, 6)) + 2)

    def body(var: str) -> Block:
        def sub() -> Expr:
            off = draw(st.integers(-2, 2))
            return BinOp("+", Var(var), Const(off)) if off else Var(var)

        def vec() -> str:
            return draw(st.sampled_from("XYZ"))

        stmts = []
        for _ in range(draw(st.integers(1, 3))):
            shape = draw(st.sampled_from(["array", "temp", "scalar", "inner"]))
            if shape == "array":
                stmts.append(
                    assign(ref(vec(), sub()), BinOp("+", ref(vec(), sub()), Const(1)))
                )
            elif shape == "temp":
                stmts.append(assign(Var("t"), ref(vec(), sub())))
                stmts.append(assign(ref(vec(), sub()), BinOp("*", Var("t"), Const(2))))
            elif shape == "scalar" and draw(st.booleans()):
                stmts.append(assign(ref(vec(), sub()), Var("s")))
            elif shape == "scalar":
                stmts.append(assign(Var("s"), BinOp("+", Var("s"), ref(vec(), sub()))))
            else:
                k = Var("k")
                shifted = BinOp("+", k, Const(1)) if draw(st.booleans()) else k
                mat = draw(st.sampled_from("PQ"))
                src = draw(st.sampled_from("PQ"))
                stmts.append(
                    serial("k", 1, 3)(
                        assign(ref(mat, sub(), k), BinOp("+", ref(src, sub(), shifted), Const(1)))
                    )
                )
        return Block(tuple(stmts))

    second_var = draw(st.sampled_from(["i", "i2"]))
    first = Loop("i", Const(3), upper, body("i"), Const(1), kind)
    second = Loop(second_var, Const(3), upper, body(second_var), Const(1), kind)
    return first, second


@given(pair=loop_pairs(), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_property_legal_fusion_preserves_results(pair, seed):
    first, second = pair
    assume(not fusion_preventing(first, second))
    arrays = {"X": 1, "Y": 1, "Z": 1, "P": 2, "Q": 2}
    sizes = {name: (FUSE_EXTENT,) for name in "XYZ"}
    sizes |= {name: (FUSE_EXTENT, 5) for name in "PQ"}
    sequence = Procedure("pair", Block((first, second)), arrays, ("s",))
    fused = sequence.with_body(Block((fuse(first, second),)))
    validate(sequence)
    validate(fused)
    assert_equivalent(sequence, fused, sizes, {"s": 1.5}, seed=seed)
