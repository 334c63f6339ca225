"""Pretty-printer: IR → human-readable source.

Two dialects are supported:

* ``"loop"`` (default) — the Fortran-like mini-language accepted back by
  :mod:`repro.frontend.dsl`, so ``parse(to_source(p)) == p`` round-trips.
* ``"python"`` — readable Python-ish rendering for docs and debugging
  (executable code generation lives in :mod:`repro.codegen.pygen`).
"""

from __future__ import annotations

import math

from repro.ir.expr import ArrayRef, BinOp, Call, Const, Expr, Unary, Var
from repro.ir.stmt import Assign, Block, If, Loop, Procedure, Stmt

# Higher binds tighter.  Comparison < additive < multiplicative.
_PRECEDENCE = {
    "or": 1,
    "and": 2,
    "==": 3,
    "!=": 3,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "floordiv": 5,
    "mod": 5,
    "ceildiv": 5,
}

_FUNC_STYLE = {"min", "max", "floordiv", "ceildiv", "mod"}

_LOOP_OP_TOKEN = {
    "floordiv": "div",
    "ceildiv": "ceildiv",
    "mod": "mod",
}


def const_to_source(value: int | float) -> str:
    """A constant as Python source: non-finite floats have no literal, so
    they are spelled ``float("inf")``, ``float("-inf")``, ``float("nan")``."""
    if isinstance(value, float) and not math.isfinite(value):
        return f'float("{value}")'
    return repr(value)


def expr_to_source(e: Expr, dialect: str = "loop", _parent_prec: int = 0) -> str:
    """Render one expression."""
    if isinstance(e, Const):
        return const_to_source(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, ArrayRef):
        inner = ", ".join(expr_to_source(i, dialect) for i in e.indices)
        if dialect == "python":
            return f"{e.name}[{inner}]"
        return f"{e.name}({inner})"
    if isinstance(e, Call):
        inner = ", ".join(expr_to_source(a, dialect) for a in e.args)
        return f"{e.func}({inner})"
    if isinstance(e, Unary):
        inner = expr_to_source(e.operand, dialect, 6)
        if e.op == "-":
            # A doubled minus would lex as the line-comment marker "--" in
            # the loop dialect (and as a decrement-looking token in C-ish
            # eyes); parenthesize a leading-minus operand.
            if inner.startswith("-"):
                inner = f"({inner})"
            return f"-{inner}"
        return f"not {inner}"
    if isinstance(e, BinOp):
        if e.op in _FUNC_STYLE and dialect == "python":
            if e.op == "floordiv":
                return _infix(e, "//", dialect, _parent_prec)
            if e.op == "mod":
                return _infix(e, "%", dialect, _parent_prec)
            if e.op == "ceildiv":
                lhs = expr_to_source(e.lhs, dialect)
                rhs = expr_to_source(e.rhs, dialect)
                # Fully parenthesized: safe in any surrounding context.
                return f"(-(-({lhs}) // ({rhs})))"
            return (
                f"{e.op}({expr_to_source(e.lhs, dialect)}, "
                f"{expr_to_source(e.rhs, dialect)})"
            )
        if e.op in ("min", "max"):
            return (
                f"{e.op}({expr_to_source(e.lhs, dialect)}, "
                f"{expr_to_source(e.rhs, dialect)})"
            )
        token = e.op
        if dialect == "loop" and e.op in _LOOP_OP_TOKEN:
            token = _LOOP_OP_TOKEN[e.op]
        return _infix(e, token, dialect, _parent_prec)
    raise TypeError(f"cannot print {e!r}")  # pragma: no cover


def _infix(e: BinOp, token: str, dialect: str, parent_prec: int) -> str:
    prec = _PRECEDENCE[e.op]
    lhs = expr_to_source(e.lhs, dialect, prec)
    # Right operand of -, /, div, mod needs parens at equal precedence.
    rhs = expr_to_source(e.rhs, dialect, prec + 1)
    text = f"{lhs} {token} {rhs}"
    if prec < parent_prec:
        return f"({text})"
    return text



def to_source(node: Stmt | Expr, dialect: str = "loop") -> str:
    """Render a statement, procedure, or expression as text."""
    if isinstance(node, Expr):
        return expr_to_source(node, dialect)
    lines: list[str] = []
    _stmt_lines(node, lines, 0, dialect)
    return "\n".join(lines)


def _emit(lines: list[str], depth: int, text: str) -> None:
    lines.append("  " * depth + text)


def _stmt_lines(s: Stmt, lines: list[str], depth: int, dialect: str) -> None:
    if isinstance(s, Procedure):
        arrays = ", ".join(f"{n}[{r}]" for n, r in sorted(s.arrays.items()))
        scalars = ", ".join(s.scalars)
        header = f"procedure {s.name}"
        decls = "; ".join(x for x in (arrays, scalars) if x)
        if decls:
            header += f"({decls})"
        _emit(lines, depth, header)
        _stmt_lines(s.body, lines, depth + 1, dialect)
        _emit(lines, depth, "end")
        return
    if isinstance(s, Block):
        for x in s.stmts:
            _stmt_lines(x, lines, depth, dialect)
        return
    if isinstance(s, Assign):
        tgt = expr_to_source(s.target, dialect)
        val = expr_to_source(s.value, dialect)
        op = "=" if dialect == "python" else ":="
        _emit(lines, depth, f"{tgt} {op} {val}")
        return
    if isinstance(s, If):
        cond = expr_to_source(s.cond, dialect)
        _emit(lines, depth, f"if {cond} then" if dialect == "loop" else f"if {cond}:")
        _stmt_lines(s.then, lines, depth + 1, dialect)
        if len(s.orelse):
            _emit(lines, depth, "else" if dialect == "loop" else "else:")
            _stmt_lines(s.orelse, lines, depth + 1, dialect)
        if dialect == "loop":
            _emit(lines, depth, "end")
        return
    if isinstance(s, Loop):
        kw = "doall" if s.is_doall else "for"
        lo = expr_to_source(s.lower, dialect)
        hi = expr_to_source(s.upper, dialect)
        step = expr_to_source(s.step, dialect)
        rng = f"{s.var} = {lo}, {hi}"
        if not (isinstance(s.step, Const) and s.step.value == 1):
            rng += f", {step}"
        if dialect == "python":
            _emit(lines, depth, f"# {kw}")
            _emit(lines, depth, f"for {s.var} in range({lo}, {hi} + 1, {step}):")
        else:
            _emit(lines, depth, f"{kw} {rng}")
        _stmt_lines(s.body, lines, depth + 1, dialect)
        if dialect == "loop":
            _emit(lines, depth, "end")
        return
    raise TypeError(f"cannot print statement {s!r}")  # pragma: no cover
