"""Tree-free symbolic differentiation of flat expressions in both notations.

Subexpressions are addressed as index spans of the host token array; the
derivative is emitted directly into flat output buffers, so no tree or node
structure ever exists.  Identity rewrites (0*e -> 0, e^1 -> e, ...) are
applied while emitting, which keeps trivial factors from the chain and product
rules out of the output.  :func:`simplify` reuses the same rewrites and adds
constant folding of all-literal subexpressions for display.

Every token emitted by differentiation is either copied from the input span or
taken from a module-level table, so differentiating allocates no new Token
objects at all.

The initial-condition feature ``I`` has two derivative readings.  Under
``"analytic"`` (the default) it is the Gaussian it stands for, so ``I``
differentiates into its stored family ``I_x``, ``I_xx``, ...  Under
``"data"`` it is an input column like any literal: every member of the
family has zero derivative with respect to x, y and t.
"""

from __future__ import annotations

import math
from typing import Sequence

from .evaluate import scalar_binary, scalar_unary
from .expr import (
    BINARY_TOKENS,
    Expr,
    IC_X,
    IC_XX,
    IC_XY,
    IC_Y,
    IC_YY,
    Notation,
    ONE,
    TWO,
    Token,
    TokenKind,
    UNARY_TOKENS,
    ZERO,
    literal_token,
    make_expr,
)


class DerivativeOrderError(ValueError):
    """Initial-condition derivatives are stored only up to total order 2."""


_IC_STEP_X = {(0, 0): IC_X, (1, 0): IC_XX, (0, 1): IC_XY}
_IC_STEP_Y = {(0, 0): IC_Y, (0, 1): IC_YY, (1, 0): IC_XY}

Chunk = list  # list[Token]; flat buffer holding one complete subexpression


def _is_lit(chunk: Chunk, value: float) -> bool:
    return (
        len(chunk) == 1
        and chunk[0].kind is TokenKind.LITERAL
        and chunk[0].value == value
    )


class _Emit:
    """Notation-aware chunk combinators applying the in-situ identity rules."""

    def __init__(self, notation: Notation):
        self.postfix = notation is Notation.POSTFIX

    def _bin(self, op: str, a: Chunk, b: Chunk) -> Chunk:
        tok = BINARY_TOKENS[op]
        if self.postfix:
            return a + b + [tok]
        return [tok] + a + b

    def _un(self, op: str, a: Chunk) -> Chunk:
        tok = UNARY_TOKENS[op]
        if self.postfix:
            return a + [tok]
        return [tok] + a

    def add(self, a: Chunk, b: Chunk) -> Chunk:
        if _is_lit(a, 0.0):
            return b
        if _is_lit(b, 0.0):
            return a
        return self._bin("+", a, b)

    def sub(self, a: Chunk, b: Chunk) -> Chunk:
        if _is_lit(b, 0.0):
            return a
        return self._bin("-", a, b)

    def mul(self, a: Chunk, b: Chunk) -> Chunk:
        if _is_lit(a, 0.0) or _is_lit(b, 0.0):
            return [ZERO]
        if _is_lit(a, 1.0):
            return b
        if _is_lit(b, 1.0):
            return a
        return self._bin("*", a, b)

    def div(self, a: Chunk, b: Chunk) -> Chunk:
        if _is_lit(a, 0.0):
            return [ZERO]
        if _is_lit(b, 1.0):
            return a
        return self._bin("/", a, b)

    def pow(self, a: Chunk, b: Chunk) -> Chunk:
        if _is_lit(b, 1.0):
            return a
        if _is_lit(b, 0.0):
            return [ONE]
        if _is_lit(a, 1.0):
            return [ONE]
        return self._bin("^", a, b)

    def neg(self, a: Chunk) -> Chunk:
        if _is_lit(a, 0.0):
            return [ZERO]
        return self._un("~", a)

    def unary(self, op: str, a: Chunk) -> Chunk:
        if op == "~":
            return self.neg(a)
        return self._un(op, a)


def _d_leaf(tok: Token, var: str) -> Chunk:
    kind = tok.kind
    if kind is TokenKind.VARIABLE:
        return [ONE] if tok.text == var else [ZERO]
    if kind is TokenKind.IC:
        if var == "x":
            return [IC_X]
        if var == "y":
            return [IC_Y]
        return [ZERO]
    if kind is TokenKind.IC_DERIV:
        if var == "t":
            return [ZERO]
        table = _IC_STEP_X if var == "x" else _IC_STEP_Y
        nxt = table.get((tok.dx, tok.dy))
        if nxt is None:
            raise DerivativeOrderError(
                f"derivative of {tok.text} with respect to {var} exceeds the "
                "stored order-2 initial-condition family"
            )
        return [nxt]
    # literals and learnable constants
    return [ZERO]


def _d_leaf_data(tok: Token, var: str) -> Chunk:
    if tok.kind is TokenKind.VARIABLE and tok.text == var:
        return [ONE]
    return [ZERO]


_LEAF_RULES = {"analytic": _d_leaf, "data": _d_leaf_data}
IC_DERIVATIVE_MODES = tuple(_LEAF_RULES)


def _d_unary(op: str, u: Chunk, du: Chunk, em: _Emit) -> Chunk:
    if op == "~":
        return em.neg(du)
    if op == "log":
        return em.div(du, u)
    if op == "exp":
        return em.mul(em.unary("exp", u), du)
    if op == "cos":
        return em.mul(em.neg(em.unary("sin", u)), du)
    if op == "sin":
        return em.mul(em.unary("cos", u), du)
    if op == "sqrt":
        return em.div(du, em.mul([TWO], em.unary("sqrt", u)))
    if op == "asin":
        return em.div(du, em.unary("sqrt", em.sub([ONE], em.pow(u, [TWO]))))
    if op == "acos":
        return em.neg(em.div(du, em.unary("sqrt", em.sub([ONE], em.pow(u, [TWO])))))
    if op == "tanh":
        return em.mul(em.sub([ONE], em.pow(em.unary("tanh", u), [TWO])), du)
    if op == "sech":
        return em.mul(
            em.neg(em.mul(em.unary("sech", u), em.unary("tanh", u))), du
        )
    raise ValueError(f"unknown unary operator {op!r}")


def _d_binary(op: str, a: Chunk, da: Chunk, b: Chunk, db: Chunk, em: _Emit) -> Chunk:
    if op == "+":
        return em.add(da, db)
    if op == "-":
        return em.sub(da, db)
    if op == "*":
        return em.add(em.mul(da, b), em.mul(a, db))
    if op == "/":
        return em.div(em.sub(em.mul(da, b), em.mul(a, db)), em.pow(b, [TWO]))
    if op == "^":
        # general rule d(f^g) = f^g * (g' ln f + g f'/f); the in-situ zero
        # rule drops the ln term whenever the exponent is constant
        return em.mul(
            em.pow(a, b),
            em.add(em.mul(db, em.unary("log", a)), em.div(em.mul(b, da), a)),
        )
    raise ValueError(f"unknown binary operator {op!r}")


def _d_prefix(tokens: Sequence[Token], start: int, end: int, var: str, em: _Emit, d_leaf):
    """Returns (derivative chunk, span end)."""
    tok = tokens[start]
    arity = tok.arity
    if arity == 0:
        return d_leaf(tok, var), start + 1
    if arity == 1:
        du, nxt = _d_prefix(tokens, start + 1, end, var, em, d_leaf)
        u = list(tokens[start + 1 : nxt])
        return _d_unary(tok.text, u, du, em), nxt
    da, mid = _d_prefix(tokens, start + 1, end, var, em, d_leaf)
    db, nxt = _d_prefix(tokens, mid, end, var, em, d_leaf)
    a = list(tokens[start + 1 : mid])
    b = list(tokens[mid:nxt])
    return _d_binary(tok.text, a, da, b, db, em), nxt


def _d_postfix(tokens: Sequence[Token], end: int, var: str, em: _Emit, d_leaf):
    """Returns (derivative chunk, span start)."""
    tok = tokens[end - 1]
    arity = tok.arity
    if arity == 0:
        return d_leaf(tok, var), end - 1
    if arity == 1:
        du, start = _d_postfix(tokens, end - 1, var, em, d_leaf)
        u = list(tokens[start : end - 1])
        return _d_unary(tok.text, u, du, em), start
    db, mid = _d_postfix(tokens, end - 1, var, em, d_leaf)
    da, start = _d_postfix(tokens, mid, var, em, d_leaf)
    a = list(tokens[start:mid])
    b = list(tokens[mid : end - 1])
    return _d_binary(tok.text, a, da, b, db, em), start


def differentiate(e: Expr, var: str, ic_derivatives: str = "analytic") -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``x``, ``y`` or ``t``.

    The result uses the same notation; its evaluation equals the derivative of
    ``e`` wherever both are defined.  ``ic_derivatives`` picks the reading of
    the initial-condition family (see the module docstring); under ``"data"``
    no :class:`DerivativeOrderError` can arise.
    """
    if var not in ("x", "y", "t"):
        raise ValueError(f"unknown variable {var!r}")
    try:
        d_leaf = _LEAF_RULES[ic_derivatives]
    except KeyError:
        raise ValueError(f"unknown ic_derivatives mode {ic_derivatives!r}") from None
    em = _Emit(e.notation)
    if e.notation is Notation.PREFIX:
        chunk, _ = _d_prefix(e.tokens, 0, len(e.tokens), var, em, d_leaf)
    else:
        chunk, _ = _d_postfix(e.tokens, len(e.tokens), var, em, d_leaf)
    return make_expr(chunk, e.notation)


# ---------------------------------------------------------------------------
# display-level simplification


def _fold_unary(op: str, v: float):
    r = scalar_unary(op, v)
    return r if math.isfinite(r) else None


def _fold_binary(op: str, a: float, b: float):
    r = scalar_binary(op, a, b)
    return r if math.isfinite(r) else None


def _simp_pass(tokens: Sequence[Token], notation: Notation, em: _Emit) -> Chunk:
    prefix = notation is Notation.PREFIX

    def rec(pos: int):
        # pos is the span start for prefix, the span end for postfix
        tok = tokens[pos] if prefix else tokens[pos - 1]
        arity = tok.arity
        if arity == 0:
            return [tok], (pos + 1 if prefix else pos - 1)
        if arity == 1:
            u, nxt = rec(pos + 1) if prefix else rec(pos - 1)
            if len(u) == 1 and u[0].kind is TokenKind.LITERAL:
                folded = _fold_unary(tok.text, u[0].value)
                if folded is not None:
                    return [literal_token(folded)], nxt
            return em.unary(tok.text, u), nxt
        if prefix:
            a, mid = rec(pos + 1)
            b, nxt = rec(mid)
        else:
            b, mid = rec(pos - 1)
            a, nxt = rec(mid)
        if (
            len(a) == 1
            and len(b) == 1
            and a[0].kind is TokenKind.LITERAL
            and b[0].kind is TokenKind.LITERAL
        ):
            folded = _fold_binary(tok.text, a[0].value, b[0].value)
            if folded is not None:
                return [literal_token(folded)], nxt
        op = tok.text
        if op == "+":
            return em.add(a, b), nxt
        if op == "-":
            return em.sub(a, b), nxt
        if op == "*":
            return em.mul(a, b), nxt
        if op == "/":
            return em.div(a, b), nxt
        return em.pow(a, b), nxt

    chunk, _ = rec(0 if prefix else len(tokens))
    return chunk


def simplify(e: Expr) -> Expr:
    """Apply the identity rules plus constant folding to a fixed point.

    The result evaluates identically to ``e`` at every point where ``e`` is
    fault-free; folding never replaces a subexpression with a non-finite
    value.
    """
    em = _Emit(e.notation)
    tokens: Sequence[Token] = e.tokens
    for _ in range(32):
        out = _simp_pass(tokens, e.notation, em)
        if len(out) == len(tokens) and all(a is b or a == b for a, b in zip(out, tokens)):
            break
        tokens = out
    return make_expr(tokens, e.notation)
