"""Tree-free symbolic differentiation of flat expressions in both notations.

One bottom-up stack scan (:func:`padesr.expr.fold`) serves both notations:
each stack entry holds a subexpression as a flat token chunk together with
the chunk of its derivative, so no tree or node structure ever exists.
Identity rewrites (0*e -> 0, e^1 -> e, ...) are applied while emitting, which
keeps trivial factors from the chain and product rules out of the output.
:func:`simplify` reuses the same rewrites and adds constant folding of
all-literal subexpressions for display.

Every token emitted by differentiation is either copied from the input or
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
    IC_FAMILY,
    Notation,
    ONE,
    TWO,
    Token,
    TokenKind,
    UNARY_TOKENS,
    ZERO,
    fold,
    literal_token,
    make_expr,  # unused here; bench/run.py traces symdiff.make_expr by name
)


class DerivativeOrderError(ValueError):
    """Initial-condition derivatives are stored only up to total order 2."""


_IC_BY_ORDER = {(tok.dx, tok.dy): tok for tok in IC_FAMILY}

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
        if var == "t":
            return [ZERO]
        nxt = _IC_BY_ORDER.get((tok.dx + (var == "x"), tok.dy + (var == "y")))
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


def differentiate(e: Expr, var: str, ic_derivatives: str = "analytic") -> Expr:
    """Exact symbolic derivative of ``e`` with respect to ``x``, ``y`` or ``t``.

    The result uses the same notation and keeps the constant slots of ``e``;
    its evaluation equals the derivative of ``e`` wherever both are defined.
    ``ic_derivatives`` picks the reading of the initial-condition family (see
    the module docstring); under ``"data"`` no :class:`DerivativeOrderError`
    can arise.  When several leaves have no stored derivative, the error
    names the first in token order, which is the same leaf in both notations.
    """
    if var not in ("x", "y", "t"):
        raise ValueError(f"unknown variable {var!r}")
    try:
        d_leaf = _LEAF_RULES[ic_derivatives]
    except KeyError:
        raise ValueError(f"unknown ic_derivatives mode {ic_derivatives!r}") from None
    em = _Emit(e.notation)
    postfix = em.postfix

    # each stack entry is (subexpression chunk, its derivative chunk)
    def leaf(tok: Token) -> tuple[Chunk, Chunk]:
        return [tok], d_leaf(tok, var)

    def unary(tok: Token, u: tuple[Chunk, Chunk]) -> tuple[Chunk, Chunk]:
        span, du = u
        out = span + [tok] if postfix else [tok] + span
        return out, _d_unary(tok.text, span, du, em)

    def binary(tok: Token, a: tuple[Chunk, Chunk], b: tuple[Chunk, Chunk]):
        sa, da = a
        sb, db = b
        out = sa + sb + [tok] if postfix else [tok] + sa + sb
        return out, _d_binary(tok.text, sa, da, sb, db, em)

    try:
        _, chunk = fold(e.tokens, e.notation, leaf, unary, binary)
    except DerivativeOrderError:
        # a prefix scan meets the leaves last to first
        for tok in e.tokens:
            if tok.arity == 0:
                d_leaf(tok, var)
        raise
    return Expr(e.notation, tuple(chunk))


# ---------------------------------------------------------------------------
# display-level simplification


_IDENTITY_RULES = {"+": _Emit.add, "-": _Emit.sub, "*": _Emit.mul, "/": _Emit.div,
                   "^": _Emit.pow}


def _is_literal(chunk: Chunk) -> bool:
    return len(chunk) == 1 and chunk[0].kind is TokenKind.LITERAL


def _simp_pass(tokens: Sequence[Token], notation: Notation, em: _Emit) -> Chunk:
    def unary(tok: Token, u: Chunk) -> Chunk:
        if _is_literal(u):
            folded = scalar_unary(tok.text, u[0].value)
            if math.isfinite(folded):
                return [literal_token(folded)]
        return em.unary(tok.text, u)

    def binary(tok: Token, a: Chunk, b: Chunk) -> Chunk:
        if _is_literal(a) and _is_literal(b):
            folded = scalar_binary(tok.text, a[0].value, b[0].value)
            if math.isfinite(folded):
                return [literal_token(folded)]
        return _IDENTITY_RULES[tok.text](em, a, b)

    return fold(tokens, notation, lambda tok: [tok], unary, binary)


def simplify(e: Expr) -> Expr:
    """Apply the identity rules plus constant folding in one bottom-up pass.

    One pass is a fixed point: each rule sees operands that are simplified
    already and returns one of them, a literal, or the node it has just
    checked.  The result evaluates identically to ``e`` at every point where
    ``e`` is fault-free; folding never replaces a subexpression with a
    non-finite value.
    """
    return Expr(e.notation, tuple(_simp_pass(e.tokens, e.notation, _Emit(e.notation))))
