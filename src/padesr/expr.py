"""Token alphabet, flat expressions, and the depth-bounded generation grammar.

Expressions are stored as flat prefix or postfix token sequences and are never
materialized as trees.  Tree depth uses the convention that a lone leaf has
depth 0.  Token-by-token generation is driven by :class:`Grammar`, one per
draw, which admits exactly the tokens that can still be completed into an
expression whose depth fits the declared budget, and builds the drawn
expression without the rescans :func:`make_expr` makes of a sequence from
elsewhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, TypeVar


T = TypeVar("T")


class Notation(str, Enum):
    PREFIX = "prefix"
    POSTFIX = "postfix"


class TokenKind(Enum):
    VARIABLE = "variable"
    IC = "ic"  # I and its stored derivatives; I is the member at order (0, 0)
    LITERAL = "literal"
    CONST = "const"
    UNARY = "unary"
    BINARY = "binary"


class ExprError(ValueError):
    """Structurally invalid token sequence (underflow, dangling operands...)."""


class ParseError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position + 1})")
        self.position = position


UNARY_OPS = ("~", "log", "exp", "cos", "sin", "sqrt", "asin", "acos", "tanh", "sech")
BINARY_OPS = ("+", "-", "*", "/", "^")

# One bit per mesh axis, so the axes a value reads are one int.
MESH_AXES = {"x": 1, "y": 2, "t": 4}

_ARITY = {
    TokenKind.VARIABLE: 0,
    TokenKind.IC: 0,
    TokenKind.LITERAL: 0,
    TokenKind.CONST: 0,
    TokenKind.UNARY: 1,
    TokenKind.BINARY: 2,
}


@dataclass(frozen=True)
class Token:
    """One symbol of the expression alphabet.

    ``value`` is set for literals (named literals such as ``x_min`` carry the
    value they were bound to), ``dx``/``dy`` are the differentiation orders of
    an initial-condition derivative token, and ``slot`` identifies a learnable
    constant.  Slots survive differentiation, so a constant vector fitted for
    an expression also applies to all of its derivatives.
    """

    kind: TokenKind
    text: str
    value: Optional[float] = None
    dx: int = 0
    dy: int = 0
    slot: Optional[int] = None

    @cached_property
    def arity(self) -> int:
        return _ARITY[self.kind]

    @property
    def axes(self) -> int:
        """The mesh axes a leaf's value varies along, as :data:`MESH_AXES`
        bits: a variable its own, an ``I``-family leaf x and y, any other
        token none."""
        if self.kind is TokenKind.VARIABLE:
            return MESH_AXES[self.text]
        if self.kind is TokenKind.IC:
            return MESH_AXES["x"] | MESH_AXES["y"]
        return 0

    def __hash__(self) -> int:  # equal tokens have equal text
        return hash(self.text)

    def __repr__(self) -> str:  # keep failure output readable
        return f"Token({self.text!r})"


def _lit(text: str, value: float) -> Token:
    return Token(TokenKind.LITERAL, text, value=float(value))


VAR_X = Token(TokenKind.VARIABLE, "x")
VAR_Y = Token(TokenKind.VARIABLE, "y")
VAR_T = Token(TokenKind.VARIABLE, "t")
IC_TOKEN = Token(TokenKind.IC, "I")
IC_X = Token(TokenKind.IC, "I_x", dx=1)
IC_Y = Token(TokenKind.IC, "I_y", dy=1)
IC_XX = Token(TokenKind.IC, "I_xx", dx=2)
IC_YY = Token(TokenKind.IC, "I_yy", dy=2)
IC_XY = Token(TokenKind.IC, "I_xy", dx=1, dy=1)
IC_FAMILY = (IC_TOKEN, IC_X, IC_Y, IC_XX, IC_YY, IC_XY)

ZERO = _lit("0", 0.0)
ONE = _lit("1", 1.0)
TWO = _lit("2", 2.0)
FOUR = _lit("4", 4.0)

CONST_TOKEN = Token(TokenKind.CONST, "C")

UNARY_TOKENS = {op: Token(TokenKind.UNARY, op) for op in UNARY_OPS}
BINARY_TOKENS = {op: Token(TokenKind.BINARY, op) for op in BINARY_OPS}

NAMED_LITERALS = ("x_min", "x_max", "y_min", "y_max", "t_min", "t_max")

_DECIMAL_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\Z")


def literal_token(value: float) -> Token:
    """Literal token for an arbitrary value, spelled canonically."""
    v = float(value)
    if v == int(v) and abs(v) < 1e15:
        return _lit(str(int(v)), v)
    return _lit(repr(v), v)


@dataclass(frozen=True)
class Alphabet:
    """Leaf/operator token sets available to the generator.

    The three search configurations are (variables only), (variables +
    literals) and (variables + literals + learnable constant).
    """

    variables: tuple[Token, ...]
    literals: tuple[Token, ...]
    include_learnable: bool
    unaries: tuple[Token, ...] = tuple(UNARY_TOKENS[op] for op in UNARY_OPS)
    binaries: tuple[Token, ...] = tuple(BINARY_TOKENS[op] for op in BINARY_OPS)

    @cached_property
    def leaves(self) -> tuple[Token, ...]:
        extra = (CONST_TOKEN,) if self.include_learnable else ()
        return self.variables + self.literals + extra

    @cached_property
    def leaves_unaries(self) -> tuple[Token, ...]:
        return self.leaves + self.unaries

    @cached_property
    def ordered(self) -> tuple[Token, ...]:
        return self.leaves_unaries + self.binaries

    @cached_property
    def by_text(self) -> Mapping[str, Token]:
        return {tok.text: tok for tok in self.ordered}


def make_alphabet(
    bounds: Optional[Mapping[str, float]] = None,
    include_literals: bool = True,
    include_learnable: bool = False,
) -> Alphabet:
    """Build an alphabet; ``bounds`` supplies values for the named literals."""
    literals: tuple[Token, ...] = ()
    if include_literals:
        if bounds is None:
            raise ValueError("literal tokens need domain bounds")
        named = tuple(_lit(name, bounds[name]) for name in NAMED_LITERALS)
        literals = (ZERO, ONE, TWO, FOUR) + named
    return Alphabet(
        variables=(VAR_X, VAR_Y, VAR_T, IC_TOKEN),
        literals=literals,
        include_learnable=include_learnable,
    )


# ---------------------------------------------------------------------------
# bottom-up stack scans (single pass, no tree construction)
#
# Postfix is read as written.  Prefix is read reversed: a reversed prefix
# sequence is the postfix sequence of the mirror-image tree, so every scan
# below serves both notations, and a binary operator met in a reversed prefix
# scan finds its left operand on top of the stack.


def scan_order(tokens: Sequence[Token], notation: Notation) -> Iterable[Token]:
    """``tokens`` in bottom-up order: operands before their operator."""
    return tokens if notation is Notation.POSTFIX else reversed(tokens)


def fold(
    tokens: Sequence[Token],
    notation: Notation,
    leaf: Callable[[Token], T],
    unary: Callable[[Token, T], T],
    binary: Callable[[Token, T, T], T],
) -> T:
    """Combine a complete expression bottom-up, one callback per token.

    Operands reach ``unary`` and ``binary`` in tree order (left, then right)
    in both notations.
    """
    left_on_top = notation is Notation.PREFIX
    stack: list = []
    for tok in scan_order(tokens, notation):
        a = tok.arity
        if a == 0:
            stack.append(leaf(tok))
        elif a == 1:
            stack[-1] = unary(tok, stack[-1])
        else:
            top = stack.pop()
            if left_on_top:
                stack[-1] = binary(tok, top, stack[-1])
            else:
                stack[-1] = binary(tok, stack[-1], top)
    return stack[0]


def is_complete(tokens: Sequence[Token], notation: Notation) -> bool:
    size = 0
    for tok in scan_order(tokens, notation):
        a = tok.arity
        if a > size:
            return False
        size += 1 - a
    return size == 1


def sequence_depth(tokens: Sequence[Token], notation: Notation) -> int:
    """Tree depth of a complete token sequence (leaf = 0)."""
    if not is_complete(tokens, notation):
        raise ExprError("incomplete expression")
    return fold(tokens, notation, lambda tok: 0, lambda tok, d: d + 1,
                lambda tok, a, b: max(a, b) + 1)


class Program(NamedTuple):
    """An expression as a straight-line program over its distinct subtrees.

    Every distinct leaf and every distinct (operator, operand registers) node
    is one register, so a subtree repeated in the tokens is computed once.
    ``leaves`` lists ``(register, token)``.  ``steps`` lists, operands
    first, ``(operator text, a, b, register, dying)``: ``b`` is -1 for a
    unary operator, and ``dying`` holds the operand registers made by earlier
    steps that no later step reads, so each value is dropped after its last
    use.  A leaf register is in no ``dying``.  ``axes[r]`` holds the mesh
    axes register ``r``'s value varies along, as :data:`MESH_AXES` bits: a
    leaf's :attr:`Token.axes`, and for a step the union of its operands'.
    ``reader_axes[r]`` is the union of ``axes`` over the steps that read
    ``r``, 0 for the result.
    """

    size: int
    leaves: tuple[tuple[int, Token], ...]
    steps: tuple[tuple[str, int, int, int, tuple[int, ...]], ...]
    result: int
    axes: tuple[int, ...]
    reader_axes: tuple[int, ...]


def compile_program(tokens: Sequence[Token], notation: Notation) -> Program:
    """Intern every subtree of a complete expression in one :func:`fold`,
    recording the mesh axes each reads, then find each register's last
    reader, and the axes of all its readers, in one backward pass.

    A shared value stays live from its first use to its last, so sharing
    can hold more values at once than a scan that computes each subtree
    where it stands.
    """
    ids: dict = {}
    leaves: list[tuple[int, Token]] = []
    nodes: list[tuple[str, int, int, int]] = []
    axes: list[int] = []

    def leaf(tok: Token) -> int:
        r = ids.get(tok)
        if r is None:
            r = ids[tok] = len(ids)
            leaves.append((r, tok))
            axes.append(tok.axes)
        return r

    def node(tok: Token, a: int, b: int = -1) -> int:
        key = (tok.text, a, b)
        r = ids.get(key)
        if r is None:
            r = ids[key] = len(ids)
            nodes.append((tok.text, a, b, r))
            axes.append(axes[a] | axes[b] if b >= 0 else axes[a])
        return r

    result = fold(tokens, notation, leaf, node, node)
    read = [False] * len(ids)  # read by a step after the one being placed
    for r, _ in leaves:  # set once, before any step: never dropped
        read[r] = True
    readers = [0] * len(ids)
    steps = []
    for text, a, b, r in reversed(nodes):
        dying: tuple[int, ...] = ()
        readers[a] |= axes[r]
        if not read[a]:
            read[a] = True
            dying = (a,)
        if b >= 0:
            readers[b] |= axes[r]
            if not read[b]:
                read[b] = True
                dying += (b,)
        steps.append((text, a, b, r, dying))
    steps.reverse()
    return Program(len(ids), tuple(leaves), tuple(steps), result, tuple(axes), tuple(readers))


@dataclass(frozen=True)
class Expr:
    """Flat token sequence plus notation tag."""

    notation: Notation
    tokens: tuple[Token, ...]

    @cached_property
    def depth(self) -> int:
        return sequence_depth(self.tokens, self.notation)

    @cached_property
    def program(self) -> Program:
        return compile_program(self.tokens, self.notation)

    @cached_property
    def key(self) -> str:
        return f"{self.notation.value}:{self.text}"

    @cached_property
    def text(self) -> str:
        return " ".join(tok.text for tok in self.tokens)

    @cached_property
    def n_slots(self) -> int:
        slots = [tok.slot for tok in self.tokens if tok.kind is TokenKind.CONST]
        return 0 if not slots else max(slots) + 1

    def __repr__(self) -> str:
        return f"Expr({self.notation.value}: {self.text})"


def make_expr(
    tokens: Iterable[Token], notation: Notation, budget: Optional[int] = None
) -> Expr:
    """Validate completeness, number the learnable constants, wrap as Expr.

    Constant tokens get slots 0, 1, ... in token order, whatever slot they
    carried, so one text always means one slot layout.  A given ``budget``
    bounds the tree depth.
    """
    toks = list(tokens)
    if not is_complete(toks, notation):
        raise ExprError("incomplete expression")
    _number_slots(toks)
    if budget is not None:
        depth = sequence_depth(toks, notation)
        if depth > budget:
            raise ExprError(f"depth {depth} exceeds budget {budget}")
    return Expr(notation, tuple(toks))


def _number_slots(toks: list[Token]) -> None:
    """Give the constant tokens of ``toks`` slots 0, 1, ... in token order."""
    slot = 0
    for i, tok in enumerate(toks):
        if tok.kind is TokenKind.CONST:
            if tok.slot != slot:
                toks[i] = Token(TokenKind.CONST, tok.text, slot=slot)
            slot += 1


# ---------------------------------------------------------------------------
# depth-bounded grammar


class Grammar:
    """The state of one token-by-token draw under a depth budget.

    Prefix keeps a stack of the depth each open operand slot still allows,
    the slot filled next on top.  Postfix keeps a stack of the depths of the
    finished subtrees.  :meth:`push` updates the stack in O(1) and
    :meth:`legal` reads it in O(1), so a draw takes time linear in its
    length.  ``tokens`` lists what was pushed, ``partial`` first.

    ``partial`` is pushed as given and must lead to an expression within
    ``budget``; ``ExprError`` is raised otherwise, as :meth:`push` raises it
    for a token after a complete prefix expression, a prefix operator with
    no depth left, or a postfix operator short of operands.  A token taken
    from :meth:`legal` always keeps the draw completable within ``budget``.
    """

    def __init__(self, notation: Notation, budget: int, alphabet: Alphabet,
                 partial: Iterable[Token] = ()):
        self.prefix = notation is Notation.PREFIX
        self.budget = budget
        self.alphabet = alphabet
        self.tokens: list[Token] = []
        self._stack: list[int] = [budget] if self.prefix else []
        for tok in partial:
            self.push(tok)
        stack = self._stack
        if not self.prefix and stack:
            # The stack completes soonest by merging from the top down, each
            # entry with everything above it.  Pushing a token never lowers
            # that depth, so the final stack decides.
            least = stack[-1]
            for d in reversed(stack[:-1]):
                least = max(d, least) + 1
            if least > budget:
                raise ExprError("depth budget exceeded")

    def push(self, tok: Token) -> None:
        """Append ``tok``, raising ``ExprError`` on the errors named above."""
        stack = self._stack
        a = tok.arity
        if self.prefix:
            if not stack:
                raise ExprError("token after complete prefix expression")
            d = stack.pop()
            if a:
                if d < 1:
                    raise ExprError("depth budget exceeded")
                stack.extend((d - 1,) * a)
        elif a == 0:
            stack.append(0)
        elif a == 1:
            if not stack:
                raise ExprError("operand underflow")
            stack[-1] += 1
        else:
            if len(stack) < 2:
                raise ExprError("operand underflow")
            b = stack.pop()
            stack[-1] = max(stack[-1], b) + 1
        self.tokens.append(tok)

    def legal(self) -> tuple[Token, ...]:
        """Tokens that extend the draw toward at least one in-budget
        completion, in the alphabet's canonical order.

        Empty exactly when no extension exists; for prefix that coincides
        with completeness, for postfix a complete sequence may still be
        extendable (pushing another operand to be merged later).
        """
        stack, alphabet = self._stack, self.alphabet
        if self.prefix:
            if not stack:
                return ()
            return alphabet.ordered if stack[-1] >= 1 else alphabet.leaves
        n = len(stack)
        if not n:
            return alphabet.leaves
        # With n subtrees stacked, a unary on the top one makes it top + 1
        # deep with n - 1 merges still to come, and a leaf pushed over it
        # leaves it n merges below the root: either way the expression
        # completes no shallower than top + n.  The subtrees under the top
        # already fit, and merging the top two leaves the bound as it is.
        if stack[-1] + n <= self.budget:
            return alphabet.ordered if n >= 2 else alphabet.leaves_unaries
        return alphabet.binaries if n >= 2 else ()

    def expr(self) -> Expr:
        """The draw as an :class:`Expr`, constants numbered as
        :func:`make_expr` numbers them.

        The stack already proves the depth, so nothing is scanned again; an
        incomplete draw raises ``ExprError``.
        """
        if len(self._stack) != (0 if self.prefix else 1):
            raise ExprError("incomplete expression")
        toks = list(self.tokens)
        _number_slots(toks)
        return Expr(Notation.PREFIX if self.prefix else Notation.POSTFIX, tuple(toks))


def legal_tokens(
    partial: Sequence[Token],
    notation: Notation,
    budget: int,
    alphabet: Alphabet,
) -> list[Token]:
    """:meth:`Grammar.legal` after ``partial``, as a list."""
    return list(Grammar(notation, budget, alphabet, partial).legal())


def sample_complete(rng, notation: Notation, budget: int, alphabet: Alphabet,
                    partial: Sequence[Token] = ()) -> Expr:
    """Random completion of ``partial`` (by default a whole expression): draw
    uniformly from the legal set until it empties."""
    g = Grammar(notation, budget, alphabet, partial)
    while legal := g.legal():
        g.push(legal[rng.randrange(len(legal))])
    return g.expr()


# ---------------------------------------------------------------------------
# spans (array subranges standing in for subtrees)


def span_at(tokens: Sequence[Token], index: int, notation: Notation) -> tuple[int, int]:
    """(start, end) of the complete subexpression rooted at ``index``.

    The span runs from its root away from the operands' side: rightward in
    prefix, leftward in postfix, until every operand is accounted for.
    """
    step = 1 if notation is Notation.PREFIX else -1
    need = 1
    i = index
    while need:
        need += tokens[i].arity - 1
        i += step
    return (index, i) if step == 1 else (i + 1, index + 1)


def token_path_depths(tokens: Sequence[Token], notation: Notation) -> list[int]:
    """Distance of each token from the expression root (root = 0)."""
    n = len(tokens)
    out = [0] * n
    stack = [0]
    order = range(n) if notation is Notation.PREFIX else range(n - 1, -1, -1)
    for i in order:
        d = stack.pop()
        out[i] = d
        for _ in range(tokens[i].arity):
            stack.append(d + 1)
    return out


# ---------------------------------------------------------------------------
# parse / render / convert


def parse(
    text: str,
    notation: Notation,
    alphabet: Alphabet,
    mode: str = "search",
    bindings: Optional[Mapping[str, float]] = None,
) -> Expr:
    """Parse whitespace-separated token spellings.

    ``search`` mode admits only the alphabet's tokens.  ``free`` mode also
    accepts the initial-condition derivative spellings, any decimal literal,
    and extra named bindings (e.g. ``y_0``) supplied by the caller.
    """
    if mode not in ("search", "free"):
        raise ValueError(f"unknown parse mode {mode!r}")
    words = text.split()
    if not words:
        raise ParseError("empty expression", 0)
    ic_by_text = {tok.text: tok for tok in IC_FAMILY}
    toks: list[Token] = []
    for i, word in enumerate(words):
        tok = alphabet.by_text.get(word)
        if tok is None and mode == "free":
            tok = ic_by_text.get(word)
            if tok is None and bindings and word in bindings:
                tok = _lit(word, bindings[word])
            if tok is None and _DECIMAL_RE.match(word):
                tok = _lit(word, float(word))
        if tok is None:
            raise ParseError(f"unknown token {word!r}", i)
        toks.append(tok)
    size = 0
    for i, tok in enumerate(toks):
        if notation is Notation.POSTFIX and tok.arity > size:
            raise ParseError(f"operand underflow at {tok.text!r}", i)
        size += 1 - tok.arity
    if not is_complete(toks, notation):
        raise ParseError("incomplete expression", len(words) - 1)
    return make_expr(toks, notation)


def render_infix(e: Expr, consts: Optional[Sequence[float]] = None) -> str:
    """Fully parenthesized infix rendering; learnable constants print their
    fitted values when ``consts`` is given."""

    def leaf(tok: Token) -> str:
        if tok.kind is TokenKind.CONST and consts is not None:
            return f"{consts[tok.slot]:g}"
        return tok.text

    return fold(
        e.tokens,
        e.notation,
        leaf,
        lambda tok, a: f"(-{a})" if tok.text == "~" else f"{tok.text}({a})",
        lambda tok, a, b: f"({a}{tok.text}{b})",
    )


def convert_notation(e: Expr, target: Notation) -> Expr:
    """Value-equivalent expression in the target notation; depth is preserved."""
    if target is e.notation:
        return e
    prefix = target is Notation.PREFIX
    out = fold(
        e.tokens,
        e.notation,
        lambda tok: [tok],
        lambda tok, a: [tok] + a if prefix else a + [tok],
        lambda tok, a, b: [tok] + a + b if prefix else a + b + [tok],
    )
    return Expr(target, tuple(out))
