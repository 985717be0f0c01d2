"""Prefix and postfix give the same results in every tree walk over flat tokens.

``test_notation_digest`` hashes, for a seeded corpus, the first derivatives by
x, y and t, the second derivatives xx and yy under both readings of ``I``,
the simplified form, the infix rendering and the converted twin.  The digest
was recorded before the per-notation walkers were merged into one stack scan;
a refactor that must keep every output may not edit it.

``test_eval_digest`` hashes the evaluated grids of the same corpus and of its
first derivatives by x, y and t: value bytes and fault flag of each grid on
case 1's 10^3 mesh, constants 0.5, 1.5, ...  It was recorded before grid
evaluation moved onto the shared stack scan and pins evaluation bit for bit.

The corpus is seeded postfix samples at depths 2-8 in all three token modes
plus their prefix twins made by ``convert_notation``.  Prefix sampling with
literals stops after about three tokens, so the twins are what cover long
prefix sequences.
"""

import functools
import hashlib
import random

from hypothesis import given, settings, strategies as st

from padesr.evaluate import eval_grid
from padesr.expr import (
    BINARY_OPS,
    BINARY_TOKENS,
    IC_FAMILY,
    ONE,
    TWO,
    UNARY_OPS,
    UNARY_TOKENS,
    VAR_T,
    VAR_X,
    VAR_Y,
    ZERO,
    Notation,
    TokenKind,
    convert_notation,
    make_expr,
    render_infix,
    sample_complete,
)
from padesr.pde import TOKEN_MODES, build_case, case_alphabet
from padesr.symdiff import DerivativeOrderError, differentiate, simplify

NOTATION_DIGEST = "604f2de19a3de6e0e53bf9567389a7f31f1432e648eb6d7c58c25f9c90da1c33"
EVAL_DIGEST = "6f4fe9224039dde4d5df5e8b740b70e1251d7c6356730480eb66e0a6b9b03cc7"

DEPTHS = range(2, 9)
PER_CONFIG = 50


def corpus(case):
    for m, mode in enumerate(TOKEN_MODES):
        alphabet = case_alphabet(case, mode)
        for depth in DEPTHS:
            rng = random.Random(100 * depth + m)
            for _ in range(PER_CONFIG):
                e = sample_complete(rng, Notation.POSTFIX, depth, alphabet)
                yield e
                yield convert_notation(e, Notation.PREFIX)


def describe(e):
    slots = [tok.slot for tok in e.tokens if tok.kind is TokenKind.CONST]
    return f"{e.notation.value}|{e.text}|{slots}"


def derivative_lines(e, reading):
    """d/dx then d/dx again, d/dy then d/dy again, d/dt."""
    lines = []
    for var, twice in (("x", True), ("y", True), ("t", False)):
        try:
            d = differentiate(e, var, reading)
            lines.append(describe(d))
            if twice:
                lines.append(describe(differentiate(d, var, reading)))
        except DerivativeOrderError as err:
            lines.append(f"error|{err}")
    return lines


def expression_lines(e):
    other = Notation.PREFIX if e.notation is Notation.POSTFIX else Notation.POSTFIX
    lines = [describe(e), describe(convert_notation(e, other)),
             describe(simplify(e)), render_infix(e)]
    if e.n_slots:
        lines.append(render_infix(e, [0.5 + i for i in range(e.n_slots)]))
    for reading in ("analytic", "data"):
        lines.extend(derivative_lines(e, reading))
    return lines


def test_notation_digest(case1):
    case, _ = case1
    digest = hashlib.sha256()
    count = 0
    for e in corpus(case):
        digest.update(("\n".join(expression_lines(e)) + "\n").encode())
        count += 1
    assert count == len(TOKEN_MODES) * len(DEPTHS) * PER_CONFIG * 2
    assert digest.hexdigest() == NOTATION_DIGEST


def test_eval_digest(case1):
    case, data = case1
    digest = hashlib.sha256()
    count = 0
    for e in corpus(case):
        consts = [0.5 + i for i in range(e.n_slots)]
        for var in (None, "x", "y", "t"):
            try:
                target = e if var is None else differentiate(e, var)
            except DerivativeOrderError as err:
                digest.update(f"error|{err}\n".encode())
                continue
            g = eval_grid(target, data, consts)
            digest.update(g.values.tobytes())
            digest.update(b"F" if g.fault else b"-")
            count += 1
    assert count == 8400
    assert digest.hexdigest() == EVAL_DIGEST


# ---------------------------------------------------------------------------
# property: both notations of one tree agree token for token and bit for bit

LEAVES = (VAR_X, VAR_Y, VAR_T, ZERO, ONE, TWO) + IC_FAMILY


@functools.cache
def _mesh():
    # built once here, not taken as a fixture, so that a falsifying example
    # prints the expressions alone
    return build_case("case1", (4, 4, 4))[1]


def _derivative(e, var):
    try:
        return differentiate(e, var)
    except DerivativeOrderError as err:
        return str(err)


def _trees():
    """Random trees written out as (prefix tokens, postfix tokens)."""
    leaves = st.sampled_from(LEAVES).map(lambda tok: ([tok], [tok]))

    def extend(children):
        unary = st.tuples(st.sampled_from(UNARY_OPS).map(UNARY_TOKENS.get), children).map(
            lambda p: ([p[0]] + p[1][0], p[1][1] + [p[0]]))
        binary = st.tuples(st.sampled_from(BINARY_OPS).map(BINARY_TOKENS.get),
                           children, children).map(
            lambda p: ([p[0]] + p[1][0] + p[2][0], p[1][1] + p[2][1] + [p[0]]))
        return unary | binary

    return st.recursive(leaves, extend, max_leaves=10)


def as_postfix(e):
    return e if isinstance(e, str) else convert_notation(e, Notation.POSTFIX).tokens


@settings(max_examples=150, deadline=None)
@given(_trees())
def test_prefix_and_postfix_agree(tree):
    data = _mesh()
    pre = make_expr(tree[0], Notation.PREFIX)
    post = make_expr(tree[1], Notation.POSTFIX)
    assert convert_notation(pre, Notation.POSTFIX).tokens == post.tokens
    assert convert_notation(post, Notation.PREFIX).tokens == pre.tokens
    assert render_infix(pre) == render_infix(post)
    assert as_postfix(simplify(pre)) == simplify(post).tokens
    assert eval_grid(pre, data).values.tobytes() == eval_grid(post, data).values.tobytes()
    for var in "xyt":
        d_pre, d_post = _derivative(pre, var), _derivative(post, var)
        assert as_postfix(d_pre) == as_postfix(d_post)
        if not isinstance(d_post, str):
            assert (eval_grid(d_pre, data).values.tobytes()
                    == eval_grid(d_post, data).values.tobytes())
