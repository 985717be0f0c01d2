"""Grammar, parsing, rendering, and notation-conversion tests.

The enumeration oracle builds every expression tree over a tiny alphabet by
direct recursion and checks that token-by-token expansion through
legal_tokens reaches exactly the same serializations.
"""

import itertools
import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from padesr.expr import (
    BINARY_TOKENS,
    ExprError,
    Grammar,
    Notation,
    ParseError,
    Token,
    TokenKind,
    VAR_X,
    VAR_Y,
    convert_notation,
    is_complete,
    legal_tokens,
    make_expr,
    parse,
    render_infix,
    sample_complete,
    span_at,
    token_path_depths,
)
from padesr.pde import TOKEN_MODES, case_alphabet
from grammar_oracle import legal_tokens_oracle

NOTATIONS = (Notation.PREFIX, Notation.POSTFIX)


# ---------------------------------------------------------------------------
# oracle: direct recursive tree enumeration


def enumerate_trees(alphabet, max_depth):
    """All expression trees of depth <= max_depth, as (prefix, postfix) token tuples."""
    if max_depth == 0:
        return [((leaf,), (leaf,)) for leaf in alphabet.leaves]
    smaller = enumerate_trees(alphabet, max_depth - 1)
    out = list(smaller)
    for op in alphabet.unaries:
        for pre, post in smaller:
            out.append(((op,) + pre, post + (op,)))
    for op in alphabet.binaries:
        for (lp, lq), (rp, rq) in itertools.product(smaller, smaller):
            out.append(((op,) + lp + rp, lq + rq + (op,)))
    # depth <= n-1 trees are enumerated twice (once via smaller), deduplicate
    return sorted(set(out), key=lambda pair: tuple(t.text for t in pair[0]))


def expand_all(alphabet, notation, budget):
    """Every complete sequence reachable by repeated legal_tokens expansion."""
    complete = set()
    frontier = [()]
    while frontier:
        partial = frontier.pop()
        if is_complete(partial, notation):
            complete.add(partial)
        for tok in legal_tokens(partial, notation, budget, alphabet):
            frontier.append(partial + (tok,))
    return complete


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_enumeration_matches_recursive_oracle(tiny_alphabet, budget):
    trees = enumerate_trees(tiny_alphabet, budget)
    expected_prefix = {pre for pre, _ in trees}
    expected_postfix = {post for _, post in trees}
    assert expand_all(tiny_alphabet, Notation.PREFIX, budget) == expected_prefix
    assert expand_all(tiny_alphabet, Notation.POSTFIX, budget) == expected_postfix


def test_enumeration_counts(tiny_alphabet):
    # 2 leaves, 1 unary, 1 binary: count(n) = 2 + count(n-1) + count(n-1)^2
    assert len(enumerate_trees(tiny_alphabet, 0)) == 2
    assert len(enumerate_trees(tiny_alphabet, 1)) == 2 + 2 + 4
    assert len(enumerate_trees(tiny_alphabet, 2)) == 2 + 8 + 64


# ---------------------------------------------------------------------------
# hand-checked legality examples


def test_prefix_depth0_leaves_only(alpha1):
    legal = legal_tokens([], Notation.PREFIX, 0, alpha1)
    assert legal and all(t.arity == 0 for t in legal)
    assert set(legal) == set(alpha1.leaves)


def test_prefix_operator_at_budget_one_forces_leaves(alpha1):
    legal = legal_tokens([BINARY_TOKENS["+"]], Notation.PREFIX, 1, alpha1)
    assert legal and all(t.arity == 0 for t in legal)


def test_postfix_single_leaf_budget_one(alpha1):
    legal = legal_tokens([VAR_X], Notation.POSTFIX, 1, alpha1)
    assert set(legal) == set(alpha1.leaves) | set(alpha1.unaries)


def test_postfix_two_leaves_budget_one_binaries_only(alpha1):
    # oracle: brute-force all completions of [x, y] within depth 1
    def completes(tok):
        partial = (VAR_X, VAR_Y, tok)
        stack = []
        for t in partial:
            if t.arity > len(stack):
                return False
            args = [stack.pop() for _ in range(t.arity)]
            stack.append(max(args, default=-1) + 1 if t.arity else 0)
        # any remaining merge adds depth; only a lone tree of depth <= 1 works
        return len(stack) == 1 and stack[0] <= 1

    legal = legal_tokens([VAR_X, VAR_Y], Notation.POSTFIX, 1, alpha1)
    assert legal == [t for t in alpha1.ordered if completes(t)]
    assert all(t.arity == 2 for t in legal)


@given(st.integers(0, 8), st.sampled_from(NOTATIONS), st.randoms(use_true_random=False))
def test_legal_tokens_no_dead_ends(alpha1, budget, notation, rng):
    # every admitted token leads to a state that is complete or extendable,
    # and the sequence the grammar ends is a valid expression within budget
    partial = []
    while legal := legal_tokens(partial, notation, budget, alpha1):
        partial.append(legal[rng.randrange(len(legal))])
        assert legal_tokens(partial, notation, budget, alpha1) or is_complete(partial, notation)
    assert make_expr(partial, notation, budget).depth <= budget


def test_legal_tokens_malformed_partial_raises(alpha1):
    with pytest.raises(ExprError):
        legal_tokens([BINARY_TOKENS["+"]], Notation.POSTFIX, 3, alpha1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NOTATIONS), st.integers(0, 8), st.sampled_from(tuple(TOKEN_MODES)),
       st.randoms(use_true_random=False))
def test_pushed_grammar_lists_what_a_rescan_lists(case1, notation, budget, token_mode, rng):
    # along a legal random walk, the state updated token by token admits what
    # rescanning the whole partial admits, in content and in order
    alphabet = case_alphabet(case1[0], token_mode)
    g = Grammar(notation, budget, alphabet)
    partial = []
    while True:
        legal = g.legal()
        assert list(legal) == legal_tokens_oracle(partial, notation, budget, alphabet)
        if not legal:
            break
        tok = legal[rng.randrange(len(legal))]
        g.push(tok)
        partial.append(tok)
    assert g.tokens == partial


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NOTATIONS), st.integers(0, 8), st.sampled_from(tuple(TOKEN_MODES)),
       st.data())
def test_grammar_rejects_the_partials_a_rescan_rejects(case1, notation, budget, token_mode,
                                                       data):
    # arbitrary partials, most of them malformed: the same error, or the same list
    alphabet = case_alphabet(case1[0], token_mode)
    partial = data.draw(st.lists(st.sampled_from(alphabet.ordered), max_size=12))
    try:
        expected = legal_tokens_oracle(partial, notation, budget, alphabet)
    except ExprError as err:
        with pytest.raises(ExprError, match=f"^{re.escape(str(err))}$"):
            Grammar(notation, budget, alphabet, partial)
        return
    assert list(Grammar(notation, budget, alphabet, partial).legal()) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NOTATIONS), st.integers(0, 8), st.sampled_from(tuple(TOKEN_MODES)),
       st.randoms(use_true_random=False))
def test_a_drawn_expression_is_what_make_expr_builds(case1, notation, budget, token_mode,
                                                    rng):
    # at every step of a legal random walk, started from a partial whose C
    # tokens carry slots of their own, Grammar.expr equals make_expr's full
    # check on the same tokens, or both raise ExprError
    alphabet = case_alphabet(case1[0], token_mode)
    partial = [Token(TokenKind.CONST, "C", slot=5)] if alphabet.include_learnable else []
    g = Grammar(notation, budget, alphabet, partial)
    while True:
        try:
            want = make_expr(g.tokens, notation, budget)
        except ExprError:
            with pytest.raises(ExprError, match="^incomplete expression$"):
                g.expr()
        else:
            assert g.expr() == want
        legal = g.legal()
        if not legal:
            break
        g.push(legal[rng.randrange(len(legal))])
    assert want == g.expr()


def test_a_finished_draw_is_not_checked_again(alpha1_opt, monkeypatch):
    # sampling and PSO decoding build their Expr from the Grammar; make_expr
    # stays for sequences spliced together elsewhere
    from padesr import expr as expr_module, search

    def rescan(*args, **kwargs):
        raise AssertionError("a drawn sequence was scanned again")

    monkeypatch.setattr(expr_module, "make_expr", rescan)
    monkeypatch.setattr(search, "make_expr", rescan)
    rng = random.Random(4)
    for i in range(200):
        sample_complete(rng, NOTATIONS[i % 2], 5, alpha1_opt)
    w = SimpleNamespace(config=SimpleNamespace(notation=Notation.PREFIX, depth=4),
                        alphabet=alpha1_opt)
    search._decode_particle([rng.uniform(-50, 50) for _ in range(31)], w)


# ---------------------------------------------------------------------------
# sampling


def test_sample_depth0_single_leaf(alpha1, rng):
    for notation in NOTATIONS:
        e = sample_complete(rng, notation, 0, alpha1)
        assert len(e.tokens) == 1 and e.depth == 0


def test_sample_deterministic(alpha1):
    for notation in NOTATIONS:
        a = sample_complete(random.Random(7), notation, 5, alpha1)
        b = sample_complete(random.Random(7), notation, 5, alpha1)
        assert a == b


def test_sample_completes_partial(alpha1):
    for notation in NOTATIONS:
        whole = sample_complete(random.Random(7), notation, 5, alpha1)
        for k in range(len(whole.tokens) + 1):
            e = sample_complete(random.Random(k), notation, 5, alpha1, whole.tokens[:k])
            assert e.tokens[:k] == whole.tokens[:k]
            assert e.depth <= 5
        assert sample_complete(random.Random(7), notation, 5, alpha1, whole.tokens) == whole


def tree_depth_oracle(tokens, notation):
    """Independent depth check: build the actual tree, measure recursively."""
    nodes = []  # (token, children)
    if notation is Notation.POSTFIX:
        stack = []
        for tok in tokens:
            children = [stack.pop() for _ in range(tok.arity)][::-1]
            stack.append((tok, children))
        assert len(stack) == 1
        root = stack[0]
    else:
        pos = 0

        def build():
            nonlocal pos
            tok = tokens[pos]
            pos += 1
            return (tok, [build() for _ in range(tok.arity)])

        root = build()
        assert pos == len(tokens)

    def measure(node):
        tok, children = node
        if not children:
            return 0
        return 1 + max(measure(c) for c in children)

    return measure(root)


def test_sample_invariants_bulk(alpha1):
    rng = random.Random(99)
    for i in range(10_000):
        notation = NOTATIONS[i % 2]
        e = sample_complete(rng, notation, 3, alpha1)
        assert is_complete(e.tokens, notation)
        assert e.depth == tree_depth_oracle(e.tokens, notation)
        assert e.depth <= 3
        assert len(e.tokens) <= 2 ** 4 - 1


# ---------------------------------------------------------------------------
# depth / parse / render / convert


def test_depth_examples(alpha1):
    assert parse("x", Notation.PREFIX, alpha1).depth == 0
    assert parse("+ x y", Notation.PREFIX, alpha1).depth == 1
    assert parse("x y + t *", Notation.POSTFIX, alpha1).depth == 2


def test_parse_examples(alpha1):
    e = parse("x y +", Notation.POSTFIX, alpha1)
    assert e.depth == 1
    with pytest.raises(ParseError):
        parse("x +", Notation.POSTFIX, alpha1)
    e = parse("sech 0.103287", Notation.PREFIX, alpha1, mode="free")
    assert e.tokens[1].value == pytest.approx(0.103287)


def test_parse_unknown_token_position(alpha1):
    with pytest.raises(ParseError) as err:
        parse("x bogus +", Notation.POSTFIX, alpha1)
    assert err.value.position == 1


def test_parse_free_literal_rejected_in_search_mode(alpha1):
    with pytest.raises(ParseError):
        parse("0.5 x +", Notation.PREFIX, alpha1)


def test_parse_bindings(alpha1):
    e = parse("y_0 x *", Notation.POSTFIX, alpha1, mode="free", bindings={"y_0": -1.1})
    assert e.tokens[0].value == -1.1
    with pytest.raises(ParseError):
        parse("y_0 x *", Notation.POSTFIX, alpha1, mode="free")


def test_render_examples(alpha1):
    assert render_infix(parse("* x + y t", Notation.PREFIX, alpha1)) == "(x*(y+t))"
    assert render_infix(parse("I", Notation.PREFIX, alpha1)) == "I"
    assert render_infix(parse("x 2 ^", Notation.POSTFIX, alpha1)) == "(x^2)"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NOTATIONS), st.sampled_from(tuple(TOKEN_MODES)), st.integers(0, 5),
       st.randoms(use_true_random=False))
def test_render_round_trips_through_infix_reader(case1, notation, token_mode, depth, rng):
    # the infix rendering, the token text and the other notation each lead
    # back to the same expression, constant slots included
    from infix_reader import read_infix

    alphabet = case_alphabet(case1[0], token_mode)
    e = sample_complete(rng, notation, depth, alphabet)
    assert read_infix(render_infix(e), notation, alphabet) == e
    assert parse(e.text, notation, alphabet) == e
    other = NOTATIONS[1 - NOTATIONS.index(notation)]
    assert convert_notation(convert_notation(e, other), notation).tokens == e.tokens


def test_convert_examples(alpha1):
    e = parse("+ x y", Notation.PREFIX, alpha1)
    assert convert_notation(e, Notation.POSTFIX).text == "x y +"
    assert convert_notation(e, Notation.PREFIX) is e


def test_convert_round_trip_and_depth(alpha1, rng):
    for _ in range(500):
        notation = NOTATIONS[rng.randrange(2)]
        other = NOTATIONS[1 - NOTATIONS.index(notation)]
        e = sample_complete(rng, notation, 5, alpha1)
        conv = convert_notation(e, other)
        assert conv.depth == e.depth
        assert convert_notation(conv, notation) == e


def test_exhaustive_small_expressions_convert_and_depth(tiny_alphabet):
    # every tree of depth <= 2 over the tiny alphabet: serialization pairs
    # must convert into each other and agree on depth
    for pre, post in enumerate_trees(tiny_alphabet, 2):
        e_pre = make_expr(pre, Notation.PREFIX)
        e_post = make_expr(post, Notation.POSTFIX)
        assert e_pre.depth == e_post.depth == tree_depth_oracle(pre, Notation.PREFIX)
        assert convert_notation(e_pre, Notation.POSTFIX).tokens == e_post.tokens
        assert convert_notation(e_post, Notation.PREFIX).tokens == e_pre.tokens


def test_make_expr_validation(alpha1):
    with pytest.raises(ExprError):
        make_expr([VAR_X, VAR_Y], Notation.POSTFIX)
    with pytest.raises(ExprError):
        make_expr([BINARY_TOKENS["+"], VAR_X], Notation.PREFIX)


def test_const_slot_assignment(alpha1_opt):
    e = parse("C C + C *", Notation.POSTFIX, alpha1_opt)
    slots = [t.slot for t in e.tokens if t.kind is TokenKind.CONST]
    assert slots == [0, 1, 2]
    assert e.n_slots == 3


@given(st.lists(st.one_of(st.none(), st.integers(0, 4)), min_size=1, max_size=6))
def test_make_expr_numbers_constants_in_token_order(carried):
    # C tokens spliced from other expressions arrive with slots of their own
    plus = BINARY_TOKENS["+"]
    tokens = [Token(TokenKind.CONST, "C", slot=s) for s in carried]
    tokens += [plus] * (len(carried) - 1)
    e = make_expr(tokens, Notation.POSTFIX)
    assert [t.slot for t in e.tokens if t.kind is TokenKind.CONST] == list(range(len(carried)))
    assert e.n_slots == len(carried)


def test_span_helpers(alpha1):
    e = parse("x y + t *", Notation.POSTFIX, alpha1)
    # span rooted at the "+" token covers "x y +"
    assert span_at(e.tokens, 2, Notation.POSTFIX) == (0, 3)
    depths = token_path_depths(e.tokens, Notation.POSTFIX)
    assert depths == [2, 2, 1, 1, 0]
    p = parse("* + x y t", Notation.PREFIX, alpha1)
    assert span_at(p.tokens, 1, Notation.PREFIX) == (1, 4)
    assert token_path_depths(p.tokens, Notation.PREFIX) == [0, 1, 2, 2, 1]
