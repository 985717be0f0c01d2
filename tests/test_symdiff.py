"""Differentiation correctness against a central finite-difference oracle,
prefix/postfix agreement, in-situ rule behavior, and the display simplifier."""

import random
import sys
import threading

import numpy as np
import pytest

from fd_oracle import FdOracle
from padesr import expr, pde, symdiff
from padesr.evaluate import eval_grid
from padesr.expr import (
    ZERO, Expr, Notation, Token, TokenKind, convert_notation, parse, sample_complete)
from padesr.pde import TOKEN_MODES, build_case, case_alphabet, objective
from padesr.symdiff import (
    IC_DERIVATIVE_MODES,
    DerivativeOrderError,
    differentiate,
    simplify,
)

NOTATIONS = (Notation.PREFIX, Notation.POSTFIX)


@pytest.fixture(scope="module")
def oracle(case1):
    case, data = case1
    return FdOracle(case, data)


def check_against_fd(oracle, e, var, rel=1e-4):
    oracle.rel = rel
    try:
        checked, failed, worst = oracle.check(e, var)
    finally:
        oracle.rel = 1e-4
    assert failed == 0, (
        f"{e.notation.value} d/d{var} {e.text}: {failed} points, worst excess {worst:.3g}"
    )
    return checked


# ---------------------------------------------------------------------------
# rule examples


def test_basic_rules(alpha1):
    assert differentiate(parse("x", Notation.PREFIX, alpha1), "x").text == "1"
    assert differentiate(parse("x y *", Notation.POSTFIX, alpha1), "x").text == "y"
    assert differentiate(parse("sin x", Notation.PREFIX, alpha1), "x").text == "cos x"
    assert differentiate(parse("I", Notation.PREFIX, alpha1), "t").text == "0"
    assert differentiate(parse("I", Notation.PREFIX, alpha1), "x").text == "I_x"
    assert differentiate(parse("I_x", Notation.PREFIX, alpha1, mode="free"), "y").text == "I_xy"


def test_order_error_past_two(alpha1):
    e = parse("I_xx", Notation.PREFIX, alpha1, mode="free")
    with pytest.raises(DerivativeOrderError):
        differentiate(e, "x")
    # t-derivatives of the stored family are zero, never an error
    assert differentiate(e, "t").text == "0"


def test_data_reading_zeroes_the_ic_family(alpha1):
    # "data": I and every stored derivative spelling are zero-derivative columns
    for text in ("I", "I_x", "I_y", "I_xx", "I_yy", "I_xy"):
        e = parse(text, Notation.PREFIX, alpha1, mode="free")
        for var in "xyt":
            assert differentiate(e, var, "data").text == "0", (text, var)
    # the usual identity rewrites apply, as for any other non-variable leaf
    e = parse("I x *", Notation.POSTFIX, alpha1)
    assert differentiate(e, "x", "data").text == "I"
    assert differentiate(e, "x").text == "I_x x * I +"
    with pytest.raises(ValueError):
        differentiate(e, "x", "bogus")


def test_second_derivative_of_square_is_two(case1, alpha1):
    _, data = case1
    e = parse("x 2 ^", Notation.POSTFIX, alpha1)
    g = eval_grid(differentiate(differentiate(e, "x"), "x"), data)
    assert not g.fault
    assert np.allclose(g.values, 2.0, atol=1e-10)


def test_second_derivative_sin(case1, alpha1):
    _, data = case1
    e = parse("sin x", Notation.PREFIX, alpha1)
    g = eval_grid(differentiate(differentiate(e, "x"), "x"), data)
    assert np.allclose(g.values, -np.sin(data.leaf["x"]), atol=1e-10)


def test_second_derivative_of_ic_matches_stored_grid(case1, alpha1):
    # derived oracle: analytic I_xx = (4(x-xc)^2 - 2) * I
    case, data = case1
    e = parse("I", Notation.PREFIX, alpha1)
    g = eval_grid(differentiate(differentiate(e, "x"), "x"), data)
    x = data.leaf["x"]
    assert np.allclose(g.values, (4 * (x - 1.1) ** 2 - 2) * data.leaf["I"], rtol=1e-12)
    assert np.array_equal(g.values, data.leaf["I_xx"])


def test_sqrt_square_power_rule_against_fd(case1, alpha1, oracle):
    _, data = case1
    e = parse("x 2 ^", Notation.POSTFIX, alpha1)
    checked = check_against_fd(oracle, e, "x", rel=1e-6)
    assert checked == data.n


def test_every_unary_chain_rule_against_fd(alpha1, oracle):
    # compositions keeping most of the mesh in-domain
    for text in (
        "log x", "exp ~ t", "cos y", "sin t", "sqrt x", "tanh y", "sech y",
        "asin / y 2", "acos / y 2", "~ x",
        "log * x x", "sqrt + 1 ^ y 2", "sech * x y", "tanh sech t",
    ):
        e = parse(text, Notation.PREFIX, alpha1)
        for var in "xyt":
            check_against_fd(oracle, e, var)


def test_quotient_and_power_rules_against_fd(alpha1, oracle):
    for text in ("/ x t", "/ sin x + 1 ^ y 2", "^ x t", "^ t 4", "^ 2 * x y"):
        e = parse(text, Notation.PREFIX, alpha1)
        for var in "xyt":
            check_against_fd(oracle, e, var)


def test_tanh_rule_identity_forms_agree(case1, alpha1):
    # the emitted form (1 - tanh^2 u) u' and the sech^2 u u' alternative are
    # the same function; check both against the emitted derivative
    _, data = case1
    u = "+ x * y t"
    emitted = differentiate(parse(f"tanh {u}", Notation.PREFIX, alpha1), "x")
    one_minus = parse(f"- 1 ^ tanh {u} 2", Notation.PREFIX, alpha1)
    sech_sq = parse(f"^ sech {u} 2", Notation.PREFIX, alpha1)
    got = eval_grid(emitted, data).values
    a = eval_grid(one_minus, data).values
    b = eval_grid(sech_sq, data).values
    assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
    assert np.allclose(got, a, rtol=1e-12, atol=1e-15)  # u' = 1 here


def test_learnable_const_derivative_is_zero(alpha1_opt):
    e = parse("C x *", Notation.POSTFIX, alpha1_opt)
    d = differentiate(e, "x")
    assert [t.text for t in d.tokens] == ["C"]
    assert d.tokens[0].slot == 0  # slot survives differentiation
    assert differentiate(e, "t").text == "0"


def test_random_expressions_against_fd(alpha1, oracle):
    # bulk form of the acceptance oracle, smaller sample for the unit suite
    rng = random.Random(5150)
    checked_points = 0
    for i in range(200):
        notation = NOTATIONS[i % 2]
        e = sample_complete(rng, notation, 5, alpha1)
        for var in "xyt":
            checked_points += check_against_fd(oracle, e, var)
    assert checked_points > 100_000


def test_notation_equivalence_of_derivatives(alpha1):
    rng = random.Random(777)
    for _ in range(200):
        e = sample_complete(rng, Notation.PREFIX, 5, alpha1)
        for var in "xyt":
            a = convert_notation(differentiate(e, var), Notation.POSTFIX)
            b = differentiate(convert_notation(e, Notation.POSTFIX), var)
            assert a.tokens == b.tokens, (e.text, var)


def test_differentiate_allocates_no_tokens(alpha1, monkeypatch):
    # output is built from input-token copies and module-level rule constants
    e = parse("- ^ I ^ tanh I sqrt t * sech + I / t * 2 y sech + x + y ^ 2 I",
              Notation.PREFIX, alpha1)
    created = []
    original = Token.__init__

    def counting(self, *args, **kwargs):
        created.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Token, "__init__", counting)
    for var in "xyt":
        differentiate(e, var)
    assert created == []


# ---------------------------------------------------------------------------
# interned one-token derivatives


def test_equal_one_token_derivatives_are_one_object_per_notation(alpha1_opt, rng):
    seen = {}
    for i in range(400):
        e = sample_complete(rng, NOTATIONS[i % 2], rng.randint(0, 3), alpha1_opt)
        for var in "xyt":
            for reading in IC_DERIVATIVE_MODES:
                d = differentiate(e, var, reading)
                if len(d.tokens) == 1:
                    assert seen.setdefault((d.notation, d.tokens), d) is d, (e.text, var)
    zeros = [seen[(notation, (ZERO,))] for notation in NOTATIONS]
    assert zeros[0] is not zeros[1] and zeros[0].notation is Notation.PREFIX
    assert len(seen) >= 8


def test_interned_constants_keep_their_slots(case1, alpha1_opt):
    _, data = case1
    first = differentiate(parse("x C *", Notation.POSTFIX, alpha1_opt), "x")
    second = differentiate(parse("C x C * +", Notation.POSTFIX, alpha1_opt), "x")
    assert [tok.slot for tok in first.tokens] == [0] and [tok.slot for tok in second.tokens] == [1]
    assert first is not second and first != second
    assert differentiate(parse("C x *", Notation.POSTFIX, alpha1_opt), "x") is first
    assert (eval_grid(first, data, [1.5, 2.5]).values == 1.5).all()
    assert (eval_grid(second, data, [1.5, 2.5]).values == 2.5).all()


def test_two_threads_differentiate_a_corpus_alike(alpha1_opt, monkeypatch):
    # both threads start from an empty table and fill it as they go
    monkeypatch.setattr(symdiff, "_ONE_TOKEN", {})
    rng = random.Random(13)
    corpus = [sample_complete(rng, NOTATIONS[i % 2], rng.randint(0, 4), alpha1_opt)
              for i in range(300)]
    results = {}

    def derive(me):
        results[me] = [differentiate(e, var, reading) for e in corpus for var in "xyt"
                       for reading in IC_DERIVATIVE_MODES]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so the two threads interleave
    try:
        threads = [threading.Thread(target=derive, args=(me,)) for me in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(symdiff, "_ONE_TOKEN", {})
    derive("alone")
    assert results[0] == results[1] == results["alone"]
    assert sum(len(d.tokens) == 1 for d in results[0]) > 500


def test_interning_cuts_program_compiles_on_a_sweep_shaped_corpus(monkeypatch):
    # case 1 at 10^3, every token mode, both notations, depths 2, 5 and 8,
    # as the sweep draws them: scored once with interning and once with each
    # derivative a fresh Expr, every program compiled anew in both runs
    case, data = build_case("case1", (10, 10, 10))
    alphabets = [case_alphabet(case, mode) for mode in TOKEN_MODES]
    rng = random.Random(20)
    corpus = [sample_complete(rng, NOTATIONS[i % 2], (2, 5, 8)[i % 3], alphabets[i % 3])
              for i in range(900)]
    compiles = []
    compile_program = expr.compile_program

    def counted(tokens, notation):
        compiles.append(1)
        return compile_program(tokens, notation)

    def run():
        compiles.clear()
        totals = [objective(Expr(e.notation, e.tokens), case, data, [0.5] * e.n_slots).total
                  for e in corpus]
        return len(compiles), totals

    monkeypatch.setattr(expr, "compile_program", counted)
    monkeypatch.setattr(symdiff, "_ONE_TOKEN", {})
    interned, totals = run()
    real = pde.differentiate
    monkeypatch.setattr(pde, "differentiate",
                        lambda e, var, reading: Expr(e.notation, real(e, var, reading).tokens))
    fresh, fresh_totals = run()
    assert totals == fresh_totals
    assert interned <= 0.6 * fresh, (interned, fresh)


# ---------------------------------------------------------------------------
# simplify


def test_simplify_identities(alpha1):
    assert simplify(parse("x 0 +", Notation.POSTFIX, alpha1)).text == "x"
    assert simplify(parse("^ I ^ 1 x", Notation.PREFIX, alpha1)).text == "I"
    assert simplify(parse("+ x / 0 / x + y 0.1", Notation.PREFIX, alpha1, mode="free")).text == "x"
    assert simplify(parse("* x 1", Notation.PREFIX, alpha1)).text == "x"
    assert simplify(parse("~ 0", Notation.PREFIX, alpha1)).text == "0"
    assert simplify(parse("x 1 ^", Notation.POSTFIX, alpha1)).text == "x"


def test_simplify_constant_folding(alpha1):
    assert simplify(parse("- 2 1", Notation.PREFIX, alpha1)).text == "1"
    assert simplify(parse("log / 2 2", Notation.PREFIX, alpha1)).text == "0"
    assert simplify(parse("+ x * 2 4", Notation.PREFIX, alpha1)).text == "+ x 8"
    # folding never produces a non-finite literal
    assert simplify(parse("log ~ 1", Notation.PREFIX, alpha1)).text == "log -1"
    assert simplify(parse("1 0 /", Notation.POSTFIX, alpha1)).text == "1 0 /"


def test_simplify_preserves_values(case1, alpha1, rng):
    _, data = case1
    for _ in range(400):
        notation = NOTATIONS[rng.randrange(2)]
        e = sample_complete(rng, notation, 5, alpha1)
        s = simplify(e)
        a = eval_grid(e, data).values
        b = eval_grid(s, data).values
        ok = np.isfinite(a)
        assert np.allclose(a[ok], b[ok], rtol=0, atol=1e-10), (e.text, s.text)


def test_simplify_is_one_pass_fixed_point(alpha1_opt):
    rng = random.Random(8)
    for i in range(1500):
        e = sample_complete(rng, NOTATIONS[i % 2], rng.randint(0, 6), alpha1_opt)
        corpus = [e]
        for var in "xyt":
            try:
                corpus.append(differentiate(e, var))
            except DerivativeOrderError:
                pass
        for c in corpus:
            once = simplify(c)
            assert simplify(once).tokens == once.tokens, c.text


def test_simplify_derivative_chains(case1, alpha1):
    _, data = case1
    e = parse("x 2 ^", Notation.POSTFIX, alpha1)
    d2 = simplify(differentiate(differentiate(e, "x"), "x"))
    a = eval_grid(d2, data)
    assert np.allclose(a.values, 2.0, atol=1e-10)


def test_derivative_by_an_absent_variable_is_the_literal_zero(case1):
    # the premise of rejecting at the gate before any grid: every identity
    # rewrite passes a zero on, so a derivative by a variable T does not hold
    # is the one token 0.  For x and y, the analytic reading also needs no
    # I-family leaf, whose derivatives are the stored I_x, I_xx, ...  The
    # converse fails: ``x 0 *`` holds x and still differentiates to 0.
    case, _ = case1
    rng = random.Random(20241019)
    reached = 0
    for mode in TOKEN_MODES:
        alphabet = case_alphabet(case, mode)
        for i in range(300):
            e = sample_complete(rng, NOTATIONS[i % 2], rng.randint(0, 6), alphabet)
            kinds = {(tok.kind, tok.text) for tok in e.tokens}
            has_ic = any(kind is TokenKind.IC for kind, _ in kinds)
            for var in "xyt":
                if (TokenKind.VARIABLE, var) in kinds:
                    continue
                for reading in IC_DERIVATIVE_MODES:
                    if has_ic and var != "t" and reading == "analytic":
                        continue
                    assert differentiate(e, var, reading).tokens == (ZERO,), (e.text, var)
                    reached += 1
    assert reached > 1000
    x_times_zero = parse("x 0 *", Notation.POSTFIX, case_alphabet(case, "vars+const"))
    assert differentiate(x_times_zero, "x").tokens == (ZERO,)
