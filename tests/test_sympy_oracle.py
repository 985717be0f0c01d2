"""``differentiate`` against sympy, an oracle that shares no rule with it.

A seeded corpus of depth-4 ``vars+const+opt`` expressions, in both notations,
is translated to sympy through :func:`~padesr.expr.fold`, with ``C`` slot
``i`` bound to ``i + 0.5``.  Under the analytic reading ``I`` is the case's
Gaussian in x and y; under the data reading the ``I`` family are free symbols
fed their grid columns.  ``eval_grid`` of each symbolic derivative (x, y, t,
xx and yy) must match the lambdified ``sympy.diff`` on case 1's 10^3 mesh,
wherever both are finite and real.  Unlike the finite-difference oracle this
has no step size, so poles and fast oscillation are checked too.
"""

import random

import numpy as np
import pytest

from padesr.evaluate import eval_grid
from padesr.expr import (
    IC_FAMILY,
    Notation,
    TokenKind,
    convert_notation,
    fold,
    sample_complete,
)
from padesr.pde import case_alphabet
from padesr.symdiff import differentiate

sp = pytest.importorskip("sympy")

X, Y, T = sp.symbols("x y t", real=True)
FAMILY = {tok.text: sp.Symbol(tok.text, real=True) for tok in IC_FAMILY}
PER_NOTATION = 150
REL = 1e-4
# the variables differentiated in order -> sympy.diff's arguments
DERIVATIVES = {"x": (X,), "y": (Y,), "t": (T,), "xx": (X, 2), "yy": (Y, 2)}
UNARY = {
    "~": lambda a: -a, "log": sp.log, "exp": sp.exp, "cos": sp.cos, "sin": sp.sin,
    "sqrt": sp.sqrt, "asin": sp.asin, "acos": sp.acos, "tanh": sp.tanh, "sech": sp.sech,
}
BINARY = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b,
    "/": lambda a, b: a / b, "^": lambda a, b: a ** b,
}


def to_sympy(e, gaussian):
    """``e`` as a sympy expression; ``gaussian`` is ``I`` as a function of
    x and y, or None to keep the family as free symbols."""
    variables = {"x": X, "y": Y, "t": T}

    def leaf(tok):
        if tok.kind is TokenKind.VARIABLE:
            return variables[tok.text]
        if tok.kind is TokenKind.IC:
            return FAMILY[tok.text] if gaussian is None else gaussian
        if tok.kind is TokenKind.CONST:
            return sp.Float(tok.slot + 0.5)
        return sp.Float(tok.value)

    return fold(e.tokens, e.notation, leaf,
                lambda tok, a: UNARY[tok.text](a),
                lambda tok, a, b: BINARY[tok.text](a, b))


def corpus(alphabet):
    """Postfix samples, each also in prefix: prefix sampling mostly draws a
    lone leaf (see ``bench/README.md``), postfix sampling whole trees."""
    rng = random.Random(20261019)
    samples = [sample_complete(rng, Notation.POSTFIX, 4, alphabet) for _ in range(PER_NOTATION)]
    return samples + [convert_notation(e, Notation.PREFIX) for e in samples]


@pytest.mark.parametrize("reading", ["analytic", "data"])
def test_differentiate_matches_sympy(case1, reading):
    case, data = case1
    ic = case.ic
    gaussian = None
    if reading == "analytic":
        gaussian = sp.exp(-((X - ic.x_center) ** 2 + (Y - ic.y_center) ** 2)) / ic.scale
    columns = [data.leaf["x"], data.leaf["y"], data.leaf["t"]]
    columns += [data.leaf[name] for name in FAMILY]
    symbols = (X, Y, T, *FAMILY.values())
    alphabet = case_alphabet(case, "vars+const+opt")
    checked = skipped = 0
    worst = 0.0
    for e in corpus(alphabet):
        try:
            form = to_sympy(e, gaussian)
        except ZeroDivisionError:  # sympy's Float 0.0 to a negative power
            skipped += len(DERIVATIVES)
            continue
        consts = [slot + 0.5 for slot in range(e.n_slots)]
        for name, args in DERIVATIVES.items():
            ours = e
            for var in name:
                ours = differentiate(ours, var, ic_derivatives=reading)
            theirs = sp.diff(form, *args)
            if theirs.has(sp.zoo, sp.nan, sp.oo, -sp.oo):
                skipped += 1
                continue
            a = eval_grid(ours, data, consts).values
            with np.errstate(all="ignore"):
                b = np.broadcast_to(
                    np.asarray(sp.lambdify(symbols, theirs, "numpy")(*columns), dtype=complex),
                    a.shape)
            both = np.isfinite(a) & np.isfinite(b) & (b.imag == 0)
            if not both.any():
                skipped += 1
                continue
            a, b = a[both], b.real[both]
            scale = max(1.0, float(np.abs(b).max()))
            error = float(np.abs(a - b).max()) / scale
            worst = max(worst, error)
            assert error <= REL, f"{e.notation.value} d/d{name} {e.text}: {error:.3g}"
            checked += 1
    # at least 80% of the 2 * PER_NOTATION * 5 comparisons run, not skipped
    assert checked >= 8 * PER_NOTATION, (checked, skipped, worst)
