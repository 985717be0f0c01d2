"""One-scan grid evaluation: the oracle for the compiled program.

This is ``eval_grid`` as it evaluated before an expression ran as a program
over its distinct subtrees on sub-meshes: one :func:`padesr.expr.fold` over
the tokens, each operator applied where its token stands to the flat grids
of every mesh point, so a repeated subtree is computed again each time, and
each kernel makes a new array.  It shares no evaluation code with
:mod:`padesr.evaluate`, so ``eval_grid`` must return exactly what it
returns: the same value bits and the same fault flags.  Both write every NaN
as ``np.nan``, since the sign of a NaN made from two NaNs depends on which
numpy loop computed it.
"""

import numpy as np

from padesr.evaluate import EvalError, Grid
from padesr.expr import TokenKind, fold


def _log(a):
    return np.where(a > 0, np.log(a), np.nan)


def _div(a, b):
    return np.where(b == 0, np.nan, np.divide(a, b))


def _pow(a, b):
    if np.ndim(b) == 2 and b.shape[1] == 1:
        # a batch's C column: each row's exponent is 0-d, as one vector's C is,
        # so numpy's shortcut for an exponent of 2, 0.5 or -1 is taken alike
        rows = [np.power(a[i] if np.ndim(a) == 2 else a, b[i, 0]) for i in range(len(b))]
        r = np.stack(rows).reshape(np.broadcast_shapes(np.shape(a), b.shape))
    else:
        r = np.power(a, b)
    return np.where(np.isfinite(r), r, np.nan)


def _sech(a):
    return 2.0 / (np.exp(a) + np.exp(-a))


UNARY = {
    "~": np.negative,
    "log": _log,
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "sqrt": np.sqrt,
    "asin": np.arcsin,
    "acos": np.arccos,
    "tanh": np.tanh,
    "sech": _sech,
}

BINARY = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _div,
    "^": _pow,
}


def eval_grid_oracle(e, data, consts=None):
    """``eval_grid(e, data, consts)``, one fold over the tokens."""
    if e.n_slots:
        given = 0 if consts is None else np.shape(consts)[-1]
        if given < e.n_slots:
            raise EvalError(f"missing value for constant slot {given}")
    batched = np.ndim(consts) == 2

    def leaf(tok):
        if tok.kind is TokenKind.LITERAL:
            return tok.value
        if tok.kind is TokenKind.CONST:
            if batched:
                return consts[:, tok.slot:tok.slot + 1]
            return float(consts[tok.slot])
        return data.leaf[tok.text]

    with np.errstate(all="ignore"):
        values = fold(e.tokens, e.notation, leaf,
                      lambda tok, a: UNARY[tok.text](a),
                      lambda tok, a, b: BINARY[tok.text](a, b))
    if batched and e.n_slots:
        values = _canonical(np.broadcast_to(values, (len(consts), data.n)))
        return Grid(values, ~np.isfinite(values).all(axis=-1))
    if np.ndim(values) == 0:
        values = np.full(data.n, float(values))
    values = _canonical(values)
    return Grid(values, not bool(np.isfinite(values).all()))


def _canonical(values):
    """``values`` with every NaN written as ``np.nan``."""
    return np.where(np.isnan(values), np.nan, values)
