"""Vectorized evaluation of flat expressions over mesh grids.

A :class:`Dataset` holds the three inclusive axis linspaces and one value grid
for each of x, y, t and the initial-condition feature ``I`` with its
derivative family up to second order (precomputed analytically from the
Gaussian profile), flattened x-major (index ``(ix*ny + iy)*nt + it``).
Literals, named ones included, and learnable constants evaluate by value.
:func:`eval_grid` combines an expression in one :func:`~padesr.expr.fold`
stack scan, the walk every other pass over tokens uses.  Domain faults (log
of a non-positive value, square root of a negative, arcsin/arccos outside
[-1, 1], division by zero, powers leaving the reals) evaluate to NaN and raise
the grid's fault flag; candidates are rejected wholesale by the objective
rather than patched with protected operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .expr import Expr, Token, TokenKind, fold


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class GaussianIc:
    """Initial condition exp(-((x-xc)^2 + (y-yc)^2)) / scale."""

    x_center: float
    y_center: float
    scale: float = 0.08

    def value(self, x, y):
        dx = x - self.x_center
        dy = y - self.y_center
        return np.exp(-(dx * dx + dy * dy)) / self.scale

    def derivative(self, order_x: int, order_y: int, x, y):
        """Analytic derivative grid for the stored family (total order <= 2)."""
        g = self.value(x, y)
        dx = x - self.x_center
        dy = y - self.y_center
        key = (order_x, order_y)
        if key == (0, 0):
            return g
        if key == (1, 0):
            return -2.0 * dx * g
        if key == (0, 1):
            return -2.0 * dy * g
        if key == (2, 0):
            return (4.0 * dx * dx - 2.0) * g
        if key == (0, 2):
            return (4.0 * dy * dy - 2.0) * g
        if key == (1, 1):
            return 4.0 * dx * dy * g
        raise ValueError(f"unsupported derivative order {key}")


_IC_SPELLINGS = {"I": (0, 0), "I_x": (1, 0), "I_y": (0, 1),
                 "I_xx": (2, 0), "I_yy": (0, 2), "I_xy": (1, 1)}


@dataclass(frozen=True)
class Grid:
    """Flat value grid plus a flag recording whether any entry is non-finite."""

    values: np.ndarray
    fault: bool


@dataclass(frozen=True)
class Dataset:
    """Axes plus one flat grid per variable and per ``I``-family token."""

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    leaf: Mapping[str, np.ndarray]
    shape: tuple[int, int, int]
    n: int


def build_dataset(
    xs: Sequence[float],
    ys: Sequence[float],
    ts: Sequence[float],
    ic: GaussianIc,
) -> Dataset:
    """Product-mesh dataset over the given axis arrays.

    Axis arrays of length 1 yield boundary-plane datasets (one coordinate
    pinned to its exact bound) with the same machinery as the interior mesh.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    nx, ny, nt = len(xs), len(ys), len(ts)
    n = nx * ny * nt
    gx = np.repeat(xs, ny * nt)
    gy = np.tile(np.repeat(ys, nt), nx)
    gt = np.tile(ts, nx * ny)
    leaf: dict[str, np.ndarray] = {"x": gx, "y": gy, "t": gt}
    for text, (ox, oy) in _IC_SPELLINGS.items():
        leaf[text] = ic.derivative(ox, oy, gx, gy)
    return Dataset(xs, ys, ts, leaf, (nx, ny, nt), n)


def linspace_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Inclusive linspace v_i = lo + i*(hi-lo)/(n-1)."""
    if n < 2:
        raise ValueError("axis needs at least 2 points")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# operator semantics (shared by grid evaluation and constant folding)


def _op_log(a):
    return np.where(a > 0, np.log(np.where(a > 0, a, 1.0)), np.nan)


def _op_div(a, b):
    return np.where(b == 0, np.nan, np.divide(a, np.where(b == 0, 1.0, b)))


def _op_pow(a, b):
    r = np.power(a, b)
    return np.where(np.isfinite(r), r, np.nan)


def _op_sech(a):
    return 2.0 / (np.exp(a) + np.exp(-a))


UNARY_FUNCS = {
    "~": np.negative,
    "log": _op_log,
    "exp": np.exp,
    "cos": np.cos,
    "sin": np.sin,
    "sqrt": np.sqrt,
    "asin": np.arcsin,
    "acos": np.arccos,
    "tanh": np.tanh,
    "sech": _op_sech,
}

BINARY_FUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _op_div,
    "^": _op_pow,
}


def scalar_unary(op: str, a: float) -> float:
    with np.errstate(all="ignore"):
        return float(UNARY_FUNCS[op](np.float64(a)))


def scalar_binary(op: str, a: float, b: float) -> float:
    with np.errstate(all="ignore"):
        return float(BINARY_FUNCS[op](np.float64(a), np.float64(b)))


# ---------------------------------------------------------------------------
# evaluation


def eval_grid(e: Expr, data: Dataset, consts: Optional[Sequence[float]] = None) -> Grid:
    """Evaluate over every mesh point of ``data`` in one stack scan."""
    def leaf(tok: Token):
        kind = tok.kind
        if kind is TokenKind.LITERAL:
            return tok.value
        if kind is TokenKind.CONST:
            if consts is None or tok.slot >= len(consts):
                raise EvalError(f"missing value for constant slot {tok.slot}")
            return float(consts[tok.slot])
        try:
            return data.leaf[tok.text]
        except KeyError:
            raise EvalError(f"dataset has no grid for leaf {tok.text!r}") from None

    with np.errstate(all="ignore"):
        values = fold(e.tokens, e.notation, leaf,
                      lambda tok, a: UNARY_FUNCS[tok.text](a),
                      lambda tok, a, b: BINARY_FUNCS[tok.text](a, b))
    if np.ndim(values) == 0:
        values = np.full(data.n, float(values))
    return Grid(values, not bool(np.isfinite(values).all()))
