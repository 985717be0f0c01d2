"""Stack-based vectorized evaluation of flat expressions over mesh grids.

A :class:`Dataset` holds the three inclusive axis linspaces and one value grid
per leaf token, flattened x-major (index ``(ix*ny + iy)*nt + it``).  The
initial-condition feature ``I`` and its derivative family up to second order
are precomputed analytically from the Gaussian profile.  Domain faults (log of
a non-positive value, square root of a negative, arcsin/arccos outside
[-1, 1], division by zero, powers leaving the reals) evaluate to NaN and raise
the grid's fault flag; candidates are rejected wholesale by the objective
rather than patched with protected operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .expr import Expr, Notation, TokenKind, scan_order


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
    """Axes plus one flat grid per leaf token of the search alphabet."""

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
    literal_values: Optional[Mapping[str, float]] = None,
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
    for name, value in (literal_values or {}).items():
        leaf[name] = np.broadcast_to(np.float64(value), (n,))
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
# compiled programs

_LEAF, _LIT, _CONST, _UN, _BIN_LR, _BIN_RL = range(6)


def _compile(e: Expr) -> list[tuple]:
    program = getattr(e, "_program", None)
    if program is not None:
        return program
    # a reversed prefix scan meets a binary's left operand on top of the stack
    bin_code = _BIN_LR if e.notation is Notation.POSTFIX else _BIN_RL
    program = []
    for tok in scan_order(e.tokens, e.notation):
        kind = tok.kind
        if kind is TokenKind.LITERAL:
            program.append((_LIT, tok.value))
        elif kind is TokenKind.CONST:
            program.append((_CONST, tok.slot))
        elif kind is TokenKind.UNARY:
            program.append((_UN, UNARY_FUNCS[tok.text]))
        elif kind is TokenKind.BINARY:
            program.append((bin_code, BINARY_FUNCS[tok.text]))
        else:
            program.append((_LEAF, tok.text))
    object.__setattr__(e, "_program", program)
    return program


def _run(program, leaf, consts):
    stack: list = []
    push = stack.append
    with np.errstate(all="ignore"):
        for code, arg in program:
            if code == _LEAF:
                try:
                    push(leaf[arg])
                except KeyError:
                    raise EvalError(f"dataset has no grid for leaf {arg!r}") from None
            elif code == _LIT:
                push(arg)
            elif code == _CONST:
                if consts is None or arg >= len(consts):
                    raise EvalError(f"missing value for constant slot {arg}")
                push(float(consts[arg]))
            elif code == _UN:
                stack[-1] = arg(stack[-1])
            elif code == _BIN_LR:
                b = stack.pop()
                stack[-1] = arg(stack[-1], b)
            else:
                a = stack.pop()
                stack[-1] = arg(a, stack[-1])
    return stack[-1]


def eval_grid(e: Expr, data: Dataset, consts: Optional[Sequence[float]] = None) -> Grid:
    """Evaluate over every mesh point of ``data`` in one stack scan."""
    values = _run(_compile(e), data.leaf, consts)
    if np.ndim(values) == 0:
        values = np.full(data.n, float(values))
    fault = not bool(np.isfinite(values).all())
    return Grid(values, fault)
