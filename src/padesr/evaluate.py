"""Vectorized evaluation of flat expressions over mesh grids.

A :class:`Dataset` holds the three inclusive axis linspaces and one value grid
for each of x, y, t and the initial-condition feature ``I`` with its
derivative family up to second order (precomputed analytically from the
Gaussian profile), flattened x-major (index ``(ix*ny + iy)*nt + it``).
Literals, named ones included, and learnable constants evaluate by value.
:func:`eval_grid` runs an expression's :class:`~padesr.expr.Program`, which
:func:`~padesr.expr.fold` compiled once per expression: each distinct subtree
is computed once and each value is dropped after its last use.  It runs over
slices of at most ``BLOCK`` mesh points, so no value is larger than one slice;
the slices and the early drops together bound the memory a program holds.
A grid of more than ``BLOCK`` points is a :func:`scratch` array, as are the
gate's |g| and the residual that scoring makes at that size: a buffer that
the calling thread keeps and hands out again once nothing else references
it, so grid-sized memory stays resident from one candidate to the next.  A
constant's grid (an expression without a data leaf, such as the literal
``0`` most gate-rejected derivatives are) is a read-only stride-0 view of its
one value, so it costs O(1) at any mesh size.
Domain faults (log of a non-positive value, square root of a negative,
arcsin/arccos outside [-1, 1], division by zero, powers leaving the reals)
evaluate to NaN and raise the grid's fault flag; candidates are rejected
wholesale by the objective rather than patched with protected operators.  So
a grid stops at the end of the slice where it faults (where its last row
does, for a constant matrix) and holds NaN after it: no score reads past a
fault.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .expr import IC_FAMILY, Expr, Program, TokenKind


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


@dataclass(frozen=True)
class Grid:
    """Flat value grid plus a flag recording whether any entry is non-finite.

    A faulting grid of more than ``BLOCK`` points may hold NaN after the
    slice where it first faults; the flag is exact, and no score reads a
    faulting row's values past it (see :func:`eval_grid`).  ``values`` may
    be a read-only view: a constant's grid repeats one value with stride 0.
    """

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
    for tok in IC_FAMILY:
        leaf[tok.text] = ic.derivative(tok.dx, tok.dy, gx, gy)
    return Dataset(xs, ys, ts, leaf, (nx, ny, nt), n)


def linspace_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Inclusive linspace v_i = lo + i*(hi-lo)/(n-1)."""
    if n < 2:
        raise ValueError("axis needs at least 2 points")
    return np.linspace(lo, hi, n)


# ---------------------------------------------------------------------------
# operator semantics (shared by grid evaluation and constant folding)


def _nan_where(r, mask):
    """``r`` with NaN where ``mask`` holds, written in place for an array."""
    if r.ndim:
        np.copyto(r, np.nan, where=mask)
        return r
    return np.nan if mask else r


def _op_log(a):
    return _nan_where(np.log(a), np.logical_not(np.greater(a, 0)))


def _op_div(a, b):
    return _nan_where(np.divide(a, b), np.equal(b, 0))  # np.divide: 1.0 / 0.0 raises


def _op_pow(a, b):
    r = np.power(a, b)
    return _nan_where(r, np.logical_not(np.isfinite(r)))


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

# eval_grid runs a program over slices of at most this many mesh points, so a
# value is at most 128 KiB of float64 and the values a program holds stay in
# cache, where a whole 50^3 grid is 1 MB per value.  Slices of 8,192 and of
# 32,768 points ran no faster on fine-mesh.
BLOCK = 1 << 14

# A float64 array of more than BLOCK points takes over 128 KiB, which glibc
# places on heap pages that it trims back to the kernel once they are free,
# so a fresh one per candidate pays a page fault on each 4 KiB page it
# touches, about 250 for one 50^3 grid.  Such arrays come from a free list
# that each thread keeps for itself; smaller ones stay on pages the
# allocator keeps, and are made fresh.
_local = threading.local()


def _refcount(buffers: list) -> int:
    for buf in buffers:
        return sys.getrefcount(buf)


_ALONE = _refcount([np.empty(0)])  # a buffer the list alone holds, counted as scratch counts


def _buffers() -> list[np.ndarray]:
    """Every buffer :func:`scratch` has made in this thread, free or not."""
    try:
        return _local.buffers
    except AttributeError:
        _local.buffers = []
        return _local.buffers


def scratch(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape``.

    An array of more than ``BLOCK`` points is a view of a buffer from this
    thread's free list.  A buffer is handed out again only once nothing but
    the list references it, directly or through a view, so a grid a caller
    keeps is never written over; the list grows only when every buffer of
    the size is in use, so it holds no more of them than were live at once.
    A constant grid is a stride-0 view and takes no buffer.
    """
    size = math.prod(shape)
    if size <= BLOCK:
        return np.empty(shape)
    buffers = _buffers()
    for buf in buffers:
        if buf.size == size and sys.getrefcount(buf) == _ALONE:
            return buf.reshape(shape)
    buf = np.empty(size)
    buffers.append(buf)
    return buf.reshape(shape)


def eval_grid(e: Expr, data: Dataset,
              consts: Optional[Sequence[float] | np.ndarray] = None) -> Grid:
    """Evaluate over every mesh point of ``data`` by running ``e.program``.

    Each distinct subtree of ``e`` is computed once and each value is dropped
    after its last use.  The program runs over slices of at most ``BLOCK``
    points, one after another, and each slice's result is written into the
    grid, a :func:`scratch` array, so the program holds a bounded number of
    values of at most one slice each; a grid of at most ``BLOCK`` points is
    one slice and returns the program's result as it is.  An expression
    without a data leaf is a constant: the program runs once, on scalars
    (or on one column of a batch), and its grid is a read-only stride-0 view
    of that value, made in O(1) whatever the mesh size and holding no
    :func:`scratch` buffer.  ``np.errstate`` is entered once per call.

    ``consts`` is one constant vector, or an ``(m, k)`` matrix of ``m``
    vectors.  With a matrix a ``C`` reads its column, so an expression with
    a ``C`` gives an ``(m, n)`` grid and one fault flag per row; one without
    gives the usual ``n`` values.  Too few constants for ``e``'s slots raise
    :class:`EvalError` before any arithmetic.

    Once every row has faulted, the slices left are not computed and hold
    NaN, so a faulting grid of more than ``BLOCK`` points is exact through
    the slice where its last row first faults; the fault flags are exact.
    No score reads past a fault: the gate rejects a faulting row, and the
    residual, boundary and initial terms are infinite where it has one.
    """
    if e.n_slots:
        given = 0 if consts is None else np.shape(consts)[-1]
        if given < e.n_slots:
            raise EvalError(f"missing value for constant slot {given}")
    batched = np.ndim(consts) == 2
    if batched:  # a ``C`` reads a float64 column, as one vector's ``C`` reads a float
        consts = np.asarray(consts, dtype=np.float64)
    program = e.program
    regs: list = [None] * program.size
    grids = []  # (register, grid) of each data leaf
    for r, tok in program.leaves:
        kind = tok.kind
        if kind is TokenKind.LITERAL:
            regs[r] = tok.value
        elif kind is TokenKind.CONST:
            regs[r] = consts[:, tok.slot:tok.slot + 1] if batched else float(consts[tok.slot])
        else:
            try:
                regs[r] = data.leaf[tok.text]
            except KeyError:
                raise EvalError(f"dataset has no grid for leaf {tok.text!r}") from None
            grids.append((r, regs[r]))
    rows = len(consts) if batched and e.n_slots else 0  # rows of an (m, n) grid
    n = data.n
    with np.errstate(all="ignore"):
        if not grids:  # a constant: one value, or one per row of a batch
            value = _run(program, regs)
            if rows:  # ``C C -`` is a column
                return Grid(np.broadcast_to(value, (rows, n)), ~np.isfinite(value).all(axis=-1))
            value = np.float64(value)
            return Grid(np.ndarray((n,), np.float64, value, 0, (0,)), not math.isfinite(value))
        if n <= BLOCK:
            values = _run(program, regs)
            fault = ~np.isfinite(values).all(axis=-1)
            return Grid(values, fault if rows else bool(fault))
        values = scratch((rows, n) if rows else (n,))
        fault = np.zeros(rows, dtype=bool) if rows else np.False_
        for lo in range(0, n, BLOCK):
            hi = lo + BLOCK
            for r, grid in grids:
                regs[r] = grid[lo:hi]
            block = values[..., lo:hi]
            block[...] = _run(program, regs)
            regs[program.result] = None  # its slice is in the grid
            fault = fault | ~np.isfinite(block).all(axis=-1)
            if fault.all():  # every row has faulted
                values[..., hi:] = np.nan
                break
    return Grid(values, fault if rows else bool(fault))


def _run(program: Program, regs: list):
    """Run ``program``'s steps over the values in ``regs``; its result.
    The caller holds ``np.errstate(all="ignore")``: faults become NaN."""
    for text, a, b, r, dying in program.steps:
        if b < 0:
            v = UNARY_FUNCS[text](regs[a])
        else:
            v = BINARY_FUNCS[text](regs[a], regs[b])
        for u in dying:
            regs[u] = None
        regs[r] = v
    return regs[program.result]
