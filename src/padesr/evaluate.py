"""Vectorized evaluation of flat expressions over mesh grids.

A :class:`Dataset` holds the three inclusive axis linspaces and the values of
x, y, t and the initial-condition feature ``I`` with its derivative family up
to second order (precomputed analytically from the Gaussian profile, once per
dataset), each on the sub-mesh of the axes it reads, shaped to broadcast; it
gives them as flat grids, x-major (index ``(ix*ny + iy)*nt + it``), spread
when read.  Literals, named ones included, and learnable constants evaluate
by value.
:func:`eval_grid` runs an expression's :class:`~padesr.expr.Program`, which
:func:`~padesr.expr.fold` compiled once per expression: each distinct subtree
is computed once, on the sub-mesh of the axes it reads (``x sin`` on nx
points, ``x t *`` on nx*nt), and each value is dropped after its last use.
It runs box by box over :func:`blocks`, boxes of whole trailing axes of at
most ``BLOCK`` mesh points, each one contiguous flat range that the box's
result is written into once; a step that reads no axis the boxes split runs
once per call.  So no value is larger than one box, and the boxes and the
early drops together bound the memory a program holds.
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
a grid stops at the end of the box where it faults (where its last row
does, for a constant matrix) and holds NaN after it: no score reads past a
fault.  Every NaN is written as ``np.nan``.
"""
from __future__ import annotations

import collections.abc
import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .expr import IC_FAMILY, MESH_AXES, Expr, Program, TokenKind


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

    def family(self, x, y) -> dict[tuple[int, int], np.ndarray]:
        """Every stored derivative grid (total order <= 2), keyed by its
        orders in x and y, from one evaluation of the Gaussian."""
        g = self.value(x, y)
        dx = x - self.x_center
        dy = y - self.y_center
        return {
            (0, 0): g,
            (1, 0): -2.0 * dx * g,
            (0, 1): -2.0 * dy * g,
            (2, 0): (4.0 * dx * dx - 2.0) * g,
            (0, 2): (4.0 * dy * dy - 2.0) * g,
            (1, 1): 4.0 * dx * dy * g,
        }


@dataclass(frozen=True)
class Grid:
    """Flat value grid plus a flag recording whether any entry is non-finite.

    A faulting grid of more than ``BLOCK`` points may hold NaN after the
    box where it first faults; the flag is exact, and no score reads a
    faulting row's values past it (see :func:`eval_grid`).  ``values`` may
    be a read-only view: a constant's grid repeats one value with stride 0.
    """

    values: np.ndarray
    fault: bool


@dataclass(frozen=True)
class Dataset:
    """Axes plus each variable's and each ``I``-family token's values.

    ``sub_leaf`` holds each leaf on the sub-mesh of the axes it reads,
    shaped to broadcast against the others: x ``(nx, 1, 1)``, y
    ``(1, ny, 1)``, t ``(1, 1, nt)`` and each ``I``-family member
    ``(nx, ny, 1)``; :func:`eval_grid` runs on these.  ``leaf`` gives the
    same leaves as flat x-major grids of ``n`` points, each spread from its
    sub-mesh when it is read, so a dataset keeps no grid of ``n`` points.
    """

    xs: np.ndarray
    ys: np.ndarray
    ts: np.ndarray
    leaf: Mapping[str, np.ndarray]
    shape: tuple[int, int, int]
    n: int
    sub_leaf: Mapping[str, np.ndarray]


class _FlatLeaves(collections.abc.Mapping):
    """The leaves of a dataset as flat grids, spread from ``sub`` on read."""

    def __init__(self, sub: Mapping[str, np.ndarray], shape: tuple[int, int, int]):
        self._sub = sub
        self._shape = shape

    def __getitem__(self, text: str) -> np.ndarray:
        return spread(self._sub[text], self._shape).reshape(-1)

    def __iter__(self):
        return iter(self._sub)

    def __len__(self) -> int:
        return len(self._sub)


def spread(value: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``value``, if it has ``shape``, else a contiguous copy of it
    broadcast to ``shape``."""
    if value.shape == shape:
        return value
    out = np.empty(shape)
    np.copyto(out, value)
    return out


def build_dataset(
    xs: Sequence[float],
    ys: Sequence[float],
    ts: Sequence[float],
    ic: GaussianIc,
) -> Dataset:
    """Product-mesh dataset over the given axis arrays.

    Axis arrays of length 1 yield boundary-plane datasets (one coordinate
    pinned to its exact bound) with the same machinery as the interior mesh.
    The ``I`` family is evaluated once, on the ``(nx, ny)`` sub-mesh.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    shape = nx, ny, nt = len(xs), len(ys), len(ts)
    sub: dict[str, np.ndarray] = {
        "x": xs.reshape(nx, 1, 1), "y": ys.reshape(1, ny, 1), "t": ts.reshape(1, 1, nt)}
    family = ic.family(xs.reshape(nx, 1), ys.reshape(1, ny))
    for tok in IC_FAMILY:
        sub[tok.text] = family[(tok.dx, tok.dy)].reshape(nx, ny, 1)
    return Dataset(xs, ys, ts, _FlatLeaves(sub, shape), shape, nx * ny * nt, sub)


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

# eval_grid runs a program over boxes of at most this many mesh points, so a
# value is at most 128 KiB of float64 and the values a program holds stay in
# cache, where a whole 50^3 grid is 1 MB per value.  Flat slices of 8,192 and
# of 32,768 points ran no faster on fine-mesh.
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


class Box(NamedTuple):
    """One block of a mesh: whole trailing axes, so one contiguous flat range.

    ``lo`` and ``hi`` bound the range, ``shape`` is the box's extent along
    x, y and t, and ``cuts[m]`` indexes the box out of a value that varies
    along the :data:`~padesr.expr.MESH_AXES` bits ``m`` (length 1 along
    the others).
    """

    lo: int
    hi: int
    shape: tuple[int, int, int]
    cuts: tuple[tuple[slice, slice, slice], ...]


def blocks(shape: tuple[int, int, int]) -> tuple[int, tuple[Box, ...]]:
    """The blocks :func:`eval_grid` runs a mesh of ``shape`` in, in flat
    order, and the :data:`~padesr.expr.MESH_AXES` bits of the axes they
    split.

    A mesh of at most ``BLOCK`` points is one box that splits no axis.  A
    larger one is cut into x-slabs of ``BLOCK // (ny*nt)`` planes; where one
    x-plane is larger than ``BLOCK``, each plane into chunks of
    ``BLOCK // nt`` y-rows, and where one row is too, each row into chunks
    of ``BLOCK`` t-points.  No box holds more than ``BLOCK`` points.  An
    axis is split where some box does not span all of it.
    """
    return _blocks(shape, BLOCK)


@functools.lru_cache(maxsize=64)
def _blocks(shape: tuple[int, int, int], size: int) -> tuple[int, tuple[Box, ...]]:
    nx, ny, nt = shape
    x, y, t = bits = tuple(MESH_AXES.values())  # in the order of ``shape``
    every = slice(None)

    def spans(n: int, k: int) -> list[slice]:
        return [slice(i, min(i + k, n)) for i in range(0, n, k)]

    if nx * ny * nt <= size:
        boxes = [(every, every, every)]
    elif ny * nt <= size:
        boxes = [(sx, every, every) for sx in spans(nx, size // (ny * nt))]
    elif nt <= size:
        boxes = [(sx, sy, every) for sx in spans(nx, 1) for sy in spans(ny, size // nt)]
    else:
        boxes = [(sx, sy, st) for sx in spans(nx, 1) for sy in spans(ny, 1)
                 for st in spans(nt, size)]
    split = 0
    out = []
    for box in boxes:
        (x0, x1, _), (y0, y1, _), (t0, t1, _) = (cut.indices(n) for cut, n in zip(box, shape))
        lo = (x0 * ny + y0) * nt + t0
        extent = (x1 - x0, y1 - y0, t1 - t0)
        split |= sum(bit for bit, k, n in zip(bits, extent, shape) if k < n)
        cuts = tuple(tuple(cut if m & bit else every for cut, bit in zip(box, bits))
                     for m in range((x | y | t) + 1))
        out.append(Box(lo, lo + math.prod(extent), extent, cuts))
    return split, tuple(out)


def eval_grid(e: Expr, data: Dataset,
              consts: Optional[Sequence[float] | np.ndarray] = None) -> Grid:
    """Evaluate over every mesh point of ``data`` by running ``e.program``.

    Each distinct subtree of ``e`` is computed once and each value is dropped
    after its last use.  Each step runs on the sub-mesh of the axes its
    operands read (``data.sub_leaf`` and ``Program.axes``), so ``x sin``
    takes nx points and ``x t *`` nx*nt, and broadcasting spreads a value
    only where a step combines it with another axis.  The program runs box
    by box over :func:`blocks`, and each box's result is written once into
    the flat x-major grid, a :func:`scratch` array; a mesh of one box gives
    its result as the grid, spread over the mesh where it reads fewer
    axes.  A step whose value
    reads no axis a box splits runs once per call, before the first box, and
    its value stays live across the boxes; every other step runs once per
    box, so it holds at most one box of points.  An expression without a
    data leaf is a constant: its grid is a read-only stride-0 view of its
    value (or of one column per row of a batch), made in O(1) whatever the
    mesh size and holding no :func:`scratch` buffer.  ``np.errstate`` is
    entered once per call.

    ``consts`` is one constant vector, or an ``(m, k)`` matrix of ``m``
    vectors.  With a matrix a ``C`` reads its column, so an expression with
    a ``C`` gives an ``(m, n)`` grid and one fault flag per row; one without
    gives the usual ``n`` values.  Too few constants for ``e``'s slots raise
    :class:`EvalError` before any arithmetic.

    Once every row has faulted, the boxes left are not computed and hold
    NaN, so a faulting grid of more than one box is exact through the box
    where its last row first faults; the fault flags are exact.  Every NaN
    is written as ``np.nan``: where both operands of a kernel are NaN the
    sign of its result depends on which of numpy's loops computed it.  No
    score reads past a fault: the gate rejects a faulting row, and the
    residual, boundary and initial terms are infinite where it has one.
    """
    batched = False  # whether a ``C`` reads a column of a batch
    if e.n_slots:
        given = 0 if consts is None else np.shape(consts)[-1]
        if given < e.n_slots:
            raise EvalError(f"missing value for constant slot {given}")
        batched = np.ndim(consts) == 2
        if batched:  # a ``C`` reads a float64 column, as one vector's ``C`` reads a float
            consts = np.asarray(consts, dtype=np.float64)
    program = e.program
    axes = program.axes
    split, boxes = blocks(data.shape)
    regs: list = [None] * program.size
    cut = []  # (register, value, axes) of each data leaf a box cuts
    for r, tok in program.leaves:
        kind = tok.kind
        if kind is TokenKind.LITERAL:
            regs[r] = tok.value
        elif kind is TokenKind.CONST:
            regs[r] = (consts[:, tok.slot].reshape(-1, 1, 1, 1) if batched
                       else float(consts[tok.slot]))
        else:
            try:
                value = data.sub_leaf[tok.text]
            except KeyError:
                raise EvalError(f"dataset has no grid for leaf {tok.text!r}") from None
            if axes[r] & split:
                cut.append((r, value, axes[r]))
            else:
                regs[r] = value
    rows = len(consts) if batched else 0  # rows of an (m, n) grid
    lead = (rows,) if rows else ()
    n = data.n
    result = program.result
    with np.errstate(all="ignore"):
        _run(program, regs, split, False)
        if not axes[result]:  # a constant: one value, or one per row of a batch
            value = regs[result]
            if rows:  # ``C C -`` is a column
                value = np.reshape(value, (rows, 1))
                if np.isnan(value).any():
                    value = np.where(np.isnan(value), np.nan, value)
                return Grid(np.broadcast_to(value, (rows, n)), ~np.isfinite(value[:, 0]))
            value = np.float64(np.nan if value != value else value)
            return Grid(np.ndarray((n,), np.float64, value, 0, (0,)), not math.isfinite(value))
        if not split:  # one box, the whole mesh: its result spread over it
            value = regs[result]
            finite = np.isfinite(value)
            values = spread(value, lead + data.shape).reshape(lead + (n,))
            if finite.all():
                return Grid(values, np.zeros(rows, dtype=bool) if rows else False)
            np.copyto(values, np.nan, where=np.isnan(values))
            fault = ~finite.reshape(len(finite) if rows else 1, -1).all(axis=-1)
            return Grid(values, fault if rows else True)
        values = scratch(lead + (n,))
        fault = np.zeros(rows or 1, dtype=bool)
        for lo, hi, shape, cuts in boxes:
            for r, value, m in cut:
                regs[r] = value[cuts[m]]
            _run(program, regs, split, True)
            value = regs[result]
            block = values[..., lo:hi]
            np.copyto(block.reshape(lead + shape), value)
            if axes[result] & split:
                regs[result] = None  # its box is in the grid
            finite = np.isfinite(value)  # on its sub-mesh, before it was spread
            if not finite.all():
                np.copyto(block, np.nan, where=np.isnan(block))
                fault |= ~finite.reshape(len(fault), -1).all(axis=-1)
                if fault.all():  # every row has faulted
                    values[..., hi:] = np.nan
                    break
    return Grid(values, fault if rows else bool(fault[0]))


def _power(base, exponent: np.ndarray, mesh: bool):
    """The ``^`` step of an array ``exponent``, ``mesh`` when it reads a
    mesh axis, else a ``C`` column of a batch.

    Where one exponent value is broadcast over many points, numpy may
    compute ``^`` as a square, square root or reciprocal when that value is
    2, 0.5 or -1, bits ``np.power`` does not give, and whether it does
    depends on how the operands broadcast.  So its choice follows what the
    exponent reads: a literal or one vector's ``C`` is 0-d, which takes that
    shortcut; a batch's ``C`` column takes it too, one row at a time, so each
    row has the bits of its vector; a mesh value, which a flat grid never
    broadcast, is spread to the result's shape and never takes it.
    """
    pow_ = BINARY_FUNCS["^"]
    shape = np.broadcast(base, exponent).shape
    if mesh:
        return pow_(base, spread(exponent, shape))
    rows = np.ndim(base) == exponent.ndim  # the base has a row per vector too
    return np.stack([pow_(base[i] if rows else base, exponent[i].reshape(()))
                     for i in range(len(exponent))]).reshape(shape)


def _run(program: Program, regs: list, split: int, boxed: bool) -> None:
    """Run the steps of ``program`` whose values read an axis in ``split``,
    when ``boxed``, or else those whose values read none, over the values in
    ``regs``.  The caller holds ``np.errstate(all="ignore")``: faults
    become NaN.

    A value made before the boxes that a boxed step reads stays live across
    them; any other value is dropped after its last reader.
    """
    axes, readers = program.axes, program.reader_axes
    for text, a, b, r, dying in program.steps:
        if split and (not axes[r] & split) is boxed:
            continue
        if b < 0:
            v = UNARY_FUNCS[text](regs[a])
        elif text == "^" and (axes[b] or isinstance(regs[b], np.ndarray)):
            v = _power(regs[a], regs[b], bool(axes[b]))
        else:
            v = BINARY_FUNCS[text](regs[a], regs[b])
        for u in dying:
            if not split or axes[u] & split or not readers[u] & split:
                regs[u] = None
        regs[r] = v
