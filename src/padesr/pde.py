"""Advection-diffusion cases, meshes, and the composite objective.

The objective is the equally weighted sum of the interior residual MSE, one
MSE per boundary condition, and the initial-condition MSE.  Candidates whose
mean absolute derivative with respect to any input variable falls below the
threshold are rejected with an infinite total, which blocks constant
"solutions" of the homogeneous equation.

``ObjectiveConfig.ic_derivatives`` selects how the initial-condition feature
``I`` is differentiated (see :mod:`padesr.symdiff`); every derivative the
objective takes, first and second order, uses that one reading.
:func:`objective` is the one scoring pass: its :class:`MseBreakdown` carries
every component and the gate decision.  It builds a :class:`ScoringPlan`, which
holds what scoring one expression needs that no constant vector changes: the
derivatives, taken as the gate reaches them, and the grids of derivatives
without a learnable constant.  Fitting constants scores every candidate vector
against one plan, and a search scores the fitted vector against the same
plan, so an expression is differentiated once per fit and score, and
:meth:`ScoringPlan.totals` scores any iterable of vectors lazily, in batches
whose size this module alone decides: a batch is taken when its first total
is asked for and scored in one evaluation per grid, where a ``C`` reads a
column of the batch and each term is reduced per row, and every total has
the bits :meth:`ScoringPlan.score` gives that vector.
:meth:`ScoringPlan.rejects_every_vector` tells a fit there is nothing to fit,
from the derivatives alone: a first derivative that is the literal ``0`` at a
positive threshold, or an order error.  The gate applies the same rules, and
which grids a rejection evaluates follows from them.  An order error, met at
d/dx, evaluates none.  Nor does a ``T`` without a ``t`` leaf whose dT/dx is
not ``0``: its dT/dt is the literal ``0``, which the leaf test reads from
``T``'s tokens without taking dT/dt or dT/dy.  Any other literal-``0`` dT/dv
rejects at v in the walk over x, y, t, after the earlier variables' grids:
v's own grid is still evaluated, a constant's O(1) stride-0 view (see
:func:`~padesr.evaluate.eval_grid`), but without its |g| and mean, which is
exact since a mean of zeros is 0.  Every rejection gives the same breakdown,
so these orders keep every score's bits; they keep the variable that
``bench/run.py`` books too, which it names by counting ``eval_grid`` calls,
and books at t when there are none.
``threshold`` is 0 or more; a NaN one would switch the gate off, since no
mean compares below it.  The gate's |g| of a grid that is not constant and
the interior residual are :func:`~padesr.evaluate.scratch` arrays written
with ``out=``, operand for operand as the formulas read, so past ``BLOCK``
points they reuse the thread's resident buffers and every bit stays what
fresh arrays give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .symdiff import IC_DERIVATIVE_MODES, DerivativeOrderError, differentiate
from .evaluate import (
    BLOCK, Dataset, GaussianIc, Grid, build_dataset, eval_grid, linspace_axis, scratch, spread)
from .expr import ZERO, Alphabet, Expr, TokenKind, make_alphabet

DEFAULT_THRESHOLD = 1.0 / math.sqrt(2.0)

# token-set mode -> (named and numeric literals, learnable constant ``C``)
TOKEN_MODES = {
    "vars": (False, False),
    "vars+const": (True, False),
    "vars+const+opt": (True, True),
}


class BcKind(Enum):
    DERIV_ZERO = "deriv_zero"
    PERIODIC_VALUE = "periodic_value"
    PERIODIC_DERIV = "periodic_deriv"


@dataclass(frozen=True)
class BoundaryCondition:
    kind: BcKind
    axis: str  # "x" or "y"
    location: Optional[str] = None  # "lo"/"hi" for DERIV_ZERO walls


@dataclass(frozen=True)
class ObjectiveConfig:
    threshold: float = DEFAULT_THRESHOLD
    mesh: tuple[int, int, int] = (10, 10, 10)
    ic_derivatives: str = "analytic"  # or "data": I is a zero-derivative column

    def __post_init__(self) -> None:
        if not self.threshold >= 0:  # a NaN threshold would switch the gate off
            raise ValueError(f"threshold must be 0 or more, got {self.threshold!r}")
        if self.ic_derivatives not in IC_DERIVATIVE_MODES:
            raise ValueError(f"unknown ic_derivatives mode {self.ic_derivatives!r}")


@dataclass(frozen=True)
class PdeCase:
    """One advection-diffusion problem bound to a mesh.

    Velocity grids and the boundary/initial-plane datasets are evaluated once
    at build time; everything here is immutable and safe to share across
    workers and threads.
    """

    name: str
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float
    t_lo: float
    t_hi: float
    kappa: float
    ic: GaussianIc
    bcs: tuple[BoundaryCondition, ...]
    ux_grid: np.ndarray
    uy_grid: np.ndarray
    planes: Mapping[tuple[str, str], Dataset]
    ic_plane: Dataset

    def bounds(self) -> dict[str, float]:
        return {
            "x_min": self.x_lo,
            "x_max": self.x_hi,
            "y_min": self.y_lo,
            "y_max": self.y_hi,
            "t_min": self.t_lo,
            "t_max": self.t_hi,
        }


_CASE_DEFS = {
    "case1": dict(
        domain=(0.1, 2.1, -1.1, 1.1, 0.1, 20.0),
        kappa=1.0,
        ux=lambda x, y: 1.0 - y * y,
        uy=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        ic=GaussianIc(1.1, 0.0),
        bcs=(
            BoundaryCondition(BcKind.DERIV_ZERO, "y", "lo"),
            BoundaryCondition(BcKind.DERIV_ZERO, "y", "hi"),
            BoundaryCondition(BcKind.PERIODIC_VALUE, "x"),
            BoundaryCondition(BcKind.PERIODIC_DERIV, "x"),
        ),
    ),
    "case2": dict(
        domain=(0.1, 2.0 * math.pi, 0.1, 2.0 * math.pi, 0.1, 20.0),
        kappa=1.0,
        ux=lambda x, y: np.sin(4.0 * y),
        uy=lambda x, y: np.cos(4.0 * x),
        ic=GaussianIc(math.pi, math.pi),
        bcs=(
            BoundaryCondition(BcKind.PERIODIC_VALUE, "x"),
            BoundaryCondition(BcKind.PERIODIC_DERIV, "x"),
            BoundaryCondition(BcKind.PERIODIC_VALUE, "y"),
            BoundaryCondition(BcKind.PERIODIC_DERIV, "y"),
        ),
    ),
}

CASE_IDS = tuple(_CASE_DEFS)


def build_case(
    case_id: str, mesh: tuple[int, int, int] = (10, 10, 10)
) -> tuple[PdeCase, Dataset]:
    """Case description plus its interior mesh dataset."""
    try:
        recipe = _CASE_DEFS[case_id]
    except KeyError:
        raise ValueError(f"unknown case id {case_id!r}") from None
    x_lo, x_hi, y_lo, y_hi, t_lo, t_hi = recipe["domain"]
    nx, ny, nt = mesh
    xs = linspace_axis(x_lo, x_hi, nx)
    ys = linspace_axis(y_lo, y_hi, ny)
    ts = linspace_axis(t_lo, t_hi, nt)
    ic = recipe["ic"]
    data = build_dataset(xs, ys, ts, ic)
    planes = {
        ("x", "lo"): build_dataset([x_lo], ys, ts, ic),
        ("x", "hi"): build_dataset([x_hi], ys, ts, ic),
        ("y", "lo"): build_dataset(xs, [y_lo], ts, ic),
        ("y", "hi"): build_dataset(xs, [y_hi], ts, ic),
    }
    ic_plane = build_dataset(xs, ys, [t_lo], ic)
    case = PdeCase(
        name=case_id,
        x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi, t_lo=t_lo, t_hi=t_hi,
        kappa=recipe["kappa"],
        ic=ic,
        bcs=recipe["bcs"],
        ux_grid=_velocity(recipe["ux"], data),
        uy_grid=_velocity(recipe["uy"], data),
        planes=planes,
        ic_plane=ic_plane,
    )
    return case, data


def _velocity(component, data: Dataset) -> np.ndarray:
    """A velocity component over ``data``'s flat grid, evaluated on the
    sub-mesh of the axes x and y and spread over t."""
    x, y = data.sub_leaf["x"], data.sub_leaf["y"]
    return spread(np.asarray(component(x, y), dtype=float), data.shape).reshape(data.n)


def case_alphabet(case: PdeCase, token_mode: str = "vars+const") -> Alphabet:
    """Search alphabet for a case under one of the three token-set modes."""
    if token_mode not in TOKEN_MODES:
        raise ValueError(f"unknown token mode {token_mode!r}")
    literals, learnable = TOKEN_MODES[token_mode]
    return make_alphabet(
        bounds=case.bounds(),
        include_literals=literals,
        include_learnable=learnable,
    )


@dataclass(frozen=True)
class MseBreakdown:
    """Composite objective value.

    ``total`` accumulates left to right: interior, then each boundary term in
    case order, then the initial term.  It is infinite when the gate rejected
    the candidate or any component faulted.
    """

    interior: float
    boundary: tuple[float, ...]
    initial: float
    total: float
    gate_rejected: bool
    note: str = ""

    @classmethod
    def rejected(cls, note: str = "") -> "MseBreakdown":
        return cls(math.inf, (), math.inf, math.inf, True, note)


def _mean(values: np.ndarray):
    """Mean over the last axis: one value per row of a batch."""
    return np.add.reduce(values, axis=-1) / values.shape[-1]  # np.mean's sum and division


def _mean_square(values: np.ndarray, out: Optional[np.ndarray] = None):
    """Mean square per row; infinite for a row holding a non-finite value.
    The squares are written to ``out``, which may be ``values`` itself."""
    finite = np.isfinite(values).all(axis=-1)
    return np.where(finite, _mean(np.square(values, out=out)), math.inf)


def _residual_mean_square(case: PdeCase, t, x, y, xx, yy):
    """Mean square of t + ux*x + uy*y - kappa*(xx + yy), per row.

    Each operation is the one the formula spells, on the same operands in
    the same order.  The residual is one :func:`~padesr.evaluate.scratch`
    array, filled a slice of at most ``BLOCK`` points at a time, so the
    terms it adds are slice-sized.  Every grid is ``(n,)``, or ``(rows, n)``
    for the rows of a batch still in play, so the widest shape is the
    broadcast one.
    """
    shape = max(t.shape, x.shape, y.shape, xx.shape, yy.shape, key=len)
    residual = scratch(shape)
    for lo in range(0, shape[-1], BLOCK):
        cut = slice(lo, lo + BLOCK)
        r = residual[..., cut]
        np.add(t[..., cut], np.multiply(case.ux_grid[cut], x[..., cut], out=r), out=r)
        r += case.uy_grid[cut] * y[..., cut]
        r -= case.kappa * (xx[..., cut] + yy[..., cut])
    return _mean_square(residual, out=residual)


# A batch of constant vectors is scored max(1, BATCH_ELEMENTS // data.n) rows
# at a time on an n-point mesh.  This bounds every array of a batch, the
# values an expression's program keeps live included.
BATCH_ELEMENTS = 8192


class ScoringPlan:
    """The part of scoring ``T`` that no constant vector changes.

    Derived expressions are named by the variables they differentiate by:
    ``""`` is ``T``, ``"x"`` is dT/dx, ``"xx"`` is d2T/dx2.  Each is taken
    when scoring first reaches it, the first derivatives as the gate reaches
    x, y and t; a :class:`DerivativeOrderError` is recorded once and raised
    again on every later request.  The grid of a derived expression without a
    ``C`` token is kept, one per dataset, so scoring many constant vectors
    evaluates it once.  :meth:`score` scores one vector; :meth:`totals`
    scores a stream of them a batch at a time, a row per vector, with the
    same operations on each row.  A plan caches without a lock: build one
    per worker and expression.
    """

    def __init__(self, T: Expr, config: Optional[ObjectiveConfig] = None):
        self.config = config or ObjectiveConfig()
        self._derived: dict[str, Expr | DerivativeOrderError] = {"": T}
        self._grids: dict[tuple[str, int], tuple[Dataset, Grid]] = {}

    def _derivative(self, name: str) -> Expr:
        found = self._derived.get(name)
        if found is None:
            try:
                found = differentiate(self._derivative(name[:-1]), name[-1],
                                      self.config.ic_derivatives)
            except DerivativeOrderError as err:
                found = err
            self._derived[name] = found
        if isinstance(found, DerivativeOrderError):
            raise found.with_traceback(None)
        return found

    def _grid(self, name: str, data: Dataset, consts) -> Grid:
        e = self._derivative(name)
        if e.n_slots:
            return eval_grid(e, data, consts)
        key = (name, id(data))  # the entry holds ``data``, so its id stays unique
        kept = self._grids.get(key)
        if kept is None:
            kept = self._grids[key] = (data, eval_grid(e, data, consts))
        return kept[1]

    def _gate_miss(self, g: Grid):
        """Whether the gate rejects ``g``, per row of a batch.

        A faulting row is rejected whatever its mean, so once every row has
        faulted the flags decide without ``|g|`` and its mean.  A row with
        stride 0 holds one value, so its ``|g|`` is that value's magnitude
        with stride 0 too, whose pairwise sum has the bits of the same sum
        over a contiguous array.
        """
        fault = g.fault  # a bool for one vector, one flag per row of a batch
        if fault is True:
            return np.True_
        if fault is not False and fault.all():
            return fault
        values = g.values
        if values.strides[-1] == 0:
            magnitude = np.broadcast_to(np.abs(values[..., :1]), values.shape)
        else:
            magnitude = np.abs(values, out=scratch(values.shape))
        return fault | (_mean(magnitude) < self.config.threshold)

    def _gate(self, data: Dataset, consts, rows=None):
        """Test x, y, then t, stopping where the gate rejects every vector:
        one vector for :meth:`score`, a batch for :meth:`totals`.

        Returns ``(note, grids, rows)``: ``grids`` maps each variable to its
        derivative values, None when the gate rejects, with ``note`` naming
        the order error that closed it, if one did.  For an ``(m, k)`` matrix
        ``consts``, whose row indices ``rows`` holds, each variable drops the
        rows it rejects, so later scans evaluate only the rows still in play:
        the returned ``rows`` indexes the rows that passed, and the 2-D grids
        hold those rows alone.  A rejection :meth:`_decided` gives evaluates
        no grid.  A variable :meth:`_zero_at` names rejects after its grid is
        made, an O(1) constant, but without a pass over it.
        """
        note = self._decided()
        if note is not None:
            return note, None, rows
        grids: dict[str, np.ndarray] = {}
        for v in ("x", "y", "t"):
            g = self._grid(v, data, consts)
            # v's grid is made even so, an O(1) constant, so that bench/run.py,
            # counting eval_grid calls, books the rejection at v
            if self._zero_at(v):
                return "", None, rows
            miss = self._gate_miss(g)  # one flag, or one per row of a batch
            if miss.all() if miss.ndim else miss:
                return "", None, rows
            grids[v] = g.values
            if miss.ndim and miss.any():
                keep = ~miss
                consts, rows = consts[keep], rows[keep]
                grids = {u: a[keep] if a.ndim == 2 else a for u, a in grids.items()}
        return "", grids, rows

    def _decided(self) -> Optional[str]:
        """The gate's verdict before any grid, the same for every vector.

        The order error's note when d/dx meets one (d/dy fails on the same
        leaves, d/dt on none); ``""`` when :meth:`_t_free` holds and dT/dx is
        not the literal ``0``; None when the grids must decide.
        bench/run.py names the variable that rejected by counting eval_grid
        calls and books a rejection with none at t, the variable that decides
        here; a literal-``0`` dT/dx is left to the walk, booked at x.
        """
        try:
            self._derivative("x")
        except DerivativeOrderError as err:
            return str(err)
        if self._t_free() and not self._zero_at("x"):
            return ""
        return None

    def _zero_at(self, v: str) -> bool:
        """Whether the threshold is positive and dT/dv is the literal ``0``.

        Then the gate rejects at v whatever the constants are: a ``0``
        evaluates to a zero grid without fault, whose mean is below any
        positive threshold.  Testing it takes dT/dv; :meth:`_t_free` tells
        the same of t from ``T``'s tokens alone.
        """
        return self.config.threshold > 0 and self._derivative(v).tokens == (ZERO,)

    def _t_free(self) -> bool:
        """Whether the threshold is positive and no leaf of ``T`` is ``t``.

        Then :meth:`_zero_at` holds at t, read from T's tokens without
        taking dT/dt: under either reading every leaf rule gives ``0`` for
        d/dt, and the identity rules fold every operator over zeros to ``0``.
        """
        return self.config.threshold > 0 and not any(
            tok.kind is TokenKind.VARIABLE and tok.text == "t"
            for tok in self._derived[""].tokens)

    def rejects_every_vector(self) -> bool:
        """Whether the gate rejects ``T`` whatever its constants are, read
        from its derivatives alone, without evaluating a grid.

        True when :meth:`_decided` gives a verdict, or when :meth:`_zero_at`
        holds for x, y or t (tested in that order, up to the first that
        does), so a ``T`` without ``t`` takes dT/dx alone.
        False otherwise, also where a ``C``-free grid fails the gate, which
        scoring then rejects on every row.  The first derivatives are taken
        through the plan, so scoring takes none again.
        """
        return self._decided() is not None or any(self._zero_at(v) for v in "xyt")

    def _components(self, case: PdeCase, data: Dataset, grids: Mapping[str, np.ndarray],
                    consts) -> tuple:
        """Interior, boundary terms and initial term past the gate, per row."""
        try:
            self._derivative("xx")
            self._derivative("yy")
        except DerivativeOrderError:
            interior = math.inf
        else:
            interior = _residual_mean_square(
                case, grids["t"], grids["x"], grids["y"],
                self._grid("xx", data, consts).values, self._grid("yy", data, consts).values)
        boundary = tuple(self._boundary_term(case, bc, consts) for bc in case.bcs)
        g = self._grid("", case.ic_plane, consts)
        initial = _mean_square(g.values - case.ic_plane.leaf["I"])
        return interior, boundary, initial

    def _boundary_term(self, case: PdeCase, bc: BoundaryCondition, consts):
        if bc.kind is BcKind.DERIV_ZERO:
            g = self._grid(bc.axis, case.planes[(bc.axis, bc.location)], consts)
            return _mean_square(g.values)
        probe = "" if bc.kind is BcKind.PERIODIC_VALUE else bc.axis
        lo = self._grid(probe, case.planes[(bc.axis, "lo")], consts)
        hi = self._grid(probe, case.planes[(bc.axis, "hi")], consts)
        return _mean_square(lo.values - hi.values)  # inf - inf is NaN, and the term is inf

    def score(
        self,
        case: PdeCase,
        data: Dataset,
        consts: Optional[Sequence[float]] = None,
    ) -> MseBreakdown:
        """The breakdown :func:`objective` documents, for one constant vector."""
        with np.errstate(all="ignore"):  # a non-finite value makes its term inf
            note, grids, _ = self._gate(data, consts)
            if grids is None:
                return MseBreakdown.rejected(note)
            interior, boundary, initial = self._components(case, data, grids, consts)
        interior, initial = float(interior), float(initial)
        boundary = tuple(float(term) for term in boundary)
        return MseBreakdown(interior, boundary, initial, _sum(interior, boundary, initial),
                            False)

    def totals(self, case: PdeCase, data: Dataset,
               vectors: Iterable[Sequence[float]]) -> Iterator[float]:
        """``score(case, data, v).total`` for every vector ``v`` of
        ``vectors``, in order and bit for bit.

        Vectors are taken ``max(1, BATCH_ELEMENTS // data.n)`` at a time, a
        batch when its first total is asked for, and scored as the rows of
        one matrix, so no array of a batch outgrows ``BATCH_ELEMENTS`` on the
        mesh or a plane, and a caller that stops asking takes no more.
        """
        vectors = iter(vectors)
        step = max(1, BATCH_ELEMENTS // data.n)
        while batch := list(itertools.islice(vectors, step)):
            chunk = np.asarray(batch, dtype=np.float64)
            out = np.full(len(chunk), math.inf)
            with np.errstate(all="ignore"):
                _, grids, rows = self._gate(data, chunk, np.arange(len(chunk)))
                if grids is not None:
                    out[rows] = _sum(*self._components(case, data, grids, chunk[rows]))
            yield from out.tolist()


def _sum(interior, boundary, initial):
    """The total, left to right: interior, each boundary term, initial."""
    total = interior
    for term in boundary:
        total = total + term
    return total + initial


def objective(
    T: Expr,
    case: PdeCase,
    data: Dataset,
    consts: Optional[Sequence[float]] = None,
    config: Optional[ObjectiveConfig] = None,
    plan: Optional[ScoringPlan] = None,
) -> MseBreakdown:
    """Gate first, then the unweighted sum interior + boundaries + initial.

    The gate rejects ``T`` when mean(|dT/dv|) falls below the threshold, or
    the derivative grid faults, for any of v = x, y, t.  The interior term is
    the mean squared residual T_t + ux*T_x + uy*T_y - kappa*(T_xx + T_yy)
    over ``data``; the boundary terms follow ``case.bcs``; the initial term is
    the mean of (T - I)^2 over the (x, y) plane at t = t_lo.  An unsupported
    first derivative rejects ``T`` with a note; a fault, or an unsupported
    second derivative, makes its component infinite.  Scoring many constant
    vectors of one ``T`` goes through one :class:`ScoringPlan` instead;
    ``plan``, a plan of ``T`` under ``config`` such as the one a constant fit
    scored against, is scored against in place of a new one, which gives
    the same bits.
    """
    return (ScoringPlan(T, config) if plan is None else plan).score(case, data, consts)
