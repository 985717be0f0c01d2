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
every component and the gate decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from .symdiff import IC_DERIVATIVE_MODES, DerivativeOrderError, differentiate
from .evaluate import Dataset, GaussianIc, build_dataset, eval_grid, linspace_axis
from .expr import Alphabet, Expr, make_alphabet

DEFAULT_THRESHOLD = 1.0 / math.sqrt(2.0)

TOKEN_MODES = ("vars", "vars+const", "vars+const+opt")


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
        if self.ic_derivatives not in IC_DERIVATIVE_MODES:
            raise ValueError(f"unknown ic_derivatives mode {self.ic_derivatives!r}")


@dataclass(frozen=True)
class PdeCase:
    """One advection-diffusion problem bound to a mesh.

    Velocity grids and the boundary/initial-plane datasets are evaluated once
    at build time; everything here is immutable and safe to share across
    search threads.
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
        ux_grid=np.asarray(recipe["ux"](data.leaf["x"], data.leaf["y"]), dtype=float),
        uy_grid=np.asarray(recipe["uy"](data.leaf["x"], data.leaf["y"]), dtype=float),
        planes=planes,
        ic_plane=ic_plane,
    )
    return case, data


def case_alphabet(case: PdeCase, token_mode: str = "vars+const") -> Alphabet:
    """Search alphabet for a case under one of the three token-set modes."""
    if token_mode not in TOKEN_MODES:
        raise ValueError(f"unknown token mode {token_mode!r}")
    return make_alphabet(
        bounds=case.bounds(),
        include_literals=token_mode != "vars",
        include_learnable=token_mode == "vars+const+opt",
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


def _mean_square(values: np.ndarray) -> float:
    if not np.isfinite(values).all():
        return math.inf
    with np.errstate(over="ignore"):
        return float(np.mean(np.square(values)))


def _mean_abs(values: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        return float(np.mean(np.abs(values)))


def _boundary_term(
    T: Expr,
    case: PdeCase,
    bc: BoundaryCondition,
    consts,
    first: dict[str, Expr],
) -> float:
    if bc.kind is BcKind.DERIV_ZERO:
        g = eval_grid(first[bc.axis], case.planes[(bc.axis, bc.location)], consts)
        return _mean_square(g.values)
    probe = T if bc.kind is BcKind.PERIODIC_VALUE else first[bc.axis]
    lo = eval_grid(probe, case.planes[(bc.axis, "lo")], consts)
    hi = eval_grid(probe, case.planes[(bc.axis, "hi")], consts)
    with np.errstate(all="ignore"):  # inf - inf is NaN, and the term is inf
        diff = lo.values - hi.values
    return _mean_square(diff)


def initial_mse(T: Expr, case: PdeCase, consts: Optional[Sequence[float]] = None) -> float:
    """Mean of (T - I)^2 over the (x, y) plane at t = t_lo."""
    g = eval_grid(T, case.ic_plane, consts)
    return _mean_square(g.values - case.ic_plane.leaf["I"])


def objective(
    T: Expr,
    case: PdeCase,
    data: Dataset,
    consts: Optional[Sequence[float]] = None,
    config: Optional[ObjectiveConfig] = None,
) -> MseBreakdown:
    """Gate first, then the unweighted sum interior + boundaries + initial.

    The gate rejects ``T`` when mean(|dT/dv|) falls below the threshold, or
    the derivative grid faults, for any of v = x, y, t.  The interior term is
    the mean squared residual T_t + ux*T_x + uy*T_y - kappa*(T_xx + T_yy)
    over ``data``; the boundary terms follow ``case.bcs``; the initial term is
    :func:`initial_mse`.  An unsupported first derivative rejects ``T`` with a
    note; a fault, or an unsupported second derivative, makes its component
    infinite.
    """
    cfg = config or ObjectiveConfig()
    # the gate tests x, y, t in this order and stops at the first miss.  An
    # order error, if any, is met at x: d/dx and d/dy fail on the same leaves.
    first: dict[str, Expr] = {}
    grids: dict[str, np.ndarray] = {}
    for v in ("x", "y", "t"):
        try:
            first[v] = differentiate(T, v, cfg.ic_derivatives)
        except DerivativeOrderError as err:
            return MseBreakdown.rejected(str(err))
        g = eval_grid(first[v], data, consts)
        if g.fault or _mean_abs(g.values) < cfg.threshold:
            return MseBreakdown.rejected()
        grids[v] = g.values
    try:
        d_xx = differentiate(first["x"], "x", cfg.ic_derivatives)
        d_yy = differentiate(first["y"], "y", cfg.ic_derivatives)
    except DerivativeOrderError:
        interior = math.inf
    else:
        g_xx = eval_grid(d_xx, data, consts)
        g_yy = eval_grid(d_yy, data, consts)
        with np.errstate(all="ignore"):  # a non-finite residual makes the term inf
            residual = (
                grids["t"]
                + case.ux_grid * grids["x"]
                + case.uy_grid * grids["y"]
                - case.kappa * (g_xx.values + g_yy.values)
            )
        interior = _mean_square(residual)
    boundary = tuple(_boundary_term(T, case, bc, consts, first) for bc in case.bcs)
    initial = initial_mse(T, case, consts)
    total = interior
    for term in boundary:
        total += term
    total += initial
    return MseBreakdown(interior, boundary, initial, total, False)
