"""Symbolic-regression engine for the 2D advection-diffusion equation.

Searches fixed-depth prefix/postfix token sequences for approximate
closed-form solutions T(x, y, t), scoring candidates by a composite MSE over
the PDE residual, boundary conditions, and the initial condition.  Derivatives
are computed symbolically on the flat token arrays, without expression trees.
"""

from .symdiff import (
    DerivativeOrderError,
    differentiate,
    simplify,
)
from .evaluate import Dataset, EvalError, GaussianIc, Grid, eval_grid
from .expr import (
    Alphabet,
    Expr,
    ExprError,
    Notation,
    ParseError,
    Token,
    TokenKind,
    convert_notation,
    legal_tokens,
    make_alphabet,
    make_expr,
    parse,
    render_infix,
    sample_complete,
)
from .pde import (
    BcKind,
    BoundaryCondition,
    MseBreakdown,
    ObjectiveConfig,
    PdeCase,
    build_case,
    case_alphabet,
    objective,
)
from .search import (
    SearchConfig,
    SearchResult,
    SharedState,
    fit_constants,
    run_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
