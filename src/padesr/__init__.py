"""Symbolic-regression engine for the 2D advection-diffusion equation.

Searches fixed-depth prefix/postfix token sequences for approximate
closed-form solutions T(x, y, t), scoring candidates by a composite MSE over
the PDE residual, boundary conditions, and the initial condition.  Derivatives
are computed symbolically on the flat token arrays, without expression trees.
Every other name is imported from its own module.
"""

from .expr import Notation
from .pde import ObjectiveConfig, build_case, case_alphabet, objective
from .search import SearchConfig, run_search
from .symdiff import DerivativeOrderError

__all__ = ["Notation", "ObjectiveConfig", "SearchConfig", "run_search", "objective",
           "build_case", "case_alphabet", "DerivativeOrderError"]
