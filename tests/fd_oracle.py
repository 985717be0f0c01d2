"""Central finite-difference oracle for symbolic derivatives.

Evaluates the undifferentiated expression on axis-shifted copies of the mesh
dataset (the initial-condition grids follow the shifted coordinates, so the
oracle is independent of the stored derivative family) and compares against
the evaluated symbolic derivative.  Points where the h and 2h estimates
disagree beyond tolerance are excluded: there the oracle itself cannot
resolve the derivative (poles, oscillation aliasing), independent of the
value under test.
"""

import numpy as np

from padesr.evaluate import build_dataset, eval_grid
from padesr.symdiff import differentiate

FD_STEP = 1e-4


def shifted_dataset(case, data, var, delta):
    xs, ys, ts = data.xs, data.ys, data.ts
    if var == "x":
        xs = xs + delta
    elif var == "y":
        ys = ys + delta
    else:
        ts = ts + delta
    return build_dataset(xs, ys, ts, case.ic)


class FdOracle:
    def __init__(self, case, data, h=FD_STEP, rel=1e-4, absolute=1e-6, bound=1e6):
        self.data = data
        self.h = h
        self.rel = rel
        self.absolute = absolute
        self.bound = bound
        self.shifted = {
            (var, d): shifted_dataset(case, data, var, d * h)
            for var in "xyt"
            for d in (-2, -1, 1, 2)
        }

    def check(self, e, var):
        """Returns (points checked, points failed, worst excess over tolerance)."""
        sym = eval_grid(differentiate(e, var), self.data).values
        hi = eval_grid(e, self.shifted[(var, 1)]).values
        lo = eval_grid(e, self.shifted[(var, -1)]).values
        hi2 = eval_grid(e, self.shifted[(var, 2)]).values
        lo2 = eval_grid(e, self.shifted[(var, -2)]).values
        fd = (hi - lo) / (2 * self.h)
        fd2 = (hi2 - lo2) / (4 * self.h)
        # the difference quotient cannot resolve below the rounding of its
        # operands: a few ulps of |e| divided by the step
        resolution = 8 * np.finfo(float).eps * np.maximum(np.abs(hi), np.abs(lo)) / self.h
        floor = np.maximum(self.absolute, resolution)
        tol = np.maximum(floor, self.rel * np.maximum(np.abs(sym), np.abs(fd)))
        guard = np.maximum(floor, self.rel * np.maximum(np.abs(fd), np.abs(fd2)))
        ok = (
            np.isfinite(sym)
            & np.isfinite(fd)
            & np.isfinite(fd2)
            & (np.abs(hi) < self.bound)
            & (np.abs(lo) < self.bound)
            & (np.abs(hi2) < self.bound)
            & (np.abs(lo2) < self.bound)
            & (np.abs(fd - fd2) <= guard)
        )
        if not ok.any():
            return 0, 0, 0.0
        excess = np.abs(sym[ok] - fd[ok]) - tol[ok]
        failed = int((excess > 0).sum())
        return int(ok.sum()), failed, float(excess.max())
