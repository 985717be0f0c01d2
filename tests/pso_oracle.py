"""Particle-at-a-time constant fit: the oracle for the batched fit.

This is the fit as it scored before passes were batched: a swarm of
``CONST_FIT_SWARM`` particles whose global best is updated after every
particle, each particle moved in place and scored alone through
``ScoringPlan.score``, for ``CONST_FIT_ITERATIONS + 1`` passes.  It shares
no swarm code with :mod:`padesr.search`, only its constants and seed
derivation, so ``fit_constants`` must return exactly what it returns.
"""

import math
import random

from padesr.pde import ScoringPlan
from padesr.search import (
    CONST_FIT_ITERATIONS,
    CONST_FIT_SWARM,
    PSO_COGNITIVE,
    PSO_INERTIA,
    PSO_INIT_RANGE,
    PSO_SOCIAL,
    _key_salt,
    _mix,
)


def fit_constants_oracle(e, case, data, config, breaks=None):
    """(constants, passes in which gbest improved before the last particle).

    ``breaks``, when given, gets the ``(pass, particle)`` of each such
    improvement."""
    rng = random.Random(_mix(config.seed, _key_salt(e.key)))
    plan = ScoringPlan(e, config.objective)
    dim, size = e.n_slots, CONST_FIT_SWARM
    pos = [[rng.uniform(-PSO_INIT_RANGE, PSO_INIT_RANGE) for _ in range(dim)]
           for _ in range(size)]
    vel = [[0.0] * dim for _ in range(size)]
    pbest = [list(p) for p in pos]
    pbest_f = [math.inf] * size
    gbest, gbest_f = list(pos[0]), math.inf
    mid_pass = 0
    for step in range(size * (CONST_FIT_ITERATIONS + 1)):
        i = step % size
        p = pos[i]
        if step >= size:
            v, pb = vel[i], pbest[i]
            for j in range(dim):
                r1, r2 = rng.random(), rng.random()
                v[j] = (
                    PSO_INERTIA * v[j]
                    + PSO_COGNITIVE * r1 * (pb[j] - p[j])
                    + PSO_SOCIAL * r2 * (gbest[j] - p[j])
                )
                p[j] += v[j]
        f = plan.score(case, data, p).total
        if f < pbest_f[i]:
            pbest[i] = list(p)
            pbest_f[i] = f
            if f < gbest_f:
                gbest, gbest_f = list(p), f
                if step >= size and i < size - 1:
                    mid_pass += 1
                    if breaks is not None:
                        breaks.append((step // size, i))
    return tuple(gbest), mid_pass
