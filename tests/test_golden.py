"""Golden search trajectories: seeded, evaluation-capped runs of every
algorithm must reproduce bit for bit.

Each digest covers one algorithm on case 1 at the 10^3 mesh, 1 worker, seed 7
and threshold 0, over both notations.  It hashes the best key, the ``repr``
of the fitted constants, the best total, the evaluation count and the totals
of the logged improvements, so any change to sampling order, RNG draws,
selection rules or scoring shows here.

``SHORT`` runs 40 evaluations at depth 4 under both token sets with
constants, which covers constant fitting.  Forty evaluations end inside GP's
first population of 200 (so GP equals RS there) and inside PSO's first pass
over its 50 particles, so ``LONG`` runs 300 evaluations at depth 3 under
``vars+const``; there GP and PSO find improvements among GP's offspring and
after PSO's velocity update, and MCTS after its root is fully expanded.

Neither set scores a candidate whose constant slots a mutation carried over:
``SHORT`` fits no such candidate and ``LONG`` has no ``C``.  ``CONSTANTS``
runs SA under ``vars+const+opt`` at depth 4, seed 3, for 100 evaluations, long
enough that its mutants carry constants and the slot numbering of
``make_expr`` shows in the fitted vectors and totals.

The values were recorded before the search and scoring code paths were
merged; a refactor that must keep trajectories may not edit them.
"""

import hashlib

import pytest

from padesr.expr import Notation
from padesr.pde import ObjectiveConfig
from padesr.search import ALGORITHMS, SearchConfig, run_search

SHORT = dict(depth=4, max_evals=40, token_modes=("vars+const", "vars+const+opt"))
LONG = dict(depth=3, max_evals=300, token_modes=("vars+const",))
CONSTANTS = dict(depth=4, max_evals=100, token_modes=("vars+const+opt",), seed=3)

GOLDEN_SHORT = {
    "rs": "906c8cbb03bc6c54503fabf7c38a7a41ef315cc9079019dffb8cf9ae93f756fa",
    "mcts": "1c7234157238b62f95d3bb92ef4f8e8e4cda8ff1f1d20c1cb5523c5c5d7238ce",
    "cmcts": "e2581390249316e76d75ed0b36e5b99b70f7737da9bc5a143bcfd90aa710e1f3",
    "pso": "9b7a25af427071fcc7489eb7d0062602d50c8a24df985d9d947f3e70ad0f40fb",
    "gp": "906c8cbb03bc6c54503fabf7c38a7a41ef315cc9079019dffb8cf9ae93f756fa",
    "sa": "fd40a14c4686294890e64c5e914a61ece87dface1d1f427ebd583d8b270ebbb8",
}
GOLDEN_LONG = {
    "rs": "93dbe920b2fae4dc7bde43177732c8d3ad410f5e48226d5b497490f293de8475",
    "mcts": "eee16fdfb174e5e7f28f106cdc09467c2aaebe3e31b97bf84150c14982dd667c",
    "cmcts": "835628bcada27337d05754208741d805e9965beaffda4d8d1075dd43c2a6fba0",
    "pso": "7f2ed850fedb7dec10619c12683fa6c66e4cb74d0773cc7d660a4f47dc0963a7",
    "gp": "c31ce61e676e1a9f23c9d48f024863ad613a4818d9e2cb1c772dcb9d4388bb80",
    "sa": "6074a9e22cf218064a55974fe3f7b72e6af0b538f1979ea4149a83bb630e598e",
}
GOLDEN_CONSTANTS_SA = "5af49d294dfdd663cf75d8ee1b288fb56c7709c58b52fa7f0ee57ccbff3cde60"


def trajectory_digest(algo, case, data, depth, max_evals, token_modes, seed=7):
    digest = hashlib.sha256()
    for notation in (Notation.PREFIX, Notation.POSTFIX):
        for token_mode in token_modes:
            config = SearchConfig(
                algorithm=algo,
                depth=depth,
                notation=notation,
                token_mode=token_mode,
                threads=1,
                time_budget=600.0,  # the evaluation cap ends every run
                seed=seed,
                objective=ObjectiveConfig(threshold=0.0),
                max_evals=max_evals,
            )
            result = run_search(config, case, data)
            assert result.evaluations == max_evals, (algo, notation, token_mode)
            totals = [total for _, total in result.improvements]
            line = (f"{notation.value}|{token_mode}|{result.expr.key}|"
                    f"{result.consts!r}|{result.breakdown.total!r}|"
                    f"{result.evaluations}|{totals!r}\n")
            digest.update(line.encode())
    return digest.hexdigest()


def test_golden_covers_every_algorithm():
    assert tuple(GOLDEN_SHORT) == tuple(GOLDEN_LONG) == ALGORITHMS


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_golden_trajectory_short(algo, case1):
    case, data = case1
    assert trajectory_digest(algo, case, data, **SHORT) == GOLDEN_SHORT[algo]


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_golden_trajectory_long(algo, case1):
    case, data = case1
    assert trajectory_digest(algo, case, data, **LONG) == GOLDEN_LONG[algo]


def test_golden_trajectory_constants(case1):
    case, data = case1
    assert trajectory_digest("sa", case, data, **CONSTANTS) == GOLDEN_CONSTANTS_SA
