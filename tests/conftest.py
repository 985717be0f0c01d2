import random

import pytest
from hypothesis import settings

from padesr import evaluate
from padesr.expr import (
    BINARY_TOKENS,
    Alphabet,
    Notation,
    UNARY_TOKENS,
    VAR_X,
    VAR_Y,
)
from padesr.pde import build_case, case_alphabet

# Every run draws fresh examples, so a property that fails prints the
# ``@reproduce_failure`` blob that replays its failing example.
settings.register_profile("padesr", print_blob=True)
settings.load_profile("padesr")


@pytest.fixture(scope="session")
def case1():
    return build_case("case1", (10, 10, 10))


@pytest.fixture(scope="session")
def case2():
    return build_case("case2", (10, 10, 10))


@pytest.fixture(scope="session")
def alpha1(case1):
    case, _ = case1
    return case_alphabet(case, "vars+const")


@pytest.fixture(scope="session")
def alpha1_opt(case1):
    case, _ = case1
    return case_alphabet(case, "vars+const+opt")


@pytest.fixture(scope="session")
def small_block():
    """A block of a few dozen points: every 10^3 mesh and plane runs as
    several blocks, the last one partial, so the multi-block path and the
    stop at a grid's first faulting block both run."""
    return 37


@pytest.fixture()
def block_sizes(monkeypatch, small_block):
    """``eval_grid``'s block size, then ``small_block``, each patched into
    :mod:`padesr.evaluate` as a loop over them reaches it."""
    def sizes():
        for size in (evaluate.BLOCK, small_block):
            monkeypatch.setattr(evaluate, "BLOCK", size)
            yield size
    return sizes()


@pytest.fixture()
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def tiny_alphabet():
    """Two leaves, one unary, one binary: small enough to enumerate exhaustively."""
    return Alphabet(
        variables=(VAR_X, VAR_Y),
        literals=(),
        include_learnable=False,
        unaries=(UNARY_TOKENS["sin"],),
        binaries=(BINARY_TOKENS["+"],),
    )


def iter_notations():
    return (Notation.PREFIX, Notation.POSTFIX)
