"""Evaluation semantics: vectorized stack machine, faults, point/grid parity."""

import math

import numpy as np
import pytest

from padesr.evaluate import EvalError, GaussianIc, build_dataset, eval_grid
from padesr.expr import Notation, convert_notation, parse, sample_complete

NOTATIONS = (Notation.PREFIX, Notation.POSTFIX)


def at_point(e, x, y, t, ic=GaussianIc(0.0, 0.0)):
    """Value of ``e`` at one point: ``eval_grid`` on a one-point dataset."""
    return float(eval_grid(e, build_dataset([x], [y], [t], ic)).values[0])


def test_add_at_point(alpha1):
    e = parse("x y +", Notation.POSTFIX, alpha1)
    assert at_point(e, 1.0, 2.0, 0.5) == 3.0


def test_sech_zero_is_one_everywhere(case1, alpha1):
    _, data = case1
    e = parse("sech 0", Notation.PREFIX, alpha1)
    g = eval_grid(e, data)
    assert not g.fault
    assert np.all(g.values == 1.0)


def test_log_negative_faults(case1, alpha1):
    _, data = case1
    e = parse("log ~ 1", Notation.PREFIX, alpha1)
    g = eval_grid(e, data)
    assert g.fault
    assert np.isnan(g.values).all()


def test_ic_value_at_center(case1, alpha1):
    case, _ = case1

    def ic_at_center(text):
        return at_point(parse(text, Notation.PREFIX, alpha1, mode="free"), 1.1, 0.0, 0.1, case.ic)

    assert ic_at_center("I") == pytest.approx(12.5)
    assert ic_at_center("I_x") == pytest.approx(0.0)
    assert ic_at_center("I_xx") == pytest.approx(-25.0)


def test_literal_product(alpha1):
    e = parse("2 4 *", Notation.POSTFIX, alpha1)
    assert at_point(e, 0.0, 0.0, 0.0) == 8.0


def test_pow_at_point(alpha1):
    e = parse("x t ^", Notation.POSTFIX, alpha1)
    assert at_point(e, 2.0, 0.0, 3.0) == 8.0


def test_domain_fault_table(alpha1):
    cases = {
        "1 0 /": "nan",          # division by zero
        "4 ~ sqrt": "nan",       # sqrt of negative
        "2 asin": "nan",         # asin outside [-1, 1]
        "2 ~ log": "nan",        # log of non-positive
        "2 ~ 0.5 ^": "nan",      # pow leaving the reals
        "0 0 ^": 1.0,            # conventional
        "1 1 ~ /": -1.0,
    }
    for text, expected in cases.items():
        e = parse(text, Notation.POSTFIX, alpha1, mode="free")
        got = at_point(e, 0.0, 0.0, 0.0)
        if expected == "nan":
            assert math.isnan(got), text
        else:
            assert got == expected, text


def test_pow_integer_exponent_negative_base(alpha1):
    e = parse("2 ~ 2 ^", Notation.POSTFIX, alpha1)
    assert at_point(e, 0.0, 0.0, 0.0) == 4.0


def test_missing_constant_raises(alpha1_opt, case1):
    _, data = case1
    e = parse("C x *", Notation.POSTFIX, alpha1_opt)
    with pytest.raises(EvalError):
        eval_grid(e, data)
    g = eval_grid(e, data, consts=(3.0,))
    assert not g.fault


def test_point_matches_grid_everywhere(case1, alpha1, rng):
    # derived oracle: a one-point dataset at a mesh node gives the full-grid
    # entry, which checks the x-major flat layout
    case, data = case1
    nx, ny, nt = data.shape
    for _ in range(25):
        notation = NOTATIONS[rng.randrange(2)]
        e = sample_complete(rng, notation, 4, alpha1)
        grid = eval_grid(e, data).values
        for probe in range(40):
            ix = rng.randrange(nx)
            iy = rng.randrange(ny)
            it = rng.randrange(nt)
            x, y, t = data.xs[ix], data.ys[iy], data.ts[it]
            flat = (ix * ny + iy) * nt + it
            got = at_point(e, x, y, t, case.ic)
            want = grid[flat]
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_prefix_equals_postfix_evaluation(case1, alpha1, rng):
    _, data = case1
    for _ in range(300):
        e = sample_complete(rng, Notation.PREFIX, 4, alpha1)
        conv = convert_notation(e, Notation.POSTFIX)
        a = eval_grid(e, data).values
        b = eval_grid(conv, data).values
        both = np.isnan(a) & np.isnan(b)
        assert np.array_equal(a[~both], b[~both])


def test_operand_stack_depth_bound(alpha1, rng):
    # max stack size during a postfix scan is depth + 1
    for _ in range(300):
        e = sample_complete(rng, Notation.POSTFIX, 5, alpha1)
        size = peak = 0
        for tok in e.tokens:
            size += 1 - tok.arity
            peak = max(peak, size)
        assert peak <= e.depth + 1


def test_dataset_layout_and_linspace():
    data = build_dataset([0.0, 1.0], [0.0, 2.0], [0.0, 3.0, 6.0], GaussianIc(0.0, 0.0))
    assert data.shape == (2, 2, 3)
    assert data.n == 12
    # x-major, then y, then t
    assert data.leaf["x"][0] == 0.0 and data.leaf["x"][-1] == 1.0
    flat = (1 * 2 + 0) * 3 + 2  # ix=1, iy=0, it=2
    assert data.leaf["x"][flat] == 1.0
    assert data.leaf["y"][flat] == 0.0
    assert data.leaf["t"][flat] == 6.0


def test_dataset_has_grid_per_leaf(case1, alpha1):
    _, data = case1
    for tok in alpha1.leaves:
        if tok.kind.name == "CONST":
            continue
        if tok.kind.name == "LITERAL":
            if tok.text in data.leaf:
                assert np.all(data.leaf[tok.text] == tok.value)
            else:
                assert tok.value is not None  # plain digits broadcast by value
        else:
            assert tok.text in data.leaf


def test_ic_derivative_grids_analytic(case1):
    case, data = case1
    x = data.leaf["x"]
    y = data.leaf["y"]
    ival = data.leaf["I"]
    assert np.allclose(data.leaf["I_x"], -2 * (x - 1.1) * ival)
    assert np.allclose(data.leaf["I_xy"], 4 * (x - 1.1) * y * ival)
    assert np.allclose(data.leaf["I_yy"], (4 * y * y - 2) * ival)
