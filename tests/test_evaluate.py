"""Evaluation semantics: vectorized stack machine, faults, point/grid parity."""

import math

import numpy as np
import pytest

from padesr.evaluate import EvalError, GaussianIc, build_dataset, eval_grid
from padesr.expr import IC_FAMILY, Notation, convert_notation, parse, sample_complete

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


def bits(values):
    """The bytes of ``values`` with every NaN made one NaN: the sign of a NaN
    can differ between kernels, and no result reads it."""
    return np.where(np.isnan(values), np.nan, values).tobytes()


def test_constant_matrix_rows_equal_one_vector_calls(case1, alpha1_opt, rng):
    # a C reads its column of an (m, k) matrix; row r of the (m, n) grid is
    # the 1-D evaluation with vector r, bit for bit, fault flag included
    case, data = case1
    values = (0.0, 1.0, -1.0, 0.5, 1e300, -3.25)
    texts = ("C C -", "C exp", "x C /", "C sqrt t * x log +", "x y +")
    exprs = [parse(text, Notation.POSTFIX, alpha1_opt, mode="free") for text in texts]
    while len(exprs) < 80:
        exprs.append(sample_complete(rng, NOTATIONS[len(exprs) % 2], 4, alpha1_opt))
    for e in exprs:
        k = max(e.n_slots, 1)
        matrix = np.array([[rng.choice(values) if rng.random() < 0.3 else rng.uniform(-9, 9)
                            for _ in range(k)] for _ in range(7)])
        for grid_data in (data, case.planes[("x", "lo")]):
            batch = eval_grid(e, grid_data, matrix)
            if not e.n_slots:
                assert batch.values.shape == (grid_data.n,)
                assert bits(batch.values) == bits(eval_grid(e, grid_data).values)
                continue
            assert batch.values.shape == (7, grid_data.n) and batch.fault.shape == (7,)
            for row, vector in enumerate(matrix):
                one = eval_grid(e, grid_data, vector)
                assert bits(batch.values[row]) == bits(one.values), (e, vector)
                assert batch.fault[row] == one.fault


def test_constant_matrix_with_too_few_columns_raises(case1, alpha1_opt):
    _, data = case1
    e = parse("C x * C +", Notation.POSTFIX, alpha1_opt)
    assert e.n_slots == 2
    with pytest.raises(EvalError):
        eval_grid(e, data, np.zeros((3, 1)))
    assert eval_grid(e, data, np.zeros((3, 2))).values.shape == (3, data.n)


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
    """Variables and the I family have grids; literals evaluate by value."""
    _, data = case1
    assert set(data.leaf) == {"x", "y", "t"} | {tok.text for tok in IC_FAMILY}
    for tok in alpha1.leaves:
        if tok.kind.name == "LITERAL":
            e = parse(tok.text, Notation.POSTFIX, alpha1)
            assert np.all(eval_grid(e, data).values == tok.value)
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
