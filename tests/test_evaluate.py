"""Evaluation semantics: the compiled program, faults, point/grid parity."""

import dataclasses
import math
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padesr import evaluate, pde
from padesr.evaluate import (
    BINARY_FUNCS, UNARY_FUNCS, EvalError, GaussianIc, build_dataset, eval_grid)
from padesr.expr import (
    IC_FAMILY, MESH_AXES, Notation, TokenKind, convert_notation, fold, parse, sample_complete)
from padesr.pde import TOKEN_MODES, ObjectiveConfig, ScoringPlan, build_case, case_alphabet
from padesr.symdiff import DerivativeOrderError, differentiate

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


def test_integer_constant_matrix_evaluates_as_floats(case1, alpha1_opt):
    # ``C C +`` is made from the columns, and the ``+ 0.5`` step writes its
    # float result over it
    _, data = case1
    e = parse("C C + 0.5 + x *", Notation.POSTFIX, alpha1_opt, mode="free")
    ints = np.array([[1, 2], [-3, 4]])
    got = eval_grid(e, data, ints).values
    assert got.tobytes() == eval_grid(e, data, ints.astype(np.float64)).values.tobytes()


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


def test_the_ic_family_keeps_its_bits_from_one_gaussian_per_dataset(monkeypatch):
    # each member against its own formula, the Gaussian evaluated afresh for
    # each, on the 50^3 case-2 interior and every plane of the case
    value = GaussianIc.value
    gaussians = []

    def counted(ic, x, y):
        gaussians.append(1)
        return value(ic, x, y)

    monkeypatch.setattr(GaussianIc, "value", counted)
    case, data = build_case("case2", (50, 50, 50))
    datasets = [data, *case.planes.values(), case.ic_plane]
    assert len(gaussians) == len(datasets)
    formulas = {
        "I": lambda dx, dy, g: g,
        "I_x": lambda dx, dy, g: -2.0 * dx * g,
        "I_y": lambda dx, dy, g: -2.0 * dy * g,
        "I_xx": lambda dx, dy, g: (4.0 * dx * dx - 2.0) * g,
        "I_yy": lambda dx, dy, g: (4.0 * dy * dy - 2.0) * g,
        "I_xy": lambda dx, dy, g: 4.0 * dx * dy * g,
    }
    assert set(formulas) == {tok.text for tok in IC_FAMILY}
    ic = case.ic
    for d in datasets:
        x, y = d.leaf["x"], d.leaf["y"]
        for text, formula in formulas.items():
            want = formula(x - ic.x_center, y - ic.y_center, value(ic, x, y))
            assert d.leaf[text].tobytes() == want.tobytes(), text


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


# ---------------------------------------------------------------------------
# the kernels: each point's bits do not depend on the layout of its operands

# values that reach the kernels: ordinary ones, the edges of their domains
# and of float64, and both signs of zero, infinity and NaN
_SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, np.inf, -np.inf, np.nan, -np.nan,
                      1e300, -1e300, 5e-324, 709.8, -745.2, 1e-8])


def _operand(rng, size):
    """``size`` values, about one in four of them from ``_SPECIALS``."""
    values = rng.uniform(-4.0, 4.0, size)
    special = rng.random(size) < 0.25
    values[special] = rng.choice(_SPECIALS, special.sum())
    return values


def _canonical_bytes(values):
    values = np.asarray(values)
    return values.shape, np.where(np.isnan(values), np.nan, values).tobytes()


def _step(op, *operands):
    """``op`` applied as a program step applies it, an array exponent of
    ``^`` read as a mesh value."""
    if len(operands) == 1:
        return UNARY_FUNCS[op](*operands)
    if op == "^" and np.ndim(operands[1]):
        return evaluate._power(*operands, mesh=True)
    return BINARY_FUNCS[op](*operands)


_KERNELS = [(op, 1) for op in UNARY_FUNCS] + [(op, 2) for op in BINARY_FUNCS]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_KERNELS), st.integers(0, 2**32 - 1),
       st.one_of(st.integers(1, 300), st.sampled_from((1_000, 2_500))),
       st.integers(0, 16), st.integers(1, 70), st.integers(1, 70))
def test_a_kernel_gives_each_point_its_bits_in_any_layout(kernel, seed, length, offset, p, q):
    # eval_grid runs each step on sub-mesh operands: slices of the boxes, 0-d
    # scalars and broadcast shapes, where the flat oracle ran whole
    # contiguous grids.  Numpy picks a vector loop or its scalar remainder by
    # a point's position, so its bits must not depend on which computed it.
    # One exception: numpy computes a 0-d exponent of 2, 0.5 or -1 as a
    # square, square root or reciprocal, so a 0-d exponent is checked against
    # itself, point by point; an operand is 0-d in eval_grid where it is in
    # the flat oracle, and a mesh exponent is spread (see evaluate._power).
    op, arity = kernel
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        # a slice at any offset against the whole contiguous operands
        full = [_operand(rng, offset + length + 3) for _ in range(arity)]
        want = _step(op, *full)[offset:offset + length]
        cut = [a[offset:offset + length] for a in full]
        assert _canonical_bytes(_step(op, *cut)) == _canonical_bytes(want), op
        # a 0-d operand against the value spread over the other's shape
        values, other = full[0][:length], full[-1][:length]
        for i in range(min(length, 8)):
            scalar = np.float64(values[i])
            if arity == 1:
                assert _canonical_bytes(_step(op, scalar)) == _canonical_bytes(
                    _step(op, values)[i]), op
                continue
            spread = np.full(length, scalar)
            assert (_canonical_bytes(_step(op, scalar, other))
                    == _canonical_bytes(_step(op, spread, other))), op
            if op == "^":
                each = [_step(op, np.float64(v), scalar) for v in other]
                assert _canonical_bytes(_step(op, other, scalar)) == _canonical_bytes(each)
            else:
                assert (_canonical_bytes(_step(op, other, scalar))
                        == _canonical_bytes(_step(op, other, spread))), op
        # broadcast operands against their materialized contiguous copies,
        # each way round, and a 0-d operand with a broadcast one
        column, row = _operand(rng, p).reshape(p, 1), _operand(rng, q).reshape(1, q)
        columns, rows = np.tile(column, (1, q)), np.tile(row, (p, 1))
        wide = np.broadcast_to(column, (p, q))
        if arity == 1:
            assert _canonical_bytes(_step(op, wide)) == _canonical_bytes(_step(op, columns)), op
            return
        scalar = np.float64(values[0])
        pairs = [((column, row), (columns, rows)), ((row, column), (rows, columns)),
                 ((wide, scalar), (columns, scalar)), ((scalar, wide), (scalar, columns))]
        for v in (scalar, 2.0, 0.5, -1.0):  # one value broadcast over a column
            pairs.append(((column, np.full((1, 1), v)), (column, np.full((p, 1), v))))
        for got, want in pairs:
            assert _canonical_bytes(_step(op, *got)) == _canonical_bytes(_step(op, *want)), op


# ---------------------------------------------------------------------------
# the compiled program: each distinct subtree once, writing only what it owns

_CONSTS = st.one_of(st.floats(-20.0, 20.0), st.sampled_from((0.0, 1.0, -1.0, 1e300, -1e300)))


def _with_ic_family(alphabet):
    """``alphabet`` plus the ``I_x`` family, which only free mode parses."""
    return dataclasses.replace(alphabet, variables=alphabet.variables + IC_FAMILY[1:])


def ranges(data):
    """The flat ``(lo, hi)`` range of each block ``eval_grid`` runs ``data`` in."""
    return [(box.lo, box.hi) for box in evaluate.blocks(data.shape)[1]]


def stop_after(data, index):
    """The end of the block holding flat ``index``: a grid whose every row
    has faulted by then is NaN from there on."""
    return next(hi for lo, hi in ranges(data) if lo <= index < hi)


def assert_same_grid(got, want, data):
    """``got`` has ``want``'s shape and fault flags, and each row has its
    bits through the end of the block holding the row's first fault, or
    throughout when the row does not fault.  Past that, where a grid stopped
    once every row had faulted, ``got`` holds NaN.  Both write every NaN as
    ``np.nan``, so the bytes compare exactly."""
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.fault, want.fault)
    n = want.values.shape[-1]
    for g, w in zip(np.atleast_2d(got.values), np.atleast_2d(want.values)):
        bad = ~np.isfinite(w)
        end = stop_after(data, np.argmax(bad)) if bad.any() else n
        assert g[:end].tobytes() == w[:end].tobytes()
        assert np.isnan(g[end:][g[end:] != w[end:]]).all()


@settings(max_examples=150, deadline=None)
@given(draws=st.data())
def test_program_equals_one_fold_scan(case1, small_block, draws):
    # bit for bit, values and fault flags, on T and on the x, xx and yy
    # derivatives, whose chain and product rules repeat T's subtrees; with
    # the small block size, across blocks and up to a grid's first fault
    from fold_oracle import eval_grid_oracle

    case, data = case1
    block = draws.draw(st.sampled_from((evaluate.BLOCK, small_block)))
    notation = draws.draw(st.sampled_from(NOTATIONS))
    alphabet = case_alphabet(case, draws.draw(st.sampled_from(tuple(TOKEN_MODES))))
    if draws.draw(st.booleans()):
        alphabet = _with_ic_family(alphabet)
    e = sample_complete(random.Random(draws.draw(st.integers(0, 2**32 - 1))), notation,
                        draws.draw(st.integers(0, 5)), alphabet)
    k = e.n_slots
    vector = draws.draw(st.lists(_CONSTS, min_size=k, max_size=k))
    matrix = np.array(draws.draw(st.lists(st.lists(_CONSTS, min_size=k, max_size=k),
                                          min_size=1, max_size=4)), dtype=np.float64)
    matrix = matrix.reshape(len(matrix), k)
    exprs = [e]
    for name in ("x", "xx", "yy"):
        try:
            d = differentiate(e, name[0])
            exprs.append(d if len(name) == 1 else differentiate(d, name[0]))
        except DerivativeOrderError:
            pass
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "BLOCK", block)
        for target in exprs:
            for grid_data in (data, case.planes[("y", "lo")]):
                for consts in ((vector, matrix) if k else (None, matrix)):
                    assert_same_grid(eval_grid(target, grid_data, consts),
                                     eval_grid_oracle(target, grid_data, consts), grid_data)


def test_a_matrix_stops_where_its_last_row_faults(case1, alpha1_opt, block_sizes):
    # x / (x - C) faults only where x is C: x is the major index, so a row
    # faults in one run of blocks and is finite after it.  A row's flag holds
    # a fault in any block, and the grid stops only once every row has one.
    from fold_oracle import eval_grid_oracle

    case, data = case1
    xs = data.xs
    e = parse("x x C - /", Notation.POSTFIX, alpha1_opt, mode="free")
    for _ in block_sizes:
        for consts in ([xs[2]], np.array([[xs[2]], [5.0]]), np.array([[xs[2]], [xs[7]]]),
                       np.array([[xs[7]], [xs[2]]])):
            for grid_data in (data, case.planes[("y", "lo")]):
                got = eval_grid(e, grid_data, consts)
                want = eval_grid_oracle(e, grid_data, consts)
                assert_same_grid(got, want, grid_data)
        stop = stop_after(data, 7 * data.n // len(xs))
        stopped = eval_grid(e, data, np.array([[xs[2]], [xs[7]]])).values[:, stop:]
        assert np.isnan(stopped).all() and stopped.size == max(data.n - stop, 0) * 2


def test_an_exponent_numpy_takes_a_shortcut_for_keeps_its_bits(case1, alpha1_opt, block_sizes):
    # numpy may compute x^2, x^0.5 and x^-1 as a square, square root and
    # reciprocal when one exponent value is broadcast; an exponent that reads
    # x is one value per x-plane, or one per box where a box is one plane
    # wide, and must give the bits of the flat grid it stands for, while a
    # batch's C gives each row the bits of its vector
    from fold_oracle import eval_grid_oracle

    case, data = case1
    texts = ("t x x / x x / + ^", "t x x / 2 / ^", "t x x / ~ ^", "I x x / x x / + ^",
             "t y 0 * 2 + ^", "t C ^", "x C C + ^")
    columns = ([[2.0]], [[2.0], [0.5], [-1.0]], [[1.0], [0.25]])
    for _ in block_sizes:
        for text in texts:
            e = parse(text, Notation.POSTFIX, alpha1_opt, mode="free")
            k = e.n_slots
            given = [[v] * k for v in (2.0, 0.5, -1.0, 1.0)]
            given += [np.repeat(np.array(c), k, axis=1) for c in columns]
            for grid_data in (data, case.planes[("x", "lo")], case.planes[("y", "hi")]):
                for consts in given if k else (None,):
                    got = eval_grid(e, grid_data, consts)
                    assert_same_grid(got, eval_grid_oracle(e, grid_data, consts), grid_data)
                    if np.ndim(consts) == 2:  # each row has the bits of its vector
                        for row, vector in zip(got.values, consts):
                            one = eval_grid(e, grid_data, vector).values
                            assert row.tobytes() == one.tobytes(), (text, vector)


@pytest.mark.parametrize("shape", [(10, 10, 10), (50, 50, 50), (1, 10, 10), (10, 1, 10),
                                   (10, 10, 1), (5, 5, 5000), (2, 2, 40000), (1, 1, 1)])
def test_blocks_are_boxes_that_tile_the_flat_grid_in_order(shape, block_sizes):
    # each box is whole trailing axes, so its points are one contiguous flat
    # range of at most BLOCK points, and the ranges follow one another; an
    # axis is split exactly when some box does not span all of it
    n = math.prod(shape)
    index = np.arange(n).reshape(shape)
    full = (MESH_AXES["x"] | MESH_AXES["y"] | MESH_AXES["t"])
    for size in block_sizes:
        split, boxes = evaluate.blocks(shape)
        assert [box.lo for box in boxes] == [0] + [box.hi for box in boxes[:-1]]
        assert boxes[-1].hi == n
        spanned = 0
        for box in boxes:
            assert box.hi - box.lo == math.prod(box.shape) <= max(size, 1)
            points = index[box.cuts[full]]
            assert points.shape == box.shape
            assert np.array_equal(points.ravel(), np.arange(box.lo, box.hi))
            spanned |= sum(bit for bit, extent, whole in zip(MESH_AXES.values(), box.shape, shape)
                           if extent < whole)
        assert split == spanned
        assert (len(boxes) == 1) == (n <= size)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NOTATIONS), st.sampled_from(tuple(TOKEN_MODES)), st.integers(0, 5),
       st.randoms(use_true_random=False))
def test_each_value_dies_at_its_last_reader(case1, notation, token_mode, depth, rng):
    # no step writes over a value, so liveness alone bounds what a program
    # holds: every value a step makes, but the result, is dropped by exactly
    # one step, its last reader, and a leaf or the result is never dropped
    e = sample_complete(rng, notation, depth, case_alphabet(case1[0], token_mode))
    exprs = [e]
    try:
        exprs.append(differentiate(e, "x"))
        exprs.append(differentiate(exprs[-1], "x"))
    except DerivativeOrderError:
        pass
    for target in exprs:
        program = target.program
        last_reader = {}
        for i, (_, a, b, _, _) in enumerate(program.steps):
            for u in (a, b) if b >= 0 else (a,):
                last_reader[u] = i
        dropped = sorted((u, i) for i, step in enumerate(program.steps) for u in step[-1])
        made = {step[3] for step in program.steps} - {program.result}
        assert dropped == sorted((u, last_reader[u]) for u in made), target
        never = {r for r, _ in program.leaves} | {program.result}
        assert not never & {u for u, _ in dropped}, target


def _leaf_grids(case, data):
    grids = [case.ux_grid, case.uy_grid]
    for dataset in (data, case.ic_plane, *case.planes.values()):
        grids.extend(dataset.sub_leaf.values())
    return grids


def test_program_writes_only_values_it_made(alpha1_opt):
    # no kernel and no plan writes over a dataset grid, a velocity grid, the
    # caller's constants or a grid a plan keeps: they all come out with
    # their bits unchanged
    case, data = build_case("case1", (10, 10, 10))
    leaves = _leaf_grids(case, data)
    before = [grid.tobytes() for grid in leaves]
    matrix = np.array([[0.5, -2.0], [3.0, 0.25], [-1.0, 4.0]])
    kept_matrix = matrix.tobytes()

    def parsed(text):
        return parse(text, Notation.POSTFIX, alpha1_opt, mode="free")

    for text in ("x sin", "x x *", "x sin x sin *"):
        eval_grid(parsed(text), data)
    batched = eval_grid(parsed("C tanh y +"), data, matrix)
    assert batched.values.shape == (3, data.n)
    e = parsed("x y * t * sin C x * +")
    plan = ScoringPlan(e, ObjectiveConfig(threshold=0.0))
    first = plan.score(case, data, matrix[0])
    totals = plan.totals(case, data, matrix)
    kept = [(key, grid.values.tobytes()) for key, (_, grid) in plan._grids.items()]
    assert ("t", id(data)) in plan._grids  # dT/dt has no C, so its grid is kept
    assert plan.totals(case, data, matrix).tobytes() == totals.tobytes()
    assert plan.score(case, data, matrix[0]) == first
    assert np.isfinite(totals).all()
    assert [(key, grid.values.tobytes()) for key, (_, grid) in plan._grids.items()] == kept
    assert matrix.tobytes() == kept_matrix
    assert [grid.tobytes() for grid in leaves] == before


def _distinct_operator_subtrees(e):
    """The mesh axes each distinct operator subtree of ``e`` reads, by subtree."""
    seen = {}

    def leaf(tok):
        if tok.kind is TokenKind.IC:
            return tok, frozenset("xy")
        return tok, frozenset({tok.text} if tok.kind is TokenKind.VARIABLE else ())

    def node(tok, *operands):
        key = (tok.text,) + tuple(k for k, _ in operands)
        seen[key] = frozenset().union(*(reads for _, reads in operands))
        return key, seen[key]

    fold(e.tokens, e.notation, leaf, node, node)
    return seen


@pytest.fixture(scope="module")
def multi_block(case2):
    """A 125,000-point dataset whose 25,000-point y-t plane is larger than a
    block, so eval_grid cuts each x-plane into chunks of y-rows."""
    _, data = case2
    return build_dataset(data.xs[:5], data.ys[:5], np.linspace(0.1, 20.0, 5000),
                         GaussianIc(1, 1))


def test_each_distinct_subtree_is_computed_once(case1, multi_block, alpha1, monkeypatch):
    # once per block for a step that reads an axis the blocks split, once
    # per call, before the first block, for one that reads none
    calls = []

    def counted(table):
        for op, func in list(table.items()):
            def count(*args, _op=op, _func=func, **kwargs):
                calls.append(_op)
                return _func(*args, **kwargs)
            monkeypatch.setitem(table, op, count)

    counted(UNARY_FUNCS)
    counted(BINARY_FUNCS)
    T = parse("x I x t I ^ / / /", Notation.POSTFIX, alpha1, mode="free")
    derived = (differentiate(T, "x"), differentiate(differentiate(T, "x"), "x"))
    for data in (case1[1], multi_block):
        split, boxes = evaluate.blocks(data.shape)
        split = {v for v, bit in MESH_AXES.items() if split & bit}
        calls.clear()
        eval_grid(parse("x sin x sin *", Notation.POSTFIX, alpha1), data)
        assert calls == ["sin", "*"] * len(boxes)
        calls.clear()
        eval_grid(parse("t sin x *", Notation.POSTFIX, alpha1), data)
        assert calls == ["sin"] + ["*"] * len(boxes)
        for e in derived:
            calls.clear()
            assert not eval_grid(e, data).fault  # so no block is skipped
            operators = sum(1 for tok in e.tokens if tok.arity)
            subtrees = _distinct_operator_subtrees(e)
            assert len(calls) == sum(len(boxes) if reads & split else 1
                                     for reads in subtrees.values())
            assert len(subtrees) < operators
    split, boxes = evaluate.blocks(multi_block.shape)
    assert split == MESH_AXES["x"] | MESH_AXES["y"]
    assert [box.shape for box in boxes] == [(1, 3, 5000), (1, 2, 5000)] * 5


def _scan_stack_peak(e):
    size = peak = 0
    for tok in (e.tokens if e.notation is Notation.POSTFIX else reversed(e.tokens)):
        size += 1 - tok.arity
        peak = max(peak, size)
    return peak


def test_blocks_bound_what_sharing_holds(multi_block, alpha1_opt, monkeypatch, rng):
    # a shared value stays live from its first use to its last, and a value
    # made before the blocks stays live across them, so a program can hold
    # more values at once than the one-scan stack holds entries; no value is
    # larger than one block, so it never holds more elements than that stack
    # held over the whole mesh
    data = multi_block
    made = []  # a weak reference to every array a kernel returned
    seen = {"peak": 0, "largest": 0}

    def tracked(table):
        for op, func in list(table.items()):
            def track(*args, _func=func, **kwargs):
                result = _func(*args, **kwargs)
                made.append(weakref.ref(result) if np.ndim(result) else lambda: None)
                alive = {id(a): a.size for a in (ref() for ref in made) if a is not None}
                seen["peak"] = max(seen["peak"], sum(alive.values()))
                seen["largest"] = max(seen["largest"], np.size(result))
                return result
            monkeypatch.setitem(table, op, track)

    tracked(UNARY_FUNCS)
    tracked(BINARY_FUNCS)
    T = parse("I y_max exp x acos / ^", Notation.POSTFIX, alpha1_opt)
    derived = [differentiate(differentiate(T, "x"), "x")]
    while len(derived) < 60:
        e = sample_complete(rng, Notation.POSTFIX, 4, alpha1_opt)
        for var in "xy":
            try:
                derived.append(differentiate(differentiate(e, var), var))
            except DerivativeOrderError:
                pass
    for d in derived:
        made.clear()
        seen.update(peak=0, largest=0)
        eval_grid(d, data, [0.5] * d.n_slots)
        assert seen["largest"] <= evaluate.BLOCK, d
        assert seen["peak"] <= _scan_stack_peak(d) * data.n, d


# ---------------------------------------------------------------------------
# grid-sized buffers


class LiveGrids:
    """Wraps :func:`evaluate.scratch` to check each array it hands out
    against every grid that must stay live: the grids each live
    ``ScoringPlan`` keeps and the gate's grids while the interior is scored.
    The checks read the grids through their holders and keep no reference
    to an array between calls."""

    def __init__(self, monkeypatch):
        self.plans = weakref.WeakSet()
        self.gate_grids = []  # the gate's grids of each _components call in progress
        self.handouts = 0
        real_scratch = evaluate.scratch
        real_init = ScoringPlan.__init__
        real_components = ScoringPlan._components

        def scratch(shape):
            a = real_scratch(shape)
            self.handouts += 1
            for plan in list(self.plans):
                for _, g in plan._grids.values():
                    assert not np.shares_memory(a, g.values)
            for grids in self.gate_grids:
                for v, values in grids.items():
                    assert not np.shares_memory(a, values), v
            return a

        def init(plan, *args, **kwargs):
            real_init(plan, *args, **kwargs)
            self.plans.add(plan)

        def components(plan, case, data, grids, consts):
            self.gate_grids.append(grids)
            try:
                return real_components(plan, case, data, grids, consts)
            finally:
                self.gate_grids.pop()

        monkeypatch.setattr(evaluate, "scratch", scratch)
        monkeypatch.setattr(pde, "scratch", scratch)
        monkeypatch.setattr(ScoringPlan, "__init__", init)
        monkeypatch.setattr(ScoringPlan, "_components", components)


def test_scoring_never_hands_out_a_live_grid(case1, alpha1_opt, monkeypatch, small_block):
    # Under a small block every mesh and plane grid comes from the free list.
    # Each candidate is scored while the plan before it is still alive, by
    # score, or by totals as a constant fit does; no buffer handed out may be
    # one that plan keeps, or one the gate keeps while the residual is made,
    # and the kept grids must still hold their values afterwards.
    monkeypatch.setattr(evaluate, "BLOCK", small_block)
    live = LiveGrids(monkeypatch)
    case, data = case1
    rng = random.Random(5)
    cfg = ObjectiveConfig(threshold=0.0)
    previous = None
    kept_by_gate = 0
    # a constant grid's |g| takes no buffer, so it takes 200 candidates to
    # hand out more than 1,000
    for i in range(200):
        e = sample_complete(rng, NOTATIONS[i % 2], 4, alpha1_opt)
        plan = ScoringPlan(e, cfg)
        if e.n_slots:
            vectors = np.array([[rng.uniform(-2, 2) for _ in range(e.n_slots)]
                                for _ in range(5)])
            totals = plan.totals(case, data, vectors)
            assert [plan.score(case, data, v).total for v in vectors] == list(totals)
        elif not plan.score(case, data).gate_rejected:
            kept_by_gate += 1
        if previous is not None:
            for key, values in previous[1].items():
                np.testing.assert_array_equal(previous[0]._grids[key][1].values, values)
        previous = plan, {key: g.values.copy() for key, (_, g) in plan._grids.items()}
    assert kept_by_gate >= 10 and live.handouts > 1000


def test_a_held_batch_row_is_not_handed_out(case1, alpha1_opt, monkeypatch, small_block):
    monkeypatch.setattr(evaluate, "BLOCK", small_block)
    _, data = case1
    e = parse("x C * sin", Notation.POSTFIX, alpha1_opt)
    row = eval_grid(e, data, np.array([[0.5]])).values
    assert row.shape == (1, data.n)
    want = row.copy()
    for c in (1.5, 2.5, 3.5):
        other = eval_grid(e, data, np.array([[c]])).values
        assert not np.shares_memory(row, other)
        assert not np.shares_memory(row, evaluate.scratch((1, data.n)))
    np.testing.assert_array_equal(row, want)


def test_two_threads_never_share_a_buffer(case1, alpha1, monkeypatch, small_block):
    # Each thread scores its own candidates with its own free list, holding
    # its last three grids; no grid either thread makes may share memory with
    # a grid either one holds, and every grid must equal one evaluated alone.
    monkeypatch.setattr(evaluate, "BLOCK", small_block)
    _, data = case1
    rng = random.Random(3)
    exprs = [sample_complete(rng, Notation.POSTFIX, 3, alpha1) for _ in range(100)]
    want = [eval_grid(e, data).values.copy() for e in exprs]
    lock = threading.Lock()
    held = {0: [], 1: []}
    errors = []

    def work(me):
        try:
            for k in range(200):
                i = (k * 7 + me * 31) % len(exprs)
                values = eval_grid(exprs[i], data).values
                np.testing.assert_array_equal(values, want[i])
                with lock:
                    for grids in held.values():
                        for other in grids:
                            assert not np.shares_memory(values, other)
                    held[me] = (held[me] + [values])[-3:]
        except AssertionError as err:  # reported below, from the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so the two lists interleave
    try:
        threads = [threading.Thread(target=work, args=(me,)) for me in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors, errors[0]


def test_buffers_are_reused_and_the_list_stops_growing(case1, alpha1_opt, monkeypatch,
                                                       small_block):
    # 200 candidates scored in a fresh thread: the thread's list reaches its
    # size within the first 100 and keeps it, and the plans' grids all sit in
    # the buffers of that list, each reused many times over.
    monkeypatch.setattr(evaluate, "BLOCK", small_block)
    case, data = case1
    sizes = []
    bases = []

    def work():
        rng = random.Random(8)
        for i in range(200):
            e = sample_complete(rng, NOTATIONS[i % 2], 4, alpha1_opt)
            plan = ScoringPlan(e, ObjectiveConfig(threshold=0.0))
            if e.n_slots:
                plan.totals(case, data, np.full((3, e.n_slots), 0.75))
            else:
                plan.score(case, data)
            # a constant's grid is a stride-0 view, which holds no buffer
            bases.extend(g.values.base.__array_interface__["data"][0]
                         for _, g in plan._grids.values()
                         if g.values.base is not None and g.values.strides[-1])
            sizes.append(len(evaluate._buffers()))

    th = threading.Thread(target=work)
    th.start()
    th.join(timeout=120)
    assert not th.is_alive() and len(sizes) == 200
    assert 0 < sizes[99] == sizes[-1] <= 40
    assert len(set(bases)) <= sizes[-1] and len(bases) >= 10 * sizes[-1]


# ---------------------------------------------------------------------------
# constant grids: one value, broadcast


def test_a_constant_grid_is_a_read_only_stride_0_view(case1, alpha1_opt, block_sizes):
    _, data = case1
    singles = (("0", [], 0.0), ("x_min 2 +", [], 2.1), ("C", [1.5], 1.5), ("0 log", [], None))
    for _ in block_sizes:
        for text, consts, want in singles:
            g = eval_grid(parse(text, Notation.POSTFIX, alpha1_opt), data, consts)
            assert g.values.shape == (data.n,) and g.values.strides == (0,), text
            assert not g.values.flags.writeable, text
            with pytest.raises(ValueError):
                g.values[0] = 1.0
            assert g.fault is (want is None), text
            if want is not None:
                assert (g.values == want).all(), text
            else:
                assert np.isnan(g.values).all()
        batch = eval_grid(parse("C log", Notation.POSTFIX, alpha1_opt), data,
                          np.array([[-1.0], [2.0]]))
        assert batch.values.shape == (2, data.n) and batch.values.strides[-1] == 0
        assert not batch.values.flags.writeable
        assert list(batch.fault) == [True, False]
        assert (batch.values[1] == math.log(2.0)).all()


def test_constant_grids_score_as_materialized_grids(case1, alpha1_opt, monkeypatch,
                                                    block_sizes):
    # dT/dy of "y 2 *" is a constant on case 1's DERIV_ZERO walls, "x x *"
    # has constant xx and yy in the residual, and "2" and "C" are constant on
    # the initial plane; each scores what a contiguous copy of its grid scores
    case, data = case1
    real = pde.eval_grid
    constants = []

    def materialized(e, d, consts=None):
        g = real(e, d, consts)
        constants.append(g.values.strides[-1] == 0)
        return evaluate.Grid(np.array(g.values), g.fault)

    texts = ("y 2 * t +", "x x * y + t +", "2", "C", "y C * t +")
    cfg = ObjectiveConfig(threshold=0.0)
    vectors = np.array([[0.5], [-3.0]])
    for _ in block_sizes:
        for text in texts:
            e = parse(text, Notation.POSTFIX, alpha1_opt)
            consts = vectors[:, :e.n_slots]
            plan = ScoringPlan(e, cfg)
            got = [plan.score(case, data, v) for v in consts]
            got_totals = ScoringPlan(e, cfg).totals(case, data, consts)
            with monkeypatch.context() as patched:
                patched.setattr(pde, "eval_grid", materialized)
                constants.clear()
                plan = ScoringPlan(e, cfg)
                want = [plan.score(case, data, v) for v in consts]
                want_totals = ScoringPlan(e, cfg).totals(case, data, consts)
            assert any(constants), text
            assert got == want and not any(bd.gate_rejected for bd in got), text
            assert got_totals.tobytes() == want_totals.tobytes(), text
    assert [bd.boundary[0] for bd in got] == [0.25, 9.0]  # "y C * t +": dT/dy is C on the walls


def test_constant_grids_never_grow_the_free_list(case1, alpha1_opt, monkeypatch, small_block):
    # under a small block every 10^3 grid is past BLOCK points, yet constants
    # take no buffer; the first grid with a data leaf takes one
    monkeypatch.setattr(evaluate, "BLOCK", small_block)
    _, data = case1
    sizes = []

    def work():
        for text in ("0", "2 sqrt", "C 4 *", "0 log", "C C -"):
            e = parse(text, Notation.POSTFIX, alpha1_opt)
            for consts in ([0.5, 1.5], np.array([[0.5, 1.5], [2.0, 1.0]])):
                for _ in range(3):
                    eval_grid(e, data, consts)
        sizes.append(len(evaluate._buffers()))
        eval_grid(parse("x sin", Notation.POSTFIX, alpha1_opt), data)
        sizes.append(len(evaluate._buffers()))

    th = threading.Thread(target=work)
    th.start()
    th.join(timeout=60)
    assert sizes == [0, 1]
