"""Case construction, objective components, the non-triviality gate, and the
residual-as-expression equivalence proof.

Components are read from ``objective`` at threshold 0, where only a faulting
first derivative closes the gate; gate tests name their threshold."""

import dataclasses
import hashlib
import math
import random
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padesr import evaluate, pde
from padesr.evaluate import eval_grid
from padesr.expr import (
    BINARY_TOKENS,
    IC_FAMILY,
    ZERO,
    Notation,
    convert_notation,
    make_expr,
    parse,
    sample_complete,
)
from padesr.pde import (
    TOKEN_MODES,
    BcKind,
    MseBreakdown,
    ObjectiveConfig,
    ScoringPlan,
    build_case,
    case_alphabet,
    objective,
)
from padesr.symdiff import DerivativeOrderError, differentiate
from test_evaluate import at_point

NO_GATE = ObjectiveConfig(threshold=0.0)


def components(e, case, data):
    bd = objective(e, case, data, config=NO_GATE)
    assert not bd.gate_rejected
    return bd


def reference_components(e, case, data, ic_derivatives="analytic"):
    """(first derivatives fault-free, interior MSE, boundary MSEs, initial
    MSE) built here from ``differentiate`` and ``eval_grid`` alone."""

    def d(expr, var):
        return differentiate(expr, var, ic_derivatives)

    def mean_square(values):
        return float(np.mean(np.square(values))) if np.isfinite(values).all() else math.inf

    with np.errstate(all="ignore"):
        first = {v: d(e, v) for v in "xyt"}
        g = {v: eval_grid(first[v], data).values for v in "xyt"}
        finite = all(np.isfinite(g[v]).all() for v in "xyt")
        try:
            lap = eval_grid(d(first["x"], "x"), data).values + eval_grid(d(first["y"], "y"), data).values
        except DerivativeOrderError:
            interior = math.inf
        else:
            residual = g["t"] + case.ux_grid * g["x"] + case.uy_grid * g["y"] - case.kappa * lap
            interior = mean_square(residual)
        boundary = []
        for bc in case.bcs:
            if bc.kind is BcKind.DERIV_ZERO:
                wall = eval_grid(first[bc.axis], case.planes[(bc.axis, bc.location)])
                boundary.append(mean_square(wall.values))
                continue
            probe = e if bc.kind is BcKind.PERIODIC_VALUE else first[bc.axis]
            lo = eval_grid(probe, case.planes[(bc.axis, "lo")]).values
            hi = eval_grid(probe, case.planes[(bc.axis, "hi")]).values
            boundary.append(mean_square(lo - hi))
        initial = mean_square(eval_grid(e, case.ic_plane).values - case.ic_plane.leaf["I"])
    return finite, interior, boundary, initial


def test_unknown_case_id():
    with pytest.raises(ValueError):
        build_case("case3")


def test_case1_mesh_and_literals(case1, alpha1):
    case, data = case1
    assert data.n == 1000
    assert data.xs[0] == 0.1 and data.xs[-1] == 2.1
    assert data.ys[0] == -1.1 and data.ys[-1] == 1.1
    assert data.ts[0] == 0.1 and data.ts[-1] == 20.0
    assert at_point(parse("I", Notation.PREFIX, alpha1), 1.1, 0.0, 0.1, case.ic) == pytest.approx(12.5)
    assert case.bounds()["y_min"] == -1.1


def test_case2_domain(case2, alpha1):
    case, _ = case2
    assert case.x_hi == pytest.approx(2 * math.pi)
    assert case.bounds()["x_max"] == pytest.approx(6.283185, abs=1e-6)
    ic = parse("I", Notation.PREFIX, alpha1)
    assert at_point(ic, math.pi, math.pi, 0.1, case.ic) == pytest.approx(12.5)


def test_velocity_grids(case1, case2):
    case, data = case1
    assert np.allclose(case.ux_grid, 1 - data.leaf["y"] ** 2)
    assert np.all(case.uy_grid == 0)
    c2, d2 = case2
    assert np.allclose(c2.ux_grid, np.sin(4 * d2.leaf["y"]))
    assert np.allclose(c2.uy_grid, np.cos(4 * d2.leaf["x"]))


# ---------------------------------------------------------------------------
# interior


def test_constant_is_exact_interior_solution(case1, alpha1):
    case, data = case1
    assert components(parse("1", Notation.PREFIX, alpha1), case, data).interior == 0.0


def test_interior_of_t_is_one(case1, alpha1):
    case, data = case1
    assert components(parse("t", Notation.PREFIX, alpha1), case, data).interior == 1.0


def test_interior_of_ic_is_advection_diffusion(case1, alpha1):
    # derived oracle: residual of the t-independent feature from its grids
    case, data = case1
    got = components(parse("I", Notation.PREFIX, alpha1), case, data).interior
    residual = case.ux_grid * data.leaf["I_x"] - (data.leaf["I_xx"] + data.leaf["I_yy"])
    assert 0 < got < math.inf
    assert got == pytest.approx(float(np.mean(residual**2)), rel=1e-12)


def test_residual_as_single_expression_equivalence(case1, alpha1, rng):
    # the numeric grid combination equals plugging T into the equation as one
    # giant expression: R = T_t + ux*T_x + uy*T_y - (T_xx + T_yy), kappa = 1
    case, data = case1
    ux = parse("- 1 ^ y 2", Notation.PREFIX, alpha1)  # case-1 velocity as tokens
    add, sub, mul = BINARY_TOKENS["+"], BINARY_TOKENS["-"], BINARY_TOKENS["*"]
    for _ in range(20):
        T = sample_complete(rng, Notation.PREFIX, 3, alpha1)
        d = {v: differentiate(T, v) for v in "xyt"}
        dxx = differentiate(d["x"], "x")
        dyy = differentiate(d["y"], "y")
        tokens = (
            [sub, add, *d["t"].tokens, mul, *ux.tokens, *d["x"].tokens,
             add, *dxx.tokens, *dyy.tokens]
        )
        residual_expr = make_expr(tokens, Notation.PREFIX)
        combined = eval_grid(residual_expr, data).values
        parts = (
            eval_grid(d["t"], data).values
            + case.ux_grid * eval_grid(d["x"], data).values
            - (eval_grid(dxx, data).values + eval_grid(dyy, data).values)
        )
        both_nan = np.isnan(combined) & np.isnan(parts)
        assert np.allclose(combined[~both_nan], parts[~both_nan], rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# boundary


def test_constant_boundary_mses_zero(case1, alpha1):
    case, data = case1
    assert components(parse("1", Notation.PREFIX, alpha1), case, data).boundary == (0, 0, 0, 0)


def test_linear_x_periodic_value(case1, alpha1):
    case, data = case1
    terms = components(parse("x", Notation.PREFIX, alpha1), case, data).boundary
    # walls dT/dy = 0; periodic value (0.1 - 2.1)^2 = 4; periodic derivative 0
    assert terms[0] == 0 and terms[1] == 0
    assert terms[2] == pytest.approx(4.0)
    assert terms[3] == 0
    assert [bc.kind.value for bc in case.bcs] == [
        "deriv_zero", "deriv_zero", "periodic_value", "periodic_deriv",
    ]


def test_y_squared_wall_derivatives(case1, alpha1):
    case, data = case1
    terms = components(parse("y 2 ^", Notation.POSTFIX, alpha1), case, data).boundary
    assert terms[0] == pytest.approx(4.84)
    assert terms[1] == pytest.approx(4.84)


def test_case2_has_four_periodic_terms(case2, alpha1):
    case, data = case2
    terms = components(parse("1", Notation.PREFIX, alpha1), case, data).boundary
    assert len(terms) == 4 and all(t == 0 for t in terms)


# ---------------------------------------------------------------------------
# initial


def test_initial_of_ic_is_zero(case1, alpha1):
    case, data = case1
    assert components(parse("I", Notation.PREFIX, alpha1), case, data).initial == 0.0


def test_initial_of_zero_is_gaussian_energy(case1, alpha1):
    # derived oracle: closed-form Gaussian sum on the 10x10 plane
    case, data = case1
    got = components(parse("0", Notation.PREFIX, alpha1), case, data).initial
    xs, ys = np.meshgrid(data.xs, data.ys, indexing="ij")
    expected = float(np.mean((np.exp(-((xs - 1.1) ** 2 + ys**2)) / 0.08) ** 2))
    assert got == pytest.approx(expected, rel=1e-12)


def test_initial_offset_by_one(case1, alpha1):
    case, data = case1
    e = parse("I 1 +", Notation.POSTFIX, alpha1)
    assert components(e, case, data).initial == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# gate


def test_gate_rejects_constants_at_default_threshold(case1, alpha1):
    case, data = case1
    one = parse("1", Notation.PREFIX, alpha1)
    assert objective(one, case, data).gate_rejected
    assert not objective(one, case, data, config=NO_GATE).gate_rejected


def test_gate_faults_reject_even_at_zero(case1, alpha1):
    case, data = case1
    # derivative of sqrt(-x) is -1/(2 sqrt(-x)): NaN over the whole x > 0 mesh
    bad = parse("sqrt ~ x", Notation.PREFIX, alpha1)
    bd = objective(bad, case, data, config=NO_GATE)
    assert bd.gate_rejected and not bd.note
    # a faulting primal with identically-zero derivatives passes the gate and
    # is rejected by the component MSEs instead
    flat = parse("log ~ 1", Notation.PREFIX, alpha1)
    bd = objective(flat, case, data, config=NO_GATE)
    assert not bd.gate_rejected and bd.total == math.inf


def test_gate_xyt_product_on_case2(case2, alpha1):
    # derived oracle: mean|yt|, mean|xt|, mean|xy| on the mesh
    case, data = case2
    e = parse("x y t * *", Notation.POSTFIX, alpha1)
    x, y, t = data.leaf["x"], data.leaf["y"], data.leaf["t"]
    m = min(np.mean(np.abs(y * t)), np.mean(np.abs(x * t)), np.mean(np.abs(x * y)))
    assert m > 0.1
    assert not objective(e, case, data, config=ObjectiveConfig(threshold=0.1)).gate_rejected
    assert objective(e, case, data, config=ObjectiveConfig(threshold=float(m) + 1e-9)).gate_rejected


# ---------------------------------------------------------------------------
# objective composition


def test_objective_gate_first(case1, alpha1):
    case, data = case1
    one = parse("1", Notation.PREFIX, alpha1)
    bd = objective(one, case, data)
    assert bd.gate_rejected and bd.total == math.inf
    bd0 = objective(one, case, data, config=ObjectiveConfig(threshold=0.0))
    assert not bd0.gate_rejected
    assert bd0.total == bd0.initial  # interior and boundary all zero
    assert bd0.interior == 0.0


@pytest.mark.parametrize("text, derivatives", [("+ y t", 1), ("+ x t", 2), ("+ x y", 1)])
def test_gate_takes_each_derivative_when_it_reaches_it(case1, alpha1, monkeypatch,
                                                       text, derivatives):
    # a candidate rejected at x costs one differentiation, at y two; one
    # without a t leaf costs dT/dx alone
    case, data = case1
    calls = []

    def counting(e, var, ic_derivatives="analytic"):
        calls.append(var)
        return differentiate(e, var, ic_derivatives)

    monkeypatch.setattr("padesr.pde.differentiate", counting)
    assert objective(parse(text, Notation.PREFIX, alpha1), case, data).gate_rejected
    assert calls == list("xyt"[:derivatives])


def test_objective_matches_component_ops(case1, alpha1, block_sizes):
    # 26^3 is more than one block of the default size, so its grids, the
    # gate's |g| and the residual are free-list buffers under either size
    cases = (case1, build_case("case1", (26, 26, 26)))
    assert cases[1][1].n > evaluate.BLOCK
    cfg = ObjectiveConfig(threshold=0.0)
    for _ in block_sizes:
        for case, data in cases:
            rng = random.Random(20240817)
            found = 0
            while found < 25:
                e = sample_complete(rng, Notation.POSTFIX, 3, alpha1)
                bd = objective(e, case, data, config=cfg)
                if bd.gate_rejected:
                    continue
                found += 1
                finite, interior, boundary, initial = reference_components(e, case, data)
                assert finite
                assert bd.interior == interior
                assert list(bd.boundary) == boundary
                assert bd.initial == initial


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts the minor page faults Linux reports")
def test_scoring_a_fine_mesh_candidate_faults_few_pages():
    # At 50^3 a fresh 1 MB array per grid faults in each of its pages (about
    # 100 faults per objective call on this corpus); free-list buffers stay
    # resident, leaving a few per call.
    import resource

    case, data = build_case("case2", (50, 50, 50))
    alphabet = case_alphabet(case, "vars+const")
    rng = random.Random(11)
    exprs = [sample_complete(rng, Notation.POSTFIX, 4, alphabet) for _ in range(120)]
    for e in exprs[:20]:
        objective(e, case, data)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for e in exprs[20:]:
        objective(e, case, data)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / 100 <= 25


def test_total_is_exact_left_to_right_sum(case1, alpha1, rng):
    case, data = case1
    cfg = ObjectiveConfig(threshold=0.0)
    checked = 0
    while checked < 100:
        e = sample_complete(rng, Notation.PREFIX, 4, alpha1)
        bd = objective(e, case, data, config=cfg)
        if bd.gate_rejected or bd.total == math.inf:
            continue
        acc = bd.interior
        for term in bd.boundary:
            acc += term
        acc += bd.initial
        assert acc == bd.total  # bit-exact
        checked += 1


def test_objective_deterministic(case1, alpha1):
    case, data = case1
    e = parse("I t sech *", Notation.POSTFIX, alpha1)
    a = objective(e, case, data, config=ObjectiveConfig(threshold=0.0))
    b = objective(e, case, data, config=ObjectiveConfig(threshold=0.0))
    assert a == b


def test_objective_raises_no_runtime_warning(case1, alpha1):
    # exp 800 is inf on every plane, so the periodic-x difference is inf - inf;
    # the fault makes the component inf without a warning
    case, data = case1
    e = parse("+ + + x y t exp 800", Notation.PREFIX, alpha1, mode="free")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bd = objective(e, case, data, config=NO_GATE)
    assert bd.boundary == (1.0, 1.0, math.inf, 0.0)
    assert bd.initial == math.inf and bd.total == math.inf


def test_mesh_refinement_stays_bounded(alpha1):
    # guards against evaluation-layout bugs: refining the mesh changes the
    # published case-1 fixture total by less than 10x
    text = "- ^ I ^ tanh I sqrt t * sech + I / t * 0.2 y sech + x + y ^ 2 I"
    totals = {}
    for mesh in ((10, 10, 10), (20, 20, 20)):
        case, data = build_case("case1", mesh)
        alpha = case_alphabet(case, "vars+const")
        e = parse(text, Notation.PREFIX, alpha, mode="free")
        totals[mesh] = objective(e, case, data, config=ObjectiveConfig(threshold=0.0, mesh=mesh)).total
    ratio = totals[(20, 20, 20)] / totals[(10, 10, 10)]
    assert 0.1 < ratio < 10


def test_rejected_breakdown_shape():
    bd = MseBreakdown.rejected("why")
    assert bd.total == math.inf and bd.gate_rejected and bd.note == "why"


def test_derivative_order_error_propagates(case1, alpha1):
    case, data = case1
    e = parse("I_xx x *", Notation.POSTFIX, alpha1, mode="free")
    bd = objective(e, case, data, config=NO_GATE)
    assert bd.interior == math.inf
    assert bd.total == math.inf and bd.note


def test_prefix_postfix_objective_agreement(case1, alpha1, rng):
    case, data = case1
    cfg = ObjectiveConfig(threshold=0.0)
    for _ in range(40):
        e = sample_complete(rng, Notation.PREFIX, 3, alpha1)
        a = objective(e, case, data, config=cfg)
        b = objective(convert_notation(e, Notation.POSTFIX), case, data, config=cfg)
        if math.isinf(a.total) or math.isinf(b.total):
            assert math.isinf(a.total) and math.isinf(b.total)
        else:
            assert a.total == pytest.approx(b.total, rel=1e-12)


# ---------------------------------------------------------------------------
# initial-condition derivative readings

# sha256 over (tokens, gate decision, total to 9 digits) for a seeded corpus,
# recorded before ObjectiveConfig.ic_derivatives existed
DEFAULT_OBJECTIVE_DIGEST = "db588eea1cc9926359a7bc3d58068203031711e0bbd6995537c5596552854724"


def test_default_reading_is_analytic_and_unchanged(case1, alpha1, block_sizes):
    # under either block size: a grid stopped at its first faulting block
    # changes no gate decision and no total
    case, data = case1
    assert ObjectiveConfig().ic_derivatives == "analytic"
    with pytest.raises(ValueError):
        ObjectiveConfig(ic_derivatives="bogus")
    for _ in block_sizes:
        rng = random.Random(2718)
        digest = hashlib.sha256()
        for i in range(200):
            e = sample_complete(rng, (Notation.PREFIX, Notation.POSTFIX)[i % 2], 4, alpha1)
            for cfg in (ObjectiveConfig(), ObjectiveConfig(threshold=0.0)):
                bd = objective(e, case, data, config=cfg)
                digest.update(f"{e.text}|{bd.gate_rejected}|{bd.total:.9g}\n".encode())
        assert digest.hexdigest() == DEFAULT_OBJECTIVE_DIGEST


def test_data_reading_gate_rejects_ic_alone(case1, alpha1):
    case, data = case1
    data_cfg = ObjectiveConfig(ic_derivatives="data")
    ic = parse("I", Notation.PREFIX, alpha1)
    assert objective(ic, case, data, config=data_cfg).gate_rejected
    # without the gate, I is the trivial exact solution under this reading
    bd = objective(ic, case, data, config=ObjectiveConfig(threshold=0.0, ic_derivatives="data"))
    assert bd.total == 0.0
    # I + t passes the analytic gate on I_x and I_y, fails the data one on x
    e = parse("+ I t", Notation.PREFIX, alpha1)
    assert not objective(e, case, data).gate_rejected
    assert objective(e, case, data, config=data_cfg).gate_rejected


def test_data_reading_reaches_every_component(case1, alpha1, rng):
    case, data = case1
    cfg = ObjectiveConfig(threshold=0.0, ic_derivatives="data")
    analytic = ObjectiveConfig(threshold=0.0)
    found = with_ic = 0
    while found < 25:
        e = sample_complete(rng, Notation.POSTFIX, 3, alpha1)
        bd = objective(e, case, data, config=cfg)
        if bd.gate_rejected:
            continue
        found += 1
        finite, interior, boundary, initial = reference_components(e, case, data, "data")
        assert finite
        assert bd.interior == interior
        assert list(bd.boundary) == boundary
        assert bd.initial == initial
        if "I" in e.text.split():
            with_ic += 1
        else:
            # the readings differ only on the initial-condition family
            assert bd == objective(e, case, data, config=analytic)
    assert with_ic > 0


# ---------------------------------------------------------------------------
# the scoring plan: many constant vectors against one derived-expression set

# postfix, parsed in free mode and converted to each notation
_PLAN_EDGE_CASES = (
    "I_xx C *",  # the first derivative raises an order error: rejected with a note
    "I_x C * t + y *",  # a second derivative raises one (analytic reading): interior inf
    "x C - log t * y +",  # log faults where x <= C: the gate rejects on a fault
    "x C / y * t +",  # C = 0 faults every gate grid; other vectors pass
    "x y * t * C sqrt +",  # no derivative holds C, so their grids are kept; sqrt(C < 0) faults
)
_CONST_VALUES = st.one_of(st.floats(-20.0, 20.0), st.sampled_from((0.0, 1e300, -1e300)))
_PLAN_CONFIGS = tuple(
    ObjectiveConfig(threshold=threshold, ic_derivatives=reading)
    for threshold in (ObjectiveConfig().threshold, 0.0)
    for reading in ("analytic", "data")
)


@settings(max_examples=150, deadline=None)
@given(draws=st.data())
def test_plan_scores_every_vector_like_a_fresh_objective(case1, alpha1_opt, draws):
    case, data = case1
    notation = draws.draw(st.sampled_from((Notation.PREFIX, Notation.POSTFIX)))
    edge = draws.draw(st.sampled_from((None,) + _PLAN_EDGE_CASES))
    if edge is None:
        seed = draws.draw(st.integers(0, 2**32 - 1))
        depth = draws.draw(st.integers(0, 4))
        e = sample_complete(random.Random(seed), notation, depth, alpha1_opt)
    else:
        e = convert_notation(parse(edge, Notation.POSTFIX, alpha1_opt, mode="free"), notation)
    vectors = draws.draw(st.lists(
        st.lists(_CONST_VALUES, min_size=e.n_slots, max_size=e.n_slots),
        min_size=1, max_size=4))
    cfg = draws.draw(st.sampled_from(_PLAN_CONFIGS))
    plan = ScoringPlan(e, cfg)
    for consts in vectors:
        # MseBreakdown equality covers every component, the gate and the note
        assert plan.score(case, data, consts) == objective(e, case, data, consts, cfg)


@pytest.mark.parametrize("edge", _PLAN_EDGE_CASES)
def test_plan_edge_cases_reach_their_outcome(case1, alpha1_opt, edge):
    # the property's hand-written candidates really reach the branch they name
    case, data = case1
    e = parse(edge, Notation.POSTFIX, alpha1_opt, mode="free")
    plan = ScoringPlan(e, NO_GATE)
    outcomes = [plan.score(case, data, (c,)) for c in (0.0, 0.5, 3.0, -4.0)]
    rejected = [bd.gate_rejected for bd in outcomes]
    if edge.startswith("I_xx"):
        assert all(bd.gate_rejected and bd.note for bd in outcomes)
    elif edge.startswith("I_x"):
        assert not any(rejected) and all(bd.interior == math.inf for bd in outcomes)
    elif "sqrt" in edge:
        assert not any(rejected)
        assert outcomes[-1].total == math.inf and math.isfinite(outcomes[-2].total)
    else:
        assert any(rejected) and not all(rejected) and not any(bd.note for bd in outcomes)


# ---------------------------------------------------------------------------
# batched totals: many constant vectors in one scan per grid


def assert_totals_match_score(e, case, data, vectors, cfg):
    """``totals`` gives every row the bytes of ``score(...).total``."""
    vectors = np.asarray(vectors, dtype=np.float64).reshape(len(vectors), e.n_slots)
    totals = np.fromiter(ScoringPlan(e, cfg).totals(case, data, vectors), float)
    assert totals.shape == (len(vectors),)
    plan = ScoringPlan(e, cfg)
    for row, vector in enumerate(vectors):
        want = plan.score(case, data, vector).total
        assert np.float64(totals[row]).tobytes() == np.float64(want).tobytes(), (e, vector)
    return totals


_TOTALS_EDGE_CASES = _PLAN_EDGE_CASES + (
    "C C -",  # a column that must broadcast to (m, n)
    "x y * t *",  # no C: one verdict and one total for every row
    "C x * y * t *",  # at the default threshold small |C| is rejected at x
)


@settings(max_examples=150, deadline=None)
@given(draws=st.data())
def test_totals_equal_score_for_every_row(case1, alpha1_opt, draws):
    case, data = case1
    notation = draws.draw(st.sampled_from((Notation.PREFIX, Notation.POSTFIX)))
    edge = draws.draw(st.sampled_from((None,) + _TOTALS_EDGE_CASES))
    if edge is None:
        seed = draws.draw(st.integers(0, 2**32 - 1))
        depth = draws.draw(st.integers(0, 4))
        e = sample_complete(random.Random(seed), notation, depth, alpha1_opt)
    else:
        e = convert_notation(parse(edge, Notation.POSTFIX, alpha1_opt, mode="free"), notation)
    # more rows than one scan of the 10^3 mesh takes, so batches are split
    vectors = draws.draw(st.lists(
        st.lists(_CONST_VALUES, min_size=e.n_slots, max_size=e.n_slots),
        min_size=1, max_size=24))
    assert_totals_match_score(e, case, data, vectors, draws.draw(st.sampled_from(_PLAN_CONFIGS)))


def test_totals_edge_rows_reach_their_outcome(case1, alpha1_opt):
    case, data = case1
    default = ObjectiveConfig()

    def totals(text, vectors, cfg=NO_GATE):
        e = parse(text, Notation.POSTFIX, alpha1_opt, mode="free")
        return assert_totals_match_score(e, case, data, vectors, cfg)

    assert np.isinf(totals("I_xx C *", [[1.0], [2.0]])).all()  # order error at x
    faulting = totals("x C - log t * y +", [[0.0], [5.0], [-3.0]])
    assert math.isfinite(faulting[0]) and faulting[1] == math.inf  # log faults where x <= 5
    # T's initial-plane grid is a column broadcast to (m, n); C - C' is -1 on both rows
    column = totals("C C -", [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    assert column[0] == column[1] < math.inf and column[2] != column[0]
    assert np.isinf(totals("C C -", [[1.0, 2.0], [3.0, 4.0]], default)).all()
    without_c = totals("x y * t *", [[]] * 3)
    assert without_c[0] == without_c[1] == without_c[2] < math.inf
    # rejected at x (C = 0, 1e-9) and at t (C = 1: mean |x y| is about 0.6)
    split = totals("C x * y * t *", [[0.0], [3.0], [1.0], [2.0], [1e-9]], default)
    assert list(np.isinf(split)) == [True, False, True, False, True]


def test_totals_equal_score_on_case2_corpus(case2):
    case, data = case2
    alphabet = case_alphabet(case, "vars+const+opt")
    rng = random.Random(31)
    checked = 0
    while checked < 120:
        notation = (Notation.PREFIX, Notation.POSTFIX)[checked % 2]
        e = sample_complete(rng, notation, rng.randint(0, 4), alphabet)
        if not e.n_slots:
            continue
        vectors = [[rng.uniform(-10.0, 10.0) for _ in range(e.n_slots)] for _ in range(20)]
        assert_totals_match_score(e, case, data, vectors, _PLAN_CONFIGS[checked % 4])
        checked += 1


def test_totals_equal_score_at_50_cubed(alpha1_opt):
    # a 125,000-point mesh: every interior scan holds one row
    case, data = build_case("case1", (50, 50, 50))
    rng = random.Random(47)
    texts = ("C x * y * t +", "x C - y * t * C C * +", "C I * x y * t * +")
    for text in texts:
        e = parse(text, Notation.POSTFIX, alpha1_opt, mode="free")
        vectors = [[rng.uniform(-3.0, 3.0) for _ in range(e.n_slots)] for _ in range(3)]
        assert np.isfinite(assert_totals_match_score(e, case, data, vectors, NO_GATE)).any()


def test_totals_takes_a_batch_when_its_first_total_is_asked_for(case1, alpha1_opt):
    # a swarm pass is handed to totals as an iterator that moves a particle
    # when it is taken, so no vector past the batch being read is taken, and
    # the float error state between totals is the caller's own
    case, data = case1
    step = max(1, pde.BATCH_ELEMENTS // data.n)
    taken = []

    def vectors():
        for i in range(3 * step):
            taken.append(i)
            yield [0.5 + i]

    e = parse("C x * y * t * log", Notation.POSTFIX, alpha1_opt)
    totals = ScoringPlan(e, NO_GATE).totals(case, data, vectors())
    errors = np.geterr()
    assert taken == []
    got = [next(totals)]
    assert len(taken) == step and np.geterr() == errors
    got += [next(totals) for _ in range(step - 1)]
    assert len(taken) == step
    got.append(next(totals))
    assert len(taken) == 2 * step and np.geterr() == errors
    plan = ScoringPlan(e, NO_GATE)
    assert got == [plan.score(case, data, [0.5 + i]).total for i in range(step + 1)]


# ---------------------------------------------------------------------------
# the fit's early exit: a plan that rejects every vector before any grid

# postfix, parsed in free mode and converted to each notation
_EARLY_EXIT_CASES = (
    "I_x C * y +",  # analytic: dT/dx and dT/dy hold I_xx and I_xy, dT/dt is 0
    "I_xx C * t +",  # analytic: d/dx raises an order error; data: dT/dx is 0
    "I_xy C * x + t *",  # analytic: d/dx raises an order error
    "x 0 * C + t *",  # holds x, yet dT/dx is the literal 0
    "C x * y *",  # no t: dT/dt is 0 while dT/dx holds a C
)
# no x leaf, yet under the analytic reading large |C| passes the gate: I and
# I_x differentiate by x into I_x and I_xx
_GATE_PASSING_CASES = ("I C * t *", "I_x C * t *")
_EXIT_CORPUS = (None,) + _EARLY_EXIT_CASES + _GATE_PASSING_CASES
_EXIT_VALUES = st.one_of(_CONST_VALUES, st.sampled_from((1.0, -1.0)))


def _exit_candidate(draws, alphabet, edge):
    """``edge`` in a drawn notation, or for None a sampled candidate of depth 1-4."""
    notation = draws.draw(st.sampled_from((Notation.PREFIX, Notation.POSTFIX)))
    if edge is None:
        seed = draws.draw(st.integers(0, 2**32 - 1))
        depth = draws.draw(st.integers(1, 4))
        return sample_complete(random.Random(seed), notation, depth, alphabet)
    return convert_notation(parse(edge, Notation.POSTFIX, alphabet, mode="free"), notation)


@settings(max_examples=150, deadline=None)
@given(draws=st.data())
def test_rejecting_every_vector_is_exact(case1, alpha1_opt, draws):
    case, data = case1
    e = _exit_candidate(draws, alpha1_opt, draws.draw(st.sampled_from(_EXIT_CORPUS)))
    cfg = draws.draw(st.sampled_from(_PLAN_CONFIGS))
    plan = ScoringPlan(e, cfg)
    decided = plan.rejects_every_vector()

    zero_first_derivative = False
    for v in "xyt":
        try:
            zero_first_derivative |= differentiate(e, v, cfg.ic_derivatives).tokens == (ZERO,)
        except DerivativeOrderError:
            pass
    if cfg.threshold > 0 and zero_first_derivative:
        assert decided, e.text
    if decided:
        vectors = draws.draw(st.lists(
            st.lists(_EXIT_VALUES, min_size=e.n_slots, max_size=e.n_slots),
            min_size=1, max_size=24))
        vectors = np.asarray(vectors, dtype=np.float64).reshape(len(vectors), e.n_slots)
        totals = np.fromiter(ScoringPlan(e, cfg).totals(case, data, vectors), float)
        assert np.isinf(totals).all(), e.text
        for consts in vectors:
            bd = plan.score(case, data, consts)
            assert bd.gate_rejected and bd == objective(e, case, data, consts, cfg), e.text


@pytest.mark.parametrize("edge", _EXIT_CORPUS)
@settings(max_examples=150, deadline=None)
@given(draws=st.data())
def test_early_exit_cases_are_decided_before_any_grid(alpha1_opt, edge, draws):
    # the property's corpus decides the early exit under both readings and
    # both thresholds without evaluating a grid; an order error at d/dx
    # decides it at either threshold, and the hand-written exit candidates
    # reach it under both readings at the default threshold
    e = _exit_candidate(draws, alpha1_opt, edge)
    with mock.patch("padesr.pde.eval_grid", side_effect=AssertionError("a grid was evaluated")):
        decided = {cfg: ScoringPlan(e, cfg).rejects_every_vector() for cfg in _PLAN_CONFIGS}
    for cfg in _PLAN_CONFIGS:
        try:
            differentiate(e, "x", cfg.ic_derivatives)
        except DerivativeOrderError:
            assert decided[cfg], e.text
    if edge in _EARLY_EXIT_CASES:
        assert all(decided[cfg] for cfg in _PLAN_CONFIGS if cfg.threshold > 0), e.text


@pytest.mark.parametrize("edge", _GATE_PASSING_CASES)
def test_gate_passing_cases_pass_under_the_analytic_reading(case1, alpha1_opt, edge):
    case, data = case1
    e = parse(edge, Notation.POSTFIX, alpha1_opt, mode="free")
    cfg = ObjectiveConfig()
    assert not ScoringPlan(e, cfg).rejects_every_vector()
    assert not objective(e, case, data, (20.0,), cfg).gate_rejected


def test_a_fit_without_a_t_leaf_exits_after_dT_dx(alpha1_opt, monkeypatch):
    # dT/dt is the literal 0, read from T's tokens: neither dT/dy nor dT/dt is taken
    calls = []

    def counting(e, var, ic_derivatives="analytic"):
        calls.append(var)
        return differentiate(e, var, ic_derivatives)

    monkeypatch.setattr("padesr.pde.differentiate", counting)
    e = parse("x y * C *", Notation.POSTFIX, alpha1_opt)
    for reading in ("analytic", "data"):
        calls.clear()
        assert ScoringPlan(e, ObjectiveConfig(ic_derivatives=reading)).rejects_every_vector()
        assert calls == ["x"], reading


# ---------------------------------------------------------------------------
# the gate's literal-0 rule: a dT/dv that is the literal 0 rejects at v
# without a pass over its grid

# postfix, parsed in free mode and converted to each notation
_ZERO_RULE_CASES = (
    "I_x y * t +",  # analytic: dT/dx holds I_xx; data: dT/dx is 0
    "I_y x * t *",  # analytic: dT/dy is I_yy x * t *; data: it is 0
    "I_xy C * t +",  # analytic: d/dx raises an order error; data: dT/dx is 0
    "x 0 * y + t *",  # holds x, yet dT/dx is the literal 0
    "x y * C *",  # no t: dT/dt is 0, while dT/dx and dT/dy hold C
)


def _zero_rule_candidate(draws, case):
    """A candidate in a drawn notation: a hand-written free-mode one, or a
    draw from a token mode's alphabet, which may hold I_x and its family."""
    notation = draws.draw(st.sampled_from((Notation.PREFIX, Notation.POSTFIX)))
    alphabet = case_alphabet(case, draws.draw(st.sampled_from(tuple(TOKEN_MODES))))
    edge = draws.draw(st.sampled_from((None,) + _ZERO_RULE_CASES))
    if edge is not None:
        free = case_alphabet(case, "vars+const+opt")
        return convert_notation(parse(edge, Notation.POSTFIX, free, mode="free"), notation)
    if draws.draw(st.booleans()):  # the free-mode leaves I_x ... I_xy
        alphabet = dataclasses.replace(alphabet, variables=alphabet.variables + IC_FAMILY[1:])
    seed = draws.draw(st.integers(0, 2**32 - 1))
    depth = draws.draw(st.integers(0, 4))
    return sample_complete(random.Random(seed), notation, depth, alphabet)


@settings(max_examples=200, deadline=None)
@given(draws=st.data())
def test_the_literal_zero_rule_agrees_with_the_full_gate(case1, draws):
    case, data = case1
    e = _zero_rule_candidate(draws, case)
    cfg = draws.draw(st.sampled_from(_PLAN_CONFIGS))
    vectors = draws.draw(st.lists(
        st.lists(_EXIT_VALUES, min_size=e.n_slots, max_size=e.n_slots),
        min_size=1, max_size=12))
    vectors = np.asarray(vectors, dtype=np.float64).reshape(len(vectors), e.n_slots)

    def scores():
        plan = ScoringPlan(e, cfg)
        return ([plan.score(case, data, v) for v in vectors],
                np.fromiter(ScoringPlan(e, cfg).totals(case, data, vectors), float))

    got, got_totals = scores()
    with (mock.patch.object(ScoringPlan, "_zero_at", return_value=False),
          mock.patch.object(ScoringPlan, "_t_free", return_value=False)):
        want, want_totals = scores()
    # MseBreakdown equality covers gate_rejected, the note, total and every component
    assert got == want, e
    assert got_totals.tobytes() == want_totals.tobytes(), e


@pytest.mark.parametrize("text", _ZERO_RULE_CASES)
def test_the_literal_zero_rule_decides_its_cases(case1, alpha1_opt, monkeypatch, text):
    # At the default threshold under the data reading, the rule rejects each
    # hand-written case: the deciding variable's grid is still made, as a
    # stride-0 view of 0, and the gate takes no |g| of it.  A case without a
    # t leaf is rejected before any grid is made.  At threshold 0 the rule
    # is off, and the full gate tests that grid.
    case, data = case1
    e = parse(text, Notation.POSTFIX, alpha1_opt, mode="free")
    made, tested = [], []
    real_eval, real_miss = pde.eval_grid, ScoringPlan._gate_miss

    def recorded_eval(*args):
        made.append(real_eval(*args))
        return made[-1]

    def recorded_miss(plan, g):
        tested.append(g)
        return real_miss(plan, g)

    monkeypatch.setattr(pde, "eval_grid", recorded_eval)
    monkeypatch.setattr(ScoringPlan, "_gate_miss", recorded_miss)
    consts = [2.0] * e.n_slots
    bd = objective(e, case, data, consts, ObjectiveConfig(ic_derivatives="data"))
    assert bd.gate_rejected and bd.note == ""
    if text == "x y * C *":
        assert made == [] and tested == []
    else:
        decider = made[-1]
        assert decider.values.strides == (0,) and not decider.values.any()
        assert len(tested) == len(made) - 1 and all(g is not decider for g in tested)
    tested.clear()
    objective(e, case, data, consts, ObjectiveConfig(threshold=0.0, ic_derivatives="data"))
    assert any(g.values.strides == (0,) and not g.values.any() for g in tested)


# ---------------------------------------------------------------------------
# the gate on a constant grid: |value| with stride 0, reduced as it stands

_STRIDE0_SIZES = (999, 1_000, 1_331, 2_500, 8_000, 16_384, 125_000)


def _stride0_values():
    """304 magnitudes: the threshold and its neighbours, then seeded draws."""
    h = pde.DEFAULT_THRESHOLD
    near = [h, np.nextafter(h, 0.0), np.nextafter(h, 1.0), -h, 2.0, 0.1, 1 / 3, math.pi,
            1e-300, 1e300]
    rng = random.Random(2128)
    return (near + [rng.uniform(-10.0, 10.0) for _ in range(200)]
            + [rng.lognormvariate(0.0, 5.0) for _ in range(94)])


def test_a_constant_magnitude_sums_as_a_contiguous_one():
    # the gate's mean of a stride-0 |g| against the same mean over a
    # contiguous array of the value, for one vector and for a batch's rows
    values = _stride0_values()
    assert len(values) * len(_STRIDE0_SIZES) == 2_128
    for n in _STRIDE0_SIZES:
        for value in values:
            magnitude = abs(np.float64(value))
            strided = np.ndarray((n,), np.float64, magnitude, 0, (0,))
            contiguous = np.full(n, magnitude)
            assert pde._mean(strided).tobytes() == pde._mean(contiguous).tobytes(), (value, n)
        column = np.abs(np.array(values[:40]).reshape(-1, 1))
        strided = np.broadcast_to(column, (40, n))
        assert strided.strides == (8, 0)
        contiguous = np.ascontiguousarray(strided)
        assert pde._mean(strided).tobytes() == pde._mean(contiguous).tobytes(), n


# postfix, parsed in free mode: dT/dx (and dT/dy or dT/dt) is a constant, a
# literal value, one C or a product of two
_CONSTANT_SLOPE_CASES = (
    "2 x * y 0.5 * + t +",  # 2, then 0.5 below the default threshold
    "C x * y + C t * +",  # C at x and at t
    "x C C * * y + t +",  # C C * at x
    "x 4 sqrt * t * y +",  # 4 sqrt at x, then x 4 sqrt * at t
)


def test_the_gate_reads_a_constant_grid_as_its_contiguous_copy(case1, alpha1_opt, monkeypatch):
    # constants next to the threshold, scored one vector at a time and as a
    # batch, give each gate decision and each total's bytes that the same
    # grids give once copied into contiguous arrays, the path every other
    # grid takes
    case, data = case1
    h = pde.DEFAULT_THRESHOLD
    consts = (h, np.nextafter(h, 0.0), np.nextafter(h, 1.0), -h, math.sqrt(h), 2.0, 1e-3)
    real_eval, real_miss = pde.eval_grid, ScoringPlan._gate_miss
    decisions, strided = [], set()

    def recorded_miss(plan, g):
        miss = real_miss(plan, g)
        decisions.append(miss.tolist())
        if g.values.strides[-1] == 0:
            strided.add(g.values.ndim)
        return miss

    def scores():
        decisions.clear()
        out = []
        for text in _CONSTANT_SLOPE_CASES:
            e = parse(text, Notation.POSTFIX, alpha1_opt, mode="free")
            vectors = np.array([[c] * e.n_slots for c in consts]).reshape(len(consts), e.n_slots)
            plan = ScoringPlan(e)
            out.append(([plan.score(case, data, v) for v in vectors],
                        np.fromiter(ScoringPlan(e).totals(case, data, vectors), float).tobytes()))
        return out, list(decisions)

    monkeypatch.setattr(ScoringPlan, "_gate_miss", recorded_miss)
    got = scores()
    assert strided == {1, 2}  # the stride-0 path ran for a vector and for a batch
    monkeypatch.setattr(pde, "eval_grid",
                        lambda *args: dataclasses.replace(g := real_eval(*args),
                                                          values=np.array(g.values)))
    strided.clear()
    want = scores()
    assert strided == set()
    assert got == want
    rejected = [bd.gate_rejected for scored, _ in got[0] for bd in scored]
    assert any(rejected) and not all(rejected)
