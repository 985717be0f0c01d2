"""Case construction, objective components, the non-triviality gate, and the
residual-as-expression equivalence proof.

Components are read from ``objective`` at threshold 0, where only a faulting
first derivative closes the gate; gate tests name their threshold."""

import hashlib
import math
import random
import warnings

import numpy as np
import pytest

from padesr.evaluate import eval_grid
from padesr.expr import (
    BINARY_TOKENS,
    Notation,
    convert_notation,
    make_expr,
    parse,
    sample_complete,
)
from padesr.pde import (
    BcKind,
    MseBreakdown,
    ObjectiveConfig,
    build_case,
    case_alphabet,
    initial_mse,
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
    """(first derivatives fault-free, interior MSE, boundary MSEs) built here
    from ``differentiate`` and ``eval_grid`` alone."""

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
    return finite, interior, boundary


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
    assert initial_mse(parse("I", Notation.PREFIX, alpha1), case) == 0.0


def test_initial_of_zero_is_gaussian_energy(case1, alpha1):
    # derived oracle: closed-form Gaussian sum on the 10x10 plane
    case, data = case1
    got = initial_mse(parse("0", Notation.PREFIX, alpha1), case)
    xs, ys = np.meshgrid(data.xs, data.ys, indexing="ij")
    expected = float(np.mean((np.exp(-((xs - 1.1) ** 2 + ys**2)) / 0.08) ** 2))
    assert got == pytest.approx(expected, rel=1e-12)


def test_initial_offset_by_one(case1, alpha1):
    case, data = case1
    assert initial_mse(parse("I 1 +", Notation.POSTFIX, alpha1), case) == pytest.approx(1.0)


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


@pytest.mark.parametrize("text, derivatives", [("+ y t", 1), ("+ x t", 2), ("+ x y", 3)])
def test_gate_takes_each_derivative_when_it_reaches_it(case1, alpha1, monkeypatch,
                                                       text, derivatives):
    # a candidate rejected at x costs one differentiation, at y two, at t three
    case, data = case1
    calls = []

    def counting(e, var, ic_derivatives="analytic"):
        calls.append(var)
        return differentiate(e, var, ic_derivatives)

    monkeypatch.setattr("padesr.pde.differentiate", counting)
    assert objective(parse(text, Notation.PREFIX, alpha1), case, data).gate_rejected
    assert calls == list("xyt"[:derivatives])


def test_objective_matches_component_ops(case1, alpha1, rng):
    case, data = case1
    cfg = ObjectiveConfig(threshold=0.0)
    found = 0
    while found < 25:
        e = sample_complete(rng, Notation.POSTFIX, 3, alpha1)
        bd = objective(e, case, data, config=cfg)
        if bd.gate_rejected:
            continue
        found += 1
        finite, interior, boundary = reference_components(e, case, data)
        assert finite
        assert bd.interior == interior
        assert list(bd.boundary) == boundary
        assert bd.initial == initial_mse(e, case)


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


def test_default_reading_is_analytic_and_unchanged(case1, alpha1):
    case, data = case1
    assert ObjectiveConfig().ic_derivatives == "analytic"
    with pytest.raises(ValueError):
        ObjectiveConfig(ic_derivatives="bogus")
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
        finite, interior, boundary = reference_components(e, case, data, "data")
        assert finite
        assert bd.interior == interior
        assert list(bd.boundary) == boundary
        if "I" in e.text.split():
            with_ic += 1
        else:
            # the readings differ only on the initial-condition family
            assert bd == objective(e, case, data, config=analytic)
    assert with_ic > 0
