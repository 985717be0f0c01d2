"""Search algorithms: constant fitting, shared state, determinism, and the
per-algorithm contracts that can be checked quickly."""

import itertools
import math
import random
import sys

import pytest

from padesr.expr import (
    VAR_X, Notation, TokenKind, convert_notation, make_expr, parse, sample_complete)
from padesr.pde import ObjectiveConfig, case_alphabet, objective
from padesr.search import (
    ALGORITHMS,
    SearchConfig,
    SharedState,
    _crossover,
    _mutate_span,
    fit_constants,
    pso_minimize,
    run_search,
    select_action,
)


def quick_config(algo, **kw):
    defaults = dict(
        algorithm=algo,
        depth=2,
        notation=Notation.POSTFIX,
        token_mode="vars+const",
        threads=1,
        time_budget=30.0,
        seed=11,
        objective=ObjectiveConfig(),
        max_evals=150,
    )
    defaults.update(kw)
    return SearchConfig(**defaults)


# ---------------------------------------------------------------------------
# constant fitting


def test_pso_minimize_convex_bowl():
    # derived oracle: objective mean((c*x - 2x)^2) over x in [0, 1]; optimum 2
    xs = [i / 10 for i in range(11)]

    def bowl(v):
        return sum((v[0] * x - 2 * x) ** 2 for x in xs) / len(xs)

    hits = 0
    for seed in range(10):
        best, _ = pso_minimize(bowl, 1, random.Random(seed))
        if 1.0 <= best[0] <= 3.0:
            hits += 1
    assert hits >= 9


def test_fit_constants_no_slots_no_cache(case1, alpha1):
    case, data = case1
    shared = SharedState()
    e = parse("x y +", Notation.POSTFIX, alpha1)
    cfg = quick_config("rs")
    assert fit_constants(e, case, data, shared, cfg) == ()
    assert shared.const_cache == {}


def test_fit_constants_cached_and_deterministic(case1, alpha1_opt):
    case, data = case1
    cfg = quick_config("rs")
    shared = SharedState()
    e = parse("C I *", Notation.POSTFIX, alpha1_opt)
    first = fit_constants(e, case, data, shared, cfg)
    assert e.key in shared.const_cache

    calls = 0
    original = shared.cache_put

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    shared.cache_put = counting
    again = fit_constants(e, case, data, shared, cfg)
    assert again == first
    assert calls == 0  # cache hit: no fit, no write

    other = SharedState()
    assert fit_constants(e, case, data, other, cfg) == first


def const_slots(e):
    return [t.slot for t in e.tokens if t.kind is TokenKind.CONST]


def test_spliced_constants_get_distinct_slots(alpha1_opt):
    # the mutant of "C x *" whose x became "C sqrt x exp -": both C tokens
    # arrive with slot 0, and the parsed text numbers them 0 and 1
    parent = parse("C x *", Notation.POSTFIX, alpha1_opt)
    repl = parse("C sqrt x exp -", Notation.POSTFIX, alpha1_opt)
    mutant = make_expr(parent.tokens[:1] + repl.tokens + parent.tokens[2:], Notation.POSTFIX)
    assert mutant.text == "C C sqrt x exp - *"
    assert const_slots(mutant) == const_slots(parse(mutant.text, Notation.POSTFIX, alpha1_opt))
    assert const_slots(mutant) == [0, 1]


@pytest.mark.parametrize("notation", [Notation.PREFIX, Notation.POSTFIX])
def test_mutants_and_crossover_children_number_slots_in_order(alpha1_opt, notation):
    rng = random.Random(3)
    samples = (sample_complete(rng, Notation.POSTFIX, 4, alpha1_opt) for _ in range(2000))
    parents = [convert_notation(e, notation) for e in samples if e.n_slots][:60]
    offspring = [_mutate_span(rng, p, 4, alpha1_opt) for p in parents]
    for a, b in zip(parents, parents[1:]):
        offspring.extend(_crossover(rng, a, b, 4))
    for e in offspring:
        assert const_slots(e) == list(range(e.n_slots)), e
    assert sum(e.n_slots > 1 for e in offspring) >= 10


# ---------------------------------------------------------------------------
# UCT selection rule (MCTS passes no rng, concurrent MCTS its worker's rng)


def _tok(alpha, text):
    return alpha.by_text[text]


class NoDraws(random.Random):
    def random(self):
        raise AssertionError("selection drew from the rng")

    def randrange(self, *args, **kwargs):
        raise AssertionError("selection drew from the rng")


def test_select_all_unvisited_uniform(alpha1):
    stats = ({}, {}, {})
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    seen = set()
    for i in range(60):
        tok, expand = select_action("s", legal, *stats, 1.4, random.Random(i))
        assert expand
        seen.add(tok.text)
    assert seen == {"x", "y", "t"}


def test_select_first_unvisited_without_rng_draw(alpha1):
    visits, action_visits, action_value = {"s": 1}, {("s", "x"): 1}, {("s", "x"): 1.0}
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    tok, expand = select_action("s", legal, visits, action_visits, action_value, 1.4)
    assert (tok.text, expand) == ("y", True)
    # concurrent MCTS draws only when several actions are unvisited
    action_visits[("s", "y")] = 1
    tok, expand = select_action("s", legal, visits, action_visits, action_value, 1.4,
                                NoDraws(0))
    assert (tok.text, expand) == ("t", True)


def test_select_single_unvisited_preempts_uct(alpha1):
    visits = {"s": 10}
    action_visits = {("s", "x"): 6, ("s", "t"): 4}
    action_value = {("s", "x"): 6.0}  # perfect mean reward
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    for i in range(20):
        tok, expand = select_action("s", legal, visits, action_visits, action_value, 1.4,
                                    random.Random(i))
        assert (tok.text, expand) == ("y", True)


def test_select_tie_breaks_lowest_index(alpha1):
    visits = {"s": 9}
    action_visits = {("s", text): 3 for text in ("x", "y", "t")}
    action_value = {("s", text): 1.5 for text in ("x", "y", "t")}
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    for rng in (None, NoDraws(0)):
        tok, expand = select_action("s", legal, visits, action_visits, action_value, 1.4, rng)
        assert (tok.text, expand) == ("x", False)


# ---------------------------------------------------------------------------
# run_search contracts


def test_rs_depth0_matches_exhaustive_leaf_scoring(case1):
    # derived oracle: brute-force score of every leaf in the alphabet; run at
    # threshold 0 so the leaf totals are finite and the minimum is unique
    case, data = case1
    cfg = quick_config("rs", depth=0, max_evals=400, seed=3,
                       objective=ObjectiveConfig(threshold=0.0))
    result = run_search(cfg, case, data)
    alpha = case_alphabet(case, cfg.token_mode)
    best_leaf = min(
        (objective(parse(t.text, cfg.notation, alpha), case, data,
                   config=cfg.objective).total, t.text)
        for t in alpha.leaves
    )
    assert result.breakdown.total == best_leaf[0]
    assert result.expr.text == best_leaf[1]


def test_reported_mse_reproducible(case1):
    case, data = case1
    for algo in ("rs", "gp"):
        result = run_search(quick_config(algo, max_evals=120), case, data)
        again = objective(result.expr, case, data, result.consts or None,
                          result.config.objective)
        assert again == result.breakdown


def test_single_thread_fixed_seed_bit_reproducible(case1):
    case, data = case1
    for algo in ("rs", "mcts", "pso", "gp", "sa"):
        a = run_search(quick_config(algo), case, data)
        b = run_search(quick_config(algo), case, data)
        assert a.expr == b.expr, algo
        assert a.breakdown == b.breakdown, algo
        assert a.consts == b.consts, algo
        assert a.evaluations == b.evaluations, algo


def test_improvement_log_monotone_and_consistent(case1):
    case, data = case1
    result = run_search(quick_config("rs", max_evals=300), case, data)
    mses = [m for _, m in result.improvements]
    assert mses, "no improvements logged"
    assert all(b < a for a, b in zip(mses, mses[1:]))
    assert result.breakdown.total == min(mses)


def test_sa_seeded_final_not_worse_than_seed(case1, alpha1):
    case, data = case1
    seed_expr = parse("I t sech *", Notation.POSTFIX, alpha1)
    seed_total = objective(seed_expr, case, data).total
    cfg = quick_config("sa", seed_expr=seed_expr, max_evals=200,
                       objective=ObjectiveConfig(threshold=0.0))
    result = run_search(cfg, case, data)
    assert result.breakdown.total <= objective(
        seed_expr, case, data, config=cfg.objective).total
    assert seed_total >= result.breakdown.total or math.isinf(seed_total)


def test_sa_warm_start_from_reference_expression(case1, alpha1_opt):
    # the published case-1 candidate is deeper than the configured budget;
    # the warm start must still be legal and never end worse than it began
    case, data = case1
    text = "- ^ I ^ tanh I sqrt t * sech + I / t * 0.2 y sech + x + y ^ 2 I"
    seed_expr = parse(text, Notation.PREFIX, alpha1_opt, mode="free")
    cfg = quick_config("sa", notation=Notation.PREFIX, depth=2,
                       seed_expr=seed_expr, max_evals=250,
                       objective=ObjectiveConfig(threshold=0.0))
    result = run_search(cfg, case, data)
    start = objective(seed_expr, case, data, config=cfg.objective).total
    assert result.breakdown.total <= start


def test_all_algorithms_produce_valid_candidates(case1):
    case, data = case1
    for algo in ALGORITHMS:
        cfg = quick_config(algo, depth=3, max_evals=80, threads=1)
        result = run_search(cfg, case, data)
        assert not result.empty, algo
        assert result.expr.depth <= max(cfg.depth, 3)
        assert result.evaluations >= 1


def test_multithreaded_run_and_empty_marker(case1):
    case, data = case1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch often, so a check-then-act race shows
    try:
        result = run_search(quick_config("rs", threads=4, max_evals=100), case, data)
    finally:
        sys.setswitchinterval(interval)
    assert not result.empty
    assert result.evaluations == 100
    empty = run_search(quick_config("rs", max_evals=0), case, data)
    assert empty.empty and empty.evaluations == 0
    assert empty.breakdown is None


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_max_evals_zero_scores_nothing(case1, algo):
    case, data = case1
    result = run_search(quick_config(algo, max_evals=0), case, data)
    assert result.empty and result.evaluations == 0


@pytest.mark.parametrize("algo", ("rs", "gp", "sa", "cmcts"))
def test_two_workers_end_at_exact_cap(case1, algo):
    case, data = case1
    for token_mode in ("vars+const", "vars+const+opt"):
        cfg = quick_config(algo, depth=3, threads=2, max_evals=30, token_mode=token_mode)
        result = run_search(cfg, case, data)
        assert result.evaluations == 30, token_mode


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_exception_is_raised(case1, monkeypatch, threads):
    case, data = case1
    calls = itertools.count(1)

    def failing(*args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("scoring failed")
        return objective(*args, **kwargs)

    monkeypatch.setattr("padesr.search.objective", failing)
    with pytest.raises(RuntimeError, match="scoring failed"):
        run_search(quick_config("rs", threads=threads, max_evals=20), case, data)


def test_stop_below_short_circuits(case1):
    case, data = case1
    cfg = quick_config("rs", depth=1, max_evals=100_000, stop_below=1e12,
                       objective=ObjectiveConfig(threshold=0.0))
    result = run_search(cfg, case, data)
    assert result.evaluations < 100


def test_invalid_configs_rejected():
    for algo, bad in (
        ("nope", {}),
        ("rs", {"token_mode": "consts"}),
        ("rs", {"threads": 0}),
        ("rs", {"time_budget": 0.0}),
        ("rs", {"depth": -1}),
        ("rs", {"max_evals": -1}),
        ("rs", {"seed_expr": make_expr([VAR_X], Notation.POSTFIX)}),  # only sa reads it
        ("sa", {"seed_expr": make_expr([VAR_X], Notation.PREFIX)}),  # notation differs
    ):
        with pytest.raises(ValueError):
            quick_config(algo, **bad)
    quick_config("rs", depth=0, max_evals=0)  # both bounds are inclusive
