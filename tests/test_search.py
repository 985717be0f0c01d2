"""Search algorithms: constant fitting, shared state, determinism, and the
per-algorithm contracts that can be checked quickly."""

import hashlib
import itertools
import math
import random
import time

import pytest

from padesr.expr import (
    VAR_X, Notation, TokenKind, convert_notation, make_expr, parse, sample_complete)
from padesr.evaluate import eval_grid
from padesr.pde import (
    BATCH_ELEMENTS, ObjectiveConfig, ScoringPlan, build_case, case_alphabet, objective)
from padesr import search
from padesr.symdiff import differentiate
from padesr.search import (
    ALGORITHMS,
    CONST_FIT_ITERATIONS,
    CONST_FIT_SWARM,
    PSO_SWARM,
    SearchConfig,
    SharedState,
    Swarm,
    _Worker,
    _crossover,
    _mutate_span,
    fit_constants,
    run_search,
    select_action,
)
from pso_oracle import fit_constants_oracle


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


def test_const_fit_swarm_minimizes_convex_bowl():
    # derived oracle: objective mean((c*x - 2x)^2) over x in [0, 1]; optimum 2;
    # the swarm is swept as a constant fit sweeps it
    xs = [i / 10 for i in range(11)]

    def bowl(v):
        return sum((v[0] * x - 2 * x) ** 2 for x in xs) / len(xs)

    hits = 0
    for seed in range(10):
        swarm = Swarm(1, CONST_FIT_SWARM, random.Random(seed))
        for _ in range(CONST_FIT_ITERATIONS + 1):
            swarm.sweep(lambda vectors: [bowl(v) for v in vectors])
        if 1.0 <= swarm.gbest[0] <= 3.0:
            hits += 1
    assert hits >= 9


def test_lazy_and_batch_sweeps_drive_one_swarm(monkeypatch):
    # one swarm is scored a position at a time, its twin the rest of a pass
    # per call; the bowl's gbest improves mid-pass, so the batch twin moves
    # the particles after an improvement again and the lazy one moves each once
    def bowl(v):
        return sum((c - 1.0) ** 2 for c in v)

    moves = 0
    moved = Swarm._moved

    def counting(swarm, i, draws):
        nonlocal moves
        moves += swarm is lazy
        return moved(swarm, i, draws)

    monkeypatch.setattr(Swarm, "_moved", counting)
    size, passes = 10, 6
    lazy, batch = Swarm(3, size, random.Random(5)), Swarm(3, size, random.Random(5))
    taken = batch_calls = 0

    def one_at_a_time(rest):
        nonlocal taken
        for p in rest:
            taken += 1
            yield bowl(p)

    def all_at_once(rest):
        nonlocal batch_calls
        batch_calls += 1
        return [bowl(p) for p in rest]

    for _ in range(passes):
        taken = 0
        lazy.sweep(one_at_a_time)
        assert taken == size
        batch.sweep(all_at_once)
    assert batch_calls > passes  # gbest improved mid-pass
    assert moves == (passes - 1) * size
    assert lazy.pos == batch.pos and lazy.vel == batch.vel
    assert lazy.pbest == batch.pbest and lazy.pbest_f == batch.pbest_f
    assert lazy.gbest == batch.gbest and lazy.gbest_f == batch.gbest_f


@pytest.mark.parametrize("threads", [1, 2])
def test_pso_stopped_inside_a_moving_pass_scores_its_cap(case1, threads):
    # each worker's share, 75, ends inside its swarm's second pass
    case, data = case1
    assert PSO_SWARM < 75 < 2 * PSO_SWARM
    result = run_search(quick_config("pso", max_evals=75 * threads, threads=threads),
                        case, data)
    assert result.evaluations == 75 * threads


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


def test_fit_constants_differentiates_once_per_fit(case1, alpha1_opt, monkeypatch):
    # one plan serves all 120 particles: x, y, t for the gate, then d/dx of
    # T_x and d/dy of T_y, once each
    case, data = case1
    calls = []

    def counting(e, var, ic_derivatives="analytic"):
        calls.append(var)
        return differentiate(e, var, ic_derivatives)

    monkeypatch.setattr("padesr.pde.differentiate", counting)
    e = parse("C x * y * t +", Notation.POSTFIX, alpha1_opt)
    cfg = quick_config("rs", objective=ObjectiveConfig(threshold=0.0))
    consts = fit_constants(e, case, data, SharedState(), cfg)
    assert calls == ["x", "y", "t", "x", "y"]
    # the fitted vector scores as it did when each particle ran the objective
    assert objective(e, case, data, consts, cfg.objective).total < math.inf


@pytest.mark.parametrize("reading", ("analytic", "data"))
def test_a_fitted_candidate_takes_each_derivative_once(case1, alpha1_opt, monkeypatch,
                                                        reading):
    # the fit and the score of its vector, which still goes through
    # search.objective, share one plan: each derived expression is taken
    # once, and the breakdown is the one a fresh plan gives
    case, data = case1
    calls = []

    def counting(e, var, ic_derivatives="analytic"):
        calls.append((e, var))
        return differentiate(e, var, ic_derivatives)

    scored = []

    def scoring(*args):
        scored.append(args)
        return objective(*args)

    monkeypatch.setattr("padesr.pde.differentiate", counting)
    monkeypatch.setattr(search, "objective", scoring)
    e = parse("C x * I * y * t +", Notation.POSTFIX, alpha1_opt)
    cfg = quick_config("rs", objective=ObjectiveConfig(threshold=0.0, ic_derivatives=reading))
    shared = SharedState()
    worker = _Worker(cfg, case, data, alpha1_opt, shared, time.monotonic(), 0)
    breakdown = worker.score(e)
    assert [var for _, var in calls] == ["x", "y", "t", "x", "y"], reading
    assert len(set(calls)) == len(calls) and len(scored) == 1
    consts = shared.cache_get(e.key)
    assert breakdown == objective(e, case, data, consts, cfg.objective)
    assert math.isfinite(breakdown.total)


def test_fit_of_a_literal_zero_derivative_scores_no_particle(case1, alpha1_opt, monkeypatch):
    # no t, so dT/dt is the literal 0 and the gate rejects every particle,
    # although dT/dx holds the C: the fit returns the first drawn position
    # without scoring a pass, as the full swarm returns it
    case, data = case1
    e = parse("C x * y *", Notation.POSTFIX, alpha1_opt)
    cfg = quick_config("rs", seed=3)
    want, mid_pass = fit_constants_oracle(e, case, data, cfg)
    calls = {"totals": 0, "eval_grid": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ScoringPlan, "totals", counted("totals", ScoringPlan.totals))
    monkeypatch.setattr("padesr.pde.eval_grid", counted("eval_grid", eval_grid))
    assert fit_constants(e, case, data, SharedState(), cfg) == want
    assert calls == {"totals": 0, "eval_grid": 0} and mid_pass == 0


def test_fit_of_a_c_free_gate_miss_runs_the_swarm_to_the_same_result(
        case1, alpha1_opt, monkeypatch):
    # dT/dx is the C-free 0.001, below the default threshold without being
    # the literal 0, and dT/dy and dT/dt hold the C: the early exit leaves it
    # to the swarm, whose every batch the gate rejects, so the fit returns the
    # first drawn position as the oracle does; no total improves, so each
    # pass takes every batch of the size ``totals`` scores at once
    case, data = case1
    e = parse("x 0.001 * C y * t * +", Notation.POSTFIX, alpha1_opt, mode="free")
    cfg = quick_config("rs", seed=5)
    assert not ScoringPlan(e, cfg.objective).rejects_every_vector()
    want, _ = fit_constants_oracle(e, case, data, cfg)
    batches = []
    gate = ScoringPlan._gate

    def recording(plan, data, consts, rows=None):
        verdict = gate(plan, data, consts, rows)
        if rows is not None:  # once per batch of ``totals``; ``score`` gives no rows
            batches.append((len(rows), verdict[1] is None))
        return verdict

    monkeypatch.setattr(ScoringPlan, "_gate", recording)
    assert fit_constants(e, case, data, SharedState(), cfg) == want
    step = max(1, BATCH_ELEMENTS // data.n)
    assert len(batches) == (CONST_FIT_ITERATIONS + 1) * math.ceil(CONST_FIT_SWARM / step) == 18
    assert [rows for rows, _ in batches[:3]] == [8, 8, 4]
    assert all(rejected for _, rejected in batches)


def fit_corpus(alphabet, count):
    """Seeded ``vars+const+opt`` expressions with at least one slot, both
    notations, paired with default and zero thresholds."""
    rng = random.Random(20240905)
    corpus = []
    while len(corpus) < count:
        notation = (Notation.PREFIX, Notation.POSTFIX)[len(corpus) % 2]
        e = sample_complete(rng, notation, rng.randint(1, 4), alphabet)
        if e.n_slots:
            threshold = ObjectiveConfig().threshold if len(corpus) % 3 else 0.0
            corpus.append((e, quick_config("rs", seed=len(corpus), notation=notation,
                                           objective=ObjectiveConfig(threshold=threshold))))
    return corpus


def chunk_calls(breaks, step):
    """The ``totals`` batches of a fit whose passes take chunks of ``step``
    positions, handing the rest of a pass again after each of ``breaks``."""
    calls = 0
    for p in range(CONST_FIT_ITERATIONS + 1):
        starts = [0] + [i + 1 for q, i in breaks if q == p]
        ends = starts[1:] + [CONST_FIT_SWARM]
        calls += sum(math.ceil((end - start) / step) for start, end in zip(starts, ends))
    return calls


def test_batched_fit_equals_particle_at_a_time_fit(case1, alpha1_opt, monkeypatch,
                                                  block_sizes):
    # the oracle scores one particle at a time; the fit scores a pass in
    # chunks of the batch size ``totals`` scores at once, and past the first
    # particle improving gbest moves the rest of the pass again; under the
    # small block size every grid runs as several blocks, and a row that
    # faults early does not stop the rows still in play
    case, data = case1
    step = max(1, BATCH_ELEMENTS // data.n)
    calls = []
    gate = ScoringPlan._gate

    def counting(plan, data, consts, rows=None):
        if rows is not None:  # once per batch of ``totals``; ``score`` gives no rows
            calls[-1] += 1
        return gate(plan, data, consts, rows)

    monkeypatch.setattr(ScoringPlan, "_gate", counting)
    for _ in block_sizes:
        replanned = decided_by_gate = 0
        for e, cfg in fit_corpus(alpha1_opt, 240):
            breaks = []
            want, mid_pass = fit_constants_oracle(e, case, data, cfg, breaks)
            calls.append(0)
            assert fit_constants(e, case, data, SharedState(), cfg) == want, e
            if ScoringPlan(e, cfg.objective).rejects_every_vector():
                assert calls[-1] == 0 and mid_pass == 0
                decided_by_gate += 1
            else:
                # the chunks of each pass, taken afresh after each mid-pass
                # improvement, and none past one
                assert len(breaks) == mid_pass
                assert calls[-1] == chunk_calls(breaks, step), e
                replanned += mid_pass > 0
        assert replanned >= 20 and decided_by_gate == 157


@pytest.mark.parametrize("mesh", [(10, 10, 10), (20, 20, 20), (5, 5, 4)])
def test_fit_scans_stay_within_row_bound(alpha1_opt, monkeypatch, mesh):
    # 8 rows a scan on the 10^3 mesh, 1 on 8,000 points, and a whole pass of
    # 20 on a mesh the size of a 10^3 boundary plane
    case, data = build_case("case1", mesh)
    shapes = []

    def recording(e, grid_data, consts=None):
        g = eval_grid(e, grid_data, consts)
        shapes.append(g.values.shape)
        return g

    monkeypatch.setattr("padesr.pde.eval_grid", recording)
    cfg = quick_config("rs", objective=ObjectiveConfig(threshold=0.0))
    for text in ("C x * y * t +", "x C - y * t * C C * +"):
        fit_constants(parse(text, Notation.POSTFIX, alpha1_opt), case, data, SharedState(), cfg)
    rows = [shape[0] for shape in shapes if len(shape) == 2]
    assert max(rows) == min(CONST_FIT_SWARM, max(1, BATCH_ELEMENTS // data.n))
    assert max(shape[0] * shape[1] for shape in shapes if len(shape) == 2) <= BATCH_ELEMENTS


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


@pytest.mark.parametrize("notation", [Notation.PREFIX, Notation.POSTFIX])
def test_crossover_without_retries_swaps_one_leaf_for_one_leaf(alpha1_opt, notation,
                                                              monkeypatch):
    # no span pair is tried, so every pair takes the leaf-for-leaf fallback
    monkeypatch.setattr(search, "GP_PAIR_RETRIES", 0)
    rng = random.Random(7)
    parents = [sample_complete(rng, notation, rng.randint(0, 4), alpha1_opt) for _ in range(80)]
    swapped = 0
    for a, b in zip(parents, parents[1:]):
        for parent, child in zip((a, b), _crossover(rng, a, b, 4)):
            assert child.depth <= 4 and len(child.tokens) == len(parent.tokens)
            changed = [(p, c) for p, c in zip(parent.tokens, child.tokens) if p.text != c.text]
            assert len(changed) <= 1, (parent.text, child.text)
            assert all(p.arity == c.arity == 0 for p, c in changed), (parent.text, child.text)
            swapped += len(changed)
    assert swapped >= 100


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
    stats = ({}, {})
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    seen = set()
    for i in range(60):
        tok, expand = select_action("s", legal, *stats, 1.4, random.Random(i))
        assert expand
        seen.add(tok.text)
    assert seen == {"x", "y", "t"}


def test_select_first_unvisited_without_rng_draw(alpha1):
    action_visits, action_value = {("s", "x"): 1}, {("s", "x"): 1.0}
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    tok, expand = select_action("s", legal, action_visits, action_value, 1.4)
    assert (tok.text, expand) == ("y", True)
    # concurrent MCTS draws only when several actions are unvisited
    action_visits[("s", "y")] = 1
    tok, expand = select_action("s", legal, action_visits, action_value, 1.4,
                                NoDraws(0))
    assert (tok.text, expand) == ("t", True)


def test_select_single_unvisited_preempts_uct(alpha1):
    action_visits = {("s", "x"): 6, ("s", "t"): 4}
    action_value = {("s", "x"): 6.0}  # perfect mean reward
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    for i in range(20):
        tok, expand = select_action("s", legal, action_visits, action_value, 1.4,
                                    random.Random(i))
        assert (tok.text, expand) == ("y", True)


def test_select_tie_breaks_lowest_index(alpha1):
    action_visits = {("s", text): 3 for text in ("x", "y", "t")}
    action_value = {("s", text): 1.5 for text in ("x", "y", "t")}
    legal = [_tok(alpha1, t) for t in ("x", "y", "t")]
    for rng in (None, NoDraws(0)):
        tok, expand = select_action("s", legal, action_visits, action_value, 1.4, rng)
        assert (tok.text, expand) == ("x", False)


# sha256 over the key of every candidate scored, in order, by seeded 1-worker
# runs in both notations; recorded while N(s) was still a map of its own
MCTS_KEY_SEQUENCES = {
    "mcts": "86d8c26efbee9946e68714d745d859410dadbdaea2ea265a8f9f993f1d314b0e",
    "cmcts": "ac0170f2d2d125bb3889a40bdca59618efa39a7dd219f7dde767230763ad6d46",
}


@pytest.mark.parametrize("algo", ("mcts", "cmcts"))
def test_mcts_scores_the_recorded_candidate_sequence(algo, case1, monkeypatch):
    # the goldens hash a run's best and its improvements; this pins every
    # UCT choice, so N(s) read from N(s,a) must give each log(N(s)) the same
    case, data = case1
    digest = hashlib.sha256()
    score = _Worker.score

    def recording(w, e):
        breakdown = score(w, e)
        digest.update(e.key.encode() + b"\n")
        return breakdown

    monkeypatch.setattr(_Worker, "score", recording)
    for notation in (Notation.PREFIX, Notation.POSTFIX):
        run_search(quick_config(algo, depth=4, notation=notation, time_budget=600.0, seed=7,
                                max_evals=600, objective=ObjectiveConfig(threshold=0.0)),
                   case, data)
    assert digest.hexdigest() == MCTS_KEY_SEQUENCES[algo]


# the same digest for the other algorithms, recorded while the grammar still
# rescanned the partial sequence per token and the swarm drew its positions
# through ``random.uniform``
KEY_SEQUENCES = {
    "rs": "3705ddb6c92f0cab2d3ec11730395116ecd38def8d96c2f342bc7158cbf2ce69",
    "pso": "abf485093125cf62a2d21ccbd21cb5db2902420b7dbd7d432bd0a1fe648758f7",
    "gp": "eada65da45ff561eaf093178451d4698f2510a41bf68bbb505153d67503dcaad",
    "sa": "305e66ef30afac9ff7edae118e67ad7d44ea2645b3aebb5e18c8e3f5c08961c8",
}


@pytest.mark.parametrize("algo", tuple(KEY_SEQUENCES))
def test_every_algorithm_scores_its_recorded_candidate_sequence(algo, case1, monkeypatch):
    # pins every draw of the sampler, the particle decoder and the swarm,
    # not only the draws that reach a run's best
    case, data = case1
    digest = hashlib.sha256()
    score = _Worker.score

    def recording(w, e):
        breakdown = score(w, e)
        digest.update(e.key.encode() + b"\n")
        return breakdown

    monkeypatch.setattr(_Worker, "score", recording)
    for notation in (Notation.PREFIX, Notation.POSTFIX):
        run_search(quick_config(algo, depth=4, notation=notation, time_budget=600.0, seed=7,
                                max_evals=600, objective=ObjectiveConfig(threshold=0.0)),
                   case, data)
    assert digest.hexdigest() == KEY_SEQUENCES[algo]


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
    result = run_search(quick_config("rs", threads=4, max_evals=100), case, data)
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


# ---------------------------------------------------------------------------
# the serial backend: workers one after another, each with a fixed share


def recorded_workers(monkeypatch):
    """The workers ``run_search`` runs, in the order it runs them."""
    workers = []
    run = _Worker.run

    def recording(w):
        workers.append(w)
        run(w)

    monkeypatch.setattr(_Worker, "run", recording)
    return workers


@pytest.mark.parametrize("threads", [2, 3, 5])
def test_capped_runs_of_several_workers_repeat_bit_for_bit(case1, monkeypatch, threads):
    # every candidate each run scores, in order, and what the run returns
    case, data = case1
    scored = []
    score = _Worker.score

    def recording(w, e):
        breakdown = score(w, e)
        scored[-1].append((e.key, breakdown))
        return breakdown

    monkeypatch.setattr(_Worker, "score", recording)

    def run(cfg):
        scored.append([])
        return run_search(cfg, case, data)

    for algo in ALGORITHMS:
        cfg = quick_config(algo, depth=3, threads=threads, max_evals=61,
                           token_mode="vars+const+opt")
        a, b = run(cfg), run(cfg)
        assert scored[-2] == scored[-1], algo
        assert a.expr == b.expr and a.consts == b.consts, algo
        assert a.breakdown == b.breakdown and a.evaluations == b.evaluations == 61, algo
        assert [m for _, m in a.improvements] == [m for _, m in b.improvements], algo


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_each_worker_scores_its_share_of_the_cap(case1, monkeypatch, threads):
    case, data = case1
    for cap in (0, 1, 2, 4, 7, 30):
        workers = recorded_workers(monkeypatch)
        result = run_search(quick_config("rs", threads=threads, max_evals=cap), case, data)
        shares = [cap // threads + (i < cap % threads) for i in range(threads)]
        assert sum(shares) == cap == result.evaluations
        # a worker with a share of 0 is not run
        assert [(w.share, w.evaluations) for w in workers] == [(s, s) for s in shares if s]


def test_a_stop_in_the_first_worker_leaves_the_others_unrun(case1, monkeypatch):
    case, data = case1
    workers = recorded_workers(monkeypatch)
    cfg = quick_config("rs", depth=1, threads=3, max_evals=300, stop_below=1e12,
                       objective=ObjectiveConfig(threshold=0.0))
    result = run_search(cfg, case, data)
    assert len(workers) == 1 and result.evaluations == workers[0].evaluations < 100


def test_an_exception_in_the_first_worker_is_raised_before_the_next_starts(
        case1, monkeypatch):
    case, data = case1
    workers = recorded_workers(monkeypatch)
    calls = itertools.count(1)

    def failing(*args, **kwargs):
        if next(calls) == 3:
            raise RuntimeError("scoring failed")
        return objective(*args, **kwargs)

    monkeypatch.setattr("padesr.search.objective", failing)
    with pytest.raises(RuntimeError, match="scoring failed"):
        run_search(quick_config("rs", threads=2, max_evals=20), case, data)
    assert len(workers) == 1 and workers[0].evaluations == 3


@pytest.mark.parametrize("threads, budget", [(1, 10.0), (2, 10.0), (3, 10.0), (4, 2.5)])
def test_each_worker_stops_at_its_share_of_the_budget(case1, monkeypatch, threads, budget):
    # the clock reads the number of candidates scored so far, so worker i
    # scores those that start before budget * (i + 1) / threads
    case, data = case1
    clock = [0.0]

    def ticking(*args, **kwargs):
        clock[0] += 1.0
        return objective(*args, **kwargs)

    monkeypatch.setattr(search, "time", type("Clock", (), {"monotonic": lambda: clock[0]}))
    monkeypatch.setattr(search, "objective", ticking)
    workers = recorded_workers(monkeypatch)
    result = run_search(quick_config("rs", threads=threads, time_budget=budget,
                                     max_evals=None), case, data)
    deadlines = [budget * (i + 1) / threads for i in range(threads)]
    assert [w.deadline for w in workers] == deadlines
    scored = [math.ceil(d) for d in deadlines]
    assert [w.evaluations for w in workers] == [b - a for a, b in zip([0] + scored, scored)]
    assert result.evaluations == math.ceil(budget)


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
    # with 2 workers, the one that did not reach the target stops as well
    case, data = case1
    for threads in (1, 2):
        cfg = quick_config("rs", depth=1, max_evals=100_000, stop_below=1e12, threads=threads,
                           objective=ObjectiveConfig(threshold=0.0))
        result = run_search(cfg, case, data)
        assert result.evaluations < 100, threads


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_passed_deadline_scores_nothing(case1, algo):
    # the deadline is checked before every candidate, SA's first one included
    case, data = case1
    result = run_search(quick_config(algo, time_budget=1e-9, max_evals=None), case, data)
    assert result.empty and result.evaluations == 0


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
    for threshold in (math.nan, -1.0, -math.inf):  # NaN would switch the gate off
        with pytest.raises(ValueError):
            ObjectiveConfig(threshold=threshold)
    for threshold in (0.0, math.inf):
        assert ObjectiveConfig(threshold=threshold).threshold == threshold
