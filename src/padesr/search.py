"""Six fixed-depth expression-search algorithms with multi-threaded execution.

Every worker thread runs an independent instance of the configured algorithm
with a derived seed; all workers share one :class:`SharedState` holding the
best-so-far result and the fitted-constant cache.  The concurrent variant of
MCTS additionally shares its visit/score statistics and breaks ties among
unvisited actions at random so threads fan out over different branches.
"""

from __future__ import annotations

import math
import random
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .symdiff import simplify
from .evaluate import Dataset
from .expr import (
    Alphabet,
    Expr,
    Notation,
    Token,
    legal_tokens,
    make_expr,
    sample_complete,
    sequence_depth,
    span_at,
    token_path_depths,
)
from .pde import TOKEN_MODES, MseBreakdown, ObjectiveConfig, PdeCase, case_alphabet, objective


def _mix(seed: int, salt: int) -> int:
    """splitmix64-style derivation for deterministic per-worker seeds."""
    z = (seed + salt * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _key_salt(key: str) -> int:
    return zlib.crc32(key.encode("utf-8"))


# Search constants.  MCTS: the UCT exploration constant starts at UCT_C,
# grows by UCT_C after the stall count of iterations without a new global
# best, and drops back to UCT_C on one.
UCT_C = 1.4
MCTS_STALL_ITERS = {"mcts": 500, "cmcts": 1000}

# Particle swarm, shared by the PSO search and the constant fit.
PSO_INERTIA = 0.7
PSO_COGNITIVE = 1.5
PSO_SOCIAL = 1.5
PSO_INIT_RANGE = 10.0
PSO_SWARM = 50
PSO_DIM_CAP = 2047  # particle components wrap beyond this length
CONST_FIT_SWARM = 20
CONST_FIT_ITERATIONS = 5

GP_POPULATION = 200
GP_CHILDREN = 200  # pool after crossover/mutation ~= 2x population
GP_CROSSOVER_PROB = 0.7
GP_PAIR_RETRIES = 20

SA_TEMP_INITIAL = 1.0
SA_COOLING = 0.999
SA_TEMP_FLOOR = 1e-6
SA_STALL_REHEAT = 2000


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str
    depth: int
    notation: Notation
    token_mode: str = "vars+const"
    threads: int = 1
    time_budget: float = 5.0
    seed: int = 0
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    seed_expr: Optional[Expr] = None
    max_evals: Optional[int] = None  # evaluation cap; makes runs reproducible
    stop_below: Optional[float] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.token_mode not in TOKEN_MODES:
            raise ValueError(f"unknown token mode {self.token_mode!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not self.time_budget > 0:
            raise ValueError(f"time budget must be positive, got {self.time_budget}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.max_evals is not None and self.max_evals < 0:
            raise ValueError(f"max_evals must be >= 0, got {self.max_evals}")
        if self.seed_expr is not None and self.algorithm != "sa":
            raise ValueError(f"only sa reads a seed expression, not {self.algorithm!r}")
        if self.seed_expr is not None and self.seed_expr.notation is not self.notation:
            raise ValueError("the seed expression's notation differs from the search's")


@dataclass(frozen=True)
class SearchResult:
    expr: Optional[Expr]
    simplified: Optional[Expr]
    breakdown: Optional[MseBreakdown]
    consts: tuple[float, ...]
    elapsed: float
    evaluations: int
    config: SearchConfig
    improvements: tuple[tuple[float, float], ...]

    @property
    def empty(self) -> bool:
        return self.expr is None


class SharedState:
    """State shared by all workers of one run.

    An evaluation is counted when a worker claims it, under the lock, so a
    run never scores more than its cap.  The best-so-far update is a
    compare-and-swap under the same lock, so its MSE is monotone
    non-increasing.  The constant cache is write-once per key in
    effect: fits are deterministic given the key, so a racing second writer
    stores the same value.  The concurrent-MCTS statistics are updated without
    locking; lost increments are harmless, the dictionaries themselves stay
    consistent under the interpreter lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.best_total = math.inf
        self.best: Optional[tuple[str, Expr, tuple[float, ...], MseBreakdown]] = None
        self.evaluations = 0
        self.const_cache: dict[str, tuple[float, ...]] = {}
        self.stop = threading.Event()
        # concurrent-MCTS maps: N(s), N(s,a), Q(s,a)
        self.visits: dict[str, int] = {}
        self.action_visits: dict[tuple[str, str], int] = {}
        self.action_value: dict[tuple[str, str], float] = {}

    def claim(self, cap: Optional[int]) -> bool:
        """Count one evaluation, unless ``cap`` evaluations are counted already."""
        with self._lock:
            if cap is not None and self.evaluations >= cap:
                return False
            self.evaluations += 1
            return True

    def offer(
        self,
        key: str,
        expr: Expr,
        consts: tuple[float, ...],
        breakdown: MseBreakdown,
    ) -> bool:
        with self._lock:
            if self.best is None or breakdown.total < self.best_total:
                self.best_total = breakdown.total
                self.best = (key, expr, consts, breakdown)
                return True
            return False

    def snapshot_best(self):
        with self._lock:
            return self.best, self.best_total, self.evaluations

    def cache_get(self, key: str):
        return self.const_cache.get(key)

    def cache_put(self, key: str, consts: tuple[float, ...]) -> None:
        with self._lock:
            self.const_cache[key] = consts


class Swarm:
    """Particle swarm with the global best updated after every particle.

    Positions are drawn at construction.  Each :meth:`step` scores one
    particle in turn: during the first pass where it was drawn, afterwards
    after one velocity update.
    """

    def __init__(self, dim: int, size: int, rng: random.Random):
        self.rng = rng
        self.pos = [[rng.uniform(-PSO_INIT_RANGE, PSO_INIT_RANGE) for _ in range(dim)]
                    for _ in range(size)]
        self.vel = [[0.0] * dim for _ in range(size)]
        self.pbest = [list(p) for p in self.pos]
        self.pbest_f = [math.inf] * size
        self.gbest, self.gbest_f = list(self.pos[0]), math.inf
        self.steps = 0

    def step(self, fn: Callable[[Sequence[float]], float]) -> None:
        i = self.steps % len(self.pos)
        p = self.pos[i]
        if self.steps >= len(self.pos):
            v, pb, g, rng = self.vel[i], self.pbest[i], self.gbest, self.rng
            for j in range(len(p)):
                r1, r2 = rng.random(), rng.random()
                v[j] = (
                    PSO_INERTIA * v[j]
                    + PSO_COGNITIVE * r1 * (pb[j] - p[j])
                    + PSO_SOCIAL * r2 * (g[j] - p[j])
                )
                p[j] += v[j]
        self.steps += 1
        f = fn(p)
        if f < self.pbest_f[i]:
            self.pbest[i] = list(p)
            self.pbest_f[i] = f
            if f < self.gbest_f:
                self.gbest, self.gbest_f = list(p), f


def pso_minimize(
    fn: Callable[[Sequence[float]], float],
    dim: int,
    rng: random.Random,
) -> tuple[list[float], float]:
    """Particle-swarm minimization of a black-box function: one scoring pass
    over the drawn swarm, then ``CONST_FIT_ITERATIONS`` passes of updates."""
    s = Swarm(dim, CONST_FIT_SWARM, rng)
    for _ in range(CONST_FIT_SWARM * (CONST_FIT_ITERATIONS + 1)):
        s.step(fn)
    return s.gbest, s.gbest_f


def fit_constants(
    e: Expr,
    case: PdeCase,
    data: Dataset,
    shared: SharedState,
    config: SearchConfig,
) -> tuple[float, ...]:
    """Fit the learnable-constant slots of ``e`` by a short PSO run.

    Results are cached in the shared state under the expression key; the fit
    seed is derived from the key so every thread computes the same vector.
    """
    if e.n_slots == 0:
        return ()
    key = e.key
    cached = shared.cache_get(key)
    if cached is not None:
        return cached
    rng = random.Random(_mix(config.seed, _key_salt(key)))

    def score(vector: Sequence[float]) -> float:
        return objective(e, case, data, vector, config.objective).total

    best, _ = pso_minimize(score, e.n_slots, rng)
    consts = tuple(best)
    shared.cache_put(key, consts)
    return consts


def select_action(
    state_key: str,
    legal: Sequence[Token],
    visits: dict[str, int],
    action_visits: dict[tuple[str, str], int],
    action_value: dict[tuple[str, str], float],
    c: float,
    rng: Optional[random.Random] = None,
) -> tuple[Token, bool]:
    """UCT selection; returns the action and whether it was unvisited.

    Unvisited actions come first: the first one in ``legal`` order, or, when
    ``rng`` is given (concurrent MCTS) and several remain, a uniform random
    one.  Otherwise the UCT argmax, ties going to the lowest index.
    """
    unvisited = [tok for tok in legal if action_visits.get((state_key, tok.text), 0) == 0]
    if unvisited:
        if rng is None or len(unvisited) == 1:
            return unvisited[0], True
        return unvisited[rng.randrange(len(unvisited))], True
    n_state = max(visits.get(state_key, 0), 1)
    best_tok = legal[0]
    best_score = -math.inf
    for tok in legal:
        n = action_visits[(state_key, tok.text)]
        q = action_value.get((state_key, tok.text), 0.0)
        score = q / n + c * math.sqrt(math.log(n_state) / n)
        if score > best_score:
            best_score = score
            best_tok = tok
    return best_tok, False


# ---------------------------------------------------------------------------
# run context shared by the per-thread algorithm loops


class _RunContext:
    def __init__(self, config: SearchConfig, case: PdeCase, data: Dataset,
                 alphabet: Alphabet, shared: SharedState, start: float):
        self.config = config
        self.case = case
        self.data = data
        self.alphabet = alphabet
        self.shared = shared
        self.start = start
        self.deadline = start + config.time_budget

    def keep_going(self) -> bool:
        return not self.shared.stop.is_set() and time.monotonic() < self.deadline


class _CapSpent(Exception):
    """The run's evaluation cap is spent; ends the worker that drew it."""


class _Scorer:
    """Worker-local scoring front end; logs this worker's own improvements.

    :meth:`score` is the one place that enforces ``max_evals``: it raises
    :class:`_CapSpent` in place of scoring past the cap.
    """

    def __init__(self, ctx: _RunContext):
        self.ctx = ctx
        self.own_best: Optional[float] = None
        self.log: list[tuple[float, float]] = []

    def score(self, e: Expr) -> MseBreakdown:
        ctx = self.ctx
        if not ctx.shared.claim(ctx.config.max_evals):
            raise _CapSpent
        consts: tuple[float, ...] = ()
        if e.n_slots:
            consts = fit_constants(e, ctx.case, ctx.data, ctx.shared, ctx.config)
        breakdown = objective(e, ctx.case, ctx.data, consts, ctx.config.objective)
        ctx.shared.offer(e.key, e, consts, breakdown)
        if self.own_best is None or breakdown.total < self.own_best:
            self.own_best = breakdown.total
            self.log.append((time.monotonic() - ctx.start, breakdown.total))
        target = ctx.config.stop_below
        if target is not None and breakdown.total <= target:
            ctx.shared.stop.set()
        return breakdown


def _random_expr(rng: random.Random, ctx: _RunContext) -> Expr:
    return sample_complete(rng, ctx.config.notation, ctx.config.depth, ctx.alphabet)


def _mutate_span(rng: random.Random, e: Expr, budget: int, alphabet: Alphabet) -> Expr:
    """Replace one complete token span with a fresh random subexpression that
    fits the remaining depth allowance at that position."""
    tokens = e.tokens
    idx = rng.randrange(len(tokens))
    start, end = span_at(tokens, idx, e.notation)
    allowed = budget - token_path_depths(tokens, e.notation)[idx]
    repl = sample_complete(rng, e.notation, rng.randint(0, max(allowed, 0)), alphabet)
    return make_expr(tokens[:start] + repl.tokens + tokens[end:], e.notation, budget)


# ---------------------------------------------------------------------------
# algorithms (one worker instance each)


def _run_rs(rng, ctx: _RunContext, scorer: _Scorer) -> None:
    while ctx.keep_going():
        scorer.score(_random_expr(rng, ctx))


def _run_mcts(rng, ctx: _RunContext, scorer: _Scorer) -> None:
    cfg = ctx.config
    shared = ctx.shared
    concurrent = cfg.algorithm == "cmcts"
    if concurrent:
        stats = (shared.visits, shared.action_visits, shared.action_value)
    else:
        stats = ({}, {}, {})
    visits, action_visits, action_value = stats
    stall_iters = MCTS_STALL_ITERS[cfg.algorithm]
    c = UCT_C
    stall = 0
    last_best = math.inf
    while ctx.keep_going():
        partial: list[Token] = []
        state_key = ""
        path: list[tuple[str, str]] = []
        while legal := legal_tokens(partial, cfg.notation, cfg.depth, ctx.alphabet):
            tok, expand = select_action(state_key, legal, *stats, c, rng if concurrent else None)
            path.append((state_key, tok.text))
            partial.append(tok)
            if expand:
                break
            state_key = tok.text if not state_key else f"{state_key} {tok.text}"
        expr = sample_complete(rng, cfg.notation, cfg.depth, ctx.alphabet, partial)
        breakdown = scorer.score(expr)
        reward = 1.0 / (1.0 + breakdown.total)
        for skey, atext in path:
            visits[skey] = visits.get(skey, 0) + 1
            action_visits[(skey, atext)] = action_visits.get((skey, atext), 0) + 1
            action_value[(skey, atext)] = action_value.get((skey, atext), 0.0) + reward
        best_now = shared.best_total
        if best_now < last_best:
            last_best = best_now
            c = UCT_C
            stall = 0
        else:
            stall += 1
            if stall >= stall_iters:
                c += UCT_C
                stall = 0


def _decode_particle(vector: Sequence[float], ctx: _RunContext) -> Expr:
    cfg = ctx.config
    dim = len(vector)
    toks: list[Token] = []
    j = 0
    while True:
        legal = legal_tokens(toks, cfg.notation, cfg.depth, ctx.alphabet)
        if not legal:
            return make_expr(toks, cfg.notation, cfg.depth)
        toks.append(legal[int(abs(vector[j % dim])) % len(legal)])
        j += 1


def _run_pso(rng, ctx: _RunContext, scorer: _Scorer) -> None:
    swarm = Swarm(min(2 ** (ctx.config.depth + 1) - 1, PSO_DIM_CAP), PSO_SWARM, rng)

    def score(vector: Sequence[float]) -> float:
        return scorer.score(_decode_particle(vector, ctx)).total

    while ctx.keep_going():
        swarm.step(score)


def _crossover(rng: random.Random, a: Expr, b: Expr, budget: int) -> tuple[Expr, Expr]:
    """Swap one span of ``a`` with one of ``b``, keeping both within ``budget``."""
    pd_a = token_path_depths(a.tokens, a.notation)
    pd_b = token_path_depths(b.tokens, b.notation)
    for _ in range(GP_PAIR_RETRIES):
        ia = rng.randrange(len(a.tokens))
        ib = rng.randrange(len(b.tokens))
        sa = span_at(a.tokens, ia, a.notation)
        sb = span_at(b.tokens, ib, b.notation)
        da = sequence_depth(a.tokens[sa[0]:sa[1]], a.notation)
        db = sequence_depth(b.tokens[sb[0]:sb[1]], b.notation)
        if pd_a[ia] + db <= budget and pd_b[ib] + da <= budget:
            break
    else:
        # a leaf-for-leaf swap always fits the budget
        ia = rng.choice([i for i, t in enumerate(a.tokens) if t.arity == 0])
        ib = rng.choice([i for i, t in enumerate(b.tokens) if t.arity == 0])
        sa = span_at(a.tokens, ia, a.notation)
        sb = span_at(b.tokens, ib, b.notation)
    child_a = make_expr(
        a.tokens[:sa[0]] + b.tokens[sb[0]:sb[1]] + a.tokens[sa[1]:], a.notation, budget)
    child_b = make_expr(
        b.tokens[:sb[0]] + a.tokens[sa[0]:sa[1]] + b.tokens[sb[1]:], b.notation, budget)
    return child_a, child_b


def _run_gp(rng, ctx: _RunContext, scorer: _Scorer) -> None:
    budget = ctx.config.depth

    population: list[tuple[float, int, Expr]] = []
    counter = 0
    for _ in range(GP_POPULATION):
        if not ctx.keep_going():
            return
        e = _random_expr(rng, ctx)
        population.append((scorer.score(e).total, counter, e))
        counter += 1
    while ctx.keep_going():
        children: list[Expr] = []
        while len(children) < GP_CHILDREN and ctx.keep_going():
            if rng.random() < GP_CROSSOVER_PROB:
                _, _, pa = population[rng.randrange(len(population))]
                _, _, pb = population[rng.randrange(len(population))]
                children.extend(_crossover(rng, pa, pb, budget))
            else:
                _, _, parent = population[rng.randrange(len(population))]
                children.append(_mutate_span(rng, parent, budget, ctx.alphabet))
        for child in children:
            if not ctx.keep_going():
                return
            population.append((scorer.score(child).total, counter, child))
            counter += 1
        population.sort(key=lambda item: (item[0], item[1]))
        del population[GP_POPULATION:]


def _run_sa(rng, ctx: _RunContext, scorer: _Scorer) -> None:
    cfg = ctx.config
    if cfg.seed_expr is not None:
        budget = max(cfg.depth, cfg.seed_expr.depth)
        current = cfg.seed_expr
    else:
        budget = cfg.depth
        current = _random_expr(rng, ctx)
    current_f = scorer.score(current).total
    temp = SA_TEMP_INITIAL
    stall = 0
    while ctx.keep_going():
        neighbor = _mutate_span(rng, current, budget, ctx.alphabet)
        f = scorer.score(neighbor).total
        delta = f - current_f
        if math.isnan(delta):
            accept = False
        elif delta < 0:
            accept = True
        else:
            accept = rng.random() < math.exp(-delta / temp)
        if accept:
            current, current_f = neighbor, f
            stall = 0
        else:
            stall += 1
            if stall >= SA_STALL_REHEAT:
                temp = SA_TEMP_INITIAL
                stall = 0
        temp = max(temp * SA_COOLING, SA_TEMP_FLOOR)


# ---------------------------------------------------------------------------


_ALGORITHM_LOOPS = {
    "rs": _run_rs,
    "mcts": _run_mcts,
    "cmcts": _run_mcts,
    "pso": _run_pso,
    "gp": _run_gp,
    "sa": _run_sa,
}
ALGORITHMS = tuple(_ALGORITHM_LOOPS)


def _worker(ctx: _RunContext, index: int, logs: list, errors: list) -> None:
    rng = random.Random(_mix(ctx.config.seed, index))
    scorer = _Scorer(ctx)
    try:
        _ALGORITHM_LOOPS[ctx.config.algorithm](rng, ctx, scorer)
    except _CapSpent:
        pass
    except Exception as err:  # ends the run; run_search re-raises it
        errors.append(err)
        ctx.shared.stop.set()
    logs[index] = scorer.log


def run_search(config: SearchConfig, case: PdeCase, data: Dataset) -> SearchResult:
    """Run the configured search; returns the best expression found in budget.
    An exception in any worker stops the others and is raised here."""
    alphabet = case_alphabet(case, config.token_mode)
    shared = SharedState()
    start = time.monotonic()
    ctx = _RunContext(config, case, data, alphabet, shared, start)
    logs: list = [[] for _ in range(config.threads)]
    errors: list[Exception] = []
    if config.threads == 1:
        _worker(ctx, 0, logs, errors)
    else:
        threads = [
            threading.Thread(target=_worker, args=(ctx, i, logs, errors), daemon=True)
            for i in range(config.threads)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    if errors:
        raise errors[0]
    elapsed = time.monotonic() - start
    best, _, evaluations = shared.snapshot_best()
    improvements = tuple(sorted(entry for log in logs for entry in log))
    if best is None:
        return SearchResult(None, None, None, (), elapsed, evaluations, config,
                            improvements)
    _, expr, consts, breakdown = best
    return SearchResult(
        expr=expr,
        simplified=simplify(expr),
        breakdown=breakdown,
        consts=consts,
        elapsed=elapsed,
        evaluations=evaluations,
        config=config,
        improvements=improvements,
    )
