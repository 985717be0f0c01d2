"""Six fixed-depth expression-search algorithms, run by one or more workers.

Every worker runs an independent instance of the configured algorithm with a
derived seed.  A run's workers run one after another on the calling thread,
each with a fixed share of the evaluation cap and of the time budget, so a
run with a cap repeats bit for bit at any worker count; all workers share
one :class:`SharedState` holding the best-so-far result and the
fitted-constant cache.  The PSO search and the constant fit drive a swarm
pass the same way: the search scores one particle at a time, and the fit
scores a pass in batched chunks, stops taking them at a particle that
improves the global best and moves again only the particles after it, so
both end where scoring one particle at a time ends.  A worker's scoring call
is the one place a run stops, so the algorithm loops never test for the end
of the run: on a stop request, a passed deadline or a spent share of the
cap, the next candidate is not scored and the worker ends.  The concurrent
variant of MCTS additionally shares its visit/score statistics, so a later
worker starts from what the earlier ones learnt, and breaks ties among
unvisited actions at random so workers fan out over different branches.
"""

from __future__ import annotations

import itertools
import math
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .evaluate import Dataset
from .expr import (
    Alphabet,
    Expr,
    Grammar,
    Notation,
    Token,
    legal_tokens,  # unused here; bench/run.py traces search.legal_tokens by name
    make_expr,
    sample_complete,
    sequence_depth,
    span_at,
    token_path_depths,
)
from .pde import (
    BATCH_ELEMENTS,
    TOKEN_MODES,
    MseBreakdown,
    ObjectiveConfig,
    PdeCase,
    ScoringPlan,
    case_alphabet,
    objective,
)


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
    """One search.  ``threads`` is the worker count: :func:`run_search`
    runs the workers one after another, each with a fixed share of
    ``max_evals`` and of ``time_budget``."""

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
    """State the workers of one run hand on to each other.

    The best-so-far is replaced only by a strictly lower total, so its MSE
    is monotone non-increasing.  The constant cache maps an expression key
    to its fitted constants, which the key alone decides.  The
    concurrent-MCTS statistics are two maps, N(s,a) and Q(s,a); N(s) is
    derived from N(s,a), so no third map can disagree with them.  ``stop``
    is set once a candidate reaches ``stop_below``, and no worker scores
    after it.
    """

    def __init__(self) -> None:
        self.best_total = math.inf
        self.best: Optional[tuple[str, Expr, tuple[float, ...], MseBreakdown]] = None
        self.const_cache: dict[str, tuple[float, ...]] = {}
        self.stop = False
        # concurrent-MCTS maps: N(s,a), Q(s,a)
        self.action_visits: dict[tuple[str, str], int] = {}
        self.action_value: dict[tuple[str, str], float] = {}

    def offer(
        self,
        key: str,
        expr: Expr,
        consts: tuple[float, ...],
        breakdown: MseBreakdown,
    ) -> bool:
        if self.best is None or breakdown.total < self.best_total:
            self.best_total = breakdown.total
            self.best = (key, expr, consts, breakdown)
            return True
        return False

    def cache_get(self, key: str):
        return self.const_cache.get(key)

    def cache_put(self, key: str, consts: tuple[float, ...]) -> None:
        self.const_cache[key] = consts


class Swarm:
    """Particle swarm with the global best updated after every particle.

    Positions are drawn at construction.  Each :meth:`sweep` is one pass
    that scores every particle in turn: in the first pass where it was
    drawn, afterwards after one velocity update against the current gbest.
    """

    def __init__(self, dim: int, size: int, rng: random.Random):
        self.rng = rng
        # random.uniform(lo, hi) is lo + (hi - lo) * random(): the same
        # operands in the same order give the same floats, without a call
        # per coordinate
        lo, span, draw = -PSO_INIT_RANGE, PSO_INIT_RANGE - -PSO_INIT_RANGE, rng.random
        self.pos = [[lo + span * draw() for _ in range(dim)] for _ in range(size)]
        self.vel = [[0.0] * dim for _ in range(size)]
        self.pbest = [list(p) for p in self.pos]
        self.pbest_f = [math.inf] * size
        self.gbest, self.gbest_f = list(self.pos[0]), math.inf
        self.steps = 0

    def _draws(self) -> list[tuple[float, float]]:
        """One particle's random factors, (r1, r2) per component."""
        rng = self.rng
        return [(rng.random(), rng.random()) for _ in self.gbest]

    def _moved(self, i: int, draws) -> tuple[list[float], list[float]]:
        """Particle ``i``'s next (position, velocity) under the current gbest."""
        p, v, pb, g = self.pos[i], self.vel[i], self.pbest[i], self.gbest
        vel = [
            PSO_INERTIA * v[j]
            + PSO_COGNITIVE * r1 * (pb[j] - p[j])
            + PSO_SOCIAL * r2 * (g[j] - p[j])
            for j, (r1, r2) in enumerate(draws)
        ]
        return [p[j] + vel[j] for j in range(len(p))], vel

    def _commit(self, i: int, f: float) -> bool:
        """Record particle ``i``'s score; True when it improved gbest."""
        self.steps += 1
        if f < self.pbest_f[i]:
            self.pbest[i] = list(self.pos[i])
            self.pbest_f[i] = f
            if f < self.gbest_f:
                self.gbest, self.gbest_f = list(self.pos[i]), f
                return True
        return False

    def sweep(self, fn: Callable[[Iterator[list[float]]], Iterable[float]]) -> None:
        """One pass over every particle, from the first.

        ``fn`` takes the rest of the pass as an iterator of positions, each
        particle moved when it is taken, and returns their scores in order:
        a list scores them all at once, a generator one at a time.  Scores
        are recorded in particle order up to the first that improves gbest;
        the particles after it are handed to ``fn`` again, moved against the
        new gbest.  A pass's random draws depend on no score, so they are
        drawn first.
        """
        size = len(self.pos)
        moving = self.steps >= size
        draws = [self._draws() for _ in range(size)] if moving else None
        moved = list(zip(self.pos, self.vel))  # (position, velocity) as last taken

        def rest(start: int) -> Iterator[list[float]]:
            for j in range(start, size):
                if moving:
                    moved[j] = self._moved(j, draws[j])
                yield moved[j][0]

        i = 0
        while i < size:
            for j, f in zip(range(i, size), fn(rest(i))):
                self.pos[j], self.vel[j] = moved[j]
                i = j + 1
                if self._commit(j, f) and moving:
                    break


def pso_minimize(
    fn: Callable[[Iterator[list[float]]], Iterable[float]],
    dim: int,
    rng: random.Random,
) -> tuple[list[float], float]:
    """Particle-swarm minimization of a black-box function: one scoring pass
    over the drawn swarm, then ``CONST_FIT_ITERATIONS`` passes of updates.
    ``fn`` scores the rest of a pass, as :meth:`Swarm.sweep` hands it."""
    s = Swarm(dim, CONST_FIT_SWARM, rng)
    for _ in range(CONST_FIT_ITERATIONS + 1):
        s.sweep(fn)
    return s.gbest, s.gbest_f


def fit_constants(
    e: Expr,
    case: PdeCase,
    data: Dataset,
    shared: SharedState,
    config: SearchConfig,
    plan: Optional[ScoringPlan] = None,
) -> tuple[float, ...]:
    """Fit the learnable-constant slots of ``e`` by a short PSO run.

    The swarm's positions are scored against one plan in chunks of
    ``max(1, BATCH_ELEMENTS // data.n)``, one batch of
    :meth:`~padesr.pde.ScoringPlan.totals` each, and no more chunks are
    taken once a particle improves the global best.  The plan is ``plan``
    when given (a plan of ``e`` under ``config.objective``), so ``e`` is
    differentiated once per fit, and once in all when the caller scores the
    fitted vector against the same plan.  When the derivatives of ``e`` show that
    the gate rejects it whatever its constants are (see
    :meth:`~padesr.pde.ScoringPlan.rejects_every_vector`), no particle can
    score finite and the fit returns the first drawn position unscored, as
    the full run would.  Results are cached in the shared state under the
    expression key; the fit seed is derived from the key so every worker
    computes the same vector.
    """
    if e.n_slots == 0:
        return ()
    key = e.key
    cached = shared.cache_get(key)
    if cached is not None:
        return cached
    rng = random.Random(_mix(config.seed, _key_salt(key)))
    if plan is None:
        plan = ScoringPlan(e, config.objective)
    if plan.rejects_every_vector():
        best = Swarm(e.n_slots, CONST_FIT_SWARM, rng).gbest
    else:
        step = max(1, BATCH_ELEMENTS // data.n)  # the batch ``totals`` scores at once

        def scores(rest: Iterator[list[float]]) -> Iterator[float]:
            while chunk := list(itertools.islice(rest, step)):
                yield from plan.totals(case, data, chunk).tolist()

        best, _ = pso_minimize(scores, e.n_slots, rng)
    consts = tuple(best)
    shared.cache_put(key, consts)
    return consts


def select_action(
    state_key: str,
    legal: Sequence[Token],
    action_visits: dict[tuple[str, str], int],
    action_value: dict[tuple[str, str], float],
    c: float,
    rng: Optional[random.Random] = None,
) -> tuple[Token, bool]:
    """UCT selection; returns the action and whether it was unvisited.

    Unvisited actions come first: the first one in ``legal`` order, or, when
    ``rng`` is given (concurrent MCTS) and several remain, a uniform random
    one.  Otherwise the UCT argmax, ties going to the lowest index; N(s) is
    the sum of N(s,a) over ``legal``, as every pass through s takes one.
    """
    unvisited = [tok for tok in legal if action_visits.get((state_key, tok.text), 0) == 0]
    if unvisited:
        if rng is None or len(unvisited) == 1:
            return unvisited[0], True
        return unvisited[rng.randrange(len(unvisited))], True
    n_state = sum(action_visits[(state_key, tok.text)] for tok in legal)
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
# one worker of a run


class _Stop(Exception):
    """Ends the worker that raised it: the run is stopped, out of time or at its cap."""


class _Worker:
    """Worker ``index`` of a run: the run's inputs, the shared state, its own
    random stream, its share of the cap and the budget and its improvement log.

    Of ``n = config.threads`` workers, it scores at most ``share``
    candidates, ``max_evals // n`` plus one when ``index < max_evals % n``
    (None without a cap), and none at or past ``deadline``, ``start +
    time_budget * (index + 1) / n``.  :meth:`score` is the one stop check; an
    algorithm loop runs until it raises :class:`_Stop`.
    """

    def __init__(self, config: SearchConfig, case: PdeCase, data: Dataset,
                 alphabet: Alphabet, shared: SharedState, start: float, index: int):
        self.config = config
        self.case = case
        self.data = data
        self.alphabet = alphabet
        self.shared = shared
        self.start = start
        n, cap = config.threads, config.max_evals
        self.deadline = start + config.time_budget * (index + 1) / n
        self.share = None if cap is None else cap // n + (index < cap % n)
        self.evaluations = 0
        self.rng = random.Random(_mix(config.seed, index))
        self.log: list[tuple[float, float]] = []  # (seconds, total) per own improvement

    def score(self, e: Expr) -> MseBreakdown:
        """Count one evaluation and score ``e``; raises :class:`_Stop` in place
        of scoring once the run is stopped, the deadline has passed or the
        worker's share is scored.  A fit and the score of its vector share one
        :class:`~padesr.pde.ScoringPlan`, so ``e`` is differentiated once."""
        cfg, shared = self.config, self.shared
        if shared.stop or time.monotonic() >= self.deadline or self.evaluations == self.share:
            raise _Stop
        self.evaluations += 1
        plan = ScoringPlan(e, cfg.objective)
        consts: tuple[float, ...] = ()
        if e.n_slots:
            consts = fit_constants(e, self.case, self.data, shared, cfg, plan)
        breakdown = objective(e, self.case, self.data, consts, cfg.objective, plan)
        shared.offer(e.key, e, consts, breakdown)
        if not self.log or breakdown.total < self.log[-1][1]:
            self.log.append((time.monotonic() - self.start, breakdown.total))
        if cfg.stop_below is not None and breakdown.total <= cfg.stop_below:
            shared.stop = True
        return breakdown

    def random_expr(self) -> Expr:
        return sample_complete(self.rng, self.config.notation, self.config.depth,
                               self.alphabet)

    def run(self) -> None:
        try:
            _ALGORITHM_LOOPS[self.config.algorithm](self)
        except _Stop:
            pass


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


def _run_rs(w: _Worker) -> None:
    while True:
        w.score(w.random_expr())


def _run_mcts(w: _Worker) -> None:
    cfg, shared, alphabet = w.config, w.shared, w.alphabet
    concurrent = cfg.algorithm == "cmcts"
    if concurrent:
        stats = (shared.action_visits, shared.action_value)
    else:
        stats = ({}, {})
    action_visits, action_value = stats
    stall_iters = MCTS_STALL_ITERS[cfg.algorithm]
    c = UCT_C
    stall = 0
    last_best = math.inf
    while True:
        g = Grammar(cfg.notation, cfg.depth, alphabet)
        state_key = ""
        path: list[tuple[str, str]] = []
        while legal := g.legal():
            tok, expand = select_action(state_key, legal, *stats, c,
                                        w.rng if concurrent else None)
            path.append((state_key, tok.text))
            g.push(tok)
            if expand:
                break
            state_key = tok.text if not state_key else f"{state_key} {tok.text}"
        expr = sample_complete(w.rng, cfg.notation, cfg.depth, alphabet, g.tokens)
        breakdown = w.score(expr)
        reward = 1.0 / (1.0 + breakdown.total)
        for skey, atext in path:
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


def _decode_particle(vector: Sequence[float], w: _Worker) -> Expr:
    cfg = w.config
    dim = len(vector)
    g = Grammar(cfg.notation, cfg.depth, w.alphabet)
    j = 0
    while legal := g.legal():
        g.push(legal[int(abs(vector[j % dim])) % len(legal)])
        j += 1
    return g.expr()


def _run_pso(w: _Worker) -> None:
    swarm = Swarm(min(2 ** (w.config.depth + 1) - 1, PSO_DIM_CAP), PSO_SWARM, w.rng)

    def score(rest: Iterator[list[float]]) -> Iterator[float]:
        return (w.score(_decode_particle(vector, w)).total for vector in rest)

    while True:
        swarm.sweep(score)


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


def _run_gp(w: _Worker) -> None:
    rng, budget = w.rng, w.config.depth
    population: list[tuple[float, Expr]] = []
    for _ in range(GP_POPULATION):
        e = w.random_expr()
        population.append((w.score(e).total, e))
    while True:
        children: list[Expr] = []
        while len(children) < GP_CHILDREN:
            if rng.random() < GP_CROSSOVER_PROB:
                _, pa = population[rng.randrange(len(population))]
                _, pb = population[rng.randrange(len(population))]
                children.extend(_crossover(rng, pa, pb, budget))
            else:
                _, parent = population[rng.randrange(len(population))]
                children.append(_mutate_span(rng, parent, budget, w.alphabet))
        for child in children:
            population.append((w.score(child).total, child))
        # stable, so equal totals keep the order they were scored in
        population.sort(key=lambda item: item[0])
        del population[GP_POPULATION:]


def _run_sa(w: _Worker) -> None:
    cfg, rng = w.config, w.rng
    if cfg.seed_expr is not None:
        budget = max(cfg.depth, cfg.seed_expr.depth)
        current = cfg.seed_expr
    else:
        budget = cfg.depth
        current = w.random_expr()
    current_f = w.score(current).total
    temp = SA_TEMP_INITIAL
    stall = 0
    while True:
        neighbor = _mutate_span(rng, current, budget, w.alphabet)
        f = w.score(neighbor).total
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


def run_search(config: SearchConfig, case: PdeCase, data: Dataset) -> SearchResult:
    """Run the configured search; returns the best expression found in budget.

    Workers 0 to ``config.threads - 1`` run one after another on this
    thread, each to its share of the cap or its deadline (see
    :class:`_Worker`), so time a worker leaves unused passes to the next.  A
    worker with a share of 0 is not run, none runs once ``stop_below`` is
    reached, and an exception in a worker is raised here before the next
    one starts.  ``improvements`` holds every worker's log in time order.
    """
    alphabet = case_alphabet(case, config.token_mode)
    shared = SharedState()
    start = time.monotonic()
    workers = []
    for index in range(config.threads):
        worker = _Worker(config, case, data, alphabet, shared, start, index)
        if shared.stop or worker.share == 0:  # later shares are no larger
            break
        workers.append(worker)
        worker.run()
    elapsed = time.monotonic() - start
    evaluations = sum(w.evaluations for w in workers)
    improvements = tuple(entry for w in workers for entry in w.log)
    if shared.best is None:
        return SearchResult(None, None, (), elapsed, evaluations, config, improvements)
    _, expr, consts, breakdown = shared.best
    return SearchResult(
        expr=expr,
        breakdown=breakdown,
        consts=consts,
        elapsed=elapsed,
        evaluations=evaluations,
        config=config,
        improvements=improvements,
    )
