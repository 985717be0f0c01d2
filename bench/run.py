"""padesr benchmark: seeded, fixed-work searches through the public API.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (README.md says why each was chosen):

* ``sweep``: ``padesr sweep`` on case1, mesh 10^3, 1 worker, every
  algorithm x notation x token set at a few depths.
* ``fine-mesh``: ``run_search`` on case2, mesh 50^3, 1 worker, postfix,
  ``vars+const``, depth 4, every algorithm.
* ``two-workers``: ``run_search`` on case1, mesh 10^3, 2 workers, postfix,
  ``vars+const+opt``, depth 4, with rs, gp, sa and cmcts.

Every configuration is capped by ``max_evals`` and gets a time budget that
is never what stops it.  One round runs every configuration of the workload
once, seeded from ``--seed`` and the round's index; a run goes on with new
rounds until ``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds are
done.

Configurations differ a hundredfold in cost, and the cost of one depends on
how many of its candidates pass the gate or carry ``C`` slots, which the
seed decides.  A pooled candidates-per-second figure is set by the few
slowest configurations and, on ``sweep``, moved between seeds about twice
as much, so ``evals_per_s`` is the geometric mean over all configurations
run of each one's candidates per second.  The host's speed swings too, by up
to twice over a minute, so an untraced run times a fixed calibration chunk
(``calibrate.py``) before every search run and scales the rate to the speed
at which one chunk takes ``calibrate.REFERENCE_S``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
rounds, then the same rounds again traced with ``spans.Tracer``, and reports
the per-layer metrics; per-layer counts and times are per traced round.

Every search run is checked: it must not raise or come back empty, its best
total must equal the minimum over the worker logs, and a 1-worker run must
score exactly ``max_evals`` candidates and re-score its best bit for bit
through ``objective``.  A traced 1-worker round must repeat its untraced
twin bit for bit.  Each sweep CSV must hold the header plus one row per
configuration.  A run that fails a check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
from spans import LOOP_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"  # sweep CSVs; listed in .gitignore

ALGORITHMS = ("rs", "mcts", "cmcts", "pso", "gp", "sa")
TOKEN_MODES = ("vars", "vars+const", "vars+const+opt")
TIME_BUDGET = 3600.0  # seconds per configuration: the max_evals cap always stops first
MIN_ROUNDS = 3
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    case: str
    mesh: tuple[int, int, int]
    threads: int
    algos: tuple[str, ...]
    max_evals: int
    depths: tuple[int, ...]
    notations: tuple[str, ...] = ("postfix",)
    token_modes: tuple[str, ...] = ("vars+const",)
    replicas: int = 1  # differently seeded runs of each configuration
    sweep: bool = False

    @property
    def configs_per_round(self) -> int:
        return (len(self.algos) * len(self.depths) * len(self.notations)
                * len(self.token_modes) * self.replicas)


WORKLOADS = {
    # Small interpreted candidates: the cost sits in expr, symdiff,
    # fit_constants and the sweep loop, not in numpy arithmetic.
    "sweep": Workload(
        case="case1", mesh=(10, 10, 10), threads=1, algos=ALGORITHMS,
        max_evals=30, depths=(2, 5, 8), notations=("prefix", "postfix"),
        token_modes=TOKEN_MODES, sweep=True),
    # 125k points per grid: eval_grid dominates.  Postfix, because prefix
    # sampling stops after about 3 tokens at any depth.
    "fine-mesh": Workload(
        case="case2", mesh=(50, 50, 50), threads=1, algos=ALGORITHMS,
        max_evals=30, depths=(4,), replicas=4),
    # The only workload where SharedState is contended; constant fitting
    # makes most of the work.
    "two-workers": Workload(
        case="case1", mesh=(10, 10, 10), threads=2, algos=("rs", "gp", "sa", "cmcts"),
        max_evals=30, depths=(4,), token_modes=("vars+const+opt",), replicas=4),
}


def import_padesr():
    """Import padesr from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import padesr
        import padesr.cli
    except ImportError as err:
        sys.exit(f"bench: cannot import padesr from {SRC}: {err}")
    origin = Path(padesr.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"bench: padesr was imported from {origin}, not from {SRC}")
    return padesr


# ---------------------------------------------------------------------------
# rounds


@dataclass
class Run:
    """One search run: its inputs, its result or error, and its wall time."""

    config: object
    case: object
    data: object
    result: object = None
    error: str = ""
    wall: float = 0.0
    chunk: float = 0.0  # seconds of the calibration chunk run just before it; 0 when traced


@dataclass
class Round:
    runs: list[Run] = field(default_factory=list)
    wall: float = 0.0  # search wall time: run_search calls, or sweep commands, less chunks
    problems: list[str] = field(default_factory=list)  # failures outside single runs


def config_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0xFFFFFFFF


def search_round(pad, wl: Workload, case, data, seed: int, threads: int,
                 tracer: Tracer | None) -> Round:
    """Run every configuration once through ``run_search``."""
    rnd = Round()
    notation = pad.Notation(wl.notations[0])
    objective = pad.ObjectiveConfig(mesh=wl.mesh)
    for index in range(wl.replicas * len(wl.algos)):
        algo = wl.algos[index % len(wl.algos)]
        config = pad.SearchConfig(
            algorithm=algo, depth=wl.depths[0], notation=notation,
            token_mode=wl.token_modes[0], threads=threads, time_budget=TIME_BUDGET,
            seed=config_seed(seed, index), objective=objective, max_evals=wl.max_evals)
        run = Run(config, case, data)
        if tracer is None:
            run.chunk = calibrate.chunk()
        # on 2 workers the calling thread only waits, so it opens no span
        span = tracer.span(LOOP_SPAN) if tracer and threads == 1 else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span:
                run.result = pad.run_search(config, case, data)
        except Exception:  # counted as a failed run; the round goes on
            run.error = traceback.format_exc(limit=3)
        run.wall = perf_counter() - start
        rnd.wall += run.wall
        rnd.runs.append(run)
    return rnd


def sweep_round(pad, wl: Workload, seed: int, tracer: Tracer | None) -> Round:
    """Run ``padesr sweep`` once per depth, capturing each ``run_search``."""
    cli = pad.cli
    rnd = Round()
    inner = cli.run_search

    def capture(config, case, data):
        run = Run(config, case, data)
        rnd.runs.append(run)
        if tracer is None:
            run.chunk = calibrate.chunk()
        start = perf_counter()
        try:
            run.result = inner(config, case, data)
        except Exception:
            run.error = traceback.format_exc(limit=3)
            raise
        finally:
            run.wall = perf_counter() - start
        return run.result

    WORK.mkdir(exist_ok=True)
    cli.run_search = capture
    try:
        for depth in wl.depths:
            out = WORK / f"sweep-depth{depth}.csv"
            argv = [
                "sweep", "--case", wl.case, "--out", str(out),
                "--time-per-config", str(TIME_BUDGET), "--max-evals", str(wl.max_evals),
                "--algos", ",".join(wl.algos), "--depths", str(depth),
                "--notations", ",".join(wl.notations),
                "--token-sets", ",".join(wl.token_modes),
                "--threads", str(wl.threads), "--seed", str(seed),
                "--mesh", ",".join(map(str, wl.mesh)),
            ]
            before = len(rnd.runs)
            span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
            start = perf_counter()
            try:
                with span, contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except Exception:
                rnd.problems.append(f"sweep depth {depth} raised:\n{traceback.format_exc(limit=3)}")
                continue
            finally:
                rnd.wall += perf_counter() - start - sum(r.chunk for r in rnd.runs[before:])
            rows = out.read_text(encoding="utf-8").splitlines()
            configs = len(rnd.runs) - before
            expected = wl.configs_per_round // len(wl.depths)
            if (code != 0 or configs != expected or not rows or rows[0] != cli.SWEEP_HEADER
                    or len(rows) != 1 + expected):
                rnd.problems.append(f"sweep depth {depth}: exit {code}, {configs} configs run, "
                                    f"{len(rows)} CSV lines, {expected} configs expected")
    finally:
        cli.run_search = inner
    return rnd


def run_rounds(pad, wl: Workload, case, data, seed: int, threads: int, seconds: float,
               min_rounds: int, max_rounds: int | None = None,
               tracer: Tracer | None = None) -> list[Round]:
    """Rounds 0, 1, ... while another round of average length fits in ``seconds``.

    At least ``min_rounds`` and at most ``max_rounds`` rounds run.
    """
    rounds: list[Round] = []
    start = perf_counter()
    while len(rounds) < min_rounds or (
            len(rounds) != max_rounds
            and (perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds):
        round_seed = config_seed(seed, len(rounds))
        if wl.sweep:
            rounds.append(sweep_round(pad, wl, round_seed, tracer))
        else:
            rounds.append(search_round(pad, wl, case, data, round_seed, threads, tracer))
    return rounds


# ---------------------------------------------------------------------------
# output checks


def check_run(pad, run: Run, wl: Workload, one_worker: bool) -> str:
    """Empty when the run passes every output check, else the reason."""
    if run.error:
        return run.error
    result = run.result
    if result.empty:
        return "empty result"
    logged = [mse for _, mse in result.improvements]
    if not logged or result.breakdown.total != min(logged):
        return f"best total {result.breakdown.total!r} is not the minimum over the worker logs"
    if one_worker:
        if result.evaluations != wl.max_evals:
            return f"scored {result.evaluations} candidates under a cap of {wl.max_evals}"
        again = pad.objective(result.expr, run.case, run.data, result.consts,
                              run.config.objective)
        if again != result.breakdown:
            return f"best {result.expr.key} does not re-score bit for bit"
    return ""


def signature(run: Run):
    r = run.result
    return None if r is None or r.empty else (r.expr.key, r.consts, r.breakdown, r.evaluations)


def check_rounds(pad, wl: Workload, rounds: list[Round], threads: int,
                 twins: list[Round] = ()) -> tuple[int, int, list[str]]:
    """Attempted runs, failed runs and the reasons for the failures.

    ``twins`` are untraced rounds with the same seeds; a 1-worker round must
    repeat its twin bit for bit.  A sweep that fails as a whole fails every
    configuration of the round.
    """
    attempted = failed = 0
    reasons: list[str] = []
    for index, rnd in enumerate(rounds):
        if rnd.problems:
            attempted += max(len(rnd.runs), wl.configs_per_round)
            failed += max(len(rnd.runs), wl.configs_per_round)
            reasons += rnd.problems
            continue
        twin = twins[index].runs if threads == 1 and index < len(twins) else None
        for i, run in enumerate(rnd.runs):
            attempted += 1
            reason = check_run(pad, run, wl, threads == 1)
            if not reason and twin is not None and signature(run) != signature(twin[i]):
                reason = f"{run.config.algorithm} run differs from its untraced twin"
            if reason:
                failed += 1
                reasons.append(reason)
    return attempted, failed, reasons


def results_digest(rounds: list[Round]) -> str:
    """Hash of every run's best key, constants, breakdown and evaluation count."""
    text = repr([signature(run) for rnd in rounds for run in rnd.runs])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# end-to-end metrics


def config_rates(rounds: list[Round], algo: str | None = None) -> list[float]:
    """Candidates per second of search wall time, one value per run."""
    return [run.result.evaluations / run.wall
            for rnd in rounds for run in rnd.runs
            if run.result is not None and algo in (None, run.config.algorithm)]


def geo_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def speed_factor(rounds: list[Round]) -> float:
    """How much slower than the reference the machine ran during ``rounds``."""
    return calibrate.speed_factor([run.chunk for rnd in rounds for run in rnd.runs if run.chunk])


def evals_per_s(rounds: list[Round], algo: str | None = None) -> float:
    """Geometric mean of the runs' candidates per second, at the reference speed."""
    return geo_mean(config_rates(rounds, algo)) * speed_factor(rounds)


def best_mse_log10(rounds: list[Round]) -> float:
    """log10 of the lowest mse_total any run of ``rounds`` found."""
    totals = [run.result.breakdown.total for rnd in rounds for run in rnd.runs
              if run.result is not None and not run.result.empty]
    best = min(totals, default=math.inf)
    if not math.isfinite(best):
        sys.exit("bench: no run of this workload found a finite candidate")
    return math.log10(best)


def inf_share(rounds: list[Round]) -> float:
    runs = [run for rnd in rounds for run in rnd.runs]
    bad = sum(1 for r in runs
              if r.result is None or r.result.empty or not math.isfinite(r.result.breakdown.total))
    return bad / len(runs)


SETUP_CODE = """\
import time
t0 = time.perf_counter()
import padesr
case, _ = padesr.build_case({case!r}, {mesh!r})
padesr.case_alphabet(case, {mode!r})
spent = time.perf_counter() - t0
import statistics, calibrate
calibrate.chunk()
print(spent, statistics.median(calibrate.chunk() for _ in range(5)))
"""


def measure_setup(wl: Workload) -> tuple[float, float]:
    """Median over fresh processes of import + build_case + case_alphabet.

    Returns the time scaled to the reference speed, as ``evals_per_s`` is,
    from calibration chunks run in the same process after the timed part,
    and the raw time.
    """
    code = SETUP_CODE.format(case=wl.case, mesh=wl.mesh, mode=wl.token_modes[-1])
    path = os.pathsep.join((str(SRC), str(Path(__file__).resolve().parent)))
    env = dict(os.environ, PYTHONPATH=path)
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        spent, chunk = map(float, done.stdout.split()[-2:])
        scaled.append(spent / calibrate.speed_factor([chunk]))
        raw.append(spent)
    return statistics.median(scaled), statistics.median(raw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ---------------------------------------------------------------------------
# per-layer tracing


class Traffic:
    """Installs the spans and the counting hooks for one traced phase."""

    def __init__(self, pad, tracer: Tracer):
        self.tracer = tracer
        self._lock = threading.Lock()
        self._seen: dict[object, set] = {}  # SharedState -> keys offered so far
        order_error = pad.DerivativeOrderError
        search, pde, expr, symdiff, cli = pad.search, pad.pde, pad.expr, pad.symdiff, pad.cli
        t = tracer

        def differentiate_exit(frame, args, result, error):
            if isinstance(error, order_error):
                t.count("symdiff.order_errors")

        def eval_grid_exit(frame, args, result, error):
            e, data = args[0], args[1]
            t.count("evaluate.points", data.n)
            t.count("evaluate.token_points", len(e.tokens) * data.n)
            outer = t.enclosing("pde.objective")
            if outer is not None and result is not None:
                outer.hook_state[0] += 1
                outer.hook_state[1] = result.fault

        def objective_enter(frame, args):
            frame.hook_state = [0, False]  # eval_grid calls so far, last fault flag

        def objective_exit(frame, args, result, error):
            if result is None:
                return
            spent = perf_counter() - frame.start
            if result.gate_rejected:
                t.count("pde.rejected_s", spent)
                if result.note:
                    t.count("pde.order_rejects")
                else:
                    # the gate tests x, y, t in order and stops at the first miss
                    grids, fault = frame.hook_state
                    t.count("pde.gate_rejects")
                    t.count(f"pde.gate_reject.{'xyt'[grids - 1]}")
                    if fault:
                        t.count("pde.gate_faults")
            elif not math.isfinite(result.total):
                t.count("pde.faults")

        def offer_enter(frame, args):
            shared, key, e = args[0], args[1], args[2]
            t.count("search.tokens", len(e.tokens))
            if e.n_slots:
                t.count("search.slot_candidates")
            with self._lock:
                seen = self._seen.setdefault(shared, set())
                duplicate = key in seen
                seen.add(key)
            if duplicate:
                t.count("search.duplicates")

        def cache_get_exit(frame, args, result, error):
            if result is not None:
                t.count("search.cache_hits")

        for owner in (expr, search):
            t.wrap(owner, "sample_complete", "expr.sample_complete")
            t.wrap(owner, "legal_tokens", "expr.legal_tokens")
        for owner in (expr, search, symdiff):
            t.wrap(owner, "make_expr", "expr.make_expr")
        t.wrap(pde, "differentiate", "symdiff.differentiate", on_exit=differentiate_exit)
        t.wrap(pde, "eval_grid", "evaluate.eval_grid", on_exit=eval_grid_exit)
        t.wrap(search, "objective", "pde.objective", objective_enter, objective_exit)
        t.wrap(search, "fit_constants", "search.fit_constants")
        t.wrap(search.SharedState, "offer", "search.offer", on_enter=offer_enter)
        t.wrap(search.SharedState, "cache_get", "search.cache_get", on_exit=cache_get_exit)
        t.wrap(cli, "run_search", LOOP_SPAN)

    def close(self) -> None:
        self.tracer.restore()
        self._seen.clear()


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_layer(s, rounds_traced: int, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced summary ``s``; counts and times per round."""
    n = rounds_traced
    c = s.counts.get
    offers = s.calls("search.offer")
    objective_calls = s.calls("pde.objective")
    gate = c("pde.gate_rejects", 0)
    eval_self = s.self_s("evaluate.eval_grid")
    token_points = c("evaluate.token_points", 0)
    durations = s.durations.get("pde.objective", [0.0])
    cache_gets = s.calls("search.cache_get")

    def share(part, whole):
        return part / whole if whole else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("expr.sample_complete", "expr.legal_tokens", "expr.make_expr",
                 "symdiff.differentiate", "evaluate.eval_grid", "pde.objective",
                 "search.fit_constants", "search.offer"):
        m[f"{name}.calls"] = (s.calls(name) / n, "count")
        m[f"{name}.self_s"] = (s.self_s(name) / n, "s")
    for layer in ("expr", "symdiff", "evaluate", "pde", "search", "cli"):
        m[f"{layer}.self_share"] = (share(s.layer_self_s(layer), s.busy_s), "share")
    m["expr.tokens_per_candidate"] = (share(c("search.tokens", 0), offers), "tokens")
    m["symdiff.calls_per_eval"] = (share(s.calls("symdiff.differentiate"), offers), "ratio")
    m["symdiff.order_errors"] = (c("symdiff.order_errors", 0) / n, "count")
    m["evaluate.eval_grid.points"] = (c("evaluate.points", 0) / n, "count")
    m["evaluate.token_points"] = (token_points / n, "count")
    m["evaluate.token_points_per_s"] = (share(token_points, eval_self), "1/s")
    m["pde.objective.p50_us"] = (statistics.median(durations) * 1e6, "us")
    m["pde.objective.p99_us"] = (quantile(durations, 0.99) * 1e6, "us")
    m["pde.objective.calls_per_eval"] = (share(objective_calls, offers), "ratio")
    m["pde.gate_reject_share"] = (share(gate, objective_calls), "share")
    for var in "xyt":
        m[f"pde.gate_reject.{var}"] = (c(f"pde.gate_reject.{var}", 0) / n, "count")
    m["pde.gate_fault_share"] = (share(c("pde.gate_faults", 0), gate), "share")
    m["pde.order_reject_share"] = (share(c("pde.order_rejects", 0), objective_calls), "share")
    m["pde.fault_share"] = (share(c("pde.faults", 0), objective_calls), "share")
    m["pde.rejected_time_share"] = (
        share(c("pde.rejected_s", 0), s.total_s("pde.objective")), "share")
    m["search.run_search.self_s"] = (s.self_s(LOOP_SPAN) / n, "s")
    m["search.fit_constants.busy_share"] = (
        share(s.total_s("search.fit_constants"), s.busy_s), "share")
    m["search.const_cache.hit_share"] = (share(c("search.cache_hits", 0), cache_gets), "share")
    m["search.duplicate_share"] = (share(c("search.duplicates", 0), offers), "share")
    m["search.const_slot_share"] = (share(c("search.slot_candidates", 0), offers), "share")
    m["cli.sweep.configs"] = (s.calls(LOOP_SPAN) / n if s.calls("cli.main") else 0.0, "count")
    m["cli.sweep.overhead_s"] = (s.self_s("cli.main") / n, "s")
    m.update(extra)
    return m


def algo_rates(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    """Per algorithm, the geometric mean of its runs' candidates per second."""
    return {f"search.{algo}.evals_per_s": (evals_per_s(rounds, algo), "1/s")
            for algo in ALGORITHMS}


# ---------------------------------------------------------------------------


def machine_block(pad) -> list[str]:
    import numpy

    def cache(name: int) -> str:
        # glibc's _SC_LEVEL2_CACHE_SIZE (191) and _SC_LEVEL3_CACHE_SIZE (194);
        # Python names them only on some builds
        try:
            size = os.sysconf(name)
        except (ValueError, OSError):
            return "unknown"
        return f"{size / 2**20:g} MiB" if size > 0 else "unknown"

    return [
        f"machine.nproc = {os.cpu_count()}",
        f"machine.python = {platform.python_version()}",
        f"machine.numpy = {numpy.__version__}",
        f"machine.l2_per_core = {cache(191)}",
        f"machine.l3 = {cache(194)}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    pad = import_padesr()

    setup_s, setup_raw = measure_setup(wl)
    case = data = None
    if not wl.sweep:
        case, data = pad.build_case(wl.case, wl.mesh)

    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        rounds = run_rounds(pad, wl, case, data, args.seed, wl.threads, args.seconds, MIN_ROUNDS)
        checks = [check_rounds(pad, wl, rounds, wl.threads)]
        digest_rounds = rounds[:MIN_ROUNDS] if wl.threads == 1 else []
        metrics["evals_per_s"] = (evals_per_s(rounds), "1/s")
        speed = speed_factor(rounds)
        raw = geo_mean(config_rates(rounds))
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    else:
        phases = 3 if wl.threads > 1 else 2
        slice_s = args.seconds / phases
        plain = run_rounds(pad, wl, case, data, args.seed, wl.threads, slice_s, 1)
        checks = [check_rounds(pad, wl, plain, wl.threads)]
        extra = algo_rates(plain)
        extra["search.max_evals_overshoot"] = (max(
            (run.result.evaluations - wl.max_evals
             for rnd in plain for run in rnd.runs if run.result is not None), default=0), "count")
        extra["search.best_inf_share"] = (inf_share(plain), "share")
        extra["search.best_mse_log10"] = (best_mse_log10(plain), "log10")
        speedup = 0.0  # 0 marks a workload that runs no second worker
        if wl.threads > 1:
            single = run_rounds(pad, wl, case, data, args.seed, 1, slice_s, 1, len(plain))
            checks.append(check_rounds(pad, wl, single, 1))
            speedup = evals_per_s(plain[:len(single)]) / evals_per_s(single)
        extra["search.speedup_2w"] = (speedup, "ratio")

        tracer = Tracer(keep_durations=("pde.objective",))
        traffic = Traffic(pad, tracer)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                traced = run_rounds(pad, wl, case, data, args.seed, wl.threads, slice_s, 1,
                                    len(plain), tracer)
        finally:
            traffic.close()
        checks.append(check_rounds(pad, wl, traced, wl.threads, plain))
        digest_rounds = []
        extra["pde.runtime_warnings"] = (
            sum(issubclass(w.category, RuntimeWarning) for w in caught) / len(traced), "count")
        extra["bench.trace_overhead_share"] = (
            sum(r.wall for r in traced) / sum(r.wall for r in plain[:len(traced)]) - 1.0,
            "share")
        metrics = per_layer(tracer.summary(), len(traced), extra)

    attempted = sum(a for a, _, _ in checks)
    failed = sum(f for _, f, _ in checks)
    for _, _, reasons in checks:
        for reason in reasons[:10]:
            print(f"bench: check failed: {reason}", file=sys.stderr)

    print(f"workload = {args.workload}  seed = {args.seed}  trace = {args.trace}  "
          f"runs = {attempted}")
    if digest_rounds:
        # the first rounds only, so that neither figure depends on the speed
        print(f"best_mse_log10 = {best_mse_log10(digest_rounds)!r} log10")
        print(f"results_digest = {results_digest(digest_rounds)}  "
              f"(best keys, constants, totals and counts of {len(digest_rounds)} rounds)")
    for line in machine_block(pad):
        print(line)
    if not args.trace:
        print(f"evals_per_s_raw = {raw!r} 1/s  (geometric mean, not scaled)")
        print(f"setup_s_raw = {setup_raw!r} s  (not scaled)")
        print(f"machine.speed_factor = {speed!r}  (calibration chunk time / "
              f"{calibrate.REFERENCE_S} s)")
    print(f"failed_share = {failed / attempted!r} share")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
