"""The traced benchmark wraps padesr functions by module path and name
(``bench/run.py``, ``Traffic``).  A rename or a call that bypasses one of
those module globals would leave its layer silently empty; this test runs a
small search under the benchmark's own hooks and checks every scoring layer
recorded spans, and that closing the hooks restores the originals."""

import importlib
import importlib.util
import sys
from pathlib import Path

import padesr
import padesr.cli
from padesr.expr import Notation, parse
from padesr.search import SearchConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    return run, spans


def traced_search(monkeypatch, case1, token_mode, max_evals, threads):
    """Summary of an ``rs`` search run under the benchmark's hooks."""
    run, spans = load_bench(monkeypatch)
    case, data = case1
    wrapped = {
        (padesr.search, "objective"): padesr.search.objective,
        (padesr.search, "fit_constants"): padesr.search.fit_constants,
        (padesr.pde, "differentiate"): padesr.pde.differentiate,
        (padesr.pde, "eval_grid"): padesr.pde.eval_grid,
        (padesr.search.SharedState, "offer"): padesr.search.SharedState.offer,
        (padesr.search.SharedState, "cache_get"): padesr.search.SharedState.cache_get,
    }
    tracer = spans.Tracer()
    traffic = run.Traffic(padesr, tracer)
    try:
        config = SearchConfig(algorithm="rs", depth=3, notation=Notation.POSTFIX,
                              token_mode=token_mode, threads=threads, time_budget=60.0,
                              seed=1, max_evals=max_evals)
        result = padesr.search.run_search(config, case, data)
    finally:
        traffic.close()
    assert result.evaluations == max_evals
    for (owner, attr), original in wrapped.items():
        assert getattr(owner, attr) is original, attr
    summary = tracer.summary()
    assert summary.calls("search.offer") == max_evals
    return summary


def test_traffic_spans_every_scoring_layer(monkeypatch, case1):
    for threads in (1, 2):  # 2 workers score one after another
        summary = traced_search(monkeypatch, case1, "vars+const", 5, threads)
        for name in ("pde.objective", "symdiff.differentiate", "evaluate.eval_grid",
                     "search.offer"):
            assert summary.calls(name) > 0, (name, threads)


def test_traffic_spans_constant_fitting(monkeypatch, case1):
    for threads in (1, 2):
        summary = traced_search(monkeypatch, case1, "vars+const+opt", 20, threads)
        for name in ("search.fit_constants", "search.cache_get", "symdiff.differentiate"):
            assert summary.calls(name) > 0, (name, threads)


def test_gate_rejections_attributed_in_order(monkeypatch, case1, alpha1):
    # the benchmark names the missed variable from how many grids the gate
    # evaluated, so the gate must test x, y, t in that order; it books a
    # rejection that evaluated no grid at t
    run, spans = load_bench(monkeypatch)
    case, data = case1

    def booked(text):
        """The variables booked for rejecting ``text``, and its eval_grid calls."""
        tracer = spans.Tracer()
        traffic = run.Traffic(padesr, tracer)
        try:
            e = parse(text, Notation.PREFIX, alpha1)
            assert padesr.search.objective(e, case, data).gate_rejected, text
        finally:
            traffic.close()
        summary = tracer.summary()
        counts = summary.counts
        return ([v for v in "xyt" if counts.get(f"pde.gate_reject.{v}")],
                summary.calls("evaluate.eval_grid"))

    for text, missed in (("+ y t", "x"), ("+ x t", "y"), ("+ x y", "t")):
        assert booked(text)[0] == [missed], text
    # without a t leaf: a nonzero dT/dx rejects before any grid, a literal-0
    # dT/dx at x as before; with one, a literal-0 dT/dt rejects after the walk
    for text, missed, grids in (("* x y", "t", 0), ("* y 2", "x", 1),
                                ("+ + x * x y * t 0", "t", 3)):
        assert booked(text) == ([missed], grids), text
