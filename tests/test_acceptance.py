"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or let the full suite pick
it up).

Criteria 3 and 8 check the paper's reported numbers.  Those are within reach
only when the initial-condition feature ``I`` is an input column with zero
derivatives (case 2's reported score then differs from this program's only by
the initial-condition term, see criterion 3), so both criteria score under
``ic_derivatives="data"``.  Every other criterion keeps the default
``"analytic"`` reading, where ``I`` differentiates into ``I_x``, ``I_xx``, ...
Criterion 3 prints its measured values under both readings before asserting.
Case 1's reported score is not reproduced under either reading: ``PAPER.md``
holds only the title and abstract, so whether case 1's setup or the
transcription of its expression differs cannot be settled here, and
criterion 3 stays red on case 1 alone.
"""

import math
import random
import time

import numpy as np

from fd_oracle import FdOracle
from padesr.cli import SWEEP_HEADER, main, parse_report
from padesr.evaluate import eval_grid
from padesr.expr import Notation, convert_notation, parse, sample_complete
from padesr.pde import ObjectiveConfig, build_case, objective
from padesr.search import SearchConfig, run_search
from padesr.symdiff import differentiate
from test_expr import enumerate_trees, expand_all

# reference expressions and their externally reported scores (10^3 mesh)
CASE1_BEST = "- ^ I ^ tanh I sqrt t * sech + I / t * 0.2 y sech + x + y ^ 2 I"
CASE1_BEST_TARGET = 3.79332e-3
CASE2_BEST = "+ I sech / + / 2 6.283185 + x y * 20 ^ t 2"
CASE2_BEST_TARGET = 1.17411e-2
# annealed forms (50^3 mesh, threshold 0); y_0 is a free token to bind
CASE1_ANNEALED = ("- ^ I ^ sech y_0 asin 0.1 * sech - - y x / sech 0.103287 "
                  "^ 0.1 I / / t sin sech 1.1 - t ^ 0.1 1.2")
CASE2_ANNEALED = "+ I sech / + acos 0.819757 + x y * * t 20.0 ^ 12.499170 2"


def banner(num, status, detail):
    print(f"[criterion {num:02d}] {status}: {detail}")


def test_criterion_01_fd_oracle(case1, alpha1):
    t0 = time.monotonic()
    case, data = case1
    oracle = FdOracle(case, data)
    rng = random.Random(101)
    checked = failures = 0
    worst = 0.0
    for notation in (Notation.PREFIX, Notation.POSTFIX):
        for _ in range(1000):
            e = sample_complete(rng, notation, 6, alpha1)
            for var in "xyt":
                n_ok, n_bad, excess = oracle.check(e, var)
                checked += n_ok
                failures += n_bad
                worst = max(worst, excess)
    elapsed = time.monotonic() - t0
    banner(1, "PASS" if failures == 0 else "FAIL",
           f"2000 expressions, {checked} fault-free points checked, "
           f"{failures} failures, {elapsed:.0f}s")
    assert failures == 0, f"{failures} points off (worst excess {worst:.3g})"
    assert elapsed < 120


def test_criterion_02_notation_equivalence(case1, alpha1):
    t0 = time.monotonic()
    _, data = case1
    rng = random.Random(202)
    for i in range(1000):
        notation = (Notation.PREFIX, Notation.POSTFIX)[i % 2]
        other = Notation.POSTFIX if notation is Notation.PREFIX else Notation.PREFIX
        e = sample_complete(rng, notation, 6, alpha1)
        for var in "xyt":
            a = eval_grid(convert_notation(differentiate(e, var), other), data).values
            b = eval_grid(differentiate(convert_notation(e, other), var), data).values
            both_nan = np.isnan(a) & np.isnan(b)
            assert np.allclose(a[~both_nan], b[~both_nan], rtol=0, atol=1e-12), e.text
    elapsed = time.monotonic() - t0
    banner(2, "PASS", f"1000 expressions, diff-then-convert == convert-then-diff, {elapsed:.0f}s")
    assert elapsed < 60


def _evaluate_cli(capsys, case_id, expr_text, mesh="10,10,10", threshold="0", binds=(),
                  ic_derivatives="analytic"):
    argv = ["evaluate", "--case", case_id, "--notation", "prefix",
            "--expr", expr_text, "--mesh", mesh, "--threshold", threshold,
            "--ic-derivatives", ic_derivatives]
    for pair in binds:
        argv += ["--bind", pair]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return parse_report(out)


def test_criterion_03_reference_expression_scores(capsys):
    results = {}
    for case_id, text, target in (
        ("case1", CASE1_BEST, CASE1_BEST_TARGET),
        ("case2", CASE2_BEST, CASE2_BEST_TARGET),
    ):
        scores = {}
        for mode in ("data", "analytic"):
            fields = _evaluate_cli(capsys, case_id, text, ic_derivatives=mode)
            assert fields["ic_derivatives"] == mode
            scores[mode] = float(fields["mse_total"])
        results[case_id] = (scores, target)
    detail = "; ".join(
        f"{cid}: data {s['data']:.6g} ({s['data'] / target - 1:+.1%}), "
        f"analytic {s['analytic']:.6g}, reported {target:.6g}"
        for cid, (s, target) in results.items()
    )
    misses = [cid for cid, (s, target) in results.items()
              if abs(s["data"] / target - 1) > 0.20]
    banner(3, "FAIL" if misses else "PASS", detail)
    assert not misses, (
        f"{detail}. Scored with I as a zero-derivative data column; outside "
        f"the 20% band: {', '.join(misses)}. "
        "Case 2: the program takes the initial-condition plane at t = t_lo "
        "= 0.1. The reported 0.0117411 needs that plane at t = 0, where "
        "sech(../(20 t^2)) relies on IEEE x/0 = inf; this program's fault "
        "rule turns x/0 into NaN and rejects, so its own figure is "
        "0.011963865 (+1.9%). "
        "Case 1: no variant tried reproduces 3.79332e-3. Under the data "
        "reading: the IC plane at t = 0 gives 0.0021846; kappa from 0 to 2 "
        "gives 0.00343 down to 0.00235 (case 1 has kappa = 1); meshes 20^3, "
        "50^3 and 100^3 give 0.00089, 0.00097 and 0.00078; moving the IC "
        "centre off x = 1.1 only raises it; adding periodic-y terms to the "
        "y walls gives 0.0036807, inside the band but no match. PAPER.md "
        "holds only the abstract, so whether case 1's setup or the "
        "transcription of its expression differs stays open."
    )


def test_criterion_04_annealed_expressions_documented(capsys):
    measured = {}
    for case_id, text in (("case1", CASE1_ANNEALED), ("case2", CASE2_ANNEALED)):
        case, _ = build_case(case_id, (2, 2, 2))
        bounds = case.bounds()
        candidates = {
            "y_min": bounds["y_min"],
            "y_max": bounds["y_max"],
            "y_center": case.ic.y_center,
        }
        for name, value in candidates.items():
            fields = _evaluate_cli(
                capsys, case_id, text, mesh="50,50,50", threshold="0",
                binds=(f"y_0={value}",),
            )
            measured[(case_id, name)] = float(fields["mse_total"])
    primary_ok = measured[("case1", "y_min")] <= 1e-3 and measured[("case2", "y_min")] <= 1e-3
    detail = "; ".join(f"{cid}/{name}={value:.6g}" for (cid, name), value in measured.items())
    if primary_ok:
        banner(4, "PASS", detail)
    else:
        banner(4, "DOCUMENTED (per criterion's downgrade clause)", detail)
    # the criterion requires the runs to complete and the values to be
    # documented; these run under the default analytic reading of I
    assert all(math.isfinite(v) for v in measured.values())
    assert len(measured) == 6


def test_criterion_05_trivial_solution_gate(case1, alpha1):
    case, data = case1
    one = parse("1", Notation.PREFIX, alpha1)
    t0 = time.monotonic()
    rejected = objective(one, case, data)  # default threshold 1/sqrt(2)
    passed = objective(one, case, data, config=ObjectiveConfig(threshold=0.0))
    inner = passed.interior
    elapsed = time.monotonic() - t0
    banner(5, "PASS",
           f"interior={inner}, objective(tau=1/sqrt2)={rejected.total}, "
           f"objective(tau=0)={passed.total:.6g}, {elapsed:.2f}s")
    assert inner == 0.0
    assert rejected.gate_rejected and rejected.total == math.inf
    assert not passed.gate_rejected and math.isfinite(passed.total)
    assert elapsed < 1.0


def test_criterion_06_composition_bit_exact(case1, alpha1):
    t0 = time.monotonic()
    case, data = case1
    cfg = ObjectiveConfig(threshold=0.0)
    rng = random.Random(606)
    checked = 0
    while checked < 100:
        e = sample_complete(rng, Notation.POSTFIX, 4, alpha1)
        bd = objective(e, case, data, config=cfg)
        if bd.gate_rejected:
            continue
        acc = bd.interior
        for term in bd.boundary:
            acc += term
        acc += bd.initial
        assert acc == bd.total, e.text
        checked += 1
    elapsed = time.monotonic() - t0
    banner(6, "PASS", f"100 gate-passing expressions, left-to-right sum bit-exact, {elapsed:.0f}s")
    assert elapsed < 60


def test_criterion_07_grammar_enumeration(tiny_alphabet):
    t0 = time.monotonic()
    counts = {}
    for budget in (0, 1, 2):
        trees = enumerate_trees(tiny_alphabet, budget)
        for notation, idx in ((Notation.PREFIX, 0), (Notation.POSTFIX, 1)):
            got = expand_all(tiny_alphabet, notation, budget)
            want = {pair[idx] for pair in trees}
            assert got == want, (notation, budget)
        counts[budget] = len(trees)
    elapsed = time.monotonic() - t0
    banner(7, "PASS", f"counts {counts} match recursive enumeration in both notations, {elapsed:.1f}s")
    assert counts == {0: 2, 1: 8, 2: 74}
    assert elapsed < 10


def test_criterion_08_search_band(case1):
    # one worker capped by evaluations, not wall time, so each seed's result
    # is bit-reproducible and independent of machine speed and core count;
    # criterion 9 covers concurrency
    t0 = time.monotonic()
    case, data = case1
    objective_cfg = ObjectiveConfig(ic_derivatives="data")
    max_evals = 60_000
    hits = misses = 0
    runs = []
    for seed in range(5):
        cfg = SearchConfig(
            algorithm="gp", depth=4, notation=Notation.POSTFIX,
            token_mode="vars+const", threads=1, time_budget=300.0, seed=seed,
            objective=objective_cfg, max_evals=max_evals, stop_below=4.0,
        )
        result = run_search(cfg, case, data)
        total = result.breakdown.total
        runs.append((total, result.evaluations))
        # the band or the evaluation cap ends each run, never the clock
        assert total <= 4.0 or result.evaluations == max_evals, (seed, runs)
        if total <= 4.0:
            hits += 1
        else:
            misses += 1
        if hits >= 3 or misses >= 3:
            break  # verdict decided
    elapsed = time.monotonic() - t0
    detail = (f"best per seed {['%.4g' % b for b, _ in runs]} after "
              f"{[n for _, n in runs]} evals, hits {hits}, {elapsed:.0f}s")
    banner(8, "PASS" if hits >= 3 else "FAIL", detail)
    assert elapsed < 300
    assert hits >= 3, (
        f"{detail}. Scored with I as a zero-derivative data column, GP, "
        "depth 4, postfix, vars+const, 1 worker, at most 60,000 evals per "
        "seed. Under the analytic reading the same runs end near 13 "
        "(seeds 0-2: 13.96, 12.68, 13.02): candidates tracking I inherit "
        "its advection-diffusion residual, and candidates ignoring I pay "
        "the initial-condition term."
    )


def test_criterion_09_concurrency_and_reproducibility(case1):
    t0 = time.monotonic()
    case, data = case1
    stress = run_search(
        SearchConfig(algorithm="cmcts", depth=4, notation=Notation.POSTFIX,
                     token_mode="vars+const", threads=8, time_budget=30.0,
                     seed=909),
        case, data,
    )
    assert not stress.empty
    logged = [mse for _, mse in stress.improvements]
    assert stress.breakdown.total == min(logged)
    repro = []
    for algo in ("rs", "mcts", "pso", "gp", "sa"):
        runs = [
            run_search(
                SearchConfig(algorithm=algo, depth=3, notation=Notation.POSTFIX,
                             token_mode="vars+const", threads=1,
                             time_budget=60.0, seed=31, max_evals=200),
                case, data,
            )
            for _ in range(2)
        ]
        assert runs[0].expr == runs[1].expr, algo
        assert runs[0].breakdown == runs[1].breakdown, algo
        assert runs[0].consts == runs[1].consts, algo
        assert runs[0].evaluations == runs[1].evaluations, algo
        repro.append(algo)
    elapsed = time.monotonic() - t0
    banner(9, "PASS",
           f"30s cmcts stress on 8 threads ({stress.evaluations} evals, best equals "
           f"min over worker logs); bit-reproducible: {','.join(repro)}; {elapsed:.0f}s")
    assert elapsed < 120


def test_criterion_10_sweep_shape(tmp_path, capsys):
    filtered = tmp_path / "filtered.csv"
    code = main(["sweep", "--case", "case1", "--time-per-config", "30",
                 "--out", str(filtered), "--algos", "rs", "--depths", "1..2",
                 "--notations", "postfix", "--token-sets", "vars",
                 "--max-evals", "20"])
    capsys.readouterr()
    assert code == 0
    lines = filtered.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3

    full = tmp_path / "full.csv"
    t0 = time.monotonic()
    code = main(["sweep", "--case", "case1", "--time-per-config", "0.2",
                 "--out", str(full), "--threads", "1", "--seed", "1"])
    capsys.readouterr()
    elapsed = time.monotonic() - t0
    assert code == 0
    rows = full.read_text().splitlines()
    banner(10, "PASS", f"header exact, filtered rows 2, full grid rows "
           f"{len(rows) - 1}, full sweep {elapsed:.0f}s")
    assert len(rows) == 1 + 1080
    ranks = [int(r.split(",")[0]) for r in rows[1:]]
    assert ranks == list(range(1, 1081))
    assert elapsed < 480
