"""Command-line surface: search, evaluate, diff, and the configuration sweep.

``search`` merges its ``--config`` pairs and the flags given into one dict,
flags winning, and turns it into the objective settings, the case and
:class:`~padesr.search.SearchConfig` in one step.  Exit codes: 0 on success,
2 on usage or parse errors, including option values that ``SearchConfig``
rejects and an ``--out`` that cannot be written, all found before any search
runs.  Reports are flat UTF-8 ``key=value`` blocks; sweep output is a CSV
whose columns mirror the best-configuration tables (rank, algorithm, depth,
notation, MSE, token-set flags).  ``PADESR_THREADS`` supplies the default
worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import math
import os
import sys
from typing import Optional, Sequence

from .symdiff import IC_DERIVATIVE_MODES, DerivativeOrderError, differentiate, simplify
from .expr import Expr, Notation, ParseError, parse, render_infix
from .pde import (
    CASE_IDS,
    DEFAULT_THRESHOLD,
    MseBreakdown,
    ObjectiveConfig,
    PdeCase,
    TOKEN_MODES,
    build_case,
    case_alphabet,
    objective,
)
from .search import ALGORITHMS, SearchConfig, SearchResult, run_search

ALGORITHM_LABELS = {
    "rs": "Random Search",
    "mcts": "MCTS",
    "cmcts": "Concurrent MCTS",
    "pso": "PSO",
    "gp": "GP",
    "sa": "Simulated Annealing",
}

SWEEP_HEADER = "#,Algorithm,Depth,Notation,MSE,Non-Optimizable Tokens,Optimizable Token"


def _default_threads() -> int:
    """Worker count from ``PADESR_THREADS``, 1 when it is unset or empty.

    Raises ValueError unless the value is a positive integer.
    """
    value = os.environ.get("PADESR_THREADS")
    if not value:
        return 1
    try:
        threads = int(value)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"PADESR_THREADS must be a positive integer, got {value!r}")
    return threads


def _parse_mesh(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("mesh must be nx,ny,nt")
    nx, ny, nt = (int(p) for p in parts)
    if min(nx, ny, nt) < 2:
        raise argparse.ArgumentTypeError("each mesh axis needs at least 2 points")
    return nx, ny, nt


def _parse_binding(pair: str) -> tuple[str, float]:
    name, _, value = pair.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"binding {pair!r} must be name=value") from None


def _parse_depth_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    return int(lo), int(hi if sep else lo)


def _check_out(path: str) -> None:
    """Fail before any search runs when ``path`` cannot be a new or existing file."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or os.path.isdir(path):
        raise ValueError(f"--out {path!r} is not a file in an existing directory")


def bind_constants(expr, consts: Sequence[float]) -> str:
    words = []
    for tok in expr.tokens:
        if tok.slot is not None:
            words.append(repr(consts[tok.slot]))
        else:
            words.append(tok.text)
    return " ".join(words)


def report_lines(result: SearchResult, case_id: str = "") -> list[str]:
    cfg = result.config
    lines = [
        f"case={case_id}",
        f"algorithm={cfg.algorithm}",
        f"depth={cfg.depth}",
        f"notation={cfg.notation.value}",
        f"tokens={cfg.token_mode}",
        f"threads={cfg.threads}",
        f"time={cfg.time_budget}",
        f"seed={cfg.seed}",
        f"threshold={cfg.objective.threshold!r}",
        f"mesh={cfg.objective.mesh[0]},{cfg.objective.mesh[1]},{cfg.objective.mesh[2]}",
        f"elapsed={result.elapsed:.3f}",
        f"evaluations={result.evaluations}",
    ]
    if result.empty:
        lines.append("status=no-evaluations")
        return lines
    lines += [
        "status=ok" if math.isfinite(result.breakdown.total) else "status=no-finite-candidate",
        f"best_tokens={result.expr.text}",
        f"best_simplified={simplify(result.expr).text}",
        f"best_infix={render_infix(result.expr, result.consts or None)}",
        f"constants={','.join(repr(c) for c in result.consts)}",
        # fitted constants substituted as literals, so the evaluate command
        # can re-score the exact reported candidate
        f"best_bound_tokens={bind_constants(result.expr, result.consts)}",
        f"gate_rejected={str(result.breakdown.gate_rejected).lower()}",
        *_mse_lines(result.breakdown),
    ]
    for i, (t, mse) in enumerate(result.improvements):
        lines.append(f"improvement_{i}={t:.3f},{mse!r}")
    return lines


def _mse_lines(bd: MseBreakdown) -> list[str]:
    return [
        f"mse_interior={bd.interior!r}",
        *(f"mse_boundary_{i}={term!r}" for i, term in enumerate(bd.boundary, start=1)),
        f"mse_initial={bd.initial!r}",
        f"mse_total={bd.total!r}",
    ]


def parse_report(text: str) -> dict[str, str]:
    """``key=value`` lines, a report or a ``--config`` file, as a dict; keys
    and values are stripped, and lines starting with ``#`` are skipped."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="padesr")
    sub = top.add_subparsers(dest="command", required=True)

    # a flag not given stays out of the namespace, so it cannot hide a --config value
    sp = sub.add_parser("search", help="run one expression search",
                        argument_default=argparse.SUPPRESS)
    sp.add_argument("--config", help="key=value file; flags override")
    sp.add_argument("--case", choices=CASE_IDS)
    sp.add_argument("--algo", choices=ALGORITHMS)
    sp.add_argument("--depth", type=int)
    sp.add_argument("--notation", choices=[n.value for n in Notation])
    sp.add_argument("--tokens", choices=TOKEN_MODES)
    sp.add_argument("--threads", type=int)
    sp.add_argument("--time", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--threshold", type=float)
    sp.add_argument("--mesh", type=_parse_mesh)
    sp.add_argument("--seed-expr")
    sp.add_argument("--max-evals", type=int)
    sp.add_argument("--out")

    ev = sub.add_parser("evaluate", help="score an expression against a case")
    ev.add_argument("--case", choices=CASE_IDS, required=True)
    ev.add_argument("--notation", choices=[n.value for n in Notation], required=True)
    ev.add_argument("--expr", required=True)
    ev.add_argument("--mesh", type=_parse_mesh, default=(10, 10, 10))
    ev.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    ev.add_argument("--bind", type=_parse_binding, action="append", default=[],
                    metavar="NAME=VALUE")
    ev.add_argument("--ic-derivatives", choices=IC_DERIVATIVE_MODES, default="analytic",
                    help="'data' differentiates I and I_x, ... as zero-derivative columns")

    df = sub.add_parser("diff", help="differentiate an expression")
    df.add_argument("--expr", required=True)
    df.add_argument("--notation", choices=[n.value for n in Notation], required=True)
    df.add_argument("--wrt", choices=("x", "y", "t"), required=True)
    df.add_argument("--order", type=int, choices=(1, 2), default=1)
    df.add_argument("--case", choices=CASE_IDS, default="case1",
                    help="binds the named bound literals (values only)")

    sw = sub.add_parser("sweep", help="run the configuration cross product")
    sw.add_argument("--case", choices=CASE_IDS, required=True)
    sw.add_argument("--time-per-config", type=float, default=5.0)
    sw.add_argument("--out", required=True)
    sw.add_argument("--algos", default=",".join(ALGORITHMS))
    sw.add_argument("--depths", type=_parse_depth_range, default=(1, 30))
    sw.add_argument("--notations", default="prefix,postfix")
    sw.add_argument("--token-sets", default=",".join(TOKEN_MODES))
    sw.add_argument("--threads", type=int)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--max-evals", type=int)
    sw.add_argument("--mesh", type=_parse_mesh, default=(10, 10, 10))
    return top


def _cmd_search(args) -> int:
    merged = {}
    if "config" in args:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                merged = parse_report(fh.read())
        except OSError as err:
            print(f"error: config file: {err}", file=sys.stderr)
            return 2
    merged.update((k.replace("_", "-"), v) for k, v in vars(args).items())  # flags win
    missing = [k for k in ("case", "algo", "depth", "notation") if k not in merged]
    if missing:
        print(f"error: missing required options: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        mesh = merged.get("mesh", (10, 10, 10))
        if isinstance(mesh, str):
            mesh = _parse_mesh(mesh)
        obj = ObjectiveConfig(threshold=float(merged.get("threshold", DEFAULT_THRESHOLD)),
                              mesh=mesh)
        case, data = build_case(merged["case"], mesh)
        config = SearchConfig(
            algorithm=str(merged["algo"]),
            depth=int(merged["depth"]),
            notation=Notation(merged["notation"]),
            token_mode=str(merged.get("tokens", "vars+const")),
            threads=int(merged["threads"]) if "threads" in merged else _default_threads(),
            time_budget=float(merged.get("time", 5.0)),
            seed=int(merged.get("seed", 0)),
            objective=obj,
            max_evals=int(merged["max-evals"]) if "max-evals" in merged else None,
        )
        if merged.get("seed-expr"):
            # the seed uses the run's own tokens: mutation carries them into the best
            alphabet = case_alphabet(case, config.token_mode)
            seed_expr = parse(str(merged["seed-expr"]), config.notation, alphabet)
            config = dataclasses.replace(config, seed_expr=seed_expr)
        out = merged.get("out")
        if out:
            _check_out(out)
    except ParseError as err:
        print(f"error: seed expression: {err}", file=sys.stderr)
        return 2
    except (argparse.ArgumentTypeError, TypeError, ValueError) as err:
        print(f"error: bad option value: {err}", file=sys.stderr)
        return 2
    result = run_search(config, case, data)
    text = "\n".join(report_lines(result, merged["case"])) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if result.empty:
        print("no candidate was evaluated within the budget", file=sys.stderr)
    elif not math.isfinite(result.breakdown.total):
        print("no candidate scored a finite total", file=sys.stderr)
    else:
        print(
            f"best mse_total={result.breakdown.total!r} "
            f"expr: {render_infix(simplify(result.expr), result.consts or None)}",
            file=sys.stderr,
        )
    return 0


def _parse_free(args, case: PdeCase, bindings: Optional[dict[str, float]] = None) -> Expr:
    """``--expr`` in free mode, over the case's full token set (see ``expr.parse``)."""
    return parse(args.expr, Notation(args.notation), case_alphabet(case, "vars+const+opt"),
                 mode="free", bindings=bindings)


def _cmd_evaluate(args) -> int:
    try:
        obj = ObjectiveConfig(threshold=args.threshold, mesh=args.mesh,
                              ic_derivatives=args.ic_derivatives)
    except ValueError as err:
        print(f"error: bad option value: {err}", file=sys.stderr)
        return 2
    case, data = build_case(args.case, args.mesh)
    try:
        expr = _parse_free(args, case, dict(args.bind))
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    consts = tuple(0.0 for _ in range(expr.n_slots))
    bd = objective(expr, case, data, consts or None, obj)
    print(f"ic_derivatives={obj.ic_derivatives}")
    print(f"gate={'rejected' if bd.gate_rejected else 'pass'}")
    print("\n".join(_mse_lines(bd)))
    return 0


def _cmd_diff(args) -> int:
    case, _ = build_case(args.case, (2, 2, 2))
    try:
        out = _parse_free(args, case)
        for _ in range(args.order):
            out = differentiate(out, args.wrt)
    except (ParseError, DerivativeOrderError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(out.text)
    print(f"infix={render_infix(out)}")
    print(f"simplified={simplify(out).text}")
    return 0


def _cmd_sweep(args) -> int:
    def names(text: str) -> list[str]:
        return [name.strip() for name in text.split(",") if name.strip()]

    lo, hi = args.depths
    grid = itertools.product(names(args.algos), names(args.notations), range(lo, hi + 1),
                             names(args.token_sets))
    obj = ObjectiveConfig(mesh=args.mesh)
    try:
        threads = args.threads if args.threads is not None else _default_threads()
        configs = [
            SearchConfig(
                algorithm=algo,
                depth=depth,
                notation=Notation(notation),
                token_mode=mode,
                threads=threads,
                time_budget=args.time_per_config,
                seed=_stable_sweep_seed(args.seed, index),
                objective=obj,
                max_evals=args.max_evals,
            )
            for index, (algo, notation, depth, mode) in enumerate(grid)
        ]
        _check_out(args.out)
    except ValueError as err:
        print(f"error: bad option value: {err}", file=sys.stderr)
        return 2
    if not configs:
        print("error: the sweep selects no configuration", file=sys.stderr)
        return 2
    case, data = build_case(args.case, args.mesh)
    rows = []
    for config in configs:
        result = run_search(config, case, data)
        total = math.inf if result.empty else result.breakdown.total
        rows.append((total, config.algorithm, config.depth, config.notation, config.token_mode))
    rows.sort(key=lambda r: (r[0], ALGORITHM_LABELS[r[1]], r[2], r[3].value, r[4]))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for rank, (total, algo, depth, notation, mode) in enumerate(rows, start=1):
            non_opt, opt = TOKEN_MODES[mode]
            fh.write(
                f"{rank},{ALGORITHM_LABELS[algo]},{depth},{notation.value},"
                f"{total:.6g},{non_opt},{opt}\n"
            )
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _stable_sweep_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0xFFFFFFFF


_COMMANDS = {"search": _cmd_search, "evaluate": _cmd_evaluate, "diff": _cmd_diff,
             "sweep": _cmd_sweep}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
