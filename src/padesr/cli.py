"""Command-line surface: search, evaluate, diff, and the configuration sweep.

Exit codes: 0 on success, 2 on usage or parse errors, including option values
that :class:`~padesr.search.SearchConfig` rejects.  Reports are flat
UTF-8 ``key=value`` blocks; sweep output is a CSV whose columns mirror the
best-configuration tables (rank, algorithm, depth, notation, MSE, token-set
flags).  ``PADESR_THREADS`` supplies the default worker count.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from typing import Optional, Sequence

from .symdiff import IC_DERIVATIVE_MODES, DerivativeOrderError, differentiate, simplify
from .expr import Notation, ParseError, parse, render_infix
from .pde import (
    CASE_IDS,
    ObjectiveConfig,
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

_TOKEN_MODE_FLAGS = {
    "vars": (False, False),
    "vars+const": (True, False),
    "vars+const+opt": (True, True),
}


def _default_threads() -> int:
    value = os.environ.get("PADESR_THREADS")
    if value:
        try:
            return max(int(value), 1)
        except ValueError:
            pass
    return 1


def _parse_mesh(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("mesh must be nx,ny,nt")
    nx, ny, nt = (int(p) for p in parts)
    if min(nx, ny, nt) < 2:
        raise argparse.ArgumentTypeError("each mesh axis needs at least 2 points")
    return nx, ny, nt


def _parse_bindings(pairs: Optional[Sequence[str]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"binding {pair!r} must be name=value")
        out[name.strip()] = float(value)
    return out


def _parse_depth_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        v = int(text)
        return v, v
    return int(lo), int(hi)


def _fmt(value: float) -> str:
    if value == math.inf:
        return "inf"
    return repr(value)


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
        f"threshold={_fmt(cfg.objective.threshold)}",
        f"mesh={cfg.objective.mesh[0]},{cfg.objective.mesh[1]},{cfg.objective.mesh[2]}",
        f"elapsed={result.elapsed:.3f}",
        f"evaluations={result.evaluations}",
    ]
    if result.empty:
        lines.append("status=no-evaluations")
        return lines
    bd = result.breakdown
    lines += [
        "status=ok",
        f"best_tokens={result.expr.text}",
        f"best_simplified={result.simplified.text}",
        f"best_infix={render_infix(result.expr, result.consts or None)}",
        f"constants={','.join(repr(c) for c in result.consts)}",
        # fitted constants substituted as literals, so the evaluate command
        # can re-score the exact reported candidate
        f"best_bound_tokens={bind_constants(result.expr, result.consts)}",
        f"gate_rejected={str(bd.gate_rejected).lower()}",
        f"mse_interior={_fmt(bd.interior)}",
    ]
    for i, term in enumerate(bd.boundary, start=1):
        lines.append(f"mse_boundary_{i}={_fmt(term)}")
    lines += [
        f"mse_initial={_fmt(bd.initial)}",
        f"mse_total={_fmt(bd.total)}",
    ]
    for i, (t, mse) in enumerate(result.improvements):
        lines.append(f"improvement_{i}={t:.3f},{_fmt(mse)}")
    return lines


def parse_report(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line and "=" in line:
            key, _, value = line.partition("=")
            out[key] = value
    return out


def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="padesr")
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("search", help="run one expression search")
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
    ev.add_argument("--threshold", type=float, default=None)
    ev.add_argument("--bind", action="append", metavar="NAME=VALUE")
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
    if args.config:
        try:
            merged.update(_load_config_file(args.config))
        except OSError as err:
            print(f"error: config file: {err}", file=sys.stderr)
            return 2
    for key, attr in (
        ("case", "case"), ("algo", "algo"), ("depth", "depth"),
        ("notation", "notation"), ("tokens", "tokens"), ("threads", "threads"),
        ("time", "time"), ("seed", "seed"), ("threshold", "threshold"),
        ("seed-expr", "seed_expr"), ("max-evals", "max_evals"), ("out", "out"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            merged[key] = value
    if args.mesh is not None:
        merged["mesh"] = f"{args.mesh[0]},{args.mesh[1]},{args.mesh[2]}"
    missing = [k for k in ("case", "algo", "depth", "notation") if k not in merged]
    if missing:
        print(f"error: missing required options: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        mesh = merged.get("mesh", "10,10,10")
        if isinstance(mesh, str):
            mesh = _parse_mesh(mesh)
        threshold = merged.get("threshold")
        obj = ObjectiveConfig(
            threshold=float(threshold) if threshold is not None else ObjectiveConfig().threshold,
            mesh=mesh,
        )
        notation = Notation(merged["notation"])
        case, data = build_case(merged["case"], mesh)
    except (argparse.ArgumentTypeError, ValueError) as err:
        print(f"error: bad option value: {err}", file=sys.stderr)
        return 2
    seed_expr = None
    if merged.get("seed-expr"):
        alphabet = case_alphabet(case, "vars+const+opt")
        try:
            seed_expr = parse(str(merged["seed-expr"]), notation, alphabet, mode="free")
        except ParseError as err:
            print(f"error: seed expression: {err}", file=sys.stderr)
            return 2
    try:
        config = SearchConfig(
            algorithm=str(merged["algo"]),
            depth=int(merged["depth"]),
            notation=notation,
            token_mode=str(merged.get("tokens", "vars+const")),
            threads=int(merged.get("threads", _default_threads())),
            time_budget=float(merged.get("time", 5.0)),
            seed=int(merged.get("seed", 0)),
            objective=obj,
            seed_expr=seed_expr,
            max_evals=int(merged["max-evals"]) if "max-evals" in merged else None,
        )
    except (TypeError, ValueError) as err:
        print(f"error: bad option value: {err}", file=sys.stderr)
        return 2
    result = run_search(config, case, data)
    text = "\n".join(report_lines(result, merged["case"])) + "\n"
    out = merged.get("out")
    if out:
        with open(str(out), "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if result.empty:
        print("no candidate was evaluated within the budget", file=sys.stderr)
    else:
        print(
            f"best mse_total={_fmt(result.breakdown.total)} "
            f"expr: {render_infix(result.simplified, result.consts or None)}",
            file=sys.stderr,
        )
    return 0


def _cmd_evaluate(args) -> int:
    case, data = build_case(args.case, args.mesh)
    alphabet = case_alphabet(case, "vars+const+opt")
    try:
        bindings = _parse_bindings(args.bind)
    except (argparse.ArgumentTypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        expr = parse(args.expr, Notation(args.notation), alphabet,
                     mode="free", bindings=bindings)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    threshold = args.threshold
    obj = ObjectiveConfig(
        threshold=threshold if threshold is not None else ObjectiveConfig().threshold,
        mesh=args.mesh,
        ic_derivatives=args.ic_derivatives,
    )
    consts = tuple(0.0 for _ in range(expr.n_slots))
    bd = objective(expr, case, data, consts or None, obj)
    print(f"ic_derivatives={obj.ic_derivatives}")
    print(f"gate={'rejected' if bd.gate_rejected else 'pass'}")
    print(f"mse_interior={_fmt(bd.interior)}")
    for i, term in enumerate(bd.boundary, start=1):
        print(f"mse_boundary_{i}={_fmt(term)}")
    print(f"mse_initial={_fmt(bd.initial)}")
    print(f"mse_total={_fmt(bd.total)}")
    return 0


def _cmd_diff(args) -> int:
    case, _ = build_case(args.case, (2, 2, 2))
    alphabet = case_alphabet(case, "vars+const+opt")
    try:
        expr = parse(args.expr, Notation(args.notation), alphabet, mode="free")
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        out = expr
        for _ in range(args.order):
            out = differentiate(out, args.wrt)
    except DerivativeOrderError as err:
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
    threads = args.threads if args.threads is not None else _default_threads()
    obj = ObjectiveConfig(mesh=args.mesh)
    try:
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
            non_opt, opt = _TOKEN_MODE_FLAGS[mode]
            mse = "inf" if total == math.inf else f"{total:.6g}"
            fh.write(
                f"{rank},{ALGORITHM_LABELS[algo]},{depth},{notation.value},"
                f"{mse},{non_opt},{opt}\n"
            )
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _stable_sweep_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0xFFFFFFFF


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "diff":
        return _cmd_diff(args)
    return _cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
