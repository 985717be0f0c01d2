"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload fine-mesh --seeds 1-10 [--trace 0]

For every metric it prints the median over the seeds, and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of that median.  An end-to-end metric is steady enough when that share
stays below a third of its bound in BENCHMARK.json.  Runs go one at a time,
in separate processes, so each measures a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(result["metrics"].items())
                        if k in bounds)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':40} {'median':>12} {'iqr/median':>10} {'bound/3':>8}")
    for name, series in sorted(values.items()):
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(median) if median else float("nan")
        bound = bounds.get(name)
        limit = f"{bound / 3:.4f}" if bound is not None else ""
        print(f"{name:40} {median:12.6g} {spread:10.4f} {limit:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
