"""Run every workload over several seeds and check run-to-run spread against the bounds.

    python3 perfbench/stability.py --seeds 10 --save perfbench/out/set1.json
    python3 perfbench/stability.py --seeds 10 --first-seed 101 --save perfbench/out/set2.json \\
        --compare perfbench/out/set1.json

For each workload and end-to-end metric it prints the median over the seeds
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``).  A spread above the metric's
bound fails; ``--compare`` also fails when this set's
median is worse than the other set's by more than the bound.  Workloads are
interleaved seed by seed so slow drift of the machine spreads over all of them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def spread(values: List[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric: Dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    change = (new - old) / old if old else 0.0
    return change if metric["better"] == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    began = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    wall = time.perf_counter() - began
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if completed.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed (exit {completed.returncode})")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"workload": workload, "seed": seed, "wall_s": wall, "metrics": values}


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, help="write every run's metrics here (JSON)")
    parser.add_argument("--compare", type=Path, help="a file written by --save to compare against")
    args = parser.parse_args(argv)

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            run = run_once(workload, seed, args.seconds)
            runs.append(run)
            print(f"{workload:13s} seed {seed:4d} {run['wall_s']:6.1f}s  " + "  ".join(
                f"{k}={v:.4g}" for k, v in run["metrics"].items()), flush=True)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(runs, indent=1))
    previous = json.loads(args.compare.read_text()) if args.compare else []

    status = 0
    print(f"\n{'workload':13s} {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for workload in args.workloads:
        mine = [r for r in runs if r["workload"] == workload]
        theirs = [r for r in previous if r["workload"] == workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name] for r in mine]
            median = statistics.median(values)
            width = spread(values) if len(values) >= 2 else 0.0
            verdict = "steady" if width <= bound / 3 else "within bound" if width <= bound else "TOO WIDE"
            if width > bound:
                status = 1
            if theirs:
                old = statistics.median(r["metrics"][name] for r in theirs)
                change = worse_by(metric, median, old)
                verdict += f"; {change:+.1%} worse than the other set"
                if change > bound:
                    verdict += " (BEYOND BOUND)"
                    status = 1
            print(f"{workload:13s} {name:18s} {median:12.4f} {width:8.3f} {bound:6.2f}  {verdict}")
        walls = [r["wall_s"] for r in mine]
        print(f"{workload:13s} {'(run wall s)':18s} {statistics.median(walls):12.1f} "
              f"max {max(walls):.1f}")
    return status


if __name__ == "__main__":
    sys.exit(main())
