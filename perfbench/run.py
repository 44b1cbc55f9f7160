"""Run one benchmark workload; the last line of standard output is the JSON result.

    python3 perfbench/run.py --workload olap_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1``
the per-layer ones (from a separate traced run).  ``--workload all`` runs the
three workloads one after another, each in its own process.  A wrong answer
prints ``"correct": false`` and exits 1; a checkout without ``src/repro`` exits
2 without printing a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("olap_mix", "served_rw", "madlib_train")

#: Per-layer metrics that are exact counts of work, which repeat exactly for
#: one seed; every other metric is a timing (or a ratio of timings) and varies
#: from run to run.  A claim may rest on a count only when the count was
#: named before the change was written and the change leaves the counter as
#: it was (not moved, removed or redefined).
EXACT_COUNTS = frozenset({
    "driver.iterations.linregr", "driver.iterations.logregr", "driver.iterations.kmeans",
    "matview.deltas_applied", "matview.recomputes",
    "executor.examined_per_row.point", "executor.examined_per_row.range",
    "executor.examined_per_row.update", "executor.examined_per_row.mv",
    "parallel.dispatched_frac", "parallel.fallbacks",
    "join.rows_emitted", "join.hash_frac", "compile.vectorized_frac",
})


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _report(workload: str, trace: bool, result) -> Dict:
    """Select and order the metrics ``BENCHMARK.json`` names, with their units."""
    spec = _spec()["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in spec}
    unknown = sorted(set(result.metrics) - names)
    if unknown:
        raise KeyError(f"{workload} produced metrics BENCHMARK.json does not define: {unknown}")
    missing = [m["name"] for m in spec if m["name"] not in result.metrics]
    if missing and not trace:
        raise KeyError(f"{workload} did not produce end-to-end metrics {missing}")
    metrics = {}
    for m in spec:
        value = float(result.metrics.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        kind = "count" if m["name"] in EXACT_COUNTS else "timing"
        if not trace:
            kind = "end-to-end"
        print(f"{workload:13s} {m['name']:40s} {value:16.6f} {m['unit']:10s} [{kind}]")
    for note in result.notes:
        print(f"{workload:13s} note: {note}")
    if missing:
        print(f"{workload:13s} note: not exercised by this workload, reported as 0: "
              + ", ".join(missing))
    return {"correct": True, "attempted": int(result.attempted), "failed": int(result.failed),
            "metrics": metrics}


def _run_all(args: argparse.Namespace) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or completed.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import Mismatch

    module = importlib.import_module(f"perfbench.{args.workload}")
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace))
    except Mismatch as exc:
        print(f"{args.workload}: WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps(_report(args.workload, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
