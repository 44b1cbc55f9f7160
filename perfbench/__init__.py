"""The repository benchmark: three workloads driven through the engine's public surfaces.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``perfbench/README.md`` defines every metric.
"""
