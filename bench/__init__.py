"""Benchmark for the evosq command line: seeded workloads, output checks and a layer trace.

Run ``python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; ``python3 bench/run.py --all`` runs every workload.
"""
