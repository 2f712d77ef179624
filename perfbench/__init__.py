"""End-to-end and per-layer benchmark of the ruelleop command line.

Run from the repository root:

    python3 -m perfbench.run --workload table-battery --seed 0 --seconds 20 --trace 0

See ``perfbench/run.py`` for the workloads, the metrics and the checks.
"""
