"""Repository benchmark: four workloads timed from outside the program.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/METRICS.md``.
"""
