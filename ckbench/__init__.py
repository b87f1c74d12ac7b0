"""Wall-clock benchmark of the ``ck-analyze`` verbs, driven from outside.

Run ``python3 ckbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``ckbench/NOTES.md`` explains
the workloads, the metrics and how the figures were checked.
"""
