"""Benchmark for char1: three closed-loop workloads timed from outside.

``python3 perfbench/run.py --workload {laws,large,cli} --seed N --seconds S
--trace {0,1}`` prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  See ``perfbench/README.md``.
"""
