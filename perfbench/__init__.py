"""perfbench — the repository benchmark: workloads, metrics and a traced pass.

Run it from the repository root::

    python3 perfbench/run.py --workload scale_sweep --seed 1 --seconds 20 --trace 0

``DESIGN.md`` in this directory says why each workload exists and which
layer metric should move which end-to-end metric.
"""
