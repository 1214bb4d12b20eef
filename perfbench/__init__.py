"""End-to-end and per-layer benchmark of the limset CLI pipeline.

Run it from the repository root::

    python3 perfbench/run.py --workload ref-d1 --seed 0 --seconds 55 --trace 0

See ``run.py`` for the result format and ``workloads.py`` for why each
workload exists.
"""
