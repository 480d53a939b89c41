"""End-to-end and per-layer benchmark of the three flows people run.

``python3 perfbench/run.py --workload characterize|fleet|serve --seed N
--seconds S --trace 0|1`` — see ``perfbench/README.md``.
"""
