"""The repository's benchmark: end-to-end and per-layer metrics of the
stencil service over three workloads (see :mod:`perfbench.workloads`).

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
