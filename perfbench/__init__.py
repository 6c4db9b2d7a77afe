"""End-to-end session benchmark for ``repro run`` -> ``repro serve`` -> API.

Run it from the root of a checkout with ``python3 perfbench/run.py``;
see ``perfbench/README.md``.
"""
