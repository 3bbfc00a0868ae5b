"""Benchmark of the cbrnn library; run ``python3 perfbench/run.py --help``."""
