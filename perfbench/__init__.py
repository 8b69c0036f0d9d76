"""Benchmark for btgp: end-to-end search and replay timings, plus a traced
run that reports per-layer numbers. Run ``python3 perfbench/run.py --help``."""
