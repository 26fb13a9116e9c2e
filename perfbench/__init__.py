"""Benchmark of the hdpbench package: workloads, tracing, correctness checks."""
