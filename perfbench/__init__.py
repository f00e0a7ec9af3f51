"""Benchmark for the wardgames CLI: workloads, tracer, output checks."""
