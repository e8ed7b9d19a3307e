"""The repository benchmark: workloads, tracing and output checks."""
