"""annrev benchmark package: workloads, reference answers and tracing."""
