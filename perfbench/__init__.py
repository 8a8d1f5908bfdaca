"""Benchmark of the repro system: end-to-end metrics and per-layer traces."""
