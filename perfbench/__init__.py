"""Benchmark of the ncgfdm experiment runner; see README.md."""
