"""Benchmark of the LinBP/SBP reproduction: see README.md."""
