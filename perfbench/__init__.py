"""Benchmark of the pathrec pipeline; see README.md."""
