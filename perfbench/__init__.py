"""Benchmark for the autoprepad_ray validation engine (see README.md)."""
