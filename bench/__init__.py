"""Benchmark of the quasilin CLI and its layers; see run.py."""
