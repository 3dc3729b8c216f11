"""Benchmark harness: one module per paper experiment.

Each benchmark module exposes a ``run_*`` function returning a
:class:`repro.util.records.BenchTable` whose series correspond one-to-one
with the lines of the paper's figure.  The pytest-benchmark entries in
``benchmarks/`` call these, assert the paper's qualitative claims, and
write the rendered tables under ``results/``.
"""
