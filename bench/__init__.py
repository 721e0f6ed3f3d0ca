"""Benchmark harness for urprior: seeded workloads, output checks, tracing and a scaling sweep.

Entry points are ``bench/run.py`` (timed and traced runs) and
``bench/sweep.py`` (one-shot scaling sweep); see ``bench/README.md``.
"""
