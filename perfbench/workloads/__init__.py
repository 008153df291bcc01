"""Benchmark workloads.  Each module exposes ``NAME``, ``SETUPS`` (the
set-ups an untraced run times), ``setup(seed, workdir, traced) ->
state``, ``measure(state, seconds, traced) -> (Measurement, Checks)``
and ``teardown(state)``."""

from . import paper_pipeline, serve_open, synth_month

WORKLOADS = {m.NAME: m for m in (paper_pipeline, synth_month, serve_open)}
