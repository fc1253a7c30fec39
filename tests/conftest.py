"""Hypothesis settings for every test module.

Hypothesis's `explain` phase reruns each shrink step of a failing example
under a `sys.settrace` tracer to point at the lines it covers. The
engine's examples run many times slower traced, so a real failure took
minutes to report. The profile drops that phase and keeps every other
phase and every example count.
"""

from hypothesis import Phase, settings

settings.register_profile("canvolt", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("canvolt")
