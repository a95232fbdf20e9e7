"""Hypothesis draws the same examples on every run and every machine, so a
failing example found anywhere fails everywhere."""

from hypothesis import settings

settings.register_profile("cycover", derandomize=True, database=None)
settings.load_profile("cycover")
