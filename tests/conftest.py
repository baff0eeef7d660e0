"""Shared test configuration: a reproducible hypothesis profile."""

from hypothesis import settings

# Derandomized so every run draws the same examples; no deadline because
# example times swing with machine load.
settings.register_profile("trotterlab", derandomize=True, deadline=None)
settings.load_profile("trotterlab")
