"""Hypothesis draws its examples from a fixed seed, so a run of the suite
tests the same examples every time; each test keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
