"""Hypothesis draws its examples from a fixed seed, so a run of the suite
tests the same examples every time; each test keeps its own
``max_examples``.  Every memoized function of src starts each test empty,
so a value cached in one test cannot hide what another test patches."""

import pytest
from hypothesis import settings

from api_helpers import memoized_functions

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

MEMOIZED = tuple(memoized_functions().values())


@pytest.fixture(autouse=True)
def _clear_memos():
    for f in MEMOIZED:
        f.cache_clear()
