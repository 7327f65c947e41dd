"""Fixtures shared by the test modules."""

import pytest

from tanglekit import cyclotomic, engine, tl

#: Every functools.cache of the TL engine, the replay tables and their
#: cyclotomic factors, taken at import, before any test patches a module
#: attribute: the projectors, frames, basis, tiles and kinks (engine),
#: and the tables built per cable width (and digit width, or pair of
#: indices).
CACHED_BUILDERS = tuple(f for module in (engine, tl, cyclotomic) for f in vars(module).values()
                        if hasattr(f, "cache_clear"))


@pytest.fixture
def fresh_caches():
    """Empty every cached builder before and after the test, so that data
    a test corrupts, or tables built under a patched crossover, cannot
    outlive it."""
    for f in CACHED_BUILDERS:
        f.cache_clear()
    yield
    for f in CACHED_BUILDERS:
        f.cache_clear()
