"""Shared fixtures."""

import pytest

from etainv import invariants


@pytest.fixture
def cold_caches():
    """Empty every series and per-k cache of invariants, so the next request builds them."""
    for cache in (
        invariants._ahat_factor,
        invariants._inv_two_cosh,
        invariants._ahat_power,
        invariants._a1_poly,
        invariants._ring_moments,
    ):
        cache.cache_clear()
