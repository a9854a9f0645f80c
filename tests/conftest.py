"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import random

import pytest

from repro.geometry.primitives import Point
from repro.mobility.base import Region

try:
    from hypothesis import settings
except ImportError:  # the docs check runs with pytest alone
    pass
else:
    # HYPOTHESIS_PROFILE=ci runs five times the default examples in
    # every property that does not pin its own count, such as the LDTG's
    # per-link properties, and prints a @reproduce_failure blob with
    # each failure so it can be replayed.
    settings.register_profile("ci", max_examples=500, print_blob=True)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need randomness."""
    return random.Random(12345)


@pytest.fixture
def small_region() -> Region:
    """A 300 m square test region."""
    return Region(300.0, 300.0)


@pytest.fixture
def paper_region() -> Region:
    """The paper's 1500 m x 300 m topology."""
    return Region(1500.0, 300.0)


def random_points(n: int, seed: int, side: float = 1000.0) -> list[Point]:
    """n uniform points in a square of the given side."""
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)
    ]
