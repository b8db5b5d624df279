"""Shared pytest configuration: a deterministic hypothesis profile, and an
empty kernel cache at the start of every test."""

import pytest
from hypothesis import HealthCheck, settings

from steppoly import cli

settings.register_profile(
    "exact",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def empty_kernel_cache():
    """kernel keeps eliminations across main() calls, keyed by the config's
    bytes; a test sees none that an earlier test left."""
    cli._kernel_cache.clear()
