"""Shared exception types."""

from __future__ import annotations


class Breakdown(Exception):
    """A leading principal minor of the moment matrix vanished.

    The Gauss-Borel factorization does not exist; no partial result is kept.
    """

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"zero pivot at index {index}: leading principal minor vanishes")


class DepthError(Exception):
    """A truncation is too shallow for the requested operation."""


class ConfigError(Exception):
    """Invalid run configuration or measure specification."""
