"""The one result type that every structural check returns."""

from __future__ import annotations

from typing import NamedTuple


class Violation(NamedTuple):
    where: tuple
    detail: str


class CheckReport:
    """How many relations a check verified, which failed, and why none were checked."""

    __slots__ = ("violations", "checked", "skipped")

    def __init__(self, violations: list[Violation] | None = None, checked: int = 0,
                 skipped: list[str] | None = None):
        self.violations = [] if violations is None else violations
        self.checked = checked
        self.skipped = [] if skipped is None else skipped

    def __repr__(self) -> str:
        return f"CheckReport({self.violations!r}, {self.checked}, {self.skipped!r})"

    @property
    def ok(self) -> bool:
        return not self.violations
