"""The one result type that every structural check returns."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Violation:
    check: str
    where: tuple
    detail: str


@dataclass
class CheckReport:
    """How many relations a check verified, which failed, and why none were checked."""

    name: str
    violations: list[Violation] = field(default_factory=list)
    checked: int = 0
    skipped: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations
