"""Outcome records shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(frozen=True)
class Witness:
    """First falsifying instance: the arguments plus both compared values."""

    args: tuple
    lhs: Any
    rhs: Any
    note: str = ""


@dataclass
class CheckReport:
    """Result of one verification run.

    A report holds exactly when it carries no witness: `holds` is derived
    from `witness`, so a passing report with a witness, or a failing one
    without, cannot be built.  In exhaustive mode instances_checked equals
    the full enumeration size, also when a scan stops at its first
    violation; the reported witness is the smallest in enumeration order.
    """

    instances_checked: int
    witness: Optional[Witness] = None
    mode: str = "exhaustive"
    seed: Optional[int] = None
    detail: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.witness is None
