"""Signatures: constant declarations, language mode, and frame class.
The parser checks what it parses against them."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .formulas import REL1, SortError


class Mode(enum.Enum):
    CLASSICAL = "classical"
    AOT = "aot"


class LogicTag(enum.Enum):
    K = "K"
    KB = "KB"
    S5TOTAL = "S5"


class ModeViolation(SortError):
    """A construct is used in a signature mode that forbids it."""


@dataclass(frozen=True)
class Signature:
    mode: Mode = Mode.CLASSICAL
    logic: LogicTag = LogicTag.S5TOTAL
    consts: dict = field(default_factory=dict)  # name -> Sort

    def __post_init__(self):
        if self.mode is Mode.AOT and self.consts.get("E!") != REL1:
            consts = dict(self.consts)
            consts["E!"] = REL1
            object.__setattr__(self, "consts", consts)

    def with_logic(self, logic: LogicTag) -> "Signature":
        return Signature(self.mode, logic, dict(self.consts))
