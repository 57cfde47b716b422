"""A hygienic feature knob (boolean, opt-in, default False) and a hygienic
subsystem config (optional, absent by default)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class GadgetConfig:
    gadget_budget: int = 4


@dataclass
class FeatureConfig:
    enable_widget: bool = False
    widget_budget: int = 4
    gadget: Optional[GadgetConfig] = None
