"""Feature knobs and subsystem configs violating the opt-in policy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TurboConfig:
    boost: int = 2


@dataclass(frozen=True)
class PhantomConfig:
    depth: int = 1


@dataclass
class RiskyConfig:
    enable_turbo: bool = True  # SC501: defaults on
    enable_phantom: bool = False  # SC502/SC503: untested, undocumented
    turbo: Optional[TurboConfig] = TurboConfig()  # SC501: present by default
    phantom: Optional[PhantomConfig] = None  # SC502/SC503: untested, undocumented
