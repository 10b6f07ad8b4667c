"""Deterministic fault injection, health guards, and degradation chains.

This package is the robustness layer's *vocabulary* — fault plans,
injectors, health policies, degradation logs — and deliberately imports
nothing from ``repro.engine``, ``repro.coloring``, or ``repro.parallel``:
the dependency direction is engine → faults only.  See
``docs/ROBUSTNESS.md`` for the user-facing guide.
"""

from .degrade import DegradationEvent, DegradationLog
from .health import HealthPolicy, resolve_health
from .injector import (
    FaultInjected,
    FaultInjector,
    InjectedFault,
    TransientKernelError,
)
from .plan import SITES, FaultPlan, FaultSpec, resolve_faults
from .robustness import Robustness, resolve_robustness
from .. import runscope as _runscope
from ..runscope import fire as active_fire
from ..runscope import note_degradation


def activate(robustness: Robustness | None):
    """Install ``robustness`` as the run scope's bundle for the block."""
    return _runscope.scope(robustness=robustness)


def get_active() -> Robustness | None:
    """The run scope's bundle, if any."""
    return _runscope.current().robustness


__all__ = [
    "SITES",
    "FaultPlan",
    "FaultSpec",
    "resolve_faults",
    "FaultInjected",
    "TransientKernelError",
    "InjectedFault",
    "FaultInjector",
    "DegradationEvent",
    "DegradationLog",
    "HealthPolicy",
    "resolve_health",
    "Robustness",
    "resolve_robustness",
    "activate",
    "active_fire",
    "get_active",
    "note_degradation",
]
