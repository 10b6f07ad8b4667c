"""Compiled kernel tier for the simulated-GPU engine.

``backend='compiled'`` runs the same scheme recipes as ``gpusim`` but
routes the hot functional loop bodies — mex resolution, the fused wave
coloring loop, conflict detection, worklist compaction, and the
integer pricing primitives (reuse-distance scan, trace coalescing,
issue ordering) — through compiled kernels:

* C built with the system compiler and bound via ctypes (:mod:`.cc`),
* otherwise the unchanged pure-NumPy paths, with a one-time warning.

Results are byte-identical across both tiers (and to
``backend='gpusim'``): the compiled kernels are exact integer twins of
the NumPy formulations, and the pricing half charges the same
descriptors either way.  See docs/PERFORMANCE.md.
"""

from .dispatch import active, scope, tier
from .runtime import CompiledTierError, current_tier, get_kernels, warmup

__all__ = [
    "scope",
    "active",
    "tier",
    "warmup",
    "get_kernels",
    "current_tier",
    "CompiledTierError",
]
