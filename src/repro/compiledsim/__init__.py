"""The simulator's compiled kernel tier.

The simulated GPU (``backend='gpusim'``) routes its hot functional loop
bodies — mex resolution, the fused wave coloring loop, conflict
detection, worklist compaction, and the integer pricing primitives
(reuse-distance scan, trace coalescing, issue ordering) — through one
of two tiers, resolved lazily once per process:

* C built with the system compiler and bound via ctypes (:mod:`.cc`),
* otherwise the pure-NumPy reference paths, with a one-time warning.

Results are byte-identical on both tiers: the compiled kernels are
exact integer twins of the NumPy formulations, and the pricing half
charges the same descriptors either way.  See docs/PERFORMANCE.md.
"""

from .runtime import current_tier, get_kernels, warmup

__all__ = ["warmup", "get_kernels", "current_tier"]
