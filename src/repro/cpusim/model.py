"""Sequential-CPU cost model for the baseline the paper normalizes to.

The paper's speedups are "time on K20c / time of the sequential greedy on a
Xeon E5-2670".  Wall-clock of our NumPy code is meaningless for that ratio
(it measures the Python interpreter, not the algorithm), so the sequential
baseline is priced with the same trace-driven methodology as the GPU: the
algorithm emits its memory-access stream, a two-level cache model (256 KB
L2 + 20 MB LLC) assigns latencies, and an out-of-order core model overlaps
them against instruction issue.

Model: ``cycles = max(instructions / IPC, total_miss_latency / MLP)`` —
the standard first-order OoO bound (issue-limited vs memory-limited), with
MLP capped by the line-fill buffers a single core sustains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpusim.cache import reuse_distance_hits
from ..gpusim.config import CPUConfig, XEON_E5_2670

__all__ = ["CPUEvent", "CPU"]


@dataclass(frozen=True)
class CPUEvent:
    """One priced stretch of sequential execution."""

    name: str
    instructions: int
    accesses: int
    l2_hits: int
    llc_hits: int
    dram_accesses: int
    cycles: float
    time_us: float


@dataclass
class CPU:
    """A single simulated CPU core with an event timeline."""

    config: CPUConfig = field(default_factory=lambda: XEON_E5_2670)
    events: list[CPUEvent] = field(default_factory=list)

    def run(
        self,
        name: str,
        *,
        instructions: int,
        addresses: np.ndarray | None = None,
        sequential_bytes: int = 0,
    ) -> CPUEvent:
        """Price a stretch of execution.

        Parameters
        ----------
        instructions:
            Dynamic instruction count of the stretch.
        addresses:
            Byte addresses of its *irregular* (gather) memory accesses, in
            program order; these run through the cache model.
        sequential_bytes:
            Bytes touched by streaming (prefetchable) accesses — charged at
            one miss per line against DRAM latency but with perfect MLP
            overlap, i.e. effectively bandwidth-free in this latency model.
        """
        cfg = self.config
        l2_hits = llc_hits = dram = 0
        miss_latency = 0.0
        n_access = 0
        if addresses is not None and len(addresses):
            addresses = np.asarray(addresses, dtype=np.int64)
            n_access = addresses.size
            lines = addresses >> (int(cfg.cache_line_bytes).bit_length() - 1)
            in_l2 = reuse_distance_hits(lines, cfg.l2_cache_lines)
            in_llc = reuse_distance_hits(lines, cfg.llc_cache_lines) & ~in_l2
            to_dram = ~(in_l2 | in_llc)
            l2_hits = int(in_l2.sum())
            llc_hits = int(in_llc.sum())
            dram = int(to_dram.sum())
            miss_latency = (
                l2_hits * cfg.l2_hit_latency
                + llc_hits * cfg.llc_hit_latency
                + dram * cfg.dram_latency
            )
        # Streaming traffic: hardware prefetchers hide latency; charge a
        # nominal 2 cycles per line to keep long streams from being free.
        stream_lines = sequential_bytes // cfg.cache_line_bytes
        stream_cycles = 2.0 * stream_lines

        cycles = max(instructions / cfg.ipc, miss_latency / cfg.mlp) + stream_cycles
        event = CPUEvent(
            name=name,
            instructions=instructions,
            accesses=n_access,
            l2_hits=l2_hits,
            llc_hits=llc_hits,
            dram_accesses=dram,
            cycles=cycles,
            time_us=cycles / cfg.cycles_per_us,
        )
        self.events.append(event)
        return event

    def total_time_us(self) -> float:
        return sum(e.time_us for e in self.events)

    def reset(self) -> None:
        self.events.clear()


@dataclass
class MulticoreCPU:
    """A ``p``-core CPU model for the OpenMP-style parallel baselines.

    Çatalyürek et al.'s speculative greedy runs on multicore CPUs; pricing
    it lets the library reproduce the Background-section comparison.  The
    model runs each parallel region as ``p`` single-core stretches over a
    ``1/p`` work share with an Amdahl-style parallel efficiency (memory
    bandwidth and coherence keep real scaling below linear), plus a
    per-round barrier cost.
    """

    config: CPUConfig = field(default_factory=lambda: XEON_E5_2670)
    cores: int = 8
    parallel_efficiency: float = 0.75
    barrier_us: float = 2.0  # OpenMP barrier + fork/join per region
    events: list[CPUEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one core")
        if not 0 < self.parallel_efficiency <= 1:
            raise ValueError("parallel_efficiency must be in (0, 1]")

    def run_parallel(
        self,
        name: str,
        *,
        instructions: int,
        addresses: np.ndarray | None = None,
        sequential_bytes: int = 0,
    ) -> CPUEvent:
        """Price one parallel region (a 'for ... in parallel' round)."""
        core = CPU(config=self.config)
        share = max(1, self.cores)
        sub_addresses = None
        if addresses is not None and len(addresses):
            # Each core sees an interleaved 1/p slice of the access stream;
            # slicing preserves each core's locality structure.
            sub_addresses = np.asarray(addresses)[:: share]
        event = core.run(
            name,
            instructions=int(instructions / share),
            addresses=sub_addresses,
            sequential_bytes=int(sequential_bytes / share),
        )
        cycles = event.cycles / self.parallel_efficiency
        cycles += self.barrier_us * self.config.cycles_per_us
        out = CPUEvent(
            name=name,
            instructions=event.instructions,
            accesses=event.accesses,
            l2_hits=event.l2_hits,
            llc_hits=event.llc_hits,
            dram_accesses=event.dram_accesses,
            cycles=cycles,
            time_us=cycles / self.config.cycles_per_us,
        )
        self.events.append(out)
        return out

    def total_time_us(self) -> float:
        return sum(e.time_us for e in self.events)

    def reset(self) -> None:
        self.events.clear()
