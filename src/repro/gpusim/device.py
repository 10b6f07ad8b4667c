"""The simulated device: memory allocation, kernel launches, host transfers.

Algorithms use the device like a thin CUDA runtime:

* :meth:`Device.alloc` / :meth:`Device.upload` give :class:`DeviceArray`
  objects — NumPy arrays with a stable simulated *byte address*, so the
  cache model sees realistic address layout and reuse across kernels.
* :meth:`Device.builder` starts a kernel launch; the algorithm performs its
  functional work with NumPy, records memory/instruction events on the
  builder, and :meth:`Device.commit` prices the launch and appends it to
  the timeline.
* :meth:`Device.htod` / :meth:`Device.dtoh` charge PCIe transfer time —
  this is the cost that sinks the 3-step GM baseline, which round-trips the
  graph's conflicts through the host every outer iteration.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .config import DeviceConfig, KEPLER_K20C, LaunchConfig
from .occupancy import compute_occupancy
from .timing import KernelProfile, price_kernel
from .trace import TraceBuilder

__all__ = ["DeviceArray", "TransferEvent", "Timeline", "Device"]

_ALIGNMENT = 256  # CUDA malloc alignment


@dataclass
class DeviceArray:
    """A device-resident array: NumPy values plus a simulated base address."""

    data: np.ndarray
    base: int
    name: str = "buf"

    @property
    def itemsize(self) -> int:
        return self.data.itemsize

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def addr(self, indices: np.ndarray | int | None = None) -> np.ndarray:
        """Byte address(es) of the given element indices (all, if None)."""
        if indices is None:
            indices = np.arange(self.data.size, dtype=np.int64)
        return self.base + np.asarray(indices, dtype=np.int64) * self.itemsize

    def __len__(self) -> int:
        return self.data.size


@dataclass(frozen=True)
class TransferEvent:
    """One PCIe transfer (host<->device)."""

    direction: str  # 'htod' | 'dtoh'
    nbytes: int
    time_us: float


@dataclass
class Timeline:
    """Ordered record of everything the device did."""

    events: list = field(default_factory=list)

    def add(self, event) -> None:
        self.events.append(event)

    def kernels(self) -> Iterator[KernelProfile]:
        return (e for e in self.events if isinstance(e, KernelProfile))

    def transfers(self) -> Iterator[TransferEvent]:
        return (e for e in self.events if isinstance(e, TransferEvent))

    def kernel_time_us(self) -> float:
        return sum(k.time_us for k in self.kernels())

    def transfer_time_us(self) -> float:
        return sum(t.time_us for t in self.transfers())

    def launch_overhead_us(self, device: DeviceConfig) -> float:
        return sum(1 for _ in self.kernels()) * device.kernel_launch_overhead_us

    def total_time_us(self, device: DeviceConfig) -> float:
        """End-to-end simulated time including per-launch overheads."""
        return (
            self.kernel_time_us()
            + self.transfer_time_us()
            + self.launch_overhead_us(device)
        )

    def num_launches(self) -> int:
        return sum(1 for _ in self.kernels())

    def since(self, start: int) -> "Timeline":
        """View of the events appended after position ``start``.

        Lets one long-lived device serve many runs while each run reports
        only its own span: take ``start = len(timeline.events)`` before
        the run and aggregate over ``timeline.since(start)`` after.
        """
        return Timeline(events=self.events[start:])


class Device:
    """A simulated Kepler-class GPU instance.

    Parameters
    ----------
    config:
        Microarchitecture; defaults to the paper's K20c.
    cache_model:
        ``'reuse_distance'`` (default), ``'exact'`` or ``'analytic'`` —
        forwarded to the timing model.
    seed:
        Seed for the stochastic parts of cache extrapolation.
    """

    def __init__(
        self,
        config: DeviceConfig = KEPLER_K20C,
        *,
        cache_model: str = "reuse_distance",
        seed: int = 0,
    ) -> None:
        self.config = config
        self.cache_model = cache_model
        self.seed = seed
        self.timeline = Timeline()
        #: Optional :class:`~repro.obs.tracer.Tracer` (duck-typed); when
        #: set, every priced event is mirrored as a trace span.
        self.tracer = None
        self._next_addr = _ALIGNMENT
        self._launch_counter = 0
        self._pool: dict | None = None  # enable_pool() turns recycling on
        self.pool_hits = 0
        self.pool_misses = 0

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def enable_pool(self) -> None:
        """Turn on the allocation pool (see :meth:`release`).

        Off by default so legacy single-run callers keep exact address
        behavior; the execution engine enables it so worklists and scratch
        buffers recycle across runs instead of consuming fresh address
        space (and fresh cold-cache footprints) every time.
        """
        if self._pool is None:
            self._pool = {}

    @staticmethod
    def _pool_key(shape, dtype) -> tuple:
        shape_t = tuple(shape) if isinstance(shape, (tuple, list)) else (int(shape),)
        return (shape_t, np.dtype(dtype).str)

    def alloc(self, shape, dtype, *, name: str = "buf", fill=None) -> DeviceArray:
        """Allocate a device array (optionally filled with a constant).

        With the pool enabled, an exact shape/dtype match released earlier
        is reused (same simulated address); ``fill`` is reapplied, but
        unfilled reuse sees stale contents — exactly like ``cudaMalloc``
        recycling, so initialize what you read.
        """
        if self._pool is not None:
            free = self._pool.get(self._pool_key(shape, dtype))
            if free:
                buf = free.pop()
                buf.name = name
                if fill is not None:
                    buf.data.fill(fill)
                self.pool_hits += 1
                if self.tracer is not None:
                    self.tracer.event(
                        f"alloc:{name}", "alloc", nbytes=buf.nbytes, pooled=1
                    )
                return buf
            self.pool_misses += 1
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        buf = self._register(arr, name)
        if self.tracer is not None:
            self.tracer.event(f"alloc:{name}", "alloc", nbytes=buf.nbytes, pooled=0)
        return buf

    def release(self, buf: DeviceArray) -> None:
        """Return a buffer to the allocation pool (no-op when disabled)."""
        if self._pool is not None:
            self._pool.setdefault(self._pool_key(buf.data.shape, buf.data.dtype), []).append(buf)

    def upload(self, host_array: np.ndarray, *, name: str = "buf") -> DeviceArray:
        """Copy a host array to the device, charging PCIe time."""
        arr = np.array(host_array, copy=True)
        buf = self._register(arr, name)
        self.htod(arr.nbytes)
        return buf

    def register(self, host_array: np.ndarray, *, name: str = "buf") -> DeviceArray:
        """Place an array on the device *without* charging PCIe time.

        Use for data assumed resident before timing starts (the paper
        excludes the one-time input transfer from all schemes' timings).
        """
        return self._register(np.array(host_array, copy=True), name)

    def _register(self, arr: np.ndarray, name: str) -> DeviceArray:
        base = self._next_addr
        self._next_addr += (arr.nbytes + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        return DeviceArray(data=arr, base=base, name=name)

    # ------------------------------------------------------------------
    # Transfers
    # ------------------------------------------------------------------
    def _transfer(self, direction: str, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("transfer size cannot be negative")
        time_us = self.config.pcie_latency_us + nbytes / (
            self.config.pcie_bandwidth_gbs * 1e3
        )
        self.timeline.add(TransferEvent(direction, nbytes, time_us))
        if self.tracer is not None:
            self.tracer.event(direction, direction, duration_us=time_us, nbytes=nbytes)

    def htod(self, nbytes: int) -> None:
        """Host-to-device transfer of ``nbytes``."""
        self._transfer("htod", nbytes)

    def dtoh(self, nbytes: int) -> None:
        """Device-to-host transfer of ``nbytes``."""
        self._transfer("dtoh", nbytes)

    # ------------------------------------------------------------------
    # Kernel launches
    # ------------------------------------------------------------------
    def builder(
        self, num_threads: int, launch: LaunchConfig | None = None, *, name: str = "kernel"
    ) -> TraceBuilder:
        """Begin recording a kernel launch over ``num_threads`` threads."""
        launch = launch or LaunchConfig()
        tb = TraceBuilder(self.config, launch, num_threads, name=name)
        tb.set_residency(compute_occupancy(self.config, launch).blocks_per_sm)
        return tb

    def _price(self, builder: TraceBuilder, seed: int) -> KernelProfile:
        """Build and price a recorded launch (pure: no device state touched)."""
        return price_kernel(
            builder.build(),
            self.config,
            cache_model=self.cache_model,
            seed=seed,
        )

    def _record(self, profile: KernelProfile) -> KernelProfile:
        self.timeline.add(profile)
        if self.tracer is not None:
            self.tracer.event(
                profile.name,
                "kernel",
                duration_us=profile.time_us + self.config.kernel_launch_overhead_us,
                kernel_us=profile.time_us,
                launches=1,
                transactions=profile.memory.transactions,
                dram_bytes=profile.memory.dram_bytes,
                occupancy=profile.occupancy,
                bound=profile.bound,
            )
        return profile

    def commit(self, builder: TraceBuilder) -> KernelProfile:
        """Price the recorded launch and append it to the timeline."""
        profile = self._price(builder, self.seed + self._launch_counter)
        self._launch_counter += 1
        return self._record(profile)

    def commit_pair(
        self, first: TraceBuilder, second: TraceBuilder
    ) -> tuple[KernelProfile, KernelProfile]:
        """Price two recorded launches concurrently.

        Byte-identical to ``(commit(first), commit(second))``: pricing is a
        pure function of (trace, config, seed), seeds are assigned in call
        order from the launch counter, and the timeline/tracer events are
        appended in order after both prices land.  The host-side win is
        overlapping the two sort/scan-heavy pricing passes (NumPy releases
        the GIL in the kernels that dominate them).  The second pass runs
        in a copy of the caller's context, so it sees the same run scope
        (fault sites, deadline) as the first.
        """
        seed0 = self.seed + self._launch_counter
        if (os.cpu_count() or 1) > 1:
            with ThreadPoolExecutor(max_workers=1) as pool:
                future = pool.submit(
                    contextvars.copy_context().run,
                    self._price, second, seed0 + 1,
                )
                profile_a = self._price(first, seed0)
                profile_b = future.result()
        else:  # single-core host: overlap buys nothing, skip the thread hop
            profile_a = self._price(first, seed0)
            profile_b = self._price(second, seed0 + 1)
        self._launch_counter += 2
        return self._record(profile_a), self._record(profile_b)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear the timeline (memory addresses keep advancing)."""
        self.timeline = Timeline()
        self._launch_counter = 0

    def total_time_us(self) -> float:
        return self.timeline.total_time_us(self.config)
