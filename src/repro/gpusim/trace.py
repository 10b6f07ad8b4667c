"""Kernel execution traces: SIMT instruction and memory-transaction streams.

A simulated kernel does two things: it computes its *functional* result with
vectorized NumPy, and it records *what the hardware would have done* — one
record per warp-level memory transaction plus dynamic instruction counts —
into a :class:`KernelTrace` via :class:`TraceBuilder`.  The timing model
(:mod:`repro.gpusim.timing`) then prices the trace.

The builder performs the two SIMT-specific transformations:

* **Lockstep execution**: threads in a warp executing a data-dependent loop
  (the ``for w in adj(v)`` loop of every coloring kernel) advance together;
  the warp issues ``max`` over its threads' trip counts iterations, with
  inactive lanes masked off.  This is where intra-warp load imbalance comes
  from.
* **Coalescing**: the up-to-32 per-thread addresses of one warp instruction
  collapse into one transaction per distinct 128-byte line touched
  (Kepler's global-memory transaction granularity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compiledsim import dispatch as _compiled
from .config import DeviceConfig, LaunchConfig

__all__ = ["AccessKind", "MemoryTrace", "ComputeStats", "KernelTrace", "TraceBuilder"]


def _pow2_shift(value: int) -> int | None:
    """Shift amount when ``value`` is a power of two, else ``None``."""
    value = int(value)
    if value > 0 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


def _first_occurrences(key: np.ndarray) -> np.ndarray:
    """First-occurrence indices of each distinct key, in key-sorted order.

    Equivalent to ``np.unique(key, return_index=True)[1]``, with an
    adjacent-run dedup pre-pass: consecutive equal keys (the common shape
    for vertex-indexed streams, where 32 lanes of a warp share a cache
    line at the same step) collapse before the sort sees them.  Exact
    because the first element of a key's earliest run *is* its global
    first occurrence, and run heads preserve array order.
    """
    if key.size == 1:
        return np.zeros(1, dtype=np.intp)
    compiled = _compiled.first_occurrences(key)
    if compiled is not None:
        # Compiled engine: hash first-touch scan + radix sort of the
        # unique subset — same key-sorted first indices, O(n) not
        # O(n log n).
        return compiled
    heads = np.empty(key.size, dtype=bool)
    heads[0] = True
    np.not_equal(key[1:], key[:-1], out=heads[1:])
    # Count before extracting: when nothing collapses (scattered streams),
    # the popcount pass is all we pay — no index array materialized.
    if int(np.count_nonzero(heads)) < key.size:
        kept = np.flatnonzero(heads)
        deduped = key[kept]
    else:
        deduped = key
        kept = None  # nothing collapsed; positions are already indices
    # Hand-rolled np.unique(deduped, return_index=True)[1]: same stable
    # argsort + run-head mask, minus the flatten copy and the unique-values
    # array np.unique builds only to discard.
    perm = deduped.argsort(kind="stable")
    aux = deduped[perm]
    first = np.empty(aux.size, dtype=bool)
    first[0] = True
    np.not_equal(aux[1:], aux[:-1], out=first[1:])
    sel = perm[first]
    return sel if kept is None else kept[sel]


class AccessKind:
    """Transaction type codes stored in :attr:`MemoryTrace.kind`."""

    LOAD = 0  # normal global load (__ld): L2 -> DRAM path
    LDG = 1  # read-only cache load (__ldg): RO cache -> L2 -> DRAM path
    STORE = 2  # global store (write-back through L2)
    ATOMIC = 3  # read-modify-write at the L2 atomic units

    NAMES = {LOAD: "load", LDG: "ldg", STORE: "store", ATOMIC: "atomic"}


@dataclass
class MemoryTrace:
    """Columnar stream of warp-level memory transactions.

    All arrays share one length.  ``wave``/``step``/``warp`` approximate
    issue order: blocks launch in occupancy-sized waves, and within a wave
    resident warps interleave step by step.
    """

    kind: np.ndarray  # uint8 AccessKind codes
    line_id: np.ndarray  # global cache-line ids (int32 when they fit)
    sm_id: np.ndarray  # int32 SM executing the issuing block
    warp_id: np.ndarray  # device-wide warp index (int32 when it fits)
    wave: np.ndarray  # int32 launch wave of the issuing block
    step: np.ndarray  # issue-order key within the wave (int32 when it fits)
    #: Segment boundaries (int64 offsets, len nseg+1) when the columns
    #: were arena-emitted one key-sorted segment per access call; lets
    #: issue_order() use a k-way merge instead of a sort.  None when the
    #: provenance is unknown (legacy concatenation, select()).
    seg_offsets: np.ndarray | None = None

    def __len__(self) -> int:
        return self.kind.size

    def issue_order(self) -> np.ndarray:
        """Indices sorting transactions into approximate service order.

        Warp-major within a wave: a warp's own accesses stay consecutive.
        Lockstep (step-major) interleaving would be wrong — resident warps
        stall independently, so a warp's step ``k+1`` request reaches L2 a
        few hundred cycles after its step ``k``, during which the device
        services only ~10^3 other transactions, far fewer than a full
        wave-wide step.  Warp-major keeps each warp's short-range reuse
        (its own CSR row) adjacent while still interleaving warps at the
        wave granularity the resident set dictates.
        """
        if len(self) == 0:
            return np.empty(0, dtype=np.int64)
        # Single packed-key argsort is ~3x faster than a 3-array lexsort.
        max_step = int(self.step.max()) + 1
        max_warp = int(self.warp_id.max()) + 1
        max_wave = int(self.wave.max()) + 1
        if self.seg_offsets is not None:
            # Arena segments are key-sorted with segment-unique keys, so
            # the stable argsort is a k-way merge (verified on the fly;
            # None falls through to the sorts below).
            merged = _compiled.merge_order(
                self.wave, self.warp_id, self.step, self.seg_offsets,
                max_wave, max_warp, max_step,
            )
            if merged is not None:
                return merged
        if max_wave * max_warp * max_step < (1 << 62):
            # Compiled engine: 3-key LSD counting sort — three passes
            # regardless of key width, the identical permutation to the
            # packed-key stable argsort below.
            compiled3 = _compiled.issue_order3(
                self.wave, self.warp_id, self.step,
                max_wave, max_warp, max_step,
            )
            if compiled3 is not None:
                return compiled3
            # Build the key in place: one int64 buffer, no binary-op temps.
            key = np.multiply(self.wave, max_warp, dtype=np.int64)
            key += self.warp_id
            key *= max_step
            key += self.step
            compiled = _compiled.issue_order(key)
            if compiled is not None:
                # Stable LSD radix argsort: the identical permutation
                # (ties broken by position, same as kind='stable').
                return compiled
            return np.argsort(key, kind="stable")
        return np.lexsort((self.step, self.warp_id, self.wave))  # pragma: no cover

    def select(self, mask: np.ndarray) -> "MemoryTrace":
        return MemoryTrace(
            self.kind[mask], self.line_id[mask], self.sm_id[mask],
            self.warp_id[mask], self.wave[mask], self.step[mask],
        )

    @staticmethod
    def concatenate(traces: list["MemoryTrace"]) -> "MemoryTrace":
        if not traces:
            return MemoryTrace(*(np.empty(0, dtype=d) for d in
                                 (np.uint8, np.int64, np.int32, np.int64, np.int32, np.int64)))
        return MemoryTrace(
            np.concatenate([t.kind for t in traces]),
            np.concatenate([t.line_id for t in traces]),
            np.concatenate([t.sm_id for t in traces]),
            np.concatenate([t.warp_id for t in traces]),
            np.concatenate([t.wave for t in traces]),
            np.concatenate([t.step for t in traces]),
        )


@dataclass
class ComputeStats:
    """Dynamic instruction accounting for one kernel launch."""

    warp_instructions: int = 0  # SIMT issue slots consumed (warp granularity)
    thread_instructions: int = 0  # useful per-lane work (work-efficiency metric)
    barriers: int = 0  # __syncthreads() executions (per block)
    num_threads: int = 0  # launched threads (grid coverage)
    active_threads: int = 0  # threads that did real work

    @property
    def simd_efficiency(self) -> float:
        """Average fraction of lanes doing useful work per issued instruction."""
        cap = self.warp_instructions * 32
        return self.thread_instructions / cap if cap else 0.0


@dataclass
class KernelTrace:
    """Everything the timing model needs about one kernel launch."""

    name: str
    memory: MemoryTrace
    compute: ComputeStats
    num_blocks: int
    launch: LaunchConfig
    atomic_addresses: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )


class TraceBuilder:
    """Accumulates SIMT memory/instruction events for one kernel launch.

    Parameters
    ----------
    device, launch:
        Hardware and launch configuration (thread->warp->block->SM mapping).
    num_threads:
        Size of the launch domain.  Thread ``t`` of the grid handles item
        ``t`` (topology-driven kernels pass ``num_vertices``; data-driven
        kernels pass the worklist length).
    name:
        Kernel name for profiling output.
    """

    _LINE_SHIFT_CACHE: dict[int, int] = {}

    def __init__(
        self,
        device: DeviceConfig,
        launch: LaunchConfig,
        num_threads: int,
        name: str = "kernel",
    ) -> None:
        self.device = device
        self.launch = launch
        self.num_threads = int(num_threads)
        self.name = name
        self.num_blocks = launch.grid_size(self.num_threads)
        self._line_shift = int(device.cache_line_bytes).bit_length() - 1
        #: Chronological append log: ("a", start, end) spans of the arena
        #: or ("s", MemoryTrace) legacy streams.  All-arena builds skip
        #: the final concatenate entirely.
        self._chunks: list[tuple] = []
        #: Arena columns (kind u8, line i32, sm i32, warp i32, wave i32,
        #: step i32), grown amortized; compiled emit appends here.
        self._arena: tuple[np.ndarray, ...] | None = None
        self._arena_len = 0
        self._seg_ends: list[int] = []
        self._atomic_addrs: list[np.ndarray] = []
        self._compute = ComputeStats(num_threads=self.num_threads)
        self._seq = 0  # per-call sequence distinguishing issue slots
        # Resident blocks per SM for wave computation is filled by Device at
        # launch time via set_residency; default assumes full residency.
        self._blocks_per_wave = device.num_sms
        # Power-of-two divisors become shifts on the hot geometry path.
        self._block_shift = _pow2_shift(launch.block_size)
        self._warp_shift = _pow2_shift(device.warp_size)
        # Kernels replay the same thread-id array across several streams
        # (e.g. the per-edge owner array for the C and colors loads); cache
        # the derived geometry per distinct array object.  Holding the
        # reference keeps identity checks sound for the builder's lifetime.
        self._geom_cache: list[tuple[np.ndarray, tuple]] = []

    _ARENA_DTYPES = (np.uint8, np.int32, np.int32, np.int32, np.int32, np.int32)

    def _arena_reserve(self, n: int) -> tuple[np.ndarray, ...]:
        """Views of ``n`` free arena slots per column (growing as needed)."""
        if self._arena is None:
            # A kernel's later streams rarely dwarf its first (the input
            # is pre-dedup, so n already overshoots the emitted size);
            # 4x the first reservation almost always avoids grow-copies.
            cap = max(4 * n, 1 << 16)
            self._arena = tuple(np.empty(cap, dtype=d) for d in self._ARENA_DTYPES)
        elif self._arena_len + n > self._arena[0].shape[0]:
            # Grow with the same slack policy as the initial sizing: the
            # committed prefix being copied is usually tiny (the first
            # streams of a kernel are small), and 4x the triggering
            # reservation absorbs the rest of the builder's lifetime —
            # without it, a large commit followed by any reservation
            # forces a full-arena copy.
            new_cap = max(4 * n, 2 * (self._arena_len + n))
            old = self._arena
            self._arena = tuple(np.empty(new_cap, dtype=a.dtype) for a in old)
            for src, dst in zip(old, self._arena):
                dst[: self._arena_len] = src[: self._arena_len]
        o = self._arena_len
        return tuple(a[o : o + n] for a in self._arena)

    def _commit_arena(self, m: int) -> None:
        start = self._arena_len
        self._arena_len += m
        self._chunks.append(("a", start, self._arena_len))
        self._seg_ends.append(self._arena_len)

    def set_residency(self, blocks_per_sm: int) -> None:
        """Record occupancy so wave boundaries match resident block count."""
        self._blocks_per_wave = max(1, blocks_per_sm) * self.device.num_sms

    # ------------------------------------------------------------------
    # Thread geometry helpers
    # ------------------------------------------------------------------
    def _geometry(self, thread_ids: np.ndarray):
        for arr, geom in self._geom_cache:
            if arr is thread_ids:
                return geom
        # Launch domains sit far below 2**31, so every geometry column is
        # derived straight into int32 (ufunc dtype=): the shift/divide and
        # the narrowing happen in one pass, with no int64 temporaries.
        if self.num_threads > (1 << 31):  # pragma: no cover - >2G threads
            block = thread_ids // self.launch.block_size
            warp = thread_ids // self.device.warp_size
            sm = (block % self.device.num_sms).astype(np.int32)
            wave = (block // self._blocks_per_wave).astype(np.int32)
            geom = (block, warp, sm, wave)
            self._geom_cache.append((thread_ids, geom))
            return geom
        if self._block_shift is not None:
            block = np.right_shift(thread_ids, self._block_shift, dtype=np.int32)
        else:
            block = np.floor_divide(
                thread_ids, self.launch.block_size, dtype=np.int32
            )
        if self._warp_shift is not None:
            warp = np.right_shift(thread_ids, self._warp_shift, dtype=np.int32)
        else:
            warp = np.floor_divide(thread_ids, self.device.warp_size, dtype=np.int32)
        sm = np.mod(block, self.device.num_sms, dtype=np.int32)
        bpw_shift = _pow2_shift(self._blocks_per_wave)
        if bpw_shift is not None:
            wave = np.right_shift(block, bpw_shift, dtype=np.int32)
        else:
            wave = np.floor_divide(block, self._blocks_per_wave, dtype=np.int32)
        geom = (block, warp, sm, wave)
        self._geom_cache.append((thread_ids, geom))
        return geom

    # ------------------------------------------------------------------
    # Memory events
    # ------------------------------------------------------------------
    def access(
        self,
        kind: int,
        thread_ids: np.ndarray,
        addresses: np.ndarray,
        *,
        step: np.ndarray | int = 0,
        memo: dict | None = None,
    ) -> None:
        """Record one memory instruction per (thread, step) pair.

        ``thread_ids``, ``addresses`` (byte addresses) and ``step`` (loop
        trip index, scalar or array) are parallel arrays; the builder
        coalesces same-(warp, step) accesses into line transactions.

        ``memo`` (optional, a dict the caller scopes — e.g. per round or
        per expansion) caches the coalesced stream keyed by the *identity*
        of the inputs plus the launch geometry: two kernels replaying the
        same (thread_ids, addresses, step) arrays under the same geometry
        produce identical transactions, whatever the access kind, so the
        second replay reuses the first's line/sm/warp/wave columns.  Each
        entry holds references to its keyed arrays, keeping the ids valid
        for the memo's lifetime.  Atomics are never memoized (they feed
        the contention model through a side list).
        """
        mkey = None
        if memo is not None and kind != AccessKind.ATOMIC:
            mkey = (
                id(thread_ids),
                id(addresses),
                id(step) if isinstance(step, np.ndarray) else ("i", int(step)),
                self.launch.block_size,
                self.num_threads,
                self._blocks_per_wave,
                self._line_shift,
            )
            hit = memo.get(mkey)
            if hit is not None:
                self._append_memo_hit(kind, hit)
                self._seq += 1
                return
        raw_threads, raw_addresses = thread_ids, addresses
        thread_ids = np.asarray(thread_ids, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64)
        if thread_ids.shape != addresses.shape:
            raise ValueError("thread_ids and addresses must be parallel arrays")
        if thread_ids.size == 0:
            self._seq += 1
            return
        # min/max beat two np.any passes: no boolean temporaries.
        if int(thread_ids.min()) < 0 or int(thread_ids.max()) >= self.num_threads:
            raise ValueError("thread id outside launch domain")
        step_arr = np.broadcast_to(np.asarray(step, dtype=np.int64), thread_ids.shape)

        _, warp, sm, wave = self._geometry(thread_ids)
        line = addresses >> self._line_shift

        # Coalesce: one transaction per unique (warp, step, line), found by
        # a single packed-key unique (faster than a 3-array lexsort; the
        # factors fit int64 at any simulated footprint).
        max_line = int(line.max()) + 1
        max_step = int(step_arr.max()) + 1
        max_warp = int(warp.max()) + 1
        if max_warp * max_step * max_line < (1 << 62):
            # Compiled engine, fully fused: dedup + narrowing gathers
            # straight into the arena columns (same emitted order and
            # values as the unfused path below).
            if _compiled.kernels() is not None:
                out = self._arena_reserve(line.shape[0])
                m = _compiled.emit_coalesced(
                    kind, warp, step_arr, line, sm, wave,
                    max_warp, max_step, max_line, self._seq % 1024, out,
                )
                if m is not None:
                    self._commit_arena(m)
                    if kind == AccessKind.ATOMIC:
                        self._atomic_addrs.append(addresses)
                    elif mkey is not None:
                        memo[mkey] = (
                            "A", *(a[:m] for a in out[1:]),
                            self._seq % 1024,
                            (raw_threads, raw_addresses, step),
                        )
                    self._seq += 1
                    return
            # Compiled engine: component-wise radix unique — the same
            # selection the packed-key path below produces.
            sel = _compiled.coalesce_first(
                warp, step_arr, line, max_warp, max_step, max_line
            )
            if sel is None:
                # Build the key in place (geometry's warp array stays
                # intact); dtype= forces the first product into int64
                # straight away.
                key = np.multiply(warp, max_step, dtype=np.int64)
                key += step_arr
                key *= max_line
                key += line
                sel = _first_occurrences(key)
        else:  # pragma: no cover - would need a >4 EB address space
            order = np.lexsort((line, step_arr, warp))
            w_s, s_s, l_s = warp[order], step_arr[order], line[order]
            first = np.empty(order.size, dtype=bool)
            first[0] = True
            first[1:] = (
                (w_s[1:] != w_s[:-1]) | (s_s[1:] != s_s[:-1]) | (l_s[1:] != l_s[:-1])
            )
            sel = order[first]
            # keep the narrowing checks off
            max_warp = max_step = max_line = 1 << 62

        # The step column packs (trip, issue slot); the warp column only
        # feeds the issue-order key, whose math upcasts to int64 — store
        # both narrow when their ranges fit (half the bytes to gather,
        # concatenate and radix-sort downstream).
        warp_sel = warp[sel]  # geometry columns are already int32
        if max_warp <= (1 << 31) and warp_sel.dtype != np.int32:
            warp_sel = warp_sel.astype(np.int32)  # pragma: no cover
        if max_step <= (1 << 21):
            # step*1024 + 1023 < 2**31, so the product is int32-exact.
            step1024 = np.multiply(step_arr[sel], 1024, dtype=np.int32)
        else:
            step1024 = step_arr[sel] * 1024
        line_sel = line[sel]
        if max_line <= (1 << 31):
            line_sel = line_sel.astype(np.int32)
        sm_sel = sm[sel]
        wave_sel = wave[sel]
        self._chunks.append(("s", MemoryTrace(
            kind=np.full(sel.size, kind, dtype=np.uint8),
            line_id=line_sel,
            sm_id=sm_sel,
            warp_id=warp_sel,
            wave=wave_sel,
            step=step1024 + step1024.dtype.type(self._seq % 1024),
        )))
        if kind == AccessKind.ATOMIC:
            self._atomic_addrs.append(addresses)
        elif mkey is not None:
            memo[mkey] = (
                line_sel, sm_sel, warp_sel, wave_sel, step1024,
                (raw_threads, raw_addresses, step),
            )
        self._seq += 1

    def _append_memo_hit(self, kind: int, hit: tuple) -> None:
        """Replay a memoized coalesced stream under a fresh issue slot.

        Entries come in two forms: legacy 6-tuples of narrowed columns
        (step stored *without* its issue-slot offset) and arena-tagged
        8-tuples (``"A"`` + columns with the *originating* offset baked
        in).  Either replays into the arena when the compiled emit path
        is active and the columns are narrow, else into a legacy stream.
        """
        if isinstance(hit[0], str):
            line_sel, sm_sel, warp_sel, wave_sel, step_v = hit[1:6]
            old_off = hit[6]
        else:
            line_sel, sm_sel, warp_sel, wave_sel, step_v = hit[:5]
            old_off = 0
        new_off = self._seq % 1024
        m = line_sel.shape[0]
        if (
            _compiled.kernels() is not None
            and line_sel.dtype == np.int32
            and warp_sel.dtype == np.int32
            and step_v.dtype == np.int32
        ):
            out = self._arena_reserve(m)
            out[0].fill(kind)
            out[1][:] = line_sel
            out[2][:] = sm_sel
            out[3][:] = warp_sel
            out[4][:] = wave_sel
            np.add(step_v, np.int32(new_off - old_off), out=out[5])
            self._commit_arena(m)
            return
        self._chunks.append(("s", MemoryTrace(
            kind=np.full(m, kind, dtype=np.uint8),
            line_id=line_sel,
            sm_id=sm_sel,
            warp_id=warp_sel,
            wave=wave_sel,
            step=step_v + step_v.dtype.type(new_off - old_off),
        )))

    def load(self, thread_ids, addresses, *, ldg: bool = False, step=0, memo=None) -> None:
        """Global load; ``ldg=True`` routes through the read-only cache."""
        self.access(AccessKind.LDG if ldg else AccessKind.LOAD, thread_ids, addresses,
                    step=step, memo=memo)

    def store(self, thread_ids, addresses, *, step=0, memo=None) -> None:
        self.access(AccessKind.STORE, thread_ids, addresses, step=step, memo=memo)

    def atomic(self, thread_ids, addresses, *, step=0) -> None:
        """Atomic read-modify-write (contention priced per address)."""
        self.access(AccessKind.ATOMIC, thread_ids, addresses, step=step)

    # ------------------------------------------------------------------
    # Instruction accounting
    # ------------------------------------------------------------------
    def instructions(
        self,
        thread_ids: np.ndarray,
        per_thread: np.ndarray | int,
        *,
        note: str | None = None,
    ) -> None:
        """Charge arithmetic/control instructions to the issuing warps.

        ``per_thread`` may be scalar (uniform cost) or an array parallel to
        ``thread_ids`` (data-dependent trip counts).  SIMT lockstep means a
        warp issues ``max`` over its lanes; useful work is the per-lane sum.
        """
        thread_ids = np.asarray(thread_ids, dtype=np.int64)
        if thread_ids.size == 0:
            return
        counts = np.broadcast_to(
            np.asarray(per_thread, dtype=np.int64), thread_ids.shape
        )
        warp = None
        for arr, geom in self._geom_cache:
            if arr is thread_ids:
                warp = geom[1]
                break
        if warp is None:
            if self._warp_shift is not None:
                warp = thread_ids >> self._warp_shift
            else:
                warp = thread_ids // self.device.warp_size
        nwarps = int(warp.max()) + 1
        warp_max = np.zeros(nwarps, dtype=np.int64)
        np.maximum.at(warp_max, warp, counts)
        self._compute.warp_instructions += int(warp_max.sum())
        self._compute.thread_instructions += int(counts.sum())

    def activate(self, num_active: int) -> None:
        """Record how many launched threads had real work this launch."""
        self._compute.active_threads += int(num_active)

    def barrier(self, times: int = 1) -> None:
        """Record ``__syncthreads()`` executions (one per block each)."""
        self._compute.barriers += int(times) * self.num_blocks

    def uniform_overhead(self, per_thread_instr: int) -> None:
        """Fixed prologue/epilogue cost every launched thread pays."""
        warps = -(-self.num_threads // self.device.warp_size)
        self._compute.warp_instructions += warps * int(per_thread_instr)
        self._compute.thread_instructions += self.num_threads * int(per_thread_instr)

    # ------------------------------------------------------------------
    def build(self) -> KernelTrace:
        """Finalize into an immutable :class:`KernelTrace`."""
        atomic_addrs = (
            np.concatenate(self._atomic_addrs)
            if self._atomic_addrs
            else np.empty(0, dtype=np.int64)
        )
        return KernelTrace(
            name=self.name,
            memory=self._finalize_memory(),
            compute=self._compute,
            num_blocks=self.num_blocks,
            launch=self.launch,
            atomic_addresses=atomic_addrs,
        )

    def _finalize_memory(self) -> MemoryTrace:
        if not self._chunks:
            return MemoryTrace.concatenate([])
        if self._arena is not None and all(c[0] == "a" for c in self._chunks):
            n = self._arena_len
            offs = np.empty(len(self._seg_ends) + 1, dtype=np.int64)
            offs[0] = 0
            offs[1:] = self._seg_ends
            cols = tuple(a[:n] for a in self._arena)
            return MemoryTrace(*cols, seg_offsets=offs)
        parts = []
        for c in self._chunks:
            if c[0] == "a":
                parts.append(
                    MemoryTrace(*(a[c[1]:c[2]] for a in self._arena))
                )
            else:
                parts.append(c[1])
        return MemoryTrace.concatenate(parts)
