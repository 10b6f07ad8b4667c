"""Out-of-core streaming: color graphs bigger than RAM, window by window.

A thin wrapper over :class:`~repro.parallel.partitioned.PartitionedRun`
(the protocol is documented there) whose piece source bounds memory.
:func:`~repro.parallel.sharded.color_sharded` holds every shard's induced
subgraph alive at once, so its peak memory is ``O(m)``.  Here the vertex
range is cut into contiguous **windows** (the same bounds as
:func:`~repro.graph.partition.block_partition`, so ``num_windows=k``
colors the vertex blocks ``num_shards=k`` does), and each window's
induced subgraph is built, colored through one shared
:class:`~repro.engine.context.ExecutionContext` and dropped before the
next.  The backing graph is only ever *sliced*: with an mmap-backed
store (:class:`~repro.graph.store.MmapStore`,
:func:`~repro.graph.io.stream.read_csr_bin`) the topology never enters
private memory, and peak RSS is ``O(n + window)``.

The conflict scan and the validation are windowed too, so no step ever
expands all edge endpoints at once.  Windows run one after another on
one device, so device/transfer times *sum* over windows.
"""

from __future__ import annotations

import numpy as np

from ..coloring.base import ColoringResult
from ..graph.csr import CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE
from .partitioned import PartitionedRun, PieceSource, piece_row, resolve_settings

__all__ = ["plan_windows", "window_subgraph", "color_streamed"]

#: Subgraph construction needs a few transient arrays per window (the
#: slice, its mask, the compacted copy), so a memory budget maps to a
#: window size of roughly ``budget / _WINDOW_OVERHEAD``.
_WINDOW_OVERHEAD = 4


def plan_windows(
    graph,
    *,
    num_windows: int | None = None,
    memory_budget_mb: float | None = None,
) -> np.ndarray:
    """Contiguous window bounds ``b`` with windows ``[b[i], b[i+1])``.

    With ``num_windows``, bounds replicate
    :func:`~repro.graph.partition.block_partition` exactly (streaming and
    sharded runs over ``k`` pieces then color identical vertex blocks).
    With ``memory_budget_mb``, the window count is chosen so one
    window's working set — topology slice plus construction scratch —
    fits the budget.  At least one of the two must be given; both raises.
    """
    n = graph.num_vertices
    if (num_windows is None) == (memory_budget_mb is None):
        raise ValueError("give exactly one of num_windows / memory_budget_mb")
    if num_windows is None:
        budget = float(memory_budget_mb) * (1 << 20)
        if budget <= 0:
            raise ValueError("memory_budget_mb must be positive")
        window_bytes = max(1.0, budget / _WINDOW_OVERHEAD)
        num_windows = max(1, int(np.ceil(graph.memory_bytes() / window_bytes)))
    num_windows = max(1, min(int(num_windows), max(n, 1)))
    return np.linspace(0, n, num_windows + 1).astype(np.int64)


def window_subgraph(graph, lo: int, hi: int) -> CSRGraph:
    """Induced subgraph on the contiguous vertex range ``[lo, hi)``.

    Equivalent to ``graph.subgraph_mask`` on that block (for the
    canonical row-sorted adjacency our builders produce) but computed
    from one CSR slice: only ``O(window)`` bytes are ever materialized,
    and the backing arrays are merely indexed — an mmap graph pages in
    just this range.
    """
    R, C = graph.row_offsets, graph.col_indices
    base = int(R[lo])
    sub_R_raw = np.asarray(R[lo : hi + 1], dtype=np.int64) - base
    window = np.asarray(C[base : int(R[hi])])
    internal = (window >= lo) & (window < hi)
    kept_prefix = np.zeros(window.size + 1, dtype=np.int64)
    np.cumsum(internal, out=kept_prefix[1:])
    sub_R = kept_prefix[sub_R_raw].astype(OFFSET_DTYPE)
    sub_C = (window[internal] - lo).astype(VERTEX_DTYPE)
    return CSRGraph.from_validated_arrays(
        sub_R, sub_C, name=f"{graph.name}[{lo}:{hi}]"
    )


def _window_edges(graph, lo: int, hi: int):
    """``(sources, targets)`` of the adjacency entries rowed in ``[lo, hi)``."""
    R, C = graph.row_offsets, graph.col_indices
    degrees = np.asarray(R[lo : hi + 1], dtype=np.int64)
    degrees = degrees[1:] - degrees[:-1]
    sources = np.repeat(np.arange(lo, hi, dtype=np.int64), degrees)
    targets = np.asarray(C[int(R[lo]) : int(R[hi])], dtype=np.int64)
    return sources, targets


class _Windows(PieceSource):
    """Windows colored one after another through one shared context."""

    label = "streamed"
    mode = "stream"
    sequential = True
    cap_chain = ("streamed", "jacobi")

    def __init__(self, graph, bounds: np.ndarray, settings) -> None:
        self.graph, self.bounds, self.settings = graph, bounds, settings
        self.num_pieces = len(bounds) - 1
        self.span = {"windows": self.num_pieces}
        self._losers = None

    def stats(self, run) -> dict:
        return {"mode": "stream",
                "peak_window_bytes": run.agg["peak_window_bytes"]}

    def color(self, run) -> list:
        from ..engine.context import ExecutionContext

        s, agg = self.settings, run.agg
        agg.setdefault("peak_window_bytes", 0)
        ctx = ExecutionContext(
            backend=s.backend, observe=run.observe, faults=run.robustness,
            health=None, **dict(s.backend_opts or {}),
        )
        for w in range(run.pieces_done, self.num_pieces):
            lo, hi = int(self.bounds[w]), int(self.bounds[w + 1])
            if run.control is not None:
                run.control.check("window")
            run.storm(w, "window", "window")
            if hi <= lo:
                run.pieces_done = w + 1
                continue
            sub = window_subgraph(self.graph, lo, hi)
            agg["peak_window_bytes"] = max(
                agg["peak_window_bytes"], sub.memory_bytes()
            )
            res = ctx.run(sub, run.method, validate=False, **run.options)
            run.colors[lo:hi] = res.colors
            agg["gpu_us"] += res.gpu_time_us
            agg["cpu_us"] += res.cpu_time_us
            agg["xfer_us"] += res.transfer_time_us
            agg["launches"] += res.num_kernel_launches
            agg["iterations"] = max(agg["iterations"], res.iterations)
            run.rows.append(piece_row({"window": [lo, hi]}, sub, res))
            ctx.evict(sub)  # the window's device buffers return to the pool
            del sub
            run.pieces_done = w + 1
            run.save(run.pieces_done, "pieces")
        return []

    def find_losers(self, colors):
        """Scan window by window: every (symmetric) edge is seen from both
        endpoint rows, so the scan covers the edge set without expanding
        it at once, and counts each conflict twice like the block scan."""
        if self._losers is None:
            self._losers = np.zeros(self.graph.num_vertices, dtype=bool)
        losers, conflicted = self._losers, 0
        losers[:] = False
        for lo, hi in zip(self.bounds[:-1], self.bounds[1:]):
            u, v = _window_edges(self.graph, int(lo), int(hi))
            bad = colors[u] == colors[v]
            if bad.any():
                conflicted += int(bad.sum())
                losers[np.maximum(u[bad], v[bad])] = True
        return np.nonzero(losers)[0], conflicted

    def validate(self, result) -> None:
        """Windowed check: ``result.validate`` would expand every edge."""
        remaining = self.find_losers(result.colors)[1]
        if remaining:
            raise AssertionError(
                f"streamed coloring left {remaining} conflicted edges"
            )
        if self.graph.num_vertices and int(result.colors.min()) < 1:
            raise AssertionError("streamed coloring left uncolored vertices")


def color_streamed(
    graph,
    method: str = "data-ldg",
    *,
    num_windows: int | None = None,
    memory_budget_mb: float | None = None,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    validate: bool = True,
    max_resolution_rounds: int = 16,
    faults=None,
    health=None,
    deadline_ms=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume=None,
    **options,
) -> ColoringResult:
    """Color ``graph`` window by window with bounded peak memory.

    Each contiguous window's induced subgraph is colored through one
    shared context and evicted before the next is built; boundary
    conflicts are repaired with the windowed Jacobi resolver (sequential
    sweep after ``max_resolution_rounds``, same as sharded coloring).
    ``validate=True`` runs the *windowed* conflict check — the standard
    checker would materialize every edge endpoint on the heap.

    ``deadline_ms`` (a number or a ready
    :class:`~repro.resilience.RunControl`) is checked before every
    window and repair round, raising the structured
    :class:`~repro.resilience.DeadlineExceeded`.  ``checkpoint=<path>``
    atomically snapshots colors + accumulators after each completed
    window (rounds ``1..W``) and repair round (``W+1..``) at the
    ``checkpoint_every`` cadence; ``resume=<path>`` restores a matching
    checkpoint — completed windows are skipped and the final colors are
    byte-identical to an uninterrupted run.  A missing resume file is a
    normal fresh start.

    Returns a checker-valid coloring whose ``shard_stats`` mirrors the
    sharded layout with ``mode="stream"`` plus the peak window footprint.
    """
    method, s = resolve_settings(
        "color_streamed", method, config,
        backend=backend, backend_opts=backend_opts, faults=faults,
        health=health, observe=observe, deadline_ms=deadline_ms,
    )
    bounds = plan_windows(
        graph, num_windows=num_windows, memory_budget_mb=memory_budget_mb
    )
    return PartitionedRun(
        graph, method, _Windows(graph, bounds, s), s, options=options,
        validate=validate, max_resolution_rounds=max_resolution_rounds,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every,
        resume=resume,
    ).run()
