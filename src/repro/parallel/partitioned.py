"""One partitioned run: color the pieces, then resolve the cut.

The paper's speculate-then-resolve loop (Alg. 4/5) lifted from threads
to pieces of the vertex set.  ``color_sharded``, ``color_streamed`` and
``color_distributed`` are this one protocol at different granularities
(Rokos et al.'s conflict-fix loop, Bogle & Slota's distributed-GPU
coloring), so each is a thin wrapper that hands two parts to
:class:`PartitionedRun`:

* a **piece source** colors the pieces and finds the conflict losers:
  concurrent block shards through the job scheduler (sharded), store-
  backed windows one after another through one shared context
  (streamed), or per-device contexts behind a transport (distributed);
* an **exchange policy** says what moves between pieces after each
  repair round: nothing (:class:`NoExchange`, one address space) or a
  full/delta halo over a priced interconnect (distributed).

Each repair round, the higher-id endpoint of every conflicted edge
recolors itself to the smallest color missing from a snapshot of its
neighborhood (Jacobi): one segmented mex over all losers at once.  Only
the first round scans the whole edge set; later ones rescan just the
recolored rows.  After ``max_resolution_rounds`` one sequential sweep
with live reads finishes: a vertex recolored away from *all* its
neighbors creates no new conflict, so the sweep ends proper.  Decisions
depend only on the vertex blocks, so equal piece counts give
byte-identical colors in every mode.  Concurrent sources report the
makespan (maximum over pieces), sequential ones the sum; the host-side
repair is functional and unpriced.
"""

from __future__ import annotations

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np

from ..coloring.base import COLOR_DTYPE, ColoringResult
from ..coloring.kernels import color_waves, min_excluded_colors
from ..faults import Robustness, resolve_robustness
from ..graph.partition import block_partition, boundary_vertices
from ..obs.observe import resolve_observe
from ..resilience.checkpoint import Checkpointer, load_resume, run_fingerprint
from ..resilience.deadline import DeadlineExceeded, resolve_control
from .jobs import ColorJob

__all__ = [
    "BlockPieces", "NoExchange", "PartitionedRun", "PieceFailure",
    "PieceSource", "jacobi_recolor", "rescan_losers", "resolve_settings",
    "sweep_recolor",
]


def resolve_settings(entry_point: str, method: str, config, **explicit):
    """Merge ``config=`` into an entry point's keywords; resolve ``method``.

    Returns ``(method, settings)``: one ``settings`` attribute per
    keyword (see :func:`~repro.engine.config.normalize_config`).
    """
    from ..coloring.api import METHODS
    from ..coloring.registry import resolve_method
    from ..engine.config import normalize_config

    merged = normalize_config(entry_point, config, explicit)
    method = resolve_method(method, METHODS, entry_point=entry_point)
    return method, SimpleNamespace(**merged)


class PieceFailure(RuntimeError):
    """Piece jobs failed after retries; carries the failures."""

    noun, piece = "piece job(s)", "piece"

    def __init__(self, failures: list) -> None:
        self.failures = list(failures)
        detail = "; ".join(
            f"{self.piece} {f.index} ({f.method} on {f.graph}): {f.error}"
            for f in self.failures
        )
        super().__init__(f"{len(self.failures)} {self.noun} failed: {detail}")


#: Adjacency entries one repair pass gathers at a time: the repair's
#: scratch stays bounded on graphs whose topology lives out of core.
_ROW_CHUNK = 1 << 16


def _loser_rows(graph, ids: np.ndarray):
    """Yield ``(lo, hi, seg, nbr)`` over the adjacency rows of ``ids``.

    Each chunk covers ``ids[lo:hi]`` with about ``_ROW_CHUNK`` entries
    (one row may exceed it): ``seg`` is an entry's owner position within
    the chunk (sorted) and ``nbr`` its neighbor id.  Built straight from
    the CSR arrays, so no whole-graph expansion is ever materialized.
    """
    R = graph.row_offsets
    starts = np.asarray(R[ids], dtype=np.int64)
    lens = np.asarray(R[ids + 1], dtype=np.int64) - starts
    ends = np.cumsum(lens)
    lo = 0
    while lo < ids.size:
        base = int(ends[lo] - lens[lo])
        hi = max(lo + 1, int(np.searchsorted(ends, base + _ROW_CHUNK, "right")))
        chunk_lens = lens[lo:hi]
        seg = np.repeat(np.arange(hi - lo, dtype=np.int64), chunk_lens)
        # Entry j of the chunk is C[start of its row + j - row's first j].
        shift = starts[lo:hi] - (ends[lo:hi] - chunk_lens - base)
        edge = np.arange(int(ends[hi - 1]) - base, dtype=np.int64) + shift[seg]
        yield lo, hi, seg, graph.col_indices[edge]
        lo = hi


def rescan_losers(graph, colors, rows: np.ndarray):
    """``(sorted loser ids, conflicted directed edges)`` over ``rows``.

    After a Jacobi round only the recolored vertices can conflict: each
    took a color absent from every neighbor's pre-round color, and only
    other recolored vertices changed since.  Every conflicted edge thus
    joins two of ``rows`` and is seen from both endpoint rows, so this
    returns what a full scan of the (symmetric) edge set returns.
    """
    count, parts = 0, []
    for lo, hi, seg, nbr in _loser_rows(graph, rows):
        v = rows[lo:hi][seg]
        bad = colors[v] == colors[nbr]
        if bad.any():
            count += int(np.count_nonzero(bad))
            parts.append(np.maximum(v[bad], nbr[bad]))
    if not count:
        return None, 0
    return np.unique(np.concatenate(parts)), count


def jacobi_recolor(graph, colors, losers: np.ndarray) -> None:
    """Recolor ``losers`` at once to the mex of their pre-round neighbors."""
    fresh = np.empty(losers.size, dtype=COLOR_DTYPE)
    for lo, hi, seg, nbr in _loser_rows(graph, losers):
        fresh[lo:hi] = min_excluded_colors(
            seg, colors[nbr], hi - lo, assume_sorted=True
        )
    colors[losers] = fresh


def sweep_recolor(graph, colors, losers: np.ndarray) -> None:
    """Recolor ``losers`` one by one in id order, each reading live colors.

    One-vertex waves: every vertex sees every earlier commit, so it takes
    a color absent from all its neighbors and the sweep ends proper.
    """
    losers = np.asarray(losers, dtype=np.int64)
    for lo, hi, seg, nbr in _loser_rows(graph, losers):
        waves = np.arange(hi - lo + 1, dtype=np.int64)  # one vertex each
        epos = np.searchsorted(seg, waves)
        color_waves(colors, losers[lo:hi], seg, nbr, waves, epos,
                    int(np.diff(epos).max()))


def piece_row(head: dict, piece, result) -> dict:
    """One ``shard_stats["shards"]`` entry for a colored piece."""
    return {
        **head,
        "vertices": piece.num_vertices,
        "edges": piece.num_edges,
        "num_colors": result.num_colors,
        "iterations": result.iterations,
        "total_time_us": result.total_time_us,
    }


class PieceSource:
    """Colors a run's pieces and finds its conflict losers.

    A ``sequential`` source colors pieces one after another: device times
    sum, and each finished piece is one checkpoint round.  Otherwise the
    pieces run at once: times are the makespan and the whole piece phase
    is checkpoint round 0.
    """

    label = "?"  #: run-span and scheme prefix
    mode = "?"  #: checkpoint fingerprint mode
    sequential = False
    #: ``(chain, from)`` of the degradation event the round cap records.
    cap_chain: tuple[str, str] = ("?", "?")
    #: Whether a bare deadline gives the run a robustness report.
    reports_deadline = True
    error = PieceFailure
    scheme_suffix = ""
    fingerprint_extra: dict = {}
    num_pieces = 0
    span: dict = {}  #: run-span attributes

    def admit(self, run) -> bool:
        """False routes the run straight to :meth:`fallback`."""
        return True

    def color(self, run) -> list:
        """Color pieces ``run.pieces_done`` on; return the job failures."""
        raise NotImplementedError

    def fallback(self, run, failures, healer) -> ColoringResult:
        """Color the graph another way after piece failures."""
        raise self.error(failures)

    def find_losers(self, colors):
        """``(sorted loser ids, conflicted directed edges)``."""
        raise NotImplementedError

    def stats(self, run) -> dict:
        """Mode-specific ``shard_stats`` entries."""
        return {}

    def validate(self, result) -> None:
        result.validate(self.graph)

    def close(self) -> None:
        pass


class BlockPieces(PieceSource):
    """Contiguous vertex blocks colored at once, one job per block."""

    def __init__(self, graph, pieces: int) -> None:
        self.graph = graph
        self.partition = block_partition(graph, pieces)
        self.num_pieces = self.partition.num_parts
        self.boundary = int(boundary_vertices(graph, self.partition).sum())
        self._endpoints = None

    def row_head(self, block: int) -> dict:
        return {"shard": block}

    def jobs(self, run):
        """``(jobs, block ids, members)``; empty blocks get no job."""
        jobs, blocks, members = [], [], []
        for p in range(self.num_pieces):
            mask = self.partition.assignment == p
            members.append(np.nonzero(mask)[0])
            if members[p].size:
                jobs.append(ColorJob(
                    self.graph.subgraph_mask(mask), run.method,
                    dict(run.options),
                ))
                blocks.append(p)
        return jobs, blocks, members

    def land(self, run, jobs, blocks, members, results) -> None:
        """Scatter block colors and fold the makespan aggregates."""
        for job, p, res in zip(jobs, blocks, results):
            run.colors[members[p]] = res.colors
            run.rows.append(piece_row(self.row_head(p), job.graph, res))
        run.agg = {
            "iterations": int(max((r.iterations for r in results), default=0)),
            "gpu_us": float(max((r.gpu_time_us for r in results), default=0.0)),
            "cpu_us": float(max((r.cpu_time_us for r in results), default=0.0)),
            "xfer_us": float(
                max((r.transfer_time_us for r in results), default=0.0)
            ),
            "launches": int(sum(r.num_kernel_launches for r in results)),
        }
        run.pieces_done = self.num_pieces

    def find_losers(self, colors):
        if self._endpoints is None:
            self._endpoints = self.graph.edge_endpoints()
        u, v = self._endpoints
        conflicted = colors[u] == colors[v]
        count = int(np.count_nonzero(conflicted))
        if not count:
            return None, 0
        return np.unique(np.maximum(u[conflicted], v[conflicted])), count


class NoExchange:
    """One address space: nothing moves between pieces, every repair
    round is one global synchronization and no halo bytes are modeled."""

    phase, where = "repair", "round"
    comm_time_us = 0.0  #: interconnect time added to transfer time

    def start(self, run) -> None:
        """The piece phase finished (fresh run)."""

    def resume(self, run, state: dict) -> None:
        """The run resumed from a checkpoint carrying ``state()``."""

    def check(self, run) -> None:
        """A round found conflicts and is about to recolor."""

    def after_round(self, run, losers) -> None:
        """A Jacobi round recolored ``losers``."""

    def state(self) -> dict:
        return {}

    def stats(self, run) -> dict:
        return {"sync_rounds": run.rounds, "halo_bytes_modeled": 0,
                "speculation_hits": 0}


class PartitionedRun:
    """One run of the partitioned protocol over ``source`` and ``exchange``.

    ``settings`` carries the merged ``observe``/``faults``/``health``/
    ``deadline_ms`` keywords (see :func:`resolve_settings`).
    """

    def __init__(self, graph, method: str, source: PieceSource, settings, *,
                 exchange=None, options: dict, validate: bool = True,
                 max_resolution_rounds: int = 16, checkpoint=None,
                 checkpoint_every: int = 1, resume=None) -> None:
        self.graph, self.method, self.source = graph, method, source
        self.exchange = exchange if exchange is not None else NoExchange()
        self.options, self.validate = options, validate
        self.max_rounds = max_resolution_rounds
        self.checkpoint, self.checkpoint_every = checkpoint, checkpoint_every
        self.resume = resume
        self.name = getattr(graph, "name", "?")
        self.observation = resolve_observe(settings.observe)
        self.observe = self.observation if self.observation.active else None
        self.tracer = self.observation.tracer
        self.control = resolve_control(settings.deadline_ms)
        rb = resolve_robustness(settings.faults, settings.health)
        if rb is None and (
            checkpoint is not None or resume is not None
            or (self.control is not None and source.reports_deadline)
        ):
            # Resilience accounting (checkpoint stats, resume provenance,
            # deadline attribution) reports through result.robustness, so
            # opting into any of it gets a bundle even with no fault plan.
            rb = Robustness()
        if rb is not None and rb.log.tracer is None:
            rb.log.tracer = self.tracer
        self.robustness = rb
        # Round state: everything a checkpoint carries.
        self.colors = np.zeros(graph.num_vertices, dtype=COLOR_DTYPE)
        self.rows: list = []
        self.agg = {"iterations": 0, "gpu_us": 0.0, "cpu_us": 0.0,
                    "xfer_us": 0.0, "launches": 0}
        self.pieces_done = self.rounds = self.recolored = 0
        self.fallback = False
        self.ckpt = None

    def run(self) -> ColoringResult:
        src, tracer = self.source, self.tracer
        try:
            restored = self._open_checkpoints()
            if not src.admit(self):
                return self._fall_back([])
            with nullcontext() if tracer is None else tracer.span(
                f"{src.label}:{self.name}", "run",
                scheme=f"{src.label}({self.method})", graph=self.name,
                vertices=self.graph.num_vertices, edges=self.graph.num_edges,
                **src.span,
            ) as span:
                return self._execute(restored, span)
        finally:
            src.close()

    def _execute(self, restored, span) -> ColoringResult:
        src, ex = self.source, self.exchange
        if restored is not None:
            ex.resume(self, self._restore(restored))
        if self.pieces_done < src.num_pieces:
            failures = src.color(self)
            if failures:
                result = self._fall_back(failures)
                if span is not None:
                    span.counters.update(colors=result.num_colors, degraded=1)
                return result
            ex.start(self)
            if not src.sequential:
                # Round 0 = the piece phase, the expensive part: saved
                # unconditionally so a crash in round 1 never recolors it.
                self.save(0, "pieces", force=True)
        self._resolve()
        result = self._assemble()
        if span is not None:
            span.counters.update(
                colors=result.num_colors, iterations=result.iterations,
                resolution_rounds=self.rounds, **ex.stats(self),
            )
        if self.validate:
            src.validate(result)
        return result

    def _resolve(self) -> None:
        """Jacobi rounds until no conflict; the round cap sweeps once.

        The first round scans the source's whole edge set (also after a
        resume); later rounds rescan only the rows just recolored.
        """
        src, ex, graph = self.source, self.exchange, self.graph
        base = src.num_pieces if src.sequential else 0
        recolored = None
        while True:
            if self.control is not None:
                self.control.check(ex.where)
            self.storm(self.rounds, ex.phase, ex.where)
            losers, conflicted = self._scan(recolored)
            if not conflicted:
                return
            ex.check(self)
            if self.rounds >= self.max_rounds:
                self.fallback = True
                if self.robustness is not None:
                    self.robustness.degrade(
                        *src.cap_chain, "sequential-sweep", "round-cap",
                        f"rounds={self.rounds} conflicted_edges={conflicted}",
                    )
            recolor = sweep_recolor if self.fallback else jacobi_recolor
            recolor(graph, self.colors, losers)
            self.recolored += int(losers.size)
            if self.fallback:
                return
            self.rounds += 1
            ex.after_round(self, losers)
            self.save(base + self.rounds, "repair")
            recolored = losers

    def _scan(self, recolored):
        """Losers of the current colors: a full source scan when
        ``recolored`` is None, else a rescan of those rows only."""
        if recolored is None:
            return self.source.find_losers(self.colors)
        return rescan_losers(self.graph, self.colors, recolored)

    def _assemble(self) -> ColoringResult:
        src, ex, agg = self.source, self.exchange, self.agg
        stats = ex.stats(self)
        if self.tracer is not None:
            self.tracer.event(
                "boundary-resolution", "resolve",
                rounds=self.rounds, recolored=self.recolored,
                fallback=int(self.fallback), **stats,
                remaining_conflicts=(
                    src.find_losers(self.colors)[1] // 2
                    if self.fallback else 0
                ),
            )
        result = ColoringResult(
            colors=self.colors,
            scheme=(f"{src.label}({self.method})x{src.num_pieces}"
                    f"{src.scheme_suffix}"),
            iterations=agg["iterations"] + self.rounds,
            gpu_time_us=agg["gpu_us"],
            cpu_time_us=agg["cpu_us"],
            transfer_time_us=agg["xfer_us"] + ex.comm_time_us,
            num_kernel_launches=agg["launches"],
        )
        result.extra["shard_stats"] = {
            "num_shards": src.num_pieces,
            "method": self.method,
            "shards": self.rows,
            **src.stats(self),
            "resolution_rounds": self.rounds,
            "recolored": self.recolored,
            "fallback": self.fallback,
            **stats,
        }
        if self.observe is not None:
            result.extra.setdefault("observation", self.observation)
        rb, control = self.robustness, self.control
        if rb is not None:
            if self.ckpt is not None:
                rb.annotate("checkpoint", self.ckpt.stats())
            if (src.reports_deadline and control is not None
                    and control.deadline is not None):
                queued, running = control.elapsed_snapshot()
                rb.annotate("deadline", {
                    "deadline_ms": control.deadline.deadline_ms,
                    "queued_ms": round(queued, 3),
                    "running_ms": round(running, 3),
                })
            result.extra["robustness"] = rb.report()
        return result

    def _fall_back(self, failures) -> ColoringResult:
        """Piece failures (or an open breaker): degrade, or raise."""
        rb = self.robustness
        if failures and (rb is None or not rb.policy.degrade):
            raise self.source.error(failures)
        healer = Robustness(injector=None, policy=rb.policy, log=rb.log)
        result = self.source.fallback(self, failures, healer)
        result.extra["robustness"] = rb.report()
        return result

    def storm(self, round_index: int, phase: str, where: str) -> None:
        """``deadline-storm`` site: force the budget to expire here."""
        rb = self.robustness
        if rb is None or rb.fire(
            "deadline-storm", round=round_index, phase=phase
        ) is None:
            return
        if self.control is not None and self.control.deadline is not None:
            d = self.control.deadline
            raise DeadlineExceeded(
                d.deadline_ms, queued_ms=d.queued_ms,
                running_ms=d.running_ms(), where=f"{where}:forced",
            )
        raise DeadlineExceeded(0.0, where=f"{where}:forced")

    def _open_checkpoints(self):
        """Build the checkpoint writer; load ``resume=`` (None = fresh)."""
        if self.checkpoint is None and self.resume is None:
            return None
        # Resuming under a different graph/scheme/option set or piece
        # count is a structured error, not garbage.
        src = self.source
        fingerprint = run_fingerprint(
            self.graph.content_digest(), src.mode, self.method,
            {**self.options, **src.fingerprint_extra}, src.num_pieces,
        )
        if self.checkpoint is not None:
            self.ckpt = Checkpointer(
                self.checkpoint, fingerprint=fingerprint,
                every=self.checkpoint_every, robustness=self.robustness,
            )
        if self.resume is None:
            return None
        return load_resume(self.resume, fingerprint=fingerprint,
                           robustness=self.robustness)

    def save(self, round_index: int, phase: str, *, force: bool = False):
        """Checkpoint the round state if the cadence (or ``force``) says so."""
        if self.ckpt is not None:
            self.ckpt.save(round_index, {
                "mode": self.source.mode, "graph": self.name, "phase": phase,
                "pieces_done": self.pieces_done, "rows": self.rows,
                "agg": self.agg, "rounds": self.rounds,
                "recolored": self.recolored, "exchange": self.exchange.state(),
            }, {"colors": self.colors}, force=force)

    def _restore(self, restored) -> dict:
        """Adopt a checkpoint's round state; return the exchange's."""
        meta, arrays = restored
        self.colors[:] = arrays["colors"].astype(COLOR_DTYPE, copy=False)
        self.rows, self.agg = meta["rows"], meta["agg"]
        self.pieces_done = int(meta["pieces_done"])
        self.rounds, self.recolored = int(meta["rounds"]), int(meta["recolored"])
        self.robustness.annotate("resumed", {
            "path": str(self.resume), "round": int(meta["round"]),
            "phase": meta["phase"],
        })
        return meta["exchange"]
