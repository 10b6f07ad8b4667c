"""Partition-sharded coloring: concurrent block shards through the scheduler.

A thin wrapper over :class:`~repro.parallel.partitioned.PartitionedRun`
(the protocol is documented there).  The piece source splits the vertex
set into contiguous blocks (:func:`repro.graph.partition.block_partition`)
and colors each block's induced subgraph as one job through the
scheduler ``color_many`` uses, so ``workers=N`` colors shards in ``N``
processes.  Repair runs in one address space (no exchange).  Shards run
concurrently on replica devices, so device/transfer times are the
makespan: the maximum over shards, not the sum.

Statistics land in ``result.shard_stats``; with a tracer attached the run
nests under one ``sharded`` span holding the per-shard ``worker``
subtraces and a ``boundary-resolution`` event.
"""

from __future__ import annotations

from ..coloring.base import ColoringResult
from .jobs import ColorJob, JobFailure
from .partitioned import (
    BlockPieces,
    PartitionedRun,
    PieceFailure,
    resolve_settings,
)
from .scheduler import run_jobs

__all__ = ["ShardedColoringError", "color_sharded"]


class ShardedColoringError(PieceFailure):
    """A shard job failed after retries; carries the failures."""

    noun, piece = "shard job(s)", "shard"


class _Shards(BlockPieces):
    """Concurrent shard jobs through :func:`run_jobs` (makespan timing)."""

    label = mode = "sharded"
    cap_chain = ("sharded", "jacobi")
    #: Under a bare deadline shard jobs keep no fault policy: a failing
    #: job raises :class:`ShardedColoringError` instead of degrading.
    reports_deadline = False
    error = ShardedColoringError

    def __init__(self, graph, num_shards: int, settings) -> None:
        super().__init__(graph, num_shards)
        self.settings = settings
        self.span = {"shards": self.num_pieces,
                     "boundary_vertices": self.boundary}

    def stats(self, run) -> dict:
        return {"boundary_vertices": self.boundary}

    def color(self, run) -> list:
        s = self.settings
        jobs, blocks, members = self.jobs(run)
        outcomes = run_jobs(
            jobs, workers=s.workers, scheduler=s.scheduler,
            backend=s.backend, backend_opts=s.backend_opts,
            observe=run.observe, validate=run.validate,
            faults=run.robustness, store=s.store, deadline_ms=run.control,
        )
        failures = [o for o in outcomes if isinstance(o, JobFailure)]
        if not failures:
            self.land(run, jobs, blocks, members, outcomes)
        return failures

    def fallback(self, run, failures, healer):
        """The sharded → unsharded chain.

        Color the *whole* graph as one serial, fault-free job.  The result
        matches an unsharded ``color_graph`` run byte-for-byte — not a
        sharded run, which partitions differently — and its
        ``shard_stats`` records the degradation.
        """
        failed = [f.index for f in failures]
        run.robustness.degrade(
            "sharded", f"sharded(x{self.num_pieces})", "unsharded",
            "shard-failures", f"failed_shards={failed}",
        )
        s = self.settings
        outcome = run_jobs(
            [ColorJob(self.graph, run.method, dict(run.options))],
            scheduler="serial", backend=s.backend, backend_opts=s.backend_opts,
            observe=run.observe, validate=run.validate, faults=healer,
        )[0]
        if isinstance(outcome, JobFailure):
            raise ShardedColoringError(list(failures) + [outcome])
        outcome.extra["shard_stats"] = {
            "num_shards": self.num_pieces,
            "method": run.method,
            "shards": [],
            "degraded": "unsharded",
            "failed_shards": failed,
            "sync_rounds": 0,
            "halo_bytes_modeled": 0,
            "speculation_hits": 0,
        }
        if run.observe is not None:
            outcome.extra.setdefault("observation", run.observation)
        return outcome


def color_sharded(
    graph,
    method: str = "data-ldg",
    *,
    num_shards: int = 4,
    workers=None,
    scheduler=None,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    validate: bool = True,
    max_resolution_rounds: int = 16,
    faults=None,
    health=None,
    store=None,
    stream: bool = False,
    memory_budget_mb: float | None = None,
    deadline_ms=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume=None,
    **options,
) -> ColoringResult:
    """Color ``graph`` in ``num_shards`` independent pieces, then repair.

    Parameters
    ----------
    num_shards:
        Contiguous vertex blocks to split into (capped at the vertex
        count).  Each block's induced subgraph is one coloring job.
    workers / scheduler / backend / backend_opts:
        Forwarded to the job scheduler — ``workers=N`` colors shards in
        ``N`` worker processes, exactly like ``color_many``.
    observe:
        The unified observation surface; with a tracer attached the
        whole run nests under one ``sharded`` span (per-shard subtraces
        included).
    max_resolution_rounds:
        Jacobi round cap before the sequential fallback sweep.
    faults / health:
        The robustness layer (see :mod:`repro.faults`), forwarded to the
        shard jobs.  With a degradation-permitting policy, persistent
        shard-job failures degrade the whole run to one *unsharded*
        sequential coloring (colors then match ``color_graph`` on the
        full graph, not a sharded run) instead of raising; hitting the
        Jacobi round cap is likewise recorded as a ``sharded``
        degradation event.
    store:
        Graph arena for shipping shard subgraphs to workers (see
        :mod:`repro.graph.store`): ``'shm'``/``'mmap'`` publish each
        shard once and send workers zero-copy handles; default pickles.
    stream / memory_budget_mb:
        The bounded-memory path (see
        :func:`~repro.parallel.streaming.color_streamed`): windows run
        *sequentially* through one shared context instead of as
        concurrent jobs, so peak RSS stays ``O(n + window)`` and graphs
        bigger than RAM complete from an mmap-backed store.
        ``stream=True`` cuts ``num_shards`` windows (colors are
        byte-identical to the non-streamed sharded run on the same
        ``num_shards``); ``memory_budget_mb`` sizes the window count
        from the budget instead and implies streaming.  ``workers`` /
        ``scheduler`` / ``store`` are ignored while streaming.
    deadline_ms:
        End-to-end budget (or a ready
        :class:`~repro.resilience.RunControl`): shard jobs check it at
        dispatch and every round boundary (the remaining budget ships
        into worker processes), the boundary-resolution loop checks it
        per Jacobi round, and overruns raise the structured
        :class:`~repro.resilience.DeadlineExceeded`.
    checkpoint / checkpoint_every / resume:
        Round-state checkpointing (see :mod:`repro.resilience`):
        ``checkpoint=<path>`` atomically saves colors + counters after
        the shard phase and every ``checkpoint_every`` resolution
        rounds; ``resume=<path>`` restores a matching checkpoint and
        continues — final colors are byte-identical to an uninterrupted
        run.  A missing resume file is a normal fresh start.
    **options:
        Scheme options, forwarded to every shard job.

    Returns
    -------
    ColoringResult
        A checker-valid coloring of the full graph; ``shard_stats``
        holds the per-shard and boundary-resolution statistics.

    Raises
    ------
    ShardedColoringError
        When any shard job fails after the scheduler's retries.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    method, s = resolve_settings(
        "color_sharded", method, config,
        backend=backend, backend_opts=backend_opts, store=store,
        workers=workers, scheduler=scheduler, faults=faults, health=health,
        observe=observe, deadline_ms=deadline_ms,
    )
    if stream or memory_budget_mb is not None:
        from .streaming import color_streamed

        return color_streamed(
            graph, method,
            num_windows=None if memory_budget_mb is not None else num_shards,
            memory_budget_mb=memory_budget_mb,
            backend=s.backend, backend_opts=s.backend_opts,
            observe=s.observe, validate=validate,
            max_resolution_rounds=max_resolution_rounds,
            faults=s.faults, health=s.health,
            deadline_ms=s.deadline_ms, checkpoint=checkpoint,
            checkpoint_every=checkpoint_every, resume=resume,
            **options,
        )
    return PartitionedRun(
        graph, method, _Shards(graph, num_shards, s), s, options=options,
        validate=validate, max_resolution_rounds=max_resolution_rounds,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every,
        resume=resume,
    ).run()
