"""Multi-device distributed coloring with halo exchange.

A thin wrapper over :class:`~repro.parallel.partitioned.PartitionedRun`
(the protocol is documented there), after Bogle & Slota's distributed-GPU
blueprint.  The piece source block-partitions the vertex set onto ``N``
simulated Kepler devices, each coloring its shard through its own
:class:`~repro.engine.context.ExecutionContext` behind the pluggable
:class:`~repro.distributed.transport.Transport`.  The exchange policy
ships boundary colors over the
:class:`~repro.distributed.topology.Topology` after every repair round,
and the interconnect's latency/bandwidth cost lands on the simulated
clock.

The halo protocol delivers every boundary color change to every adjacent
device the round it happens, so each device's halo equals the global
snapshot (``HaloState.verify`` asserts it when validation is on) and
``color_distributed(devices=k)`` returns colors byte-identical to
``color_sharded(num_shards=k)``.  The distributed layer changes only
*when data moves and what it costs*.

``speculate=False`` models the lockstep loop: every round is a global
barrier where each device re-ships its **full** boundary color vector to
every linked neighbor.  ``speculate=True`` ships only **deltas** — the
boundary vertices that changed — to the devices adjacent to them; a
linked pair whose cut saw no change exchanges nothing and does not
synchronize that round.  ``sync_rounds`` counts synchronizations per
linked (unordered) device pair and round, initial exchange included, so
lockstep pays ``links × (rounds + 1)``; each pair-round speculation
avoided is a *speculation hit*.  Both counts and the modeled byte volume
are deterministic, so ``benchmarks/BENCH_distributed.json`` gates them
exactly.
"""

from __future__ import annotations

import numpy as np

from ..coloring.base import ColoringResult
from ..parallel.jobs import JobFailure
from ..parallel.partitioned import (
    BlockPieces,
    PartitionedRun,
    PieceFailure,
    resolve_settings,
)
from .halo import COLOR_BYTES, DELTA_BYTES, HaloState, build_halo_plan
from .topology import Message, resolve_topology
from .transport import Transport, resolve_transport

__all__ = ["DistributedColoringError", "color_distributed"]


class DistributedColoringError(PieceFailure):
    """A device shard failed after the transport's retries."""

    noun, piece = "device shard(s)", "device"


class _Devices(BlockPieces):
    """One block per simulated device, colored through a transport."""

    label = mode = "distributed"
    cap_chain = ("distributed", "halo-jacobi")
    error = DistributedColoringError

    def __init__(self, graph, devices, topology, transport, speculate,
                 settings) -> None:
        super().__init__(graph, devices)
        self.topo = resolve_topology(
            topology, self.num_pieces, entry_point="color_distributed"
        )
        self.xport = resolve_transport(
            transport, workers=settings.workers,
            entry_point="color_distributed",
        )
        self.own_transport = not isinstance(transport, Transport)
        self.speculate = speculate
        self.settings = settings
        self.breaker = None
        topo, xport = self.topo.name, self.xport.name
        self.fingerprint_extra = {"speculate": speculate, "topology": topo}
        self.scheme_suffix = f"@{topo}" + ("" if speculate else ":lockstep")
        self.span = {
            "devices": self.num_pieces, "topology": topo, "transport": xport,
            "speculate": int(speculate), "boundary_vertices": self.boundary,
        }

    def stats(self, run) -> dict:
        return {**self.span, "mode": "distributed", "speculate": self.speculate}

    def row_head(self, block: int) -> dict:
        return {"shard": block, "device": block}

    def _chain_from(self) -> str:
        return f"distributed(x{self.num_pieces},{self.xport.name})"

    def admit(self, run) -> bool:
        """Circuit breaker: a pool transport that keeps losing devices is
        not re-probed every call — while open, take the serial chain."""
        rb = run.robustness
        if rb is not None and rb.breaker is not None and self.xport.name == "pool":
            self.breaker = rb.breaker  # consulted again after the shard phase
            if not self.breaker.allow():
                rb.degrade(
                    "breaker", self._chain_from(), "sharded", "open",
                    "circuit breaker open; skipping pool transport",
                )
                return False
        return True

    def color(self, run) -> list:
        s, tracer = self.settings, run.tracer
        jobs, blocks, members = self.jobs(run)
        outcomes = self.xport.run_shards(
            jobs, backend=s.backend, backend_opts=s.backend_opts,
            validate=run.validate, want_trace=tracer is not None,
            robustness=run.robustness, store=s.store, control=run.control,
        )
        failures = [o for o in outcomes if isinstance(o, JobFailure)]
        breaker = self.breaker
        if breaker is not None:
            if not failures:
                breaker.record_success()
            elif breaker.record_failure(
                f"{len(failures)} device shard(s) failed"
            ):
                run.robustness.degrade(
                    "breaker", "closed", "open", "tripped",
                    f"breaker {breaker.name!r} opened after "
                    f"{breaker.failure_threshold} consecutive failing calls",
                )
        if failures:
            return failures
        for job, dev, (_, roots) in zip(jobs, blocks, outcomes):
            if tracer is not None and roots:
                tracer.merge_subtrace(
                    roots, label=f"device-{dev}:{run.method}",
                    category="device", device=dev, graph=job.graph_name(),
                )
        self.land(run, jobs, blocks, members, [res for res, _ in outcomes])
        return []

    def fallback(self, run, failures, healer) -> ColoringResult:
        """The distributed → sharded chain.

        Single-device operation: the serial ``color_sharded`` path on the
        same shard count, whose colors are byte-identical to the
        distributed run's, so the degradation is invisible in output.
        """
        from ..parallel.sharded import color_sharded

        failed = [f.index for f in failures]
        run.robustness.degrade(
            "distributed", self._chain_from(), "sharded", "device-failures",
            f"failed_devices={failed}",
        )
        s = self.settings
        result = color_sharded(
            self.graph, run.method, num_shards=self.num_pieces,
            scheduler="serial", backend=s.backend, backend_opts=s.backend_opts,
            observe=run.observe, validate=run.validate,
            max_resolution_rounds=run.max_rounds, faults=healer,
            **run.options,
        )
        result.extra["shard_stats"] = {
            **(result.shard_stats or {}),
            "degraded": "sharded", "failed_devices": failed,
        }
        return result

    def close(self) -> None:
        if self.own_transport:
            self.xport.close()


class _HaloExchange:
    """Halo exchange after every repair round, priced by the topology.

    Lockstep ships every device's full boundary color vector to each
    linked neighbor; speculative ships only the changed boundary
    vertices, and only to the devices adjacent to them.
    """

    phase, where = "sync", "sync-round"
    #: The exchange's checkpointed counters, named as in ``shard_stats``.
    _COUNTERS = ("sync_rounds", "halo_bytes_modeled", "halo_messages",
                 "speculation_hits", "comm_time_us")

    def __init__(self, source: _Devices) -> None:
        self.plan = build_halo_plan(source.graph, source.partition)
        self.halo = HaloState(self.plan)
        self.topo, self.xport = source.topo, source.xport
        self.speculate = source.speculate
        self.links = len({tuple(sorted(pair)) for pair in self.plan.send})
        self.sync_rounds = self.halo_bytes_modeled = self.halo_messages = 0
        self.speculation_hits = 0
        self.comm_time_us = 0.0
        self.dirty = False

    def _full(self, colors) -> list:
        return [
            (d, e, ids, colors[ids])
            for (d, e), ids in sorted(self.plan.send.items())
        ]

    def start(self, run) -> None:
        # Every device ships its full boundary once, so round-1
        # conflict detection sees true halos.
        self._exchange(run, self._full(run.colors), "halo-exchange:initial",
                       "full")
        self._heal(run, "halo-resync:initial")

    def resume(self, run, state: dict) -> None:
        for key in self._COUNTERS:
            setattr(self, key, state[key])
        # Rebuild every device's halo from the checkpointed truth.  Local
        # reconstruction, not wire traffic: nothing is priced, so resumed
        # stats match the uninterrupted run's exactly.
        for (d, e), ids in sorted(self.plan.send.items()):
            self.halo.apply(e, ids, run.colors[ids])

    def check(self, run) -> None:
        if run.validate:
            # Protocol invariant: the halos every device would read this
            # round equal the ground-truth colors.
            self.halo.verify(run.colors)

    def after_round(self, run, losers) -> None:
        label = f"halo-exchange:{run.rounds}"
        if self.speculate:
            # A linked pair whose cut saw no change exchanges nothing —
            # that skipped synchronization is a speculation hit.
            payload = []
            for (d, e), ids in sorted(self.plan.send.items()):
                changed = ids[np.isin(ids, losers, assume_unique=True)]
                if changed.size:
                    payload.append((d, e, changed, run.colors[changed]))
            synced = self._exchange(run, payload, label, "delta")
            self.speculation_hits += self.links - synced
        else:
            self._exchange(run, self._full(run.colors), label, "full")
        self._heal(run, f"halo-resync:{run.rounds}")

    def state(self) -> dict:
        return {key: getattr(self, key) for key in self._COUNTERS}

    def stats(self, run) -> dict:
        return {"links": self.links, **self.state()}

    def _exchange(self, run, payload, label, mode, *, inject=True) -> int:
        """Deliver one round's messages; charge the topology.

        Returns the number of linked pairs that synchronized (one
        unordered pair may carry messages both ways).  The halo fault
        sites act here, on the in-flight payload — never on the
        ground-truth colors — and mark the halo dirty so :meth:`_heal`
        resyncs before any halo is read.
        """
        rb, rnd = run.robustness, run.rounds
        if inject and rb is not None and payload:
            if rb.fire("transport-partition", round=rnd) is not None:
                rb.degrade(
                    "halo", f"exchange({mode})", "resync",
                    "transport-partition",
                    f"round={rnd}: all {len(payload)} halo message(s) lost",
                )
                self.dirty = True
                payload = []
            elif rb.fire("halo-reorder", round=rnd) is not None:
                # Delivery order must not matter: senders own disjoint
                # vertex sets, so this is exercised as a commutativity
                # check, not a corruption.
                payload = list(reversed(payload))
            kept = []
            for src, dst, ids, cols in payload:
                if rb.fire("halo-drop", round=rnd, src=src, dst=dst) is not None:
                    rb.degrade(
                        "halo", f"exchange({mode})", "resync", "halo-drop",
                        f"round={rnd}: message {src}->{dst} dropped",
                    )
                    self.dirty = True
                    continue
                spec = rb.fire("halo-corrupt", round=rnd, src=src, dst=dst)
                if spec is not None:
                    offset = int(spec.param) if spec.param is not None else 1
                    cols = (cols + offset).astype(cols.dtype)
                    rb.degrade(
                        "halo", f"exchange({mode})", "resync", "halo-corrupt",
                        f"round={rnd}: message {src}->{dst} payload offset "
                        f"by {offset}",
                    )
                    self.dirty = True
                kept.append((src, dst, ids, cols))
            payload = kept
        if not payload:
            return 0
        per_color = COLOR_BYTES if mode == "full" else DELTA_BYTES
        priced = [
            Message(src, dst, ids.size * per_color)
            for src, dst, ids, _ in payload
        ]
        self.xport.deliver(payload)
        for _, dst, ids, cols in payload:
            self.halo.apply(dst, ids, cols)
        cost = self.topo.exchange_time_us(priced)
        nbytes = sum(m.nbytes for m in priced)
        synced = len({tuple(sorted((m.src, m.dst))) for m in priced})
        self.sync_rounds += synced
        self.halo_bytes_modeled += nbytes
        self.halo_messages += len(priced)
        self.comm_time_us += cost
        if run.tracer is not None:
            run.tracer.event(
                label, "exchange", duration_us=cost, bytes=nbytes,
                messages=len(priced), mode=mode, pairs_synced=synced,
            )
        return synced

    def _heal(self, run, label) -> None:
        """Full (priced) re-broadcast after a dirty exchange.

        Runs before the next halo read, so verification still holds and
        colors stay byte-identical; only the traffic/sync stats record
        that healing cost something.
        """
        if self.dirty:
            self.dirty = False
            self._exchange(run, self._full(run.colors), label, "full",
                           inject=False)


def color_distributed(
    graph,
    method: str = "data-ldg",
    *,
    devices: int = 4,
    topology="pcie",
    transport=None,
    speculate: bool = True,
    workers=None,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    validate: bool = True,
    max_resolution_rounds: int = 16,
    faults=None,
    health=None,
    store=None,
    deadline_ms=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume=None,
    **options,
) -> ColoringResult:
    """Color ``graph`` across ``devices`` simulated devices.

    Parameters
    ----------
    devices:
        Simulated device count; each device owns one contiguous shard
        (capped at the vertex count, like ``num_shards``).
    topology:
        Interconnect model pricing halo traffic: ``'pcie'`` (default,
        shared host bus), ``'nvlink'`` (all-to-all peer links),
        ``'ring'`` (neighbor links, hop-routed), or a
        :class:`~repro.distributed.topology.Topology` instance.
    transport:
        How shards execute and halos ship: ``'local'`` (in-process
        per-device contexts — the default), ``'pool'`` (worker
        processes via the process-pool scheduler; default when
        ``workers`` is set), or a
        :class:`~repro.distributed.transport.Transport`.
    speculate:
        ``True`` (default) ships boundary *deltas* and synchronizes a
        linked device pair only in rounds where its cut changed;
        ``False`` models the lockstep full-exchange-every-round loop.
        Colors are identical either way; ``sync_rounds`` /
        ``halo_bytes_modeled`` / ``speculation_hits`` differ.
    workers:
        Pool size for the ``'pool'`` transport (default: one worker per
        device); setting it selects the pool transport when
        ``transport`` is unset.
    faults / health:
        The robustness layer.  With a degradation-permitting policy,
        persistent device failures degrade the run to single-device
        serial ``color_sharded`` on the same shard count (recorded as a
        ``distributed`` degradation event) — byte-identical colors —
        instead of raising.
    store:
        Graph arena for shard placement (``'shm'``/``'mmap'`` publish
        once, devices attach zero-copy).
    deadline_ms:
        Wall-clock budget for the whole call (or a ready
        :class:`~repro.resilience.RunControl`): checked before each
        shard dispatch and at every sync-round boundary, raising the
        structured :class:`~repro.resilience.DeadlineExceeded`.
    checkpoint / checkpoint_every / resume:
        Round-state checkpointing (see :mod:`repro.resilience`):
        ``checkpoint=<path>`` atomically snapshots colors + counters
        after the shard phase and every ``checkpoint_every`` sync
        rounds; ``resume=<path>`` restores a matching checkpoint and
        continues — final colors are byte-identical to an uninterrupted
        run.  A missing resume file is a normal fresh start.

    Returns
    -------
    ColoringResult
        Colors byte-identical to ``color_sharded(num_shards=devices)``;
        ``shard_stats`` adds ``sync_rounds``, ``halo_bytes_modeled``,
        ``speculation_hits``, ``halo_messages`` and ``comm_time_us``,
        and the interconnect cost lands in ``transfer_time_us``.

    Raises
    ------
    DistributedColoringError
        When a device shard fails after retries and the health policy
        forbids degradation.
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    method, s = resolve_settings(
        "color_distributed", method, config,
        backend=backend, backend_opts=backend_opts, store=store,
        workers=workers, faults=faults, health=health, observe=observe,
        devices=None if devices == 4 else devices,
        topology=None if topology == "pcie" else topology,
        deadline_ms=deadline_ms,
    )
    source = _Devices(
        graph, s.devices if s.devices is not None else devices,
        s.topology if s.topology is not None else topology,
        transport, speculate, s,
    )
    return PartitionedRun(
        graph, method, source, s, exchange=_HaloExchange(source),
        options=options, validate=validate,
        max_resolution_rounds=max_resolution_rounds, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume=resume,
    ).run()
