"""Pluggable transports: how device shards execute and halos ship.

A :class:`Transport` is the device seam of
:func:`~repro.distributed.color_distributed`:
:meth:`Transport.run_shards` runs the per-device coloring jobs (one
``(result, trace_roots)`` or :class:`~repro.parallel.jobs.JobFailure`
per device) and :meth:`Transport.deliver` ships one round's halo
messages, returning the wire bytes.  :class:`LocalTransport` keeps one
in-process context per device; :class:`PoolTransport` runs devices as
worker processes.  Both publish shard subgraphs into a ``store=`` arena
the way :func:`~repro.parallel.scheduler.run_jobs` does.  A multi-host
transport needs only these two methods plus a remote
:class:`~repro.graph.store.GraphStore` (see docs/DISTRIBUTED.md).
"""

from __future__ import annotations

import difflib
import traceback as _traceback

import numpy as np

from ..parallel.jobs import JobFailure

__all__ = [
    "Transport",
    "LocalTransport",
    "PoolTransport",
    "TRANSPORTS",
    "resolve_transport",
]


class Transport:
    """Abstract device-execution + halo-delivery seam."""

    name = "?"

    def run_shards(self, jobs, *, backend=None, backend_opts=None,
                   validate=True, want_trace=False, robustness=None,
                   store=None, control=None) -> list:
        raise NotImplementedError

    def deliver(self, messages) -> int:
        """Ship ``[(src, dst, vertex_ids, colors), ...]``; return bytes.

        The base implementation models the wire: payload array bytes,
        summed.  A cross-host transport would serialize here.
        """
        return int(
            sum(ids.nbytes + cols.nbytes for _, _, ids, cols in messages)
        )

    def close(self) -> None:
        """Release per-device state (contexts, pools)."""


class LocalTransport(Transport):
    """N in-process simulated devices, one ExecutionContext each."""

    name = "local"

    def __init__(self) -> None:
        self._ctx_maps: dict[int, dict] = {}

    def run_shards(self, jobs, *, backend=None, backend_opts=None,
                   validate=True, want_trace=False, robustness=None,
                   store=None, control=None) -> list:
        from ..faults import FaultInjected
        from ..parallel.scheduler import _run_one, publish_jobs
        from ..resilience.deadline import Cancelled, DeadlineExceeded

        jobs, store_obj, own_store = publish_jobs(jobs, store)
        outcomes: list = []
        try:
            for device, job in enumerate(jobs):
                if control is not None:
                    control.check("shard")
                try:
                    if robustness is not None and robustness.fire(
                        "job-error", job=device, attempt=1
                    ) is not None:
                        raise FaultInjected(
                            f"injected transient job error "
                            f"(device={device}, attempt=1)"
                        )
                    # Each device keeps its own context (upload cache,
                    # buffer pool), as on a real multi-GPU host.
                    result, roots, _ = _run_one(
                        self._ctx_maps.setdefault(device, {}), job,
                        backend, backend_opts or {}, validate, want_trace,
                        False, robustness=robustness, control=control,
                    )
                    outcomes.append((result, roots))
                except (DeadlineExceeded, Cancelled):
                    raise  # a blown budget fails the protocol, not a shard
                except Exception as exc:
                    outcomes.append(JobFailure(
                        index=device, graph=job.graph_name(),
                        method=job.method, attempts=1, error=repr(exc),
                        traceback=_traceback.format_exc(),
                    ))
            return outcomes
        finally:
            if own_store and store_obj is not None:
                store_obj.close()

    def close(self) -> None:
        self._ctx_maps.clear()


class PoolTransport(Transport):
    """Devices as worker processes via the process-pool scheduler.

    Real isolation and real pickling, with the scheduler's crash/timeout
    retry and fault sites; colors are byte-identical to the local
    transport.  The lazily built scheduler, and with it one warm worker
    pool, persists across :meth:`run_shards` calls (its recycle counters
    survive, and an explicitly passed scheduler's retry policy applies to
    every round).  :meth:`close` shuts the transport's own scheduler and
    its pool down; a scheduler passed in stays the caller's to close.
    It is idempotent and crash-safe: calling it twice, or after a worker
    crash recycled the pool, is a no-op — but a closed transport refuses
    new work instead of silently building a fresh pool.
    """

    name = "pool"

    def __init__(self, workers: int | None = None, *, scheduler=None) -> None:
        self.workers = workers
        self._scheduler = scheduler
        self._own_scheduler = None
        self._closed = False

    def run_shards(self, jobs, *, backend=None, backend_opts=None,
                   validate=True, want_trace=False, robustness=None,
                   store=None, control=None) -> list:
        from ..parallel.scheduler import ProcessPoolScheduler, publish_jobs

        if self._closed:
            raise RuntimeError(
                "PoolTransport is closed; build a new transport (or a new "
                "color_distributed call) instead of reusing it"
            )
        jobs = list(jobs)
        sched = self._scheduler
        if sched is None:
            sched = self._own_scheduler
            if sched is None:
                sched = self._own_scheduler = ProcessPoolScheduler(
                    self.workers or max(len(jobs), 1)
                )
        jobs, store_obj, own_store = publish_jobs(jobs, store)
        try:
            execute_kwargs = dict(
                backend=backend, backend_opts=backend_opts,
                validate=validate, want_trace=want_trace, want_rounds=False,
            )
            if robustness is not None:
                execute_kwargs["robustness"] = robustness
            if control is not None:
                execute_kwargs["control"] = control
            raw = sched.execute(jobs, **execute_kwargs)
        finally:
            if own_store and store_obj is not None:
                store_obj.close()
        return [
            out if isinstance(out, JobFailure) else (out[0], out[1])
            for out in raw
        ]

    def close(self) -> None:
        sched, self._own_scheduler = self._own_scheduler, None
        if sched is not None:
            sched.close()
        self._closed = True

    def deliver(self, messages) -> int:
        """Model the process boundary: payloads round-trip the picklers.

        The modeled wire bytes stay the array payload (identical to
        :class:`LocalTransport`, so stats are transport-invariant); the
        round-trip just proves the messages survive serialization the
        way they would crossing a real pool/socket.
        """
        import pickle

        for src, dst, ids, cols in messages:
            thawed_ids, thawed_cols = pickle.loads(
                pickle.dumps((ids, cols), protocol=pickle.HIGHEST_PROTOCOL)
            )
            if not (
                np.array_equal(thawed_ids, ids)
                and np.array_equal(thawed_cols, cols)
            ):  # pragma: no cover - pickling ndarrays is lossless
                raise AssertionError(
                    f"halo message {src}->{dst} corrupted in transit"
                )
        return super().deliver(messages)


TRANSPORTS = {"local": LocalTransport, "pool": PoolTransport}


def resolve_transport(
    spec, *, workers=None, entry_point: str | None = None
) -> Transport:
    """Normalize ``transport=`` into a :class:`Transport` instance."""
    if isinstance(spec, Transport):
        return spec
    if spec is None:
        spec = "pool" if workers else "local"
    if isinstance(spec, str):
        if spec == "local":
            return LocalTransport()
        if spec == "pool":
            return PoolTransport(workers)
        where = f"{entry_point}(): " if entry_point else ""
        msg = (
            f"{where}unknown transport {spec!r}; choose from "
            f"{sorted(TRANSPORTS)}"
        )
        close = difflib.get_close_matches(spec, sorted(TRANSPORTS), n=1)
        if close:
            msg += f" (did you mean {close[0]!r}?)"
        raise ValueError(msg + " (or pass a Transport instance)")
    raise TypeError(
        f"transport= takes 'local', 'pool', or a Transport instance, "
        f"not {type(spec).__name__}"
    )
