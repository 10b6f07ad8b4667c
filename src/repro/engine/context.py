"""Long-lived execution state: cached uploads, pooled buffers, batching.

An :class:`ExecutionContext` pairs one backend with the state that makes
*repeated* runs cheap — exactly what sweeps, ``compare``, and the
benchmark suite do:

* **Upload cache** — device-resident :class:`GraphBuffers` keyed by CSR
  identity, so a graph's R/C arrays cross PCIe once per context no matter
  how many schemes run on it (the color/state arrays are zeroed between
  runs instead of reallocated).
* **Buffer pool** — the backend's allocation pool recycles worklist and
  scratch buffers returned by recipe ``cleanup`` hooks.
* **Batching** — :meth:`color_many` runs a whole suite of graphs through
  one context, and :meth:`run` accepts any registered method name.
"""

from __future__ import annotations

from .. import runscope
from ..faults import FaultInjected, resolve_robustness
from ..obs.observe import reject_recorder_keyword, resolve_observe
from ..resilience.deadline import resolve_control
from .backend import resolve_backend
from .errors import AuditError, ConvergenceError, InvariantViolation
from .runner import MAX_ITERATIONS, RoundLoop, SchemeRecipe

__all__ = ["ExecutionContext", "color_many"]

#: Failures the engine rerun chain may heal with a fresh run (injected
#: faults exhaust their fire budgets; guard errors caused by corruption
#: vanish once the corrupting spec stops firing).
_RECOVERABLE = (FaultInjected, AuditError, InvariantViolation, ConvergenceError)


class ExecutionContext:
    """Reusable run state on one backend (see module docstring).

    Parameters
    ----------
    backend:
        Backend name (``"gpusim"`` / ``"cpusim"``), instance, or a raw
        :class:`~repro.gpusim.device.Device`; default a fresh simulated
        K20c.
    observe:
        The unified observation surface (see :mod:`repro.obs`): ``None``,
        ``"trace"`` / ``"profile"`` / ``"rounds"``, a
        :class:`~repro.obs.tracer.Tracer`, a
        :class:`~repro.metrics.recorder.Recorder`, or a resolved
        :class:`~repro.obs.observe.Observation`.  Accessible afterwards
        as :attr:`observation` (with :attr:`tracer` / :attr:`recorder`
        shortcuts).
    faults:
        Fault-injection plan (see :mod:`repro.faults`): ``None``, a
        :class:`~repro.faults.FaultPlan`, a plan spec string, or a ready
        :class:`~repro.faults.Robustness` bundle.
    health:
        Guard-rail policy: ``None`` (defaults), ``"strict"`` (guards on,
        no degradation), ``"off"``, or a
        :class:`~repro.faults.HealthPolicy`.
    backend_opts:
        Forwarded to the backend constructor when ``backend`` is a name
        (e.g. ``seed=3``, ``cores=16``).
    """

    def __init__(
        self,
        backend=None,
        *,
        config=None,
        observe=None,
        faults=None,
        health=None,
        deadline_ms=None,
        max_iterations: int = MAX_ITERATIONS,
        **backend_opts,
    ) -> None:
        reject_recorder_keyword("ExecutionContext", backend_opts)
        if config is not None:
            from .config import normalize_config

            merged = normalize_config(
                "ExecutionContext",
                config,
                {
                    "backend": backend,
                    "backend_opts": backend_opts or None,
                    "observe": observe, "faults": faults, "health": health,
                    "deadline_ms": deadline_ms,
                },
            )
            backend, observe = merged["backend"], merged["observe"]
            faults, health = merged["faults"], merged["health"]
            deadline_ms = merged["deadline_ms"]
            backend_opts = dict(merged["backend_opts"] or {})
        self.observation = resolve_observe(observe)
        self.backend = resolve_backend(backend, **backend_opts)
        if self.observation.tracer is not None:
            self.backend.attach_tracer(self.observation.tracer)
        self.robustness = resolve_robustness(faults, health)
        self.control = resolve_control(deadline_ms)
        self.loop = RoundLoop(
            max_iterations=max_iterations,
            recorder=self.observation.recorder,
            tracer=self.observation.tracer,
        )
        self._uploads: dict[int, tuple] = {}
        self.uploads = 0  # graphs paying the HtoD burst
        self.upload_reuses = 0  # runs served from the cache

    def _bundle_and_control(self):
        """The robustness bundle and control one run gets.

        This context's own, or its caller's run scope's (see
        :mod:`repro.runscope`) where the context has none: a scheduler's
        shared per-worker context is built once and runs each (job,
        attempt) under that job's scope.
        """
        ambient = runscope.current()
        return (
            self.robustness if self.robustness is not None
            else ambient.robustness,
            self.control if self.control is not None else ambient.control,
        )

    @property
    def recorder(self):
        """The attached recorder, if any (via :attr:`observation`)."""
        return self.observation.recorder

    @property
    def tracer(self):
        """The attached tracer, if any (via :attr:`observation`)."""
        return self.observation.tracer

    # ------------------------------------------------------------------
    def buffers_for(self, graph):
        """Device buffers for ``graph``, uploading at most once per context.

        Cache hits zero the color/state arrays in place — same addresses,
        no transfer, no allocation.
        """
        key = id(graph)
        name = getattr(graph, "name", "?")
        hit = self._uploads.get(key)
        if hit is not None and hit[0] is graph:
            bufs = hit[1]
            self.upload_reuses += 1
            if self.tracer is not None:
                self.tracer.event(f"upload:{name}", "cache", hit=1, miss=0)
        else:
            if self.tracer is not None:
                self.tracer.event(f"upload:{name}", "cache", hit=0, miss=1)
            bufs = self.backend.upload_graph(graph)
            self._uploads[key] = (graph, bufs)
            self.uploads += 1
        bufs.colors.data.fill(0)
        bufs.aux.data.fill(0)
        return bufs

    def evict(self, graph) -> None:
        """Drop a graph's cached buffers (returns them to the pool)."""
        entry = self._uploads.pop(id(graph), None)
        if entry is not None:
            for buf in (entry[1].colors, entry[1].aux):
                self.backend.release(buf)

    # ------------------------------------------------------------------
    def run_recipe(self, graph, recipe: SchemeRecipe):
        """Run a prepared recipe against this context's cached state.

        The run's robustness bundle and control are in the run scope for
        the run, so injection/degradation sites deep in the kernels see
        them.  Guard failures raise here; the rerun degradation chain lives in
        :meth:`run`, which can rebuild the recipe.
        """
        bufs = self.buffers_for(graph)
        pool = getattr(self.backend, "device", None)
        pool_mark = (
            (pool.pool_hits, pool.pool_misses) if pool is not None else None
        )
        rb, control = self._bundle_and_control()
        if rb is not None and rb.log.tracer is None:
            rb.log.tracer = self.observation.tracer
        with runscope.scope(robustness=rb, control=control):
            result = self.loop.run(self.backend, graph, recipe, bufs)
        if self.tracer is not None and pool_mark is not None:
            self.tracer.event(
                "buffer-pool",
                "cache",
                hits=pool.pool_hits - pool_mark[0],
                misses=pool.pool_misses - pool_mark[1],
            )
        if self.observation.active:
            result.extra.setdefault("observation", self.observation)
        return result

    def run(
        self,
        graph,
        method: str = "data-ldg",
        *,
        validate: bool = True,
        mex=None,
        **kwargs,
    ):
        """Run a registered engine method by name (cf. ``color_graph``).

        ``mex=`` selects the forbidden-color kernel strategy for this run
        (``'bitmask'``, ``'bitmask:N'``, or ``'sort'``); results are
        byte-identical either way, only wall-clock speed differs.  Only
        the NumPy kernel tier reads it; the C tier warns once and
        ignores it.

        When a robustness bundle with ``degrade=True`` is in scope, a run
        rejected by the guard rails (or killed by an injected fault) is
        degraded to a fresh rerun — cached buffers evicted, new recipe —
        up to ``policy.max_reruns`` times.  The simulation is
        deterministic, so a clean rerun's colors are byte-identical to a
        never-faulted run's.
        """
        from ..coloring.api import make_recipe
        from ..coloring.base import ColoringError
        from ..coloring.kernels import mex_strategy

        rb = self._bundle_and_control()[0]
        reruns_left = (
            rb.policy.max_reruns if rb is not None and rb.policy.degrade else 0
        )
        while True:
            recipe = make_recipe(
                method, entry_point="ExecutionContext.run", **kwargs
            )
            try:
                if mex is None:
                    result = self.run_recipe(graph, recipe)
                else:
                    with mex_strategy(mex):
                        result = self.run_recipe(graph, recipe)
                if validate:
                    result.validate(graph)
                if rb is not None:
                    result.extra["robustness"] = rb.report()
                return result
            except (*_RECOVERABLE, ColoringError) as exc:
                if reruns_left <= 0:
                    raise
                reruns_left -= 1
                rb.degrade(
                    "engine", "run", "rerun",
                    type(exc).__name__, f"{method}: {exc}",
                )
                # A corrupted pooled buffer must not leak into the rerun.
                self.evict(graph)

    def color_many(
        self, graphs, method: str = "data-ldg", *, validate: bool = True, **kwargs
    ) -> list:
        """Color a batch of graphs, reusing device state across the batch.

        Each graph's CSR upload happens exactly once per context (repeat
        appearances in ``graphs``, or later :meth:`run` calls on the same
        graph object, hit the cache), and scratch buffers recycle through
        the backend pool instead of growing the address space per run.
        """
        return [
            self.run(g, method, validate=validate, **kwargs) for g in graphs
        ]


def color_many(
    graphs,
    method: str = "data-ldg",
    *,
    backend=None,
    backend_opts=None,
    config=None,
    observe=None,
    workers=None,
    scheduler=None,
    cache=None,
    store=None,
    faults=None,
    health=None,
    deadline_ms=None,
    validate: bool = True,
    **kwargs,
) -> list:
    """One-shot batched coloring: build a context, run the whole batch.

    Convenience wrapper over :meth:`ExecutionContext.color_many`; use an
    explicit context to interleave batches with other runs or to read the
    reuse counters afterwards.  ``observe=`` attaches the unified
    observation surface to the whole batch (every run becomes one root
    span of the same tracer).

    Parallel/cached batches (see :mod:`repro.parallel`):

    * ``workers=N`` shards the batch across ``N`` worker processes
      (colors and iteration counts are byte-identical to a serial run;
      each job's simulated time is that of a fresh device, as with
      ``color_graph``, while the plain list path shares one device).
    * ``scheduler=`` picks the scheduler explicitly (``"serial"``,
      ``"process"``, or an instance); default inferred from ``workers``.
    * ``cache=`` consults a content-addressed result cache before
      executing each job (``"memory"``, a directory path, or a
      :class:`~repro.parallel.ResultCache`).
    * ``store=`` selects the graph arena workers read from (see
      :mod:`repro.graph.store` and docs/STORAGE.md): ``'shm'`` /
      ``'mmap'`` publish each unique topology once and ship zero-copy
      handles instead of pickled graphs; default ``'heap'`` pickles.

    Entries of ``graphs`` may also be ``(graph, method[, options])``
    tuples or :class:`~repro.parallel.ColorJob` instances for
    heterogeneous batches; failures after the scheduler's retries come
    back as :class:`~repro.parallel.JobFailure` entries at the failed
    job's position (falsy, so ``all(results)`` screens them).

    ``faults=`` / ``health=`` attach the robustness layer (see
    :mod:`repro.faults`) to every job of the batch: injection sites fire
    deterministically per (job, attempt), the guard rails watch every
    round loop, and exhausted process-pool retries degrade to a serial
    healing pass instead of surfacing failures.
    """
    reject_recorder_keyword("color_many", kwargs)
    if config is not None:
        from .config import normalize_config

        merged = normalize_config(
            "color_many",
            config,
            {
                "backend": backend, "backend_opts": backend_opts,
                "store": store, "workers": workers, "scheduler": scheduler,
                "cache": cache, "faults": faults, "health": health,
                "observe": observe, "deadline_ms": deadline_ms,
            },
        )
        backend, backend_opts = merged["backend"], merged["backend_opts"]
        store, workers = merged["store"], merged["workers"]
        scheduler, cache = merged["scheduler"], merged["cache"]
        faults, health = merged["faults"], merged["health"]
        observe, deadline_ms = merged["observe"], merged["deadline_ms"]
    from ..coloring.registry import resolve_method

    from ..coloring.api import METHODS

    method = resolve_method(method, METHODS, entry_point="color_many")
    graphs = list(graphs)
    from ..graph.csr import CSRGraph

    plain = all(isinstance(g, CSRGraph) for g in graphs)
    if (
        plain
        and workers in (None, 0, 1)
        and scheduler is None
        and cache is None
        and store is None
        and faults is None
        and health is None
    ):
        ctx = ExecutionContext(
            backend=backend, observe=observe, deadline_ms=deadline_ms,
            **dict(backend_opts or {})
        )
        return ctx.color_many(graphs, method, validate=validate, **kwargs)
    from ..parallel.jobs import normalize_jobs
    from ..parallel.scheduler import run_jobs

    jobs = normalize_jobs(graphs, default_method=method, default_options=kwargs)
    return run_jobs(
        jobs,
        workers=workers,
        scheduler=scheduler,
        backend=backend,
        backend_opts=backend_opts,
        observe=observe,
        cache=cache,
        store=store,
        validate=validate,
        faults=faults,
        health=health,
        deadline_ms=deadline_ms,
    )
