"""repro.parallel: the parallel execution layer.

Three independent scaling pieces on top of the engine, per the two axes
of Rokos et al. and Bogle & Slota:

* :mod:`~repro.parallel.scheduler` — shard a batch of (graph, scheme)
  jobs across worker processes (``color_many(..., workers=N)``); each
  worker owns its own :class:`~repro.engine.context.ExecutionContext`,
  results come back in submission order, and crashed/timed-out jobs are
  retried with backoff then surfaced as structured :class:`JobFailure`
  entries instead of killing the batch.
* :mod:`~repro.parallel.partitioned` — the one speculate-then-resolve
  core (:class:`~repro.parallel.partitioned.PartitionedRun`) behind
  sharded, streamed and distributed coloring: a piece source colors the
  pieces, an exchange policy moves boundary colors, the core repairs.
* :mod:`~repro.parallel.sharded` — partition-sharded coloring of one
  huge graph (:func:`color_sharded`): color contiguous blocks
  concurrently through the scheduler, then repair the cut.
* :mod:`~repro.parallel.cache` — a content-addressed result cache
  (:class:`ResultCache`), keyed by CSR digest + scheme + resolved
  options + device preset, wired into ``color_graph``/``color_many`` as
  ``cache=``.
* :mod:`~repro.parallel.streaming` — out-of-core coloring
  (:func:`color_streamed`): cut contiguous windows out of an
  (mmap-backed) graph and run them through one context sequentially
  with bounded peak RSS, for graphs bigger than RAM.

The ``store=`` option threads the zero-copy graph arenas
(:mod:`repro.graph.store`) through the scheduler: workers attach
shared-memory or mmap arenas instead of unpickling private copies.

See docs/PARALLEL.md for the scheduler model, determinism guarantees
and cache keying, and docs/STORAGE.md for the arena layer.
"""

from .cache import ResultCache, clone_result, job_cache_key, resolve_cache
from .jobs import ColorJob, JobFailure, normalize_jobs
from .scheduler import (
    BACKOFF_CAP_S,
    ProcessPoolScheduler,
    SerialScheduler,
    backoff_delay,
    resolve_scheduler,
    run_jobs,
)
from .sharded import ShardedColoringError, color_sharded
from .streaming import color_streamed, plan_windows, window_subgraph

__all__ = [
    "BACKOFF_CAP_S",
    "ColorJob",
    "JobFailure",
    "ProcessPoolScheduler",
    "ResultCache",
    "SerialScheduler",
    "ShardedColoringError",
    "backoff_delay",
    "clone_result",
    "color_sharded",
    "color_streamed",
    "job_cache_key",
    "normalize_jobs",
    "plan_windows",
    "resolve_cache",
    "resolve_scheduler",
    "run_jobs",
    "window_subgraph",
]
