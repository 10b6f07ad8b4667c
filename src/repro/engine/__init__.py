"""repro.engine: the unified scheme-execution layer.

Separates the coloring *recipe* (what kernels a round launches) from the
execution *substrate* (what hardware prices them), following the template
framing of Chen et al. and the recipe/substrate split Bogle & Slota use
for multi-device scaling:

* :mod:`~repro.engine.backend` — the :class:`Backend` protocol with the
  simulated K20c (:class:`GpuSimBackend`) and multicore Xeon
  (:class:`CpuSimBackend`) implementations;
* :mod:`~repro.engine.runner` — :class:`SchemeRecipe` /
  :class:`RoundLoop`: the shared bulk-synchronous skeleton (iteration
  cap, flag readback, round metrics, result assembly);
* :mod:`~repro.engine.context` — :class:`ExecutionContext`: cached
  graph uploads, pooled buffers, and the batched :func:`color_many` API.

See the "Execution engine" section of docs/API.md for the plug-in guide.
"""

from .backend import (
    BACKENDS,
    Backend,
    CpuSimBackend,
    GpuSimBackend,
    Mark,
    TimingDelta,
    resolve_backend,
)
from .config import RunConfig
from .context import ExecutionContext, color_many
from .errors import AuditError, ConvergenceError, InvariantViolation
from .runner import (
    MAX_ITERATIONS,
    RoundLoop,
    RoundStatus,
    SchemeOutcome,
    SchemeRecipe,
    run_scheme,
)

__all__ = [
    "AuditError",
    "BACKENDS",
    "Backend",
    "ConvergenceError",
    "InvariantViolation",
    "CpuSimBackend",
    "ExecutionContext",
    "GpuSimBackend",
    "MAX_ITERATIONS",
    "Mark",
    "RoundLoop",
    "RoundStatus",
    "RunConfig",
    "SchemeOutcome",
    "SchemeRecipe",
    "TimingDelta",
    "color_many",
    "resolve_backend",
    "run_scheme",
]
