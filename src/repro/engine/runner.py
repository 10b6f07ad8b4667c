"""The shared bulk-synchronous round loop every device scheme runs on.

Every speculative GPU coloring in the reproduction — Alg. 4 topology-
driven, Alg. 5 data-driven, 3-step GM's GPU phase, csrcolor's MIS
elections — is the same skeleton: *while work remains, run this round's
kernels, read a 4-byte flag back over PCIe, count the round*.  The
schemes differ only in what a round does, so that difference is all a
:class:`SchemeRecipe` expresses; :class:`RoundLoop` owns the skeleton:

* the safety cap (:data:`MAX_ITERATIONS`), raising a diagnostic
  :class:`~repro.engine.errors.ConvergenceError` instead of silently
  returning a partial coloring;
* the per-round changed-flag/worklist-size DtoH readback;
* per-round structured metrics (into a
  :class:`~repro.metrics.recorder.Recorder` when one is attached);
* assembling the :class:`~repro.coloring.base.ColoringResult` from the
  backend's timing span, so a shared backend reports per-run times.

Recipes plug in through five hooks — ``setup``, ``has_work``, ``round``,
``post_round``, ``finalize`` (plus ``cleanup`` for pooled buffers); see
the scheme modules for the four shipped recipes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import runscope
from ..resilience.deadline import DeadlineExceeded
from .backend import Backend
from .errors import AuditError, ConvergenceError, InvariantViolation

__all__ = [
    "MAX_ITERATIONS",
    "RoundStatus",
    "SchemeOutcome",
    "SchemeRecipe",
    "RoundLoop",
    "run_scheme",
]

#: Safety cap on bulk-synchronous rounds (speculation converges in
#: O(log n) rounds; hitting this means the scheme is livelocked).
#: Hoisted here from the per-scheme ``_MAX_ITERATIONS`` copies.
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class RoundStatus:
    """What one recipe round reports back to the loop.

    ``executed=False`` means the round found no work and launched nothing
    — the loop then stops without charging the flag readback or counting
    the round (3-step GM's early exit); rounds that *do* run but color
    nothing still count (topology-driven's terminating empty round).
    """

    active: int = 0
    conflicts: int = 0
    executed: bool = True


@dataclass(frozen=True)
class SchemeOutcome:
    """What a recipe's ``finalize`` returns to the result assembler."""

    colors: np.ndarray
    extra: dict = field(default_factory=dict)
    extra_iterations: int = 0  # rounds performed outside the loop (3-step GM)
    cpu_time_us: float = 0.0  # host-side work the recipe priced itself


class SchemeRecipe:
    """Base class for declarative scheme recipes.

    A recipe is a single-run object: construct it with the scheme's knobs,
    hand it to :func:`run_scheme` (or an
    :class:`~repro.engine.context.ExecutionContext`), and it accumulates
    per-run state on ``self`` between hooks.

    Subclasses must set :attr:`scheme` (or override the property) and
    implement ``setup`` / ``has_work`` / ``round`` / ``finalize``.
    """

    #: Scheme identifier, used for result labels and error messages.
    scheme: str = "?"

    #: Bytes the host reads back after every round (changed flag or
    #: worklist tail — both are one 4-byte word in the real CUDA codes).
    flag_bytes: int = 4

    #: Round-scoped scratch arena (:class:`~repro.coloring.kernels.KernelScratch`);
    #: :class:`RoundLoop` installs a fresh one per run so waves reuse their
    #: temporaries across iterations.  ``None`` when a recipe runs outside
    #: the loop (kernels then allocate per call).
    scratch = None

    def setup(self, ex: Backend, graph, bufs) -> None:
        """Bind the run's substrate and build per-run state."""
        raise NotImplementedError

    def has_work(self) -> bool:
        """True while another round should run."""
        raise NotImplementedError

    def round(self, iteration: int) -> RoundStatus:
        """Run one round's kernels; return what happened."""
        raise NotImplementedError

    def post_round(self, iteration: int) -> int:
        """Hook after the flag readback (worklist swap, csrcolor's tail
        fast path).  Returns extra iterations consumed (usually 0)."""
        return 0

    def finalize(self) -> SchemeOutcome:
        """Wrap up (post-loop kernels, renumbering) and emit the colors."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Return pooled buffers to the backend; always called."""

    def uncolored(self) -> int:
        """Vertices still uncolored — reported by :class:`ConvergenceError`."""
        bufs = getattr(self, "bufs", None)
        if bufs is None:
            return 0
        return int((bufs.colors.data <= 0).sum())


@dataclass
class RoundLoop:
    """Drives a recipe to convergence on a backend (see module docstring).

    The run's :class:`~repro.faults.Robustness` bundle and
    :class:`~repro.resilience.RunControl` come from the run scope
    (:mod:`repro.runscope`), which ``ExecutionContext`` installs.  With a
    bundle in scope the loop additionally enforces the bundle's
    :class:`~repro.faults.HealthPolicy` guard rails — the no-progress
    livelock watchdog, post-round invariant checks (colored-set
    monotonicity, worklist-size sanity), and the end-of-run coloring
    audit — and consults the bundle's fault injector at the
    ``buffer-bitflip`` / ``result-corrupt`` sites; with a control in
    scope it checks the deadline at every round boundary.  With neither
    none of this costs anything.
    """

    max_iterations: int = MAX_ITERATIONS
    recorder: object | None = None  # metrics.Recorder, duck-typed
    tracer: object | None = None  # obs.Tracer, duck-typed

    def run(self, ex: Backend, graph, recipe: SchemeRecipe, bufs):
        """Execute ``recipe`` on ``graph``; returns a ``ColoringResult``."""
        from ..coloring.base import ColoringResult

        tracer = self.tracer
        ambient = runscope.current()
        rb, control = ambient.robustness, ambient.control
        policy = rb.policy if rb is not None else None
        max_iterations = self.max_iterations
        if policy is not None and policy.max_iterations is not None:
            max_iterations = policy.max_iterations
        watch_window = policy.no_progress_window if policy is not None else 0
        invariants = policy.invariants if policy is not None else False
        run_span = None
        if tracer is not None:
            run_span = tracer.begin(
                f"{recipe.scheme}:{getattr(graph, 'name', '?')}",
                "run",
                scheme=recipe.scheme,
                graph=getattr(graph, "name", "?"),
                vertices=graph.num_vertices,
                edges=graph.num_edges,
                backend=ex.name,
            )
        mark = ex.mark()
        iterations = 0
        try:
            recipe.setup(ex, graph, bufs)
            recipe.profiles = []
            from ..coloring.kernels import KernelScratch

            recipe.scratch = KernelScratch()
            last_uncolored: int | None = None
            stalled = 0
            try:
                while recipe.has_work():
                    if iterations >= max_iterations:
                        raise ConvergenceError(
                            recipe.scheme, iterations, recipe.uncolored()
                        )
                    if control is not None:
                        control.check("round")
                    if rb is not None:
                        self._check_deadline_storm(rb, control, iterations)
                        self._inject_bitflip(rb, recipe, bufs, iterations)
                    profiles_before = len(recipe.profiles)
                    round_span = (
                        tracer.begin(f"round-{iterations}", "round")
                        if tracer is not None
                        else None
                    )
                    status = recipe.round(iterations)
                    if not status.executed:
                        if round_span is not None:
                            tracer.end(round_span, active=0, conflicts=0)
                        break
                    ex.dtoh(recipe.flag_bytes)
                    if round_span is not None:
                        tracer.end(
                            round_span,
                            active=status.active,
                            conflicts=status.conflicts,
                        )
                    iterations += 1
                    iterations += recipe.post_round(iterations)
                    if self.recorder is not None:
                        self._record_round(
                            graph, recipe, iterations - 1, status, profiles_before
                        )
                    if watch_window > 0 or invariants:
                        last_uncolored, stalled = self._check_round(
                            graph, recipe, status, iterations,
                            watch_window, invariants, last_uncolored, stalled,
                        )
                outcome = recipe.finalize()
                if rb is not None:
                    self._inject_result_corrupt(rb, outcome)
                if policy is not None and policy.audit:
                    self._audit(graph, recipe.scheme, outcome.colors)
            finally:
                recipe.cleanup()

            timing = ex.timing_since(mark)
            extra = dict(outcome.extra)
            extra.setdefault("backend", ex.name)
            result = ColoringResult(
                colors=outcome.colors,
                scheme=recipe.scheme,
                iterations=iterations + outcome.extra_iterations,
                gpu_time_us=timing.gpu_time_us,
                cpu_time_us=timing.cpu_time_us + outcome.cpu_time_us,
                transfer_time_us=timing.transfer_time_us,
                num_kernel_launches=timing.num_launches,
                profiles=recipe.profiles,
                extra=extra,
            )
            if run_span is not None:
                run_span.counters.update(
                    colors=result.num_colors,
                    gpu_time_us=result.gpu_time_us,
                    cpu_time_us=result.cpu_time_us,
                    transfer_time_us=result.transfer_time_us,
                )
            return result
        finally:
            if run_span is not None:
                # Closes any round span an exception left open, too.
                tracer.end(run_span, iterations=iterations)

    def _check_round(self, graph, recipe, status, iterations,
                     watch_window, invariants, last_uncolored, stalled):
        """Post-round guard rails: invariants plus the livelock watchdog.

        Returns the updated ``(last_uncolored, stalled)`` watchdog state.
        The uncolored count is read once and shared by both guards.
        """
        n = graph.num_vertices
        uncolored = recipe.uncolored()
        if invariants:
            if not (0 <= status.active <= n and 0 <= status.conflicts <= n):
                raise InvariantViolation(
                    recipe.scheme, "worklist-sane", iterations - 1,
                    f"active={status.active} conflicts={status.conflicts} "
                    f"outside [0, {n}]",
                )
            if last_uncolored is not None and uncolored > last_uncolored:
                raise InvariantViolation(
                    recipe.scheme, "colored-monotone", iterations - 1,
                    f"uncolored grew from {last_uncolored} to {uncolored}",
                )
        if watch_window > 0:
            if last_uncolored is not None and uncolored == last_uncolored \
                    and uncolored > 0:
                stalled += 1
                if stalled >= watch_window:
                    raise ConvergenceError(
                        recipe.scheme, iterations, uncolored,
                        reason="no-progress", window=stalled,
                    )
            else:
                stalled = 0
        return uncolored, stalled

    def _audit(self, graph, scheme, colors) -> None:
        """End-of-run validity audit: re-verify the coloring on the CSR."""
        from ..coloring.base import count_conflicts

        uncolored = int((colors <= 0).sum())
        conflicts = count_conflicts(graph, colors)
        if uncolored or conflicts:
            raise AuditError(scheme, conflicts, uncolored)

    @staticmethod
    def _check_deadline_storm(rb, control, iteration) -> None:
        """``deadline-storm`` site: force the run's budget to expire now.

        Fires a structured :class:`DeadlineExceeded` at a round boundary
        — exactly what a real expiry raises — so the service/scheduler
        failure paths can be chaos-tested without real clock pressure.
        """
        if rb.fire("deadline-storm", round=iteration) is None:
            return
        deadline = control.deadline if control is not None else None
        if deadline is not None:
            raise DeadlineExceeded(
                deadline.deadline_ms, queued_ms=deadline.queued_ms,
                running_ms=deadline.running_ms(), where="round:forced",
            )
        raise DeadlineExceeded(0.0, where="round:forced")

    @staticmethod
    def _inject_bitflip(rb, recipe, bufs, iteration) -> None:
        """``buffer-bitflip`` site: flip one bit of the pooled color buffer."""
        spec = rb.fire("buffer-bitflip", round=iteration)
        if spec is None:
            return
        colors = bufs.colors.data
        if colors.size == 0:
            return
        victim = rb.plan.index_for(
            "buffer-bitflip", colors.size, {"round": iteration}
        )
        bit = int(spec.param) % 31 if spec.param is not None else 0
        colors[victim] = np.int32(int(colors[victim]) ^ (1 << bit))

    @staticmethod
    def _inject_result_corrupt(rb, outcome) -> None:
        """``result-corrupt`` site: flip one bit of the finalized colors."""
        spec = rb.fire("result-corrupt")
        if spec is None:
            return
        colors = outcome.colors
        if colors.size == 0:
            return
        victim = rb.plan.index_for("result-corrupt", colors.size, {})
        bit = int(spec.param) % 31 if spec.param is not None else 0
        colors[victim] = np.int32(int(colors[victim]) ^ (1 << bit))

    def _record_round(self, graph, recipe, iteration, status, profiles_before) -> None:
        time_us = sum(
            p.time_us for p in recipe.profiles[profiles_before:]
        )
        self.recorder.add_round(
            scheme=recipe.scheme,
            graph=getattr(graph, "name", "?"),
            iteration=iteration,
            active=status.active,
            conflicts=status.conflicts,
            time_us=float(time_us),
        )


def run_scheme(
    graph,
    recipe: SchemeRecipe,
    *,
    device=None,
    backend=None,
    context=None,
    observe=None,
    faults=None,
    health=None,
):
    """Run one recipe on one graph — the single-shot engine entry point.

    ``device=`` keeps the legacy per-scheme signature working (the device
    is wrapped in a :class:`~repro.engine.backend.GpuSimBackend`);
    ``context=`` reuses a long-lived :class:`ExecutionContext` (cached
    uploads, pooled buffers); otherwise an ephemeral context is built
    from ``backend`` (default: a fresh simulated K20c).  ``observe=``
    takes the unified observation surface (see :mod:`repro.obs`);
    ``faults=`` / ``health=`` attach the robustness layer (see
    :mod:`repro.faults`) — note the degradation *rerun* chain needs a
    recipe factory, so it lives on ``color_graph`` / ``ExecutionContext.run``,
    not here; guard failures raise from this entry point.
    """
    from .context import ExecutionContext

    if context is None:
        spec = backend if backend is not None else device
        context = ExecutionContext(
            backend=spec, observe=observe, faults=faults, health=health
        )
    elif observe is not None:
        raise ValueError(
            "pass observe= to the ExecutionContext, not alongside context="
        )
    elif faults is not None or health is not None:
        raise ValueError(
            "pass faults=/health= to the ExecutionContext, not alongside "
            "context="
        )
    return context.run_recipe(graph, recipe)
