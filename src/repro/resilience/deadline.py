"""Per-request deadlines and cooperative cancellation.

A request-scoped budget travels the whole stack as one
:class:`RunControl` — a :class:`Deadline` (monotonic wall-clock budget,
split into queued-vs-running time) plus a :class:`CancelToken`
(cross-thread cancel flag).  The service stamps the deadline at
admission, the engine checks it at every bulk-synchronous round
boundary, and the scheduler/transport re-arm a fresh control in each
worker process from the *remaining* budget shipped in the job payload.

Checks are cooperative: nothing is interrupted mid-kernel.  A round that
overruns finishes, then the next boundary raises the structured
:class:`DeadlineExceeded` (carrying ``deadline_ms`` / ``queued_ms`` /
``running_ms`` / ``where``) so SLO dashboards can separate "sat in the
queue too long" from "the run itself was slow".

The ambient helpers (``activate_control`` / ``active_control`` /
``control_check``) read and write the ``control`` field of the run
scope (:mod:`repro.runscope`), which ``ExecutionContext`` installs for
the duration of a run; call sites that know nothing about the engine
consult it there.  The scope is per thread of control, so a deadline
bound to one run never reaches a run on another thread.
"""

from __future__ import annotations

import threading
import time

from .. import runscope
from ..runscope import control_check

__all__ = [
    "DeadlineExceeded",
    "Cancelled",
    "CancelToken",
    "Deadline",
    "RunControl",
    "resolve_control",
    "activate_control",
    "active_control",
    "control_check",
]


class DeadlineExceeded(RuntimeError):
    """A run (or its queue wait) outlived its ``deadline_ms`` budget.

    Attributes
    ----------
    deadline_ms: the total budget the request was admitted with.
    queued_ms: time spent queued before execution started.
    running_ms: time spent actually executing when the check fired.
    where: the boundary that noticed — ``"admission"``, ``"round"``,
        ``"window"``, ``"sync-round"``, ``"dispatch"``, ``"shard"`` ...
        (``":forced"`` suffix when a ``deadline-storm`` fault forced it).
    """

    def __init__(self, deadline_ms: float, *, queued_ms: float = 0.0,
                 running_ms: float = 0.0, where: str = "round") -> None:
        self.deadline_ms = float(deadline_ms)
        self.queued_ms = float(queued_ms)
        self.running_ms = float(running_ms)
        self.where = where
        super().__init__(
            f"deadline of {self.deadline_ms:.0f} ms exceeded at {where} "
            f"(queued {self.queued_ms:.1f} ms + running "
            f"{self.running_ms:.1f} ms)"
        )

    def to_dict(self) -> dict:
        return {
            "error": "DeadlineExceeded",
            "deadline_ms": self.deadline_ms,
            "queued_ms": round(self.queued_ms, 3),
            "running_ms": round(self.running_ms, 3),
            "where": self.where,
        }


class Cancelled(RuntimeError):
    """A run was cooperatively cancelled via its :class:`CancelToken`."""

    def __init__(self, reason: str = "cancelled",
                 where: str = "round") -> None:
        self.reason = reason
        self.where = where
        super().__init__(f"run cancelled at {where}: {reason}")

    def to_dict(self) -> dict:
        return {"error": "Cancelled", "reason": self.reason,
                "where": self.where}


class CancelToken:
    """A cross-thread cooperative cancel flag.

    The service's event loop sets it (e.g. when the last coalesced
    follower abandons a leader); the engine thread observes it at round
    boundaries via :meth:`check`.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reason = "cancelled"

    def cancel(self, reason: str = "cancelled") -> None:
        self._reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    @property
    def reason(self) -> str:
        return self._reason

    def check(self, where: str = "round") -> None:
        if self._event.is_set():
            raise Cancelled(self._reason, where=where)


class Deadline:
    """A monotonic wall-clock budget with queued/running attribution.

    ``queued_ms`` is time already spent before the budget started being
    *run down by work* — the service stamps it at dispatch, and worker
    processes inherit the upstream total so a cross-process
    :class:`DeadlineExceeded` still reports end-to-end accounting.
    """

    def __init__(self, deadline_ms: float, *, queued_ms: float = 0.0,
                 running_ms: float = 0.0, clock=time.monotonic) -> None:
        if deadline_ms < 0:
            raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")
        self.deadline_ms = float(deadline_ms)
        self.queued_ms = float(queued_ms)
        self._clock = clock
        # running_ms backdates the start: a worker process rebuilding the
        # deadline from a shipped budget keeps end-to-end attribution.
        self._started = clock() - float(running_ms) / 1000.0

    def running_ms(self) -> float:
        return (self._clock() - self._started) * 1000.0

    def elapsed_ms(self) -> float:
        return self.queued_ms + self.running_ms()

    def remaining_ms(self) -> float:
        return self.deadline_ms - self.elapsed_ms()

    @property
    def expired(self) -> bool:
        return self.remaining_ms() <= 0.0

    def check(self, where: str = "round") -> None:
        if self.expired:
            raise DeadlineExceeded(
                self.deadline_ms, queued_ms=self.queued_ms,
                running_ms=self.running_ms(), where=where,
            )

    def exceeded(self, where: str = "round") -> DeadlineExceeded:
        """Build the structured error without raising (admission path)."""
        return DeadlineExceeded(
            self.deadline_ms, queued_ms=self.queued_ms,
            running_ms=self.running_ms(), where=where,
        )


class RunControl:
    """The bundle a run carries: optional deadline + optional token."""

    def __init__(self, *, deadline: Deadline | None = None,
                 token: CancelToken | None = None) -> None:
        self.deadline = deadline
        self.token = token

    def check(self, where: str = "round") -> None:
        """Raise :class:`Cancelled` / :class:`DeadlineExceeded` if due."""
        if self.token is not None:
            self.token.check(where)
        if self.deadline is not None:
            self.deadline.check(where)

    def remaining_ms(self) -> float | None:
        """Budget left for shipping to a worker, or ``None`` (no deadline)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline.remaining_ms())

    def elapsed_snapshot(self) -> tuple[float, float]:
        """(queued_ms, running_ms) so far — for cross-process carry."""
        if self.deadline is None:
            return (0.0, 0.0)
        return (self.deadline.queued_ms, self.deadline.running_ms())

    def ship(self) -> tuple[float, float, float] | None:
        """Picklable budget snapshot for a worker process.

        The cancel token cannot cross the boundary (no shared memory for
        an Event), so only the deadline travels; the coordinator still
        observes cancellation between rounds.
        """
        if self.deadline is None:
            return None
        return (self.deadline.deadline_ms, self.deadline.queued_ms,
                self.deadline.running_ms())

    @classmethod
    def from_shipped(cls, budget) -> "RunControl | None":
        """Rebuild a worker-side control from :meth:`ship`'s snapshot."""
        if budget is None:
            return None
        total, queued, running = budget
        return cls(deadline=Deadline(total, queued_ms=queued,
                                     running_ms=running))


def resolve_control(deadline_ms=None, *, queued_ms: float = 0.0,
                    token: CancelToken | None = None) -> RunControl | None:
    """Build a run's :class:`RunControl`, or ``None`` when nothing is set.

    A ready-made :class:`RunControl` passed as ``deadline_ms`` flows
    through unchanged (the service path); a number starts a fresh
    budget now.
    """
    if isinstance(deadline_ms, RunControl):
        return deadline_ms
    if deadline_ms is None and token is None:
        return None
    deadline = None
    if deadline_ms is not None:
        deadline = Deadline(float(deadline_ms), queued_ms=queued_ms)
    return RunControl(deadline=deadline, token=token)


def activate_control(control: RunControl | None):
    """Install ``control`` as the run scope's control for the block."""
    return runscope.scope(control=control)


def active_control() -> RunControl | None:
    """The run scope's control, if any."""
    return runscope.current().control
