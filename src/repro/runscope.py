"""The ambient state of one run, scoped to its thread of control.

Most run state travels explicitly (``robustness=``, ``deadline_ms=``,
``backend=`` parameters), but a few consumers live in code that
deliberately knows nothing about the engine: the NumPy mex kernels read
their strategy and note degradations, the commit gate fires kernel
fault sites, and deep call sites check the deadline.  They read it from
here.

One :class:`contextvars.ContextVar` holds one frozen :class:`RunScope`.
:func:`scope` installs a changed copy for a block and restores the
previous one by token, so nested and interleaved scopes unwind exactly.
Each thread sees only its own scope: ``asyncio`` tasks and
``asyncio.to_thread`` copy the caller's context, threads started
directly begin empty (``Device.commit_pair`` copies its caller's context
into the second pricing thread), and every pool worker job runs in a
fresh, empty context.

This module imports nothing from the rest of the package, so every
layer can read it without a dependency cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

__all__ = [
    "RunScope",
    "current",
    "scope",
    "update",
    "fire",
    "note_degradation",
    "control_check",
]


@dataclass(frozen=True)
class RunScope:
    """What one run's deep call sites may consult (all optional)."""

    robustness: object | None = None  # faults.Robustness, duck-typed
    control: object | None = None  # resilience.RunControl, duck-typed
    mex: tuple | None = None  # (mode, words); None = the default strategy


_SCOPE: ContextVar[RunScope] = ContextVar("repro_run_scope",
                                          default=RunScope())


def current() -> RunScope:
    """The calling context's scope."""
    return _SCOPE.get()


@contextmanager
def scope(**changes):
    """Run the block with ``changes`` applied to the current scope."""
    token = _SCOPE.set(replace(_SCOPE.get(), **changes))
    try:
        yield _SCOPE.get()
    finally:
        _SCOPE.reset(token)


def update(**changes) -> RunScope:
    """Apply ``changes`` to the calling context with no restore.

    Returns the previous scope.  Prefer :func:`scope`; this is the
    ``set_mex_strategy`` setter's spelling.
    """
    previous = _SCOPE.get()
    _SCOPE.set(replace(previous, **changes))
    return previous


def fire(site: str, **key):
    """Fire an injection site on the scope's bundle, if any."""
    rb = _SCOPE.get().robustness
    return None if rb is None else rb.fire(site, **key)


def note_degradation(chain: str, from_mode: str, to_mode: str,
                     reason: str, detail: str = "") -> None:
    """Record a degradation event on the scope's bundle, if any."""
    rb = _SCOPE.get().robustness
    if rb is not None:
        rb.degrade(chain, from_mode, to_mode, reason, detail)


def control_check(where: str = "round") -> None:
    """Deadline/cancel check on the scope's control, if any."""
    control = _SCOPE.get().control
    if control is not None:
        control.check(where)
