"""Shared deprecation-cycle machinery.

Every compatibility shim in the package funnels through
:func:`warn_once`, so the whole surface escalates in lock-step.  A shim
moves through the cycle::

    stage="deprecated"        -> DeprecationWarning   (hidden by default)
    stage="pending-removal"   -> FutureWarning        (shown by default)
    (next release)            -> removed

The ``recorder=`` keyword and typed-key ``ColoringResult.extra[...]``
reads completed the full cycle and are now *removed* (a ``TypeError`` /
``KeyError`` naming the migration target).  The current occupant of the
*deprecated* stage is the bare-array ``DynamicColoring`` constructor
shape (pass a :class:`~repro.coloring.base.ColoringResult` instead); the
``backend='compiled'`` alias of ``'gpusim'`` is in *pending-removal*.
The migration targets are documented in ``docs/API.md``
("Deprecations").

Warnings fire once per process per ``key`` so hot loops stay quiet;
tests re-arm with :func:`_reset_for_tests`.
"""

from __future__ import annotations

import warnings

__all__ = ["warn_once", "STAGES"]

#: stage name -> warning category for that point in the cycle.
STAGES: dict[str, type[Warning]] = {
    "deprecated": DeprecationWarning,
    "pending-removal": FutureWarning,
}

_warned: set[str] = set()


def warn_once(
    key: str,
    message: str,
    *,
    stage: str = "pending-removal",
    stacklevel: int = 3,
) -> None:
    """Emit one deprecation warning per process for ``key``.

    ``stage`` picks the warning category from :data:`STAGES`;
    ``stacklevel`` should point at the caller of the deprecated surface
    (3 = through one shim function).
    """
    if key in _warned:
        return
    _warned.add(key)
    warnings.warn(message, STAGES[stage], stacklevel=stacklevel)


def _reset_for_tests(key: str | None = None) -> None:
    """Re-arm the once-per-process warnings (all of them, or one key)."""
    if key is None:
        _warned.clear()
    else:
        _warned.discard(key)
