"""Loop profiles: the runtime's unified memory of past loop executions.

This package replaces the old ``repro.core.schedule_cache`` module and
the scattered per-run telemetry with one store (paper §IV.D motivates
the verdict-reuse half):

* :class:`LoopProfileStore` — verdict cache (LRU, entry+byte bounded),
  per-loop observation rings, optional JSON persistence.  Only the
  orchestrator's :class:`~repro.runtime.orchestrator.LoopRunner` holds
  one; engines and drivers never see it.
* :class:`RunObservation` — one run as the profile remembers it.
* :func:`pattern_signature` — the access-pattern digest keying reuse.

Construction of the internal :class:`ScheduleCache` outside this
package, and any mention of the store in ``repro/runtime`` outside this
package and the orchestrator, is rejected by
``benchmarks/check_engine_dispatch.py``.
"""

from repro.runtime.profile.observation import RunObservation
from repro.runtime.profile.signature import pattern_signature
from repro.runtime.profile.store import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    DEFAULT_RING,
    FAILURE_RATE_THRESHOLD,
    LoopProfileStore,
    MIN_VETO_ATTEMPTS,
    RECOVERY_MIN_FRACTION,
    ScheduleCache,
    VerdictEntry,
)

__all__ = [
    "DEFAULT_MAX_BYTES",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_RING",
    "FAILURE_RATE_THRESHOLD",
    "LoopProfileStore",
    "MIN_VETO_ATTEMPTS",
    "RECOVERY_MIN_FRACTION",
    "RunObservation",
    "ScheduleCache",
    "VerdictEntry",
    "pattern_signature",
]
