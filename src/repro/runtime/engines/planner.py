"""Per-loop engine selection (``engine="auto"``).

The planner turns static signals into an execution-engine pick, made
fresh for every doall (so each strip of a strip-mined run is planned
over its own trip count).  One rule, in order:

* worker availability — an explicit worker request runs the
  multiprocess backend (``parallel``), the one engine that shards;
* the vectorize classifier's verdict and the trip count — an accepted
  loop of at least :data:`MIN_VECTOR_TRIP` iterations runs on the
  whole-block engine; below it the whole-block setup outweighs the
  lowering;
* otherwise the compiled per-iteration engine, with the classifier's
  reject reason (or the short trip count) recorded.

A loop's recorded history never moves the pick: the runner acts on it
one level up (verdict cache, failure veto, recovery arming, warm strip
size; see :meth:`~repro.runtime.orchestrator.LoopRunner._run_speculative`).
Engine parity makes every pick *safe* by construction: engines are
bit-identical on all simulated observables, so the planner can only
ever cost wall clock, never correctness — the decision and its reason
are still recorded on the report for scrutiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.instrument import InstrumentationPlan
from repro.analysis.vectorize import classify_loop
from repro.dsl.ast_nodes import Do, Program

#: below this many iterations the whole-block lowering's fixed setup
#: (lane assembly, stream sorting) dominates — stay per-iteration.
MIN_VECTOR_TRIP = 16


@dataclass(frozen=True)
class EnginePlan:
    """One per-loop engine decision and its recorded rationale."""

    engine: str
    reason: str


class EnginePlanner:
    """Pick the execution engine for one (strip of a) loop."""

    def plan(
        self,
        program: Program,
        loop: Do,
        plan: InstrumentationPlan,
        *,
        trip_count: int,
        workers: Optional[int] = None,
    ) -> EnginePlan:
        if workers is not None:
            return EnginePlan(
                "parallel", f"{workers} workers requested (trip count {trip_count})"
            )
        decision = classify_loop(program, loop, plan)
        if not decision:
            return EnginePlan(
                "compiled",
                f"classifier rejected whole-block lowering ({decision.reason})",
            )
        if trip_count < MIN_VECTOR_TRIP:
            return EnginePlan(
                "compiled",
                f"classifier accepted but trip count {trip_count} is below "
                f"the whole-block threshold ({MIN_VECTOR_TRIP})",
            )
        return EnginePlan(
            "vectorized",
            f"classifier accepted whole-block lowering (trip count "
            f"{trip_count}, body {len(loop.body)} statements)",
        )
