"""Adaptive per-loop engine selection (``engine="auto"``).

The planner turns signals into an execution-engine pick, made fresh for
every doall (so each strip of a strip-mined run is planned over its own
trip count).  Two regimes:

**Cold start** (no usable history): static signals, unchanged from the
original planner —

* the vectorize classifier's verdict — an accepted loop runs on the
  whole-block engine, a rejected one records the reject reason;
* the trip count — below :data:`MIN_VECTOR_TRIP` iterations the
  whole-block setup outweighs the lowering, so small (strips of) loops
  stay on the compiled per-iteration engine;
* worker availability — an explicit worker request routes
  classifier-rejected loops to the multiprocess backend instead of the
  single-process compiled engine.

**Warm** (the caller supplied a
:class:`~repro.runtime.profile.LoopProfileStore` holding at least
:data:`MIN_OBSERVATIONS` timed doall observations for this loop):
deterministic epsilon-greedy over the *capability-eligible* engines —
exploit the engine with the best mean measured doall seconds, and every
:data:`EPSILON_PERIOD`-th decision explore the least-observed eligible
engine instead.  The schedule is deterministic (a per-loop decision
counter, no randomness) so runs are reproducible and the parity tests
can pin down exactly which engine a given decision picks.

Engine parity makes every pick *safe* by construction: engines are
bit-identical on all simulated observables, so the planner can only
ever cost wall clock, never correctness — the decision and its
evidence (observation counts, means, decision number) are still
recorded on the report for scrutiny.
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

#: timed doall observations (across all engines) a loop needs before the
#: planner trusts history over the static signals.
MIN_OBSERVATIONS = 2

#: every Nth planner decision for a loop explores the least-observed
#: eligible engine instead of exploiting the best mean (deterministic
#: epsilon-greedy: epsilon = 1/EPSILON_PERIOD, no randomness).
EPSILON_PERIOD = 8


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
        profiles=None,
        loop_key: Optional[str] = None,
    ) -> EnginePlan:
        decision = classify_loop(program, loop, plan)
        if profiles is not None and loop_key is not None:
            warm = self._feedback_plan(
                bool(decision), workers=workers,
                profiles=profiles, loop_key=loop_key,
            )
            if warm is not None:
                return warm
        return self._static_plan(
            decision, loop, trip_count=trip_count, workers=workers
        )

    # -- warm regime: history-driven ---------------------------------------

    def _eligible_engines(self, classifier_ok: bool, workers: Optional[int]) -> list[str]:
        """Engines this loop could run on, by declared capability.

        Planners are excluded (no recursion); worker-requiring engines
        need a worker request and a worker request needs a sharding
        engine; classifier-gated engines need an accepting classifier.
        """
        from repro.runtime.engines.registry import registry

        names = []
        for engine in registry.all():
            caps = engine.caps
            if caps.planner:
                continue
            if caps.requires_workers and workers is None:
                continue
            if workers is not None and not caps.supports_workers:
                continue
            if caps.needs_classifier and not classifier_ok:
                continue
            names.append(engine.name)
        return sorted(names)

    def _feedback_plan(
        self,
        classifier_ok: bool,
        *,
        workers: Optional[int],
        profiles,
        loop_key: str,
    ) -> Optional[EnginePlan]:
        """The epsilon-greedy pick, or None while history is too thin."""
        eligible = self._eligible_engines(classifier_ok, workers)
        if not eligible:
            return None
        stats = {
            engine: observed
            for engine, observed in profiles.engine_stats(loop_key).items()
            if engine in eligible
        }
        total = sum(count for count, _ in stats.values())
        if total < MIN_OBSERVATIONS or not stats:
            return None
        decision_no = profiles.next_decision(loop_key)
        if decision_no % EPSILON_PERIOD == 0:
            target = min(
                eligible, key=lambda e: (stats.get(e, (0, 0.0))[0], e)
            )
            count = stats.get(target, (0, 0.0))[0]
            return EnginePlan(
                target,
                f"feedback: exploring {target!r} (seen {count} of "
                f"{total} timed runs; decision #{decision_no}, exploring "
                f"every {EPSILON_PERIOD}th)",
            )
        best = min(stats, key=lambda e: (stats[e][1], e))
        count, mean = stats[best]
        return EnginePlan(
            best,
            f"feedback: {best!r} has the best mean doall wall clock "
            f"({mean * 1e3:.3f} ms over {count} runs, {total} timed runs "
            f"total; decision #{decision_no})",
        )

    # -- cold regime: static signals ---------------------------------------

    def _static_plan(
        self,
        decision,
        loop: Do,
        *,
        trip_count: int,
        workers: Optional[int],
    ) -> EnginePlan:
        body_size = len(loop.body)
        if decision:
            if trip_count >= MIN_VECTOR_TRIP:
                sharding = (
                    f", sharded across {workers} workers"
                    if workers is not None
                    else ""
                )
                return EnginePlan(
                    "vectorized",
                    f"classifier accepted whole-block lowering "
                    f"(trip count {trip_count}, body {body_size} "
                    f"statements{sharding})",
                )
            return EnginePlan(
                "compiled",
                f"classifier accepted but trip count {trip_count} is below "
                f"the whole-block threshold ({MIN_VECTOR_TRIP})",
            )
        if workers is not None:
            return EnginePlan(
                "parallel",
                f"classifier rejected whole-block lowering "
                f"({decision.reason}); {workers} workers requested",
            )
        return EnginePlan(
            "compiled",
            f"classifier rejected whole-block lowering ({decision.reason})",
        )
