"""The ``auto`` pseudo-engine: registry-resolved adaptive selection.

``auto`` never executes a loop itself — its :meth:`select` hook runs
the :class:`~repro.runtime.engines.planner.EnginePlanner` over the
doall context and hands the dispatcher the chosen engine plus the
recorded reason.  Registering it like any other engine is what makes
``--engine auto`` and ``RunConfig(engine="auto")`` fall out of the
registry with no special cases at the call sites.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.doall import DoallRun
from repro.runtime.engines.base import DoallContext, EngineCaps, ExecutionEngine
from repro.runtime.engines.planner import EnginePlanner
from repro.runtime.engines.registry import registry


class AutoEngine(ExecutionEngine):
    name = "auto"
    caps = EngineCaps(
        supports_workers=True,
        planner=True,
        fallback="compiled",
    )
    summary = (
        "per-loop adaptive selection: a planner picks among the "
        "registered engines — from static signals (classifier verdict, "
        "trip count, worker availability) on cold loops, and from the "
        "loop's recorded profile (per-engine mean doall wall clock, "
        "deterministic epsilon-greedy) once history exists; the decision "
        "and its evidence are recorded on the report (`--verbose`)"
    )
    guarantee = (
        "bit-identical to the engine it picks (engine parity makes any "
        "pick safe)"
    )

    planner = EnginePlanner()

    def select(self, ctx: DoallContext) -> tuple[ExecutionEngine, Optional[str]]:
        plan = self.planner.plan(
            ctx.program, ctx.loop, ctx.plan,
            trip_count=len(ctx.values), workers=ctx.workers,
            profiles=ctx.profiles, loop_key=ctx.loop_key,
        )
        return registry.get(plan.engine), plan.reason

    def execute_doall(self, ctx: DoallContext) -> DoallRun:
        # The dispatcher always goes through select(); delegating here
        # keeps direct calls (tests, third-party drivers) working.
        engine, reason = self.select(ctx)
        run = engine.execute_doall(ctx)
        run.engine_decision = reason
        return run


registry.register(AutoEngine())
