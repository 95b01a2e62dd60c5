"""The ``auto`` pseudo-engine: registry-resolved per-loop selection.

``auto`` never executes a loop itself — its :meth:`select` hook runs
the :class:`~repro.runtime.engines.planner.EnginePlanner`'s static rule
over the doall context (workers requested → ``parallel``; classifier
accepted and long enough → ``vectorized``; else ``compiled``) and
hands the dispatcher the chosen engine plus the recorded reason.
Registering it like any other engine is what makes ``--engine auto``
and ``RunConfig(engine="auto")`` fall out of the registry with no
special cases at the call sites.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.doall import DoallRun
from repro.runtime.engines.base import DoallContext, EngineCaps, ExecutionEngine
from repro.runtime.engines.planner import MIN_VECTOR_TRIP, EnginePlanner
from repro.runtime.engines.registry import registry


class AutoEngine(ExecutionEngine):
    name = "auto"
    caps = EngineCaps(planner=True, fallback="compiled")
    summary = (
        "per-loop selection by a static rule: workers requested → "
        "`parallel` (the one engine that shards); classifier accepted "
        f"and trip count ≥ {MIN_VECTOR_TRIP} → `vectorized`; else "
        "`compiled`; the decision and its reason are recorded on the "
        "report (`--verbose`)"
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
