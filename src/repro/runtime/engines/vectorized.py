"""The vectorized whole-block engine (``engine="vectorized"``).

Classifier-eligible loops are lowered to NumPy index-vector kernels —
one lane per iteration — with bulk shadow marking
(:mod:`repro.interp.vectorized_spec`).  Rejected loops and runtime
bails raise :class:`EngineFallback` strictly pre-commit; the dispatcher
walks the declared fallback chain (``vectorized -> compiled``) and the
loop reruns per-iteration over fresh, untouched structures.  The block
always runs in-process: a worker count does not shard it (only the
``parallel`` engine shards), as with ``compiled`` and ``walk``.
"""

from __future__ import annotations

from repro.analysis.vectorize import classify_loop
from repro.interp.costs import IterationCost
from repro.interp.vectorized_spec import VectorizeBail, execute_vectorized_block
from repro.runtime.doall import DoallRun
from repro.runtime.engines.base import (
    DoallContext,
    EngineCaps,
    EngineFallback,
    ExecutionEngine,
)
from repro.runtime.engines.emulated import prepare_state
from repro.runtime.engines.registry import registry


class VectorizedEngine(ExecutionEngine):
    name = "vectorized"
    caps = EngineCaps(whole_block=True, fallback="compiled")
    summary = (
        "whole loop body lowered to NumPy index-vector kernels (one lane "
        "per iteration) with bulk shadow marking; a static classifier "
        "gates eligibility, rejects fall back to `compiled` with the "
        "reason reported (`--verbose`)"
    )
    guarantee = "bit-identical to `compiled`, ≥1.5x faster on eligible loops"

    def execute_doall(self, ctx: DoallContext) -> DoallRun:
        decision = classify_loop(ctx.program, ctx.loop, ctx.plan)
        if not decision:
            raise EngineFallback(decision.reason)

        state = prepare_state(ctx)
        try:
            pairs = execute_vectorized_block(
                ctx.program, ctx.loop,
                values=ctx.values, assignment=state.assignment, num_procs=ctx.num_procs,
                tested=state.tested, redux_refs=ctx.plan.redux_refs,
                scalar_reductions=ctx.plan.scalar_reductions,
                live_out_scalars=ctx.plan.live_out_scalars,
                value_based=ctx.value_based, marker=ctx.marker,
                privates=state.privates, partials=state.partials,
                proc_envs=state.proc_envs, shared_env=ctx.env,
                need_costs=ctx.need_costs,
            )
        except VectorizeBail as bail:
            # The whole-block attempt touched nothing: the dispatcher
            # reruns per-iteration on the fallback engine over fresh
            # structures built from the very same (unmodified) state.
            raise EngineFallback(bail.reason) from None

        vec_costs = [IterationCost()] * len(ctx.values)
        for position, cost in pairs:
            vec_costs[position] = cost
        return DoallRun(
            values=ctx.values,
            assignment=state.assignment,
            iteration_costs=vec_costs,
            privates=state.privates,
            partials=state.partials,
            proc_envs=state.proc_envs,
            marker=ctx.marker,
            scalar_init=state.scalar_init,
            aborted=False,
            executed_iterations=len(ctx.values),
            engine_used=self.name,
        )


registry.register(VectorizedEngine())
