"""The reference tree-walking engine (``engine="walk"``).

Per-access instrumented interpretation: every load/store/reduction ref
reports itself to the shadow marker as it happens.  This is the
reference semantics every faster engine is property-tested against; it
is kept registered for ablation and equivalence fuzzing.
"""

from __future__ import annotations

from repro.interp.costs import CostCounter
from repro.interp.events import NullObserver
from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import CostModel
from repro.runtime.engines.base import DoallContext, EngineCaps
from repro.runtime.engines.emulated import EmulatedEngine, EmulationState
from repro.runtime.engines.registry import registry
from repro.runtime.results import SerialRun
from repro.runtime.serial import loop_iteration_values


class WalkEngine(EmulatedEngine):
    name = "walk"
    caps = EngineCaps(supports_serial=True)
    summary = "recursive tree walker; per-access shadow marking"
    guarantee = "the reference semantics"

    def _executors(self, ctx: DoallContext, state: EmulationState):
        observer = ctx.marker if ctx.marker is not None else NullObserver()
        interps = [
            Interpreter(
                ctx.program,
                proc_env,
                memory=state.router,
                observer=observer,
                tested=state.tested,
                value_based=ctx.value_based,
                cost=CostCounter(),
                redux_refs=ctx.plan.redux_refs,
            )
            for proc_env in state.proc_envs
        ]

        def proc_cost(proc: int) -> CostCounter:
            return interps[proc].cost

        def execute(proc: int, position: int) -> None:
            interps[proc].exec_iteration(
                ctx.loop, ctx.values[position],
                flush_live_out=ctx.plan.live_out_scalars,
            )

        return proc_cost, execute

    def execute_serial(
        self, program, env, model: CostModel, loop, before, after, *,
        compiled=None,
    ) -> SerialRun:
        setup_cost = CostCounter()
        interp = Interpreter(program, env, cost=setup_cost, value_based=False)
        interp.exec_block(before)
        setup_time = model.iteration_cycles(setup_cost.total())

        loop_cost = CostCounter()
        interp.cost = loop_cost
        start, stop, step = interp.eval_loop_bounds(loop)
        values = loop_iteration_values(start, stop, step)
        for value in values:
            interp.exec_iteration(loop, value)
        env.set_scalar(loop.var, (values[-1] + step) if values else start)

        teardown_cost = CostCounter()
        interp.cost = teardown_cost
        interp.exec_block(after)
        teardown_time = model.iteration_cycles(teardown_cost.total())

        iteration_costs = list(loop_cost.iteration_costs)
        loop_time = sum(model.iteration_cycles(c) for c in iteration_costs)
        return SerialRun(
            env=env,
            loop_iteration_costs=iteration_costs,
            loop_time=loop_time,
            setup_time=setup_time,
            teardown_time=teardown_time,
            num_iterations=len(values),
            engine=self.name,
        )


registry.register(WalkEngine())
