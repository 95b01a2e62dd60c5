"""The compiled engine (``engine="compiled"``, the default).

Both of its executors run generated Python (:mod:`repro.interp.compiled`).
A doall runs the target loop's marked iteration: generated once per
loop and configuration, memoized on the caller's compiled program (the
doall context's, else one compiled here), and bound per doall to the
private copies, reduction partials, shared arrays and shadow marker.
Iterations then run without tree dispatch, with each iteration's marks
buffered and flushed at its end.  Bit-identical to the walker on every
observable — state, operation counts, shadow marks — just faster.  The
serial executor runs the program's generated statements and loop.
"""

from __future__ import annotations

from repro.interp.compiled import CompiledProgram, compile_program
from repro.interp.costs import CostCounter
from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import CostModel
from repro.runtime.engines.base import DoallContext, EngineCaps
from repro.runtime.engines.emulated import EmulatedEngine, EmulationState
from repro.runtime.engines.registry import registry
from repro.runtime.results import SerialRun
from repro.runtime.serial import loop_iteration_values


class CompiledEngine(EmulatedEngine):
    name = "compiled"
    caps = EngineCaps(supports_serial=True)
    summary = "generated Python per loop, batched shadow marking"
    guarantee = "bit-identical to `walk`, ~3x faster"

    def _executors(self, ctx: DoallContext, state: EmulationState):
        compiled = ctx.compiled if ctx.compiled is not None else compile_program(ctx.program)
        plan = ctx.plan
        iteration = compiled.marked_loop(
            ctx.loop, tested=state.tested, value_based=ctx.value_based,
            redux_refs=plan.redux_refs, private=state.privates,
            partial=state.partials, live_out=plan.live_out_scalars,
        ).bind(
            ctx.env.arrays, state.privates, state.partials, ctx.marker,
            plan.live_out_scalars,
        )
        costs = [CostCounter() for _ in state.proc_envs]
        scalars = [proc_env.scalars for proc_env in state.proc_envs]
        values = ctx.values

        def execute(proc: int, position: int) -> None:
            costs[proc].iteration_costs.append(
                iteration(scalars[proc], proc, position, values[position])
            )

        return costs.__getitem__, execute

    def execute_serial(
        self, program, env, model: CostModel, loop, before, after, *,
        compiled: CompiledProgram | None = None,
    ) -> SerialRun:
        if compiled is None:
            compiled = compile_program(program)

        setup_cost = CostCounter()
        compiled.run_statements(before, env, setup_cost)
        setup_time = model.iteration_cycles(setup_cost.total())

        bounds_interp = Interpreter(program, env, value_based=False)
        start, stop, step = bounds_interp.eval_loop_bounds(loop)
        # Bound evaluation is re-done by the walker for simplicity; undo
        # its count contribution by using a throwaway counter (already
        # the case: the walker gets a fresh default counter here).
        values = loop_iteration_values(start, stop, step)
        loop_cost = CostCounter()
        compiled.run_loop(loop, env, loop_cost, values)
        env.set_scalar(loop.var, (values[-1] + step) if values else start)

        teardown_cost = CostCounter()
        compiled.run_statements(after, env, teardown_cost)
        teardown_time = model.iteration_cycles(teardown_cost.total())

        iteration_costs = list(loop_cost.iteration_costs)
        return SerialRun(
            env=env,
            loop_iteration_costs=iteration_costs,
            loop_time=sum(model.iteration_cycles(c) for c in iteration_costs),
            setup_time=setup_time,
            teardown_time=teardown_time,
            num_iterations=len(values),
            engine=self.name,
        )


registry.register(CompiledEngine())
