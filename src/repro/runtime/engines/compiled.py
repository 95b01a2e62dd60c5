"""The closure-compiled engine (``engine="compiled"``, the default).

The loop body is compiled once into per-node closures with direct
structure binding and batched shadow marking
(:mod:`repro.interp.compiled_spec`); iterations then run without tree
dispatch.  Bit-identical to the walker on every observable — state,
operation counts, shadow marks — just faster.  Its serial executor runs
the program as generated Python (:mod:`repro.interp.compiled`), on the
caller's compiled program when it passes one.
"""

from __future__ import annotations

from repro.interp.compiled import CompiledProgram, compile_program
from repro.interp.compiled_spec import CompiledSpecLoop
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
    summary = "per-node compiled closures, batched shadow marking"
    guarantee = "bit-identical to `walk`, ~2x faster"

    def _executors(self, ctx: DoallContext, state: EmulationState):
        spec = CompiledSpecLoop(
            ctx.program, ctx.loop,
            tested=state.tested, value_based=ctx.value_based,
            redux_refs=ctx.plan.redux_refs,
            privates=state.privates, partials=state.partials,
            shared_env=ctx.env,
        )
        runtimes = [
            spec.new_runtime(proc_env, state.router, CostCounter(), proc=proc)
            for proc, proc_env in enumerate(state.proc_envs)
        ]

        def proc_cost(proc: int) -> CostCounter:
            return runtimes[proc].cost

        def execute(proc: int, position: int) -> None:
            rt = runtimes[proc]
            rt.iteration = position
            spec.run_iteration(
                rt, ctx.marker, ctx.values[position], ctx.plan.live_out_scalars
            )

        return proc_cost, execute

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
