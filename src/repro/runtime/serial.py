"""Serial reference execution.

Provides the sequential oracle (for correctness checks), the serial loop
time used as the speedup denominator, and the serial re-execution after a
failed speculation.
"""

from __future__ import annotations

from repro.dsl.ast_nodes import Do, Program
from repro.interp.compiled import CompiledProgram
from repro.interp.costs import CostCounter, IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import find_target_loop, split_at_loop
from repro.machine.costmodel import CostModel
from repro.runtime.results import SerialRun


def loop_iteration_values(start: int, stop: int, step: int) -> list[int]:
    """The iteration values a Fortran do loop executes."""
    values = []
    value = start
    while (step > 0 and value <= stop) or (step < 0 and value >= stop):
        values.append(value)
        value += step
    return values


def run_serial(
    program: Program,
    inputs: dict,
    model: CostModel,
    *,
    loop: Do | None = None,
    engine: str = "walk",
    compiled: CompiledProgram | None = None,
) -> SerialRun:
    """Execute the program serially, timing the target loop per iteration.

    ``engine`` names any registered execution engine; the registry
    substitutes the first serial-capable engine on its fallback chain
    for doall-only engines (e.g. ``parallel`` → ``compiled``), recording
    the substitution on the returned run.  All serial-capable engines
    produce identical state and identical operation counts.
    ``compiled`` is ``program`` already compiled, for an engine that runs
    compiled code to reuse instead of compiling its own.
    """
    # Imported lazily: the engine modules import SerialRun helpers from
    # this module.
    from repro.runtime.engines import get_engine, serial_engine_for

    serial_name, substitution = serial_engine_for(engine)
    executor = get_engine(serial_name)

    env = Environment(program, inputs)
    if loop is None:
        loop = find_target_loop(program)
    before, after = split_at_loop(program, loop)

    run = executor.execute_serial(
        program, env, model, loop, before, after, compiled=compiled
    )
    run.engine_substitution = substitution
    return run


def rerun_values_serially(
    compiled: CompiledProgram,
    loop: Do,
    env: Environment,
    values: list[int],
    step: int,
    model: CostModel,
) -> tuple[float, list[IterationCost]]:
    """Serially re-execute the given iterations of the target loop in
    ``env`` (a rolled-back strip, or the whole loop after a failed or
    refused speculation) on the compiled serial executor.

    The loop bounds are not re-evaluated — the caller already knows the
    iteration values — and only the executed iterations are charged.
    ``step`` positions the loop variable past the last value, exactly
    where a serial execution of those iterations would leave it.
    Returns the re-run's cycles and its per-iteration costs.
    """
    cost = CostCounter()
    compiled.run_loop(loop, env, cost, values)
    if values:
        env.set_scalar(loop.var, values[-1] + step)
    iteration_costs = list(cost.iteration_costs)
    return sum(model.iteration_cycles(c) for c in iteration_costs), iteration_costs
