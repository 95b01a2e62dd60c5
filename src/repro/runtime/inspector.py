"""Inspector/executor strategy.

The inspector re-derives the loop's memory-access pattern *without* the
loop's side effects: it executes only the address/control slice (the
statements the subscripts and branch decisions depend on) plus the
marking operations.  That is only possible when the slice contains no
array the loop writes — the paper's TRACK loop is the counterexample, and
:func:`repro.analysis.instrument.build_plan` records the obstacle.

If the test passes, the *executor* runs the loop as an unmarked doall
(still with the privatization/reduction transforms — they are semantic,
not just diagnostic); no checkpoint is ever needed because the inspector
had no side effects and the executor only runs once the pattern is known
safe.  If the test fails, the loop simply runs serially.  Both halves
are the speculative driver's shared phases
(:func:`repro.runtime.speculative.run_with_verdict`), timed like a
speculative run's commit and rollback.

Marking in the inspector is reference-based: value-based (LPD) marking
requires the actual data flow, which the inspector does not compute.
This is the documented approximation of the paper's inspector variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.instrument import InstrumentationPlan, require_inspector
from repro.core.lrpd import analyze_shadows
from repro.core.outcomes import LrpdResult, TestMode
from repro.core.shadow import Granularity, ShadowMarker
from repro.dsl.ast_nodes import ArrayRef, Assign, Do, Program, walk_expressions
from repro.errors import InterpError
from repro.interp.compiled import CompiledProgram
from repro.interp.costs import CostCounter, IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.schedule import ScheduleKind, assign_iterations
from repro.machine.simulator import DoallSimulator
from repro.machine.stats import TimeBreakdown, WallClock
from repro.runtime.speculative import loop_values, price_doall, run_with_verdict


class InspectorScratchMemory:
    """Memory for the inspector: recomputed work arrays go to scratch.

    Arrays the inspector recomputes (per-iteration work arrays feeding
    addresses, e.g. BDNA's ``ind``) are read and written in a private
    scratch copy initialized from the shared state — mirroring the
    copy-in privatized behaviour of the speculative executor.  All other
    arrays are read directly from the (unmodified) environment; the
    inspector never writes them.
    """

    def __init__(self, env: Environment, recompute: frozenset[str]):
        self._env = env
        self._scratch = {name: env.arrays[name].copy() for name in recompute}

    def load(self, array: str, index: int, ref_id: int = -1) -> float | int:
        scratch = self._scratch.get(array)
        if scratch is not None:
            offset = self._env.check_index(array, index)
            return scratch[offset].item()
        return self._env.load(array, index)

    def store(self, array: str, index: int, value: float | int, ref_id: int = -1) -> None:
        scratch = self._scratch.get(array)
        if scratch is None:
            raise InterpError(
                f"inspector attempted to write non-recomputed array {array!r}"
            )
        offset = self._env.check_index(array, index)
        scratch[offset] = value


class InspectorInterpreter(Interpreter):
    """Executes the address/control slice and the marking, nothing else.

    Assignments in the slice run normally (scalar definitions and stores
    to recomputed work arrays, which the scratch memory confines).  Any
    other assignment is reduced to its marking effect: tested-array
    subscripts are evaluated and the references reported, values are
    neither computed nor stored.
    """

    def __init__(self, *args, slice_stmt_ids: frozenset[int], **kwargs):
        kwargs.setdefault("value_based", False)
        super().__init__(*args, **kwargs)
        self._slice_stmt_ids = slice_stmt_ids

    def _exec_assign(self, stmt: Assign) -> None:
        if id(stmt) in self._slice_stmt_ids:
            super()._exec_assign(stmt)
            return
        self._mark_statement(stmt)

    def _mark_statement(self, stmt: Assign) -> None:
        # Reads in the right-hand side come first (read-before-write
        # covering within the iteration must be observed in order).
        for ref in _tested_refs(stmt.expr, self.tested):
            self._mark_ref(ref, is_store=False)
        if isinstance(stmt.target, ArrayRef):
            for ref in _tested_refs(stmt.target.index, self.tested):
                self._mark_ref(ref, is_store=False)
            if stmt.target.name in self.tested:
                self._mark_ref(stmt.target, is_store=True)

    def _mark_ref(self, ref: ArrayRef, is_store: bool) -> None:
        index = self._eval_index(ref.index)
        self.env.check_index(ref.name, index)
        op = self.redux_refs.get(ref.ref_id)
        if op is not None:
            self.observer.on_redux(ref.name, index, op)
        elif is_store:
            self.observer.on_write(ref.name, index)
        else:
            self.observer.on_read(ref.name, index)


def _tested_refs(expr, tested):
    for node in walk_expressions(expr):
        if isinstance(node, ArrayRef) and node.name in tested:
            yield node


@dataclass
class InspectorOutcome:
    """What one inspector/executor run produced."""

    result: LrpdResult
    times: TimeBreakdown
    stats: dict[str, float]
    #: measured wall-clock seconds of the executor half (doall and
    #: commit, or the serial re-run after a failed test).
    wall: WallClock = field(default_factory=WallClock)
    #: why a requested vectorized executor run degraded to compiled.
    fallback_reason: str | None = None
    #: the engine that executed the executor-phase doall (None when the
    #: test failed and the loop ran serially instead).
    engine_used: str | None = None
    #: the ``auto`` planner's rationale for the executor phase.
    engine_decision: str | None = None


def run_inspector_phase(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    num_procs: int,
    *,
    granularity: Granularity = Granularity.ITERATION,
    schedule: ScheduleKind = ScheduleKind.BLOCK,
) -> tuple[ShadowMarker, list[IterationCost], list[list[int]]]:
    """Run the (parallelizable) marking-only inspector traversal."""
    require_inspector(plan)

    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    marker = ShadowMarker(shadow_sizes, granularity=granularity)

    values, _step, _exit = loop_values(program, loop, env)
    assignment = assign_iterations(len(values), num_procs, schedule)

    iteration_costs: list[IterationCost] = [IterationCost()] * len(values)
    for proc, positions in enumerate(assignment):
        scratch_env = env.fork_scalars()
        interp = InspectorInterpreter(
            program,
            scratch_env,
            memory=InspectorScratchMemory(env, plan.inspector_recompute_arrays),
            observer=marker,
            tested=plan.tested_arrays,
            cost=CostCounter(),
            redux_refs=plan.redux_refs,
            slice_stmt_ids=plan.slice_stmt_ids,
        )
        for position in positions:
            granule = position if granularity is Granularity.ITERATION else proc
            marker.set_granule(granule)
            marker.cost = interp.cost
            interp.exec_iteration(loop, values[position])
            iteration_costs[position] = interp.cost.iteration_costs[-1]
    return marker, iteration_costs, assignment


def run_inspector_executor(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    sim: DoallSimulator,
    *,
    granularity: Granularity = Granularity.ITERATION,
    schedule: ScheduleKind = ScheduleKind.BLOCK,
    dynamic_last_value: bool = True,
    directional: bool = True,
    engine: str = "compiled",
    workers: int | None = None,
    pool=None,
    backend: str = "fork",
    profiles=None,
    loop_key: str | None = None,
    compiled: CompiledProgram | None = None,
) -> InspectorOutcome:
    """Inspector → test → (parallel executor | serial loop).

    ``engine`` selects the executor-phase doall engine (``workers`` is
    its process count when ``"parallel"``, ``pool`` an optional
    caller-owned persistent worker pool); the marking inspector itself
    always runs the sliced tree walker (it executes only the
    address/control slice, which the compiler does not handle).
    ``compiled`` is ``program`` compiled, for the executor or serial run.
    """
    times = TimeBreakdown()
    stats: dict[str, float] = {}

    marker, inspector_costs, assignment = run_inspector_phase(
        program, loop, env, plan, sim.num_procs,
        granularity=granularity, schedule=schedule,
    )
    shadow_elements = sum(s.size for s in marker.shadows.values())
    times.shadow_init = sim.shadow_init_time(shadow_elements)
    inspector_body, dispatch, barrier = sim.doall_time(
        inspector_costs, assignment=assignment
    )
    times.inspector = inspector_body + dispatch + barrier
    times.analysis = sim.analysis_time(shadow_elements)
    stats["inspector_marks"] = float(sum(c.marks for c in inspector_costs))

    result = analyze_shadows(
        marker,
        TestMode.LRPD,
        dynamic_last_value=dynamic_last_value,
        directional=directional,
    )

    wall = WallClock()
    run, finalize = run_with_verdict(
        program, loop, env, plan, sim, result.passed, times, wall,
        schedule=schedule, engine=engine, workers=workers, pool=pool,
        backend=backend, profiles=profiles, loop_key=loop_key,
        compiled=compiled,
    )
    outcome = InspectorOutcome(result=result, times=times, stats=stats, wall=wall)
    if run is not None:
        price_doall(sim, run, schedule, times)
        stats["copied_out"] = float(finalize.copied_out)
        stats["reduction_merged"] = float(finalize.reduction_merged)
        outcome.fallback_reason = run.fallback_reason
        outcome.engine_used = run.engine_used
        outcome.engine_decision = run.engine_decision
    return outcome
