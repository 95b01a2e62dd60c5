"""The emulated speculative doall.

CPython cannot run the iterations on real concurrent processors, so the
doall is *emulated*: iterations are block-assigned to ``p`` virtual
processors and executed in a deterministic round-robin interleaving of
the processors' streams.  Each virtual processor has private scalars
(a forked environment) and, via the access router, private copies of the
tested arrays and partial accumulators for reduction arrays — exactly the
state a real processor would own.  The interleaving preserves each
processor's program order (required by the processor-wise test) while
exercising cross-processor orderings, so any unsoundness in the test
surfaces as a wrong result against the serial oracle (the property tests
rely on this).

Timing is not taken from the emulation's wall clock: per-iteration
operation counts are priced by the machine model and scheduled onto the
virtual processors by :mod:`repro.machine`.

Which *body executor* runs the iterations is an execution-engine choice
resolved through :mod:`repro.runtime.engines`: :func:`run_doall` builds
an engine-independent :class:`~repro.runtime.engines.DoallContext` and
hands it to the registry's dispatcher, which selects the engine
(planning ``"auto"`` per loop) and walks declared fallback chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.instrument import InstrumentationPlan
from repro.core.privatize import PrivateCopies
from repro.core.reduction_exec import COMBINE, REDUCTION_IDENTITY, ReductionPartials
from repro.core.shadow import ShadowMarker
from repro.dsl.ast_nodes import Do, Program
from repro.interp.compiled import CompiledProgram
from repro.interp.costs import IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.schedule import ScheduleKind
from repro.runtime.serial import loop_iteration_values


@dataclass
class DoallRun:
    """State produced by one emulated doall execution."""

    values: list[int]
    assignment: list[list[int]]  # positions into ``values`` per processor
    iteration_costs: list[IterationCost]
    privates: dict[str, PrivateCopies]
    partials: dict[str, ReductionPartials]
    proc_envs: list[Environment]
    marker: ShadowMarker | None
    scalar_init: dict[str, float | int] = field(default_factory=dict)
    #: eager (on-the-fly) failure detection fired before completion.
    aborted: bool = False
    executed_iterations: int = 0
    #: the engine that actually executed the body (``"vectorized"`` may
    #: degrade to ``"compiled"``; the reason is recorded alongside).
    engine_used: str = "compiled"
    fallback_reason: str | None = None
    #: the ``auto`` planner's recorded rationale (None for explicit
    #: engine requests).
    engine_decision: str | None = None

    @property
    def num_iterations(self) -> int:
        return len(self.values)

    def final_proc(self) -> int | None:
        """The processor that executed the last (serial-order) iteration."""
        best_pos = -1
        best_proc = None
        for proc, positions in enumerate(self.assignment):
            if positions and positions[-1] > best_pos:
                best_pos = positions[-1]
                best_proc = proc
        return best_proc


def run_doall(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    num_procs: int,
    *,
    marker: ShadowMarker | None,
    value_based: bool = True,
    schedule: ScheduleKind = ScheduleKind.BLOCK,
    engine: str = "compiled",
    values: list[int] | None = None,
    workers: int | None = None,
    pool=None,
    backend: str = "fork",
    profiles=None,
    loop_key: str | None = None,
    need_costs: bool = True,
    compiled: CompiledProgram | None = None,
) -> DoallRun:
    """Execute the target loop as an emulated doall.

    ``marker`` enables shadow marking (speculative mode); pass None for a
    post-test executor run (inspector/executor mode or schedule reuse).
    ``env`` must be positioned at loop entry; its arrays are mutated
    through the router (shared arrays directly, tested arrays via private
    copies, reduction arrays via partials) — call :func:`finalize_doall`
    to fold private state back in after a successful test.

    ``engine`` names a registered execution engine (see
    :mod:`repro.runtime.engines`): ``"compiled"`` (generated Python
    with batched marking), ``"walk"`` (the per-access
    instrumented tree walker), ``"vectorized"`` (the whole-block NumPy
    lowering; classifier-rejected loops and runtime bails walk the
    declared fallback chain to ``"compiled"`` with the reason on the
    outcome), ``"parallel"`` (real worker processes with shared-memory
    shadow sets and the paper's cross-processor merge), or ``"auto"``
    (the per-loop planner, decision recorded on the run).  All produce
    bit-identical state, costs and shadow marks on completed runs.

    ``workers``/``pool`` apply to worker-sharding engines only: a real
    process count (default: one per usable core) or a persistent
    :class:`~repro.runtime.parallel_backend.WorkerPool` to reuse across
    strips.  ``backend`` picks the pool flavour for owned pools:
    ``"fork"`` (processes over shared-memory shadows) or ``"threads"``
    (in-process workers, no fork cost).

    ``values`` overrides the iteration values to execute — the
    strip-mined pipeline passes one strip of the loop's iteration space
    at a time.  When None the loop bounds are evaluated from ``env``
    (the full iteration space).  Granules, private write stamps and the
    returned assignment are positions *within* ``values``; strips
    preserve serial order because each strip's positions follow its
    serial iteration order and strips commit in order.

    ``profiles``/``loop_key`` hand planner engines the caller's
    :class:`~repro.runtime.profile.LoopProfileStore` and the loop
    identity it is keyed by; executing engines ignore both.

    ``need_costs=False`` tells engines the caller will not read
    ``iteration_costs`` (schedule reuse with memoized times); engines
    with separable accounting skip it.

    ``compiled`` is ``program`` compiled by the caller; the engines that
    run generated code keep their loop text on it across doalls.
    """
    # Imported lazily: the engine implementations import DoallRun from
    # this module.
    from repro.runtime.engines import DoallContext, execute_doall, get_engine

    get_engine(engine)  # validate before any work starts
    if values is None:
        bounds_interp = Interpreter(program, env, value_based=False)
        start, stop, step = bounds_interp.eval_loop_bounds(loop)
        values = loop_iteration_values(start, stop, step)

    ctx = DoallContext(
        program=program,
        loop=loop,
        env=env,
        plan=plan,
        num_procs=num_procs,
        marker=marker,
        value_based=value_based,
        schedule=schedule,
        values=values,
        workers=workers,
        pool=pool,
        backend=backend,
        profiles=profiles,
        loop_key=loop_key,
        need_costs=need_costs,
        compiled=compiled,
    )
    return execute_doall(ctx, engine)


@dataclass
class FinalizeStats:
    """Element counts of the post-test merge phases (for timing)."""

    reduction_merged: int = 0
    copied_out: int = 0


def finalize_doall(
    run: DoallRun,
    env: Environment,
    plan: InstrumentationPlan,
) -> FinalizeStats:
    """Fold private state into the shared environment after a passed test.

    Order matters: reduction partials merge first (their elements are then
    excluded from the private copy-out), then dynamic last-value copy-out,
    then scalar reductions and live-out scalars.  The loop variable's exit
    value is the driver's to set (it knows the step and the loop's whole
    iteration space; see :func:`repro.runtime.speculative.loop_values`).
    """
    stats = FinalizeStats()

    redux_masks: dict[str, object] = {}
    for name, partials in run.partials.items():
        valid_mask = None
        if run.marker is not None and name in run.marker.shadows:
            valid_mask = run.marker.shadows[name].reduction_mask()
        stats.reduction_merged += partials.merge_into(env.arrays[name], valid_mask)
        size = env.arrays[name].size
        mask = partials.touched_mask(size)
        if valid_mask is not None:
            mask = mask & valid_mask
        redux_masks[name] = mask

    for name, privates in run.privates.items():
        exclude = redux_masks.get(name)
        stats.copied_out += privates.copy_out(env.arrays[name], exclude=exclude)

    for name, op in plan.scalar_reductions.items():
        total = run.scalar_init.get(name, REDUCTION_IDENTITY[op])
        for proc_env in run.proc_envs:
            total = COMBINE[op](total, proc_env.scalars[name])
        env.set_scalar(name, total)

    final_proc = run.final_proc()
    if final_proc is not None:
        source = run.proc_envs[final_proc]
        for name in plan.live_out_scalars:
            if name in plan.scalar_reductions or name not in env.scalars:
                continue
            if name in source.scalars:
                env.set_scalar(name, source.scalars[name])

    return stats
