"""Speculative execution: the paper's §III protocol, whole-loop or
strip-mined, and the phases it shares with the other strategies.

:class:`SpeculationPipeline` is the one speculative driver:
checkpoint → marked doall (with privatization and reduction transforms
applied speculatively) → LRPD analysis → on pass, merge private state;
on fail, restore the checkpoint and re-execute serially.  The paper's
key property holds by construction: a failed speculation costs roughly
the serial execution plus the (parallelizable) attempt and rollback
overhead.

A *sizer* cuts the iteration space into the attempts the driver makes.
:class:`WholeLoop` is the paper's all-or-nothing protocol — one attempt
over every iteration.  :class:`FixedStripSizer` and
:class:`AdaptiveStripSizer` strip-mine it: the
strips are speculated, tested and *committed* one at a time, in serial
order.  A failed strip rolls back and re-executes only itself serially
before speculation resumes, so misspeculation loss is bounded by one
strip and loops that are only *partially* parallel (a dependence cluster
somewhere in the iteration space) still extract speedup from their
parallel regions — the R-LRPD-style sliding commit later work built on
the paper's protocol.  Cross-strip dependences need no test at all:
strips commit in serial order, so a later strip always reads earlier
strips' committed values.

The phases the driver shares with the inspector/executor, schedule reuse
and refused runs are module functions: :func:`loop_values`,
:func:`price_doall`, :func:`commit` and :func:`roll_back`, composed for
runs whose verdict is already known by :func:`run_with_verdict`.
Commit and rollback are timed only here.

A failed attempt can re-execute as the DOACROSS recovery tier instead
of a plain serial re-run: :func:`recovery_decision` reads the shadow
stamps' measured dependence distances and :func:`roll_back` prices the
re-run as a pipelined DOACROSS at that distance (see
:class:`RecoveryRun`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.dependence import DistanceReport, measure_shadow_distances
from repro.analysis.instrument import InstrumentationPlan
from repro.core.checkpoint import Checkpoint
from repro.core.lrpd import StripAggregator, analyze_shadows
from repro.core.outcomes import LrpdResult, TestMode
from repro.core.shadow import Granularity, ShadowMarker
from repro.dsl.ast_nodes import Do, Program
from repro.errors import SpeculationError
from repro.interp.compiled import CompiledProgram, compile_program
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoacrossRecoveryTime, DoallSimulator
from repro.machine.stats import StripRecord, TimeBreakdown, WallClock
from repro.runtime.doall import DoallRun, FinalizeStats, finalize_doall, run_doall
from repro.runtime.engines import needs_worker_pool
from repro.runtime.serial import loop_iteration_values, rerun_values_serially

# ---------------------------------------------------------------------------
# Shared phases
# ---------------------------------------------------------------------------


def loop_values(
    program: Program, loop: Do, env: Environment
) -> tuple[list[int], int, int]:
    """Evaluate the loop bounds once, at loop entry.

    Returns the iteration values, the step, and the loop variable's exit
    value: where a serial execution leaves it — one step past the last
    value, or the start value when the loop runs zero times.
    """
    start, stop, step = Interpreter(
        program, env, value_based=False
    ).eval_loop_bounds(loop)
    values = loop_iteration_values(start, stop, step)
    return values, step, (values[-1] + step if values else start)


def price_doall(
    sim: DoallSimulator,
    run: DoallRun,
    schedule: ScheduleKind,
    times: TimeBreakdown,
) -> None:
    """Price one doall's private initialization and parallel body."""
    times.private_init = sim.private_init_time(
        sum(p.size for p in run.privates.values())
    )
    times.body, times.dispatch, times.barrier = sim.doall_time(
        run.iteration_costs,
        assignment=None if schedule is ScheduleKind.DYNAMIC else run.assignment,
    )


def commit(
    run: DoallRun,
    env: Environment,
    plan: InstrumentationPlan,
    sim: DoallSimulator,
    times: TimeBreakdown,
    wall: WallClock,
) -> FinalizeStats:
    """Fold a passed doall's private state into ``env``, timed and priced."""
    tick = time.perf_counter()
    finalize = finalize_doall(run, env, plan)
    wall.commit += time.perf_counter() - tick
    times.reduction_merge = sim.reduction_merge_time(finalize.reduction_merged)
    times.copy_out = sim.copy_out_time(finalize.copied_out)
    return finalize


@dataclass(frozen=True)
class RecoveryRun:
    """One failed region's serial re-run, priced as a pipelined DOACROSS.

    The shadow stamps the failed LRPD test populated bound every
    cross-iteration dependence distance the loop exercised; at a minimum
    distance ``d > 1`` the re-run is priced as static chunks round-robin
    over the processors with post/wait synchronization at ``d`` — the
    Saltz/Mirchandaney discipline :mod:`repro.baselines.doacross` prices
    for fully inspected loops.
    """

    time: DoacrossRecoveryTime
    #: what the plain serial re-run of the same iterations costs — the
    #: denominator of the recovered fraction.
    serial_equivalent: float
    iterations: int


def recovery_decision(
    report: DistanceReport, *, aborted: bool, granularity: Granularity
) -> tuple[int | None, str]:
    """Deterministic go/veto on one failed region's measured distances.

    Returns ``(distance, reason)`` — ``distance`` is None on a veto.
    Every condition is decided from the run the failure came from, so
    the same failure always gets the same verdict.  Anti dependences are
    covered by the old/new-copy renaming the DOACROSS discipline
    assumes; multiply-written elements and distance-≤1 chains veto (the
    region really is serial).
    """
    if granularity is not Granularity.ITERATION:
        return None, (
            "recovery veto: processor-wise shadow stamps are processor "
            "ids, not iteration numbers — no iteration distances to "
            "synchronize at"
        )
    if aborted:
        return None, (
            "recovery veto: eager detection aborted the attempt, so the "
            "shadow stamps cover only a prefix of the iteration space"
        )
    d = report.min_distance
    if d is None:
        return None, (
            "recovery veto: no cross-iteration dependence was measured "
            "— the failure is an artifact the serial re-run resolves"
        )
    if d <= 1:
        return None, (
            f"recovery veto: measured min dependence distance {d} is a "
            f"fully serial chain ({report.explain()})"
        )
    return d, (
        f"recovery: pipelined DOACROSS at distance {d} over "
        f"{report.num_granules} iteration(s) ({report.explain()})"
    )


def _plan_recovery(
    marker: ShadowMarker, run: DoallRun, granularity: Granularity
) -> tuple[int | None, str]:
    """:func:`recovery_decision` for one failed attempt.

    Must be called while the failed attempt's shadow stamps are still
    intact (before the marker is reset for a next strip).
    """
    report = measure_shadow_distances(marker, run.num_iterations)
    return recovery_decision(
        report, aborted=run.aborted, granularity=granularity
    )


def roll_back(
    compiled: CompiledProgram,
    loop: Do,
    env: Environment,
    values: list[int],
    step: int,
    sim: DoallSimulator,
    times: TimeBreakdown,
    wall: WallClock,
    *,
    checkpoint: Checkpoint | None = None,
    distance: int | None = None,
) -> RecoveryRun | None:
    """Restore ``checkpoint`` (when a speculative attempt ran) and
    re-execute ``values`` in place on the compiled serial executor,
    timed and priced.

    The re-run executes once and is priced serially, or — with a
    recovery ``distance`` — as a chunked pipelined DOACROSS over the
    re-run's iteration costs, whose :class:`RecoveryRun` is returned
    (None for a plain serial re-run).  The state is the same either way:
    the re-run is serial, only its price differs.
    """
    tick = time.perf_counter()
    if checkpoint is not None:
        checkpoint.restore()
        times.restore = sim.restore_time(checkpoint.elements_saved)
    serial_time, costs = rerun_values_serially(
        compiled, loop, env, values, step, sim.model
    )
    rec = None
    if distance is None:
        times.serial_rerun = serial_time
    else:
        rec = RecoveryRun(
            time=sim.doacross_time(costs, distance=distance),
            serial_equivalent=serial_time,
            iterations=len(costs),
        )
        times.doacross = rec.time.total
    wall.rollback += time.perf_counter() - tick
    return rec


def run_with_verdict(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    sim: DoallSimulator,
    passed: bool,
    times: TimeBreakdown,
    wall: WallClock,
    *,
    compiled: CompiledProgram | None = None,
    **doall_options,
) -> tuple[DoallRun | None, FinalizeStats | None]:
    """Run the whole loop once its verdict is known, without marking.

    The inspector's executor half, schedule reuse and refused runs end
    here.  A passed verdict runs an unmarked doall (the privatization
    and reduction transforms still apply, they are semantic) and commits
    it; a failed or refused one runs the loop serially.  Both run on
    ``compiled`` (``program`` compiled here when None).  No checkpoint
    is taken: nothing speculative runs.  ``doall_options`` go to
    :func:`~repro.runtime.doall.run_doall`; pricing the doall is the
    caller's (see :func:`price_doall`).  Returns the doall run and its
    commit counts, both None after a serial run.
    """
    values, step, exit_value = loop_values(program, loop, env)
    if compiled is None:
        compiled = compile_program(program)
    run = finalize = None
    if passed:
        tick = time.perf_counter()
        run = run_doall(
            program, loop, env, plan, sim.num_procs, marker=None,
            value_based=False, values=values, compiled=compiled,
            **doall_options,
        )
        wall.doall += time.perf_counter() - tick
        finalize = commit(run, env, plan, sim, times, wall)
    else:
        roll_back(compiled, loop, env, values, step, sim, times, wall)
    env.set_scalar(loop.var, exit_value)
    return run, finalize


# ---------------------------------------------------------------------------
# Sizers
# ---------------------------------------------------------------------------


class WholeLoop:
    """The one-strip policy: the paper's all-or-nothing protocol.

    One attempt covers every iteration (a zero-trip loop included), the
    checkpoint saves all of ``plan.checkpoint_arrays``, the analysis is
    priced over the full shadows, and nothing is folded or recorded per
    strip: the outcome's verdict is the attempt's analysis itself.
    """

    def record(self, passed: bool) -> None:  # noqa: ARG002 - policy hook
        return None


class FixedStripSizer:
    """The trivial strip-sizing policy: every strip has the same size."""

    def __init__(self, size: int):
        if size < 1:
            raise SpeculationError("strip size must be >= 1")
        self.size = size

    def next_size(self) -> int:
        return self.size

    def record(self, passed: bool) -> None:  # noqa: ARG002 - policy hook
        return None


class AdaptiveStripSizer:
    """Feedback-driven strip sizing for the strip-mined pipeline.

    Grows the strip geometrically after :attr:`GROW_AFTER` consecutive
    passing strips (per-strip overheads — checkpoint, barrier, analysis —
    amortize better over bigger strips) and halves it after a failure
    (smaller strips bound the serial re-execution loss around a
    dependence cluster).  Sizes stay within ``[MIN_SIZE, MAX_SIZE]``.

    Failures shrink no further than :attr:`floor` — normally
    :attr:`MIN_SIZE`, but a warm-started sizer raises it to the
    converged size history handed it (:meth:`raise_floor`): one unlucky
    strip should not throw away a whole run's worth of convergence.
    When the history behind that floor goes stale — the profile store
    reports a lifted speculation veto — the caller must
    :meth:`reset_floor`, otherwise the sizer can never shrink below the
    stale warm size.
    """

    DEFAULT_INITIAL = 16
    MIN_SIZE = 2
    MAX_SIZE = 4096
    GROW_AFTER = 2

    def __init__(self, initial_size: int = DEFAULT_INITIAL):
        if initial_size < 1:
            raise ValueError("initial strip size must be >= 1")
        self.size = self._clamp(initial_size)
        self.floor = self.MIN_SIZE
        self._pass_streak = 0

    def _clamp(self, size: int) -> int:
        return max(self.MIN_SIZE, min(size, self.MAX_SIZE))

    def next_size(self) -> int:
        return self.size

    def raise_floor(self, size: int) -> None:
        """Keep failures from shrinking below ``size`` (clamped to the
        sizer's bounds) — the warm-start contract."""
        self.floor = self._clamp(size)

    def reset_floor(self) -> None:
        """Drop the warm-start floor back to :attr:`MIN_SIZE` (stale
        history)."""
        self.floor = self.MIN_SIZE

    def record(self, passed: bool) -> None:
        if passed:
            self._pass_streak += 1
            if self._pass_streak >= self.GROW_AFTER:
                self.size = min(self.size * 2, self.MAX_SIZE)
                self._pass_streak = 0
        else:
            self.size = max(self.size // 2, self.floor)
            self._pass_streak = 0


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass
class PipelineOutcome:
    """What one speculative execution produced."""

    #: the whole loop's verdict: the analysis itself for :class:`WholeLoop`,
    #: else the strips' fold (see :class:`StripAggregator`), where
    #: ``passed`` means no strip needed its rollback.
    result: LrpdResult
    #: field-wise sum of the per-attempt breakdowns.
    times: TimeBreakdown
    #: the last attempt's doall (the whole loop's, unstripped); None
    #: for a strip-mined zero-trip loop, which makes no attempt.
    run: DoallRun | None = None
    #: per-strip accounting, in commit order (empty for :class:`WholeLoop`).
    strips: list[StripRecord] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    #: the (recyclable) shadow marker of the last attempt.
    marker: ShadowMarker | None = None
    #: the program compiled for the doalls and serial re-runs
    #: (recyclable like ``marker``); None for a strip-mined zero-trip loop.
    compiled: CompiledProgram | None = None
    #: measured wall-clock phase durations, summed over the attempts.
    wall: WallClock = field(default_factory=WallClock)
    #: first recorded engine-fallback reason across the attempts (set
    #: when ``engine="vectorized"`` degraded to compiled; kept out of
    #: ``stats`` so engine parity over stats still holds).
    fallback_reason: str | None = None
    #: the engine that executed the first attempt's doall.
    engine_used: str | None = None
    #: the ``auto`` planner's rationale for the first attempt (None for
    #: explicit engine requests).
    engine_decision: str | None = None
    #: first recorded DOACROSS recovery go/veto rationale across the
    #: failed attempts (None when none failed or recovery was off).
    recovery_decision: str | None = None


class SpeculationPipeline:
    """The speculative driver: speculate, test and commit one strip at a
    time, the whole loop being the one-strip case (:class:`WholeLoop`,
    the default sizer).

    Strip-mined runs (any other sizer) add three strip-scoped twists:

    * the checkpoint saves only the state the strip's doall can write *in
      place*: written arrays that are neither privatized (tested) nor
      reduction-transformed — those two classes buffer their speculative
      writes in private copies / partial accumulators and touch shared
      storage only during the post-test commit, so a failed strip leaves
      them untouched;
    * the per-strip analysis and the between-strip shadow reset are
      priced over the strip's *touched* elements (a touched-element list
      maintained while marking), not the full shadow size;
    * on a pass the strip commits immediately (reduction merge, dynamic
      last-value copy-out, live-out scalars), on a fail it restores the
      strip checkpoint and re-executes *only its own iterations*
      serially — then speculation resumes with the next strip.

    Strips commit in serial order, so a dependence whose source and sink
    fall into different strips is honored without ever being tested:
    the sink's strip reads the committed value.  Only intra-strip
    dependences can fail a strip, which is what bounds misspeculation
    loss to one strip and makes partially parallel loops profitable.

    The shadow marker is recycled across strips (reset in place), and the
    per-strip privatization copy-in re-reads the committed shared state,
    which is exactly the copy-in semantics the paper's privatization
    defines.

    With ``recovery`` a failed attempt measures the shadow dependence
    distances first and — unless the deterministic veto fires — prices
    its re-execution as a pipelined DOACROSS instead of a serial re-run;
    the re-executed state is bit-identical either way.  ``engine``
    selects the doall iteration executor (see
    :func:`repro.runtime.doall.run_doall`).  ``marker`` optionally
    recycles a previous run's shadow buffers (reset in place instead of
    reallocating seven numpy arrays per tested array); it must have been
    built for the same tested arrays and sizes, else a fresh one is made.
    The doalls and the rollback re-runs share one compiled program:
    ``compiled`` recycles a previous run's, else the program is
    compiled at the first attempt and reused by every later one.
    """

    def __init__(
        self,
        program: Program,
        loop: Do,
        env: Environment,
        plan: InstrumentationPlan,
        sim: DoallSimulator,
        *,
        sizer: WholeLoop | FixedStripSizer | AdaptiveStripSizer | None = None,
        test_mode: TestMode = TestMode.LRPD,
        granularity: Granularity = Granularity.ITERATION,
        schedule: ScheduleKind = ScheduleKind.BLOCK,
        dynamic_last_value: bool = True,
        directional: bool = True,
        eager: bool = False,
        engine: str = "compiled",
        marker: ShadowMarker | None = None,
        workers: int | None = None,
        pool=None,
        backend: str = "fork",
        profiles=None,
        loop_key: str | None = None,
        recovery: bool = False,
        compiled: CompiledProgram | None = None,
    ):
        if granularity is Granularity.PROCESSOR and schedule is not ScheduleKind.BLOCK:
            raise SpeculationError(
                "the processor-wise test requires block scheduling (granule "
                "numbering must follow serial order)"
            )
        self.program = program
        self.loop = loop
        self.env = env
        self.plan = plan
        self.sim = sim
        self.sizer = sizer if sizer is not None else WholeLoop()
        self.test_mode = test_mode
        self.granularity = granularity
        self.schedule = schedule
        self.dynamic_last_value = dynamic_last_value
        self.directional = directional
        self.eager = eager
        self.engine = engine
        self.workers = workers
        #: a caller-owned persistent worker pool (e.g. from a
        #: :class:`~repro.runtime.parallel_backend.WorkerPoolCache` kept
        #: across requests); when None and the engine shards, an
        #: ephemeral pool is forked for this run and closed after it.
        self.pool = pool
        self.backend = backend
        self.profiles = profiles
        self.loop_key = loop_key
        self.recovery = recovery
        self._marker = marker
        self._compiled = compiled

    # -- pieces --------------------------------------------------------------

    def _prepare_marker(self, shadow_sizes: dict[str, int], eager_enabled: bool) -> ShadowMarker:
        marker = self._marker
        if marker is not None and {
            name: shadow.size for name, shadow in marker.shadows.items()
        } == shadow_sizes:
            marker.reset(self.granularity, eager=eager_enabled)
        else:
            marker = ShadowMarker(
                shadow_sizes, granularity=self.granularity, eager=eager_enabled
            )
        return marker

    def _compiled_program(self) -> CompiledProgram:
        """The program compiled for the doalls and re-runs, at first use."""
        if self._compiled is None:
            self._compiled = compile_program(self.program)
        return self._compiled

    @staticmethod
    def _touched_elements(marker: ShadowMarker) -> int:
        """Distinct elements the strip marked (the touched list's length)."""
        return sum(
            int(np.count_nonzero(shadow.w | shadow.r))
            for shadow in marker.shadows.values()
        )

    def _strips(self, values: list[int]):
        """``(strip size, strip values)`` per attempt, sized lazily so an
        adaptive sizer sees every earlier strip's verdict."""
        if isinstance(self.sizer, WholeLoop):
            yield len(values), values
            return
        pos = 0
        while pos < len(values):
            size = max(1, int(self.sizer.next_size()))
            yield size, values[pos : pos + size]
            pos += size

    # -- execution -----------------------------------------------------------

    def run(self) -> PipelineOutcome:
        """Run the whole loop; ``env`` must be at loop entry.

        On return ``env`` holds the exact serial post-loop state: passed
        attempts committed their speculative state in order, failed ones
        were rolled back and re-executed serially in place.

        When the engine shards onto real worker processes (a registry
        capability query — see
        :meth:`~repro.runtime.engines.registry.EngineRegistry.needs_worker_pool`)
        one persistent worker pool is reused for every strip (per-strip
        fork would dwarf the strips' work): a caller-provided ``pool``
        if one was passed (kept alive for the caller's next run), else a
        pool forked here whose shared-memory segments are unlinked on
        the way out even when a strip aborts or a worker raises.
        """
        if self.pool is not None:
            return self._run(self.pool)
        owned = None
        if needs_worker_pool(self.engine, self.workers):
            from repro.runtime.parallel_backend import (
                ShardSpec,
                default_workers,
                make_worker_pool,
            )

            spec = ShardSpec.from_plan(
                self.program, self.loop, self.plan, self.env, self.sim.num_procs,
                self._compiled_program(),
            )
            owned = make_worker_pool(
                spec,
                self.workers if self.workers is not None
                else default_workers(self.sim.num_procs),
                self.backend,
            )
        try:
            return self._run(owned)
        finally:
            if owned is not None:
                owned.close()

    def _run(self, pool) -> PipelineOutcome:
        env, plan, sim = self.env, self.plan, self.sim
        whole = isinstance(self.sizer, WholeLoop)
        values, step, exit_value = loop_values(self.program, self.loop, env)

        shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
        eager_enabled = (
            self.eager
            and self.test_mode is TestMode.LRPD
            and self.granularity is Granularity.ITERATION
            and self.directional
            and self.dynamic_last_value
        )
        protected = set(plan.checkpoint_arrays)
        if not whole:
            # Only what a strip's doall mutates in place (see class docs).
            protected -= set(plan.tested_arrays) | set(plan.reduction_arrays)
        aggregator = StripAggregator(self.test_mode, self.granularity)
        strips: list[StripRecord] = []
        total = TimeBreakdown()
        wall = WallClock()
        stats: dict[str, float] = {"iterations": float(len(values)), "marks": 0.0}
        if not whole:
            stats.update(
                reduction_merged=0.0, copied_out=0.0,
                serial_iterations=0.0, aborted_strips=0.0,
            )

        marker: ShadowMarker | None = None
        run: DoallRun | None = None
        result: LrpdResult | None = None
        prev_touched = 0
        fallback_reason: str | None = None
        engine_used: str | None = None
        engine_decision: str | None = None
        recovery_decision: str | None = None
        #: failed-attempt cost under the chosen policy vs its plain serial
        #: equivalent — the aggregate recovered fraction's numerator and
        #: denominator (vetoed attempts contribute their serial time to
        #: both, pulling the fraction toward zero).
        recovery_cycles = 0.0
        serial_equiv = 0.0
        failed = 0
        for size, strip_values in self._strips(values):
            times = TimeBreakdown()

            tick = time.perf_counter()
            checkpoint = Checkpoint(env, protected)
            wall.checkpoint += time.perf_counter() - tick
            times.checkpoint = sim.checkpoint_time(checkpoint.elements_saved)
            stats["checkpoint_elements"] = float(checkpoint.elements_saved)

            if marker is None:
                # First attempt: allocate (or recycle a donated marker)
                # and pay the full shadow initialization.
                marker = self._prepare_marker(shadow_sizes, eager_enabled)
                times.shadow_init = sim.shadow_init_time(sum(shadow_sizes.values()))
            else:
                marker.reset(self.granularity, eager=eager_enabled)
                times.shadow_init = sim.strip_reset_time(prev_touched)

            tick = time.perf_counter()
            run = run_doall(
                self.program,
                self.loop,
                env,
                plan,
                sim.num_procs,
                marker=marker,
                value_based=(self.test_mode is TestMode.LRPD),
                schedule=self.schedule,
                engine=self.engine,
                values=strip_values,
                workers=self.workers,
                pool=pool,
                backend=self.backend,
                profiles=self.profiles,
                loop_key=self.loop_key,
                compiled=self._compiled_program(),
            )
            wall.doall += time.perf_counter() - tick
            price_doall(sim, run, self.schedule, times)

            tick = time.perf_counter()
            result = analyze_shadows(
                marker,
                self.test_mode,
                dynamic_last_value=self.dynamic_last_value,
                directional=self.directional,
            )
            wall.analysis += time.perf_counter() - tick
            if whole:
                times.analysis = sim.analysis_time(sum(shadow_sizes.values()))
            else:
                prev_touched = self._touched_elements(marker)
                times.analysis = sim.strip_analysis_time(prev_touched)
            if run.aborted:
                # On-the-fly detection already decided: no analysis phase runs.
                assert not result.passed, "eager abort must imply a failing analysis"
                times.analysis = 0.0
                if whole:
                    stats["aborted_after"] = float(run.executed_iterations)
                else:
                    stats["aborted_strips"] += 1.0
            stats["marks"] += float(sum(c.marks for c in run.iteration_costs))

            rec = None
            if result.passed:
                finalize = commit(run, env, plan, sim, times, wall)
                _add(stats, "reduction_merged", finalize.reduction_merged)
                _add(stats, "copied_out", finalize.copied_out)
            else:
                failed += 1
                distance = None
                if self.recovery:
                    distance, reason = _plan_recovery(marker, run, self.granularity)
                    if recovery_decision is None:
                        recovery_decision = reason
                rec = roll_back(
                    self._compiled_program(), self.loop, env, strip_values,
                    step, sim, times, wall,
                    checkpoint=checkpoint, distance=distance,
                )
                if rec is not None:
                    recovery_cycles += rec.time.total
                    serial_equiv += rec.serial_equivalent
                    _add(stats, "recovered_iterations", rec.iterations)
                    _add(stats, "recovery_sync_waits", rec.time.sync_waits)
                    _add(stats, "recovery_sync_wait_cycles", rec.time.sync_wait_cycles)
                    stats["recovery_distance"] = min(
                        stats.get("recovery_distance", float(distance)),
                        float(distance),
                    )
                else:
                    if not whole:
                        stats["serial_iterations"] += float(len(strip_values))
                    if self.recovery:
                        recovery_cycles += times.serial_rerun
                        serial_equiv += times.serial_rerun

            if not whole:
                aggregator.add_strip(marker, result, recovered=rec is not None)
                strips.append(
                    StripRecord(
                        index=len(strips),
                        first_value=strip_values[0],
                        iterations=len(strip_values),
                        strip_size=size,
                        passed=result.passed,
                        aborted=run.aborted,
                        times=times,
                        recovered=rec is not None,
                    )
                )
            self.sizer.record(result.passed)
            total = total.merged_with(times)
            if fallback_reason is None and run.fallback_reason is not None:
                fallback_reason = run.fallback_reason
            if engine_used is None:
                engine_used = run.engine_used
                engine_decision = run.engine_decision

        env.set_scalar(self.loop.var, exit_value)
        if not whole:
            stats["strips"] = float(aggregator.strips)
            stats["strips_failed"] = float(aggregator.strips_failed)
            if self.recovery:
                stats["strips_recovered"] = float(aggregator.strips_recovered)
        if self.recovery and failed:
            stats["recovered_fraction"] = (
                max(0.0, 1.0 - recovery_cycles / serial_equiv)
                if serial_equiv > 0.0 else 0.0
            )
        return PipelineOutcome(
            result=result if whole else aggregator.result(),
            times=total,
            run=run,
            strips=strips,
            stats=stats,
            marker=marker,
            compiled=self._compiled,
            wall=wall,
            fallback_reason=fallback_reason,
            engine_used=engine_used,
            engine_decision=engine_decision,
            recovery_decision=recovery_decision,
        )


def _add(stats: dict[str, float], key: str, amount: float) -> None:
    """Accumulate one counter across attempts (created on first use)."""
    stats[key] = stats.get(key, 0.0) + float(amount)
