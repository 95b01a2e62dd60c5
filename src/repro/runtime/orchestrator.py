"""The strategy orchestrator: the user-facing entry point of the runtime.

:class:`LoopRunner` compiles a program once (instrumentation plan +
serial reference run) and then executes the target loop under any
strategy and machine configuration, producing comparable
:class:`ExecutionReport` records.  The speculative strategies
(SPECULATIVE, STRIPPED, DOACROSS_RECOVERY) share one method and one
driver, :class:`~repro.runtime.speculative.SpeculationPipeline`; the
strip configuration picks its sizer.

Everything the runner remembers across invocations lives in one
:class:`~repro.runtime.profile.LoopProfileStore`: cached LRPD verdicts
(schedule reuse, OCEAN-style loops) and per-run observations (the
feedback the ``auto`` planner consumes).  Every ``run()`` leaves one
observation behind.  :meth:`LoopRunner._run_speculative` is the one
place that turns that history into a strategy: a cached verdict for the
run's access pattern decides first; without a pattern signature, loops
whose recorded history says speculation keeps failing are refused up
front when a planner engine is in charge.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from enum import Enum

from repro.analysis.instrument import InstrumentationPlan, build_plan
from repro.core.outcomes import TestMode
from repro.core.shadow import Granularity
from repro.dsl.ast_nodes import Program
from repro.dsl.printer import stmt_to_source
from repro.errors import SpeculationError
from repro.interp.compiled import CompiledProgram, compile_program
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import split_at_loop
from repro.machine.costmodel import CostModel, fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.machine.stats import TimeBreakdown, WallClock
from repro.runtime.engines import get_engine, serial_engine_for
from repro.runtime.inspector import run_inspector_executor
from repro.runtime.profile import (
    LoopProfileStore,
    RunObservation,
    pattern_signature,
)
from repro.runtime.results import ExecutionReport, SerialRun
from repro.runtime.serial import run_serial
from repro.runtime.speculative import (
    AdaptiveStripSizer,
    FixedStripSizer,
    SpeculationPipeline,
    WholeLoop,
    price_doall,
    run_with_verdict,
)


class Strategy(Enum):
    SERIAL = "serial"
    SPECULATIVE = "speculative"
    INSPECTOR = "inspector"
    #: strip-mined speculation: windowed LRPD with incremental commit
    #: and bounded rollback (see :class:`SpeculationPipeline`).  Runs
    #: exactly like SPECULATIVE — the strip configuration, not the name,
    #: decides whether the run is strip-mined — and labels its report
    #: "stripped" when it is.
    STRIPPED = "stripped"
    #: speculation (whole-loop, or strip-mined when a strip
    #: configuration is set) with the post-failure DOACROSS recovery
    #: tier explicitly armed: failed regions re-execute priced as
    #: chunked pipelined DOACROSSes at the minimum dependence distance
    #: measured from the shadow stamps, instead of as serial re-runs.
    DOACROSS_RECOVERY = "doacross_recovery"


@dataclass
class RunConfig:
    """Machine and test configuration for one execution."""

    model: CostModel = field(default_factory=fx80)
    schedule: ScheduleKind = ScheduleKind.BLOCK
    granularity: Granularity = Granularity.ITERATION
    test_mode: TestMode = TestMode.LRPD
    dynamic_last_value: bool = True
    directional: bool = True
    use_schedule_cache: bool = False
    #: abort the speculative doall at the first definite conflict (the
    #: on-the-fly hardware model [47]); only effective for the default
    #: iteration-wise directional LRPD configuration.
    eager_failure_detection: bool = False
    #: doall iteration executor — any engine registered in
    #: :mod:`repro.runtime.engines`: "compiled" (generated Python,
    #: batched marking), "walk" (the reference tree walker), "parallel"
    #: (real worker processes with shared-memory shadows,
    #: :mod:`repro.runtime.parallel_backend`), "vectorized" (whole-block
    #: NumPy lowering with bulk shadow marking,
    #: :mod:`repro.interp.vectorized_spec`; classifier-rejected loops
    #: walk the declared fallback chain to compiled with the reason
    #: recorded on the report), or "auto" (per-loop adaptive selection,
    #: decision recorded on the report).  Bit-identical results; "walk"
    #: is kept for ablation and equivalence testing.  Validated at
    #: construction against the registry.
    engine: str = "compiled"
    #: real worker processes for ``engine="parallel"`` (None: one per
    #: usable core).  Independent of the *simulated* processor count in
    #: :attr:`model` — workers are an execution resource, processors are
    #: what the cost model prices.
    workers: int | None = None
    #: worker-pool flavour for sharded execution: "fork" (processes over
    #: shared-memory shadows) or "threads" (in-process workers, no fork
    #: or shared-memory setup — the small-trip-loop backend).  Validated
    #: at construction.
    backend: str = "fork"
    #: iterations per strip for the speculative strategies (SPECULATIVE,
    #: STRIPPED, DOACROSS_RECOVERY): set, the run is strip-mined and
    #: reports as "stripped".  ``None`` (without adaptive sizing) makes
    #: the whole loop one strip — the paper's all-or-nothing protocol
    #: (:class:`~repro.runtime.speculative.WholeLoop`).
    strip_size: int | None = None
    #: let the strip sizer grow on consecutive passes and shrink on
    #: failures (:class:`repro.runtime.speculative.AdaptiveStripSizer`);
    #: ``strip_size`` then seeds the initial size.
    adaptive_strip_sizing: bool = False

    def __post_init__(self) -> None:
        # Fail at construction, not deep inside a strategy run; the
        # errors list the registered engines / known backends.
        get_engine(self.engine)
        from repro.runtime.parallel_backend import validate_backend

        validate_backend(self.backend)

    def with_procs(self, p: int) -> "RunConfig":
        import dataclasses

        return dataclasses.replace(self, model=self.model.with_procs(p))


class LoopRunner:
    """Compiles a program and runs its target loop under chosen strategies."""

    def __init__(
        self,
        program: Program,
        inputs: dict,
        *,
        trip_count: int | None = None,
        profiles: LoopProfileStore | None = None,
        pools=None,
    ):
        self.program = program
        self.inputs = dict(inputs)
        self.plan: InstrumentationPlan = build_plan(program, trip_count=trip_count)
        self.loop = self.plan.loop
        self._before, self._after = split_at_loop(program, self.loop)
        # The profile key names the loop and pins its text: two programs
        # that share a name and a loop line share no verdicts unless
        # their loops print alike.
        digest = hashlib.sha256(stmt_to_source(self.loop).encode()).hexdigest()
        self._key = (
            f"{program.name}:{self.loop.var}@{self.loop.line}#{digest[:16]}"
        )
        #: the runner's cross-invocation memory; pass a shared (possibly
        #: persistent) store to carry verdicts and planner feedback
        #: across runners and processes.
        self.profiles = profiles if profiles is not None else LoopProfileStore()
        #: optional caller-owned
        #: :class:`~repro.runtime.parallel_backend.WorkerPoolCache`:
        #: when set, worker-sharding runs draw a persistent pool from it
        #: (keyed by loop identity, procs, workers, backend) instead of
        #: forking an ephemeral one per run — the serve daemon passes a
        #: fleet-wide cache so repeat requests skip process startup.
        #: The caller owns the cache's lifetime (``pools.close()``).
        self.pools = pools
        self._serial_runs: dict[str, SerialRun] = {}
        #: the program compiled for the serial executions of every run
        #: (entry and exit blocks, rollback re-runs), at first use.
        self._compiled: CompiledProgram | None = None
        #: shadow marker recycled across speculative attempts (reset in
        #: place instead of reallocating the shadow buffers every run).
        self._spec_marker = None
        #: memoized simulated times of passed schedule-reuse runs, keyed
        #: by (signature, machine, procs, schedule, engine, workers,
        #: backend).  A reuse run's times are a pure function of that key
        #: — the signature pins the access pattern, everything else pins
        #: the machine and schedule — so repeat reuse runs skip the
        #: per-iteration cost accounting and makespan simulation.
        self._reuse_times: dict[tuple, dict] = {}

    # -- reference -----------------------------------------------------------

    def serial_run(self, model: CostModel, engine: str = "compiled") -> SerialRun:
        """The serial reference execution (cached per machine and engine).

        ``engine`` honors :attr:`RunConfig.engine`; the serial-capable
        engines are property-tested to be state- and count-identical, so
        the choice only affects wall clock, not any simulated quantity.
        Engines without a serial executor (the serial reference has no
        doall for the parallel backend to shard, nor a block for the
        vectorized engine to lower) substitute the first serial-capable
        engine on their registry fallback chain, with the substitution
        recorded on the returned run instead of silently dropped.
        """
        serial_name, substitution = serial_engine_for(engine)
        key = f"{model.name}:{serial_name}"
        if key not in self._serial_runs:
            self._serial_runs[key] = run_serial(
                self.program, self.inputs, model, loop=self.loop,
                engine=serial_name, compiled=self._compiled_program(),
            )
        cached = self._serial_runs[key]
        if substitution is None:
            return cached
        import dataclasses

        return dataclasses.replace(cached, engine_substitution=substitution)

    # -- strategies ------------------------------------------------------------

    def run(self, strategy: Strategy, config: RunConfig | None = None) -> ExecutionReport:
        """Execute the target loop under ``strategy``; returns the report.

        Every run feeds the profile store: one
        :class:`~repro.runtime.profile.RunObservation` (engine, backend,
        measured wall clock, verdict, strip size) is appended to the
        loop's ring, and the verdict-cache counters are snapshotted onto
        ``report.cache_stats``.
        """
        config = config or RunConfig()
        tick = time.perf_counter()
        # Dispatch through a table, not strategy comparisons — the same
        # no-enum-dispatch discipline the engine lint enforces for
        # engine names (``benchmarks/check_engine_dispatch.py``).
        strategies = {
            Strategy.SERIAL: self._run_serial,
            Strategy.SPECULATIVE: self._run_speculative,
            Strategy.STRIPPED: self._run_speculative,
            Strategy.INSPECTOR: self._run_inspector,
            Strategy.DOACROSS_RECOVERY: self._run_doacross_recovery,
        }
        runner = strategies.get(strategy)
        if runner is None:
            raise SpeculationError(f"unknown strategy {strategy!r}")
        report = runner(config)
        wall_s = time.perf_counter() - tick
        self.profiles.observe(self._loop_key(), RunObservation(
            strategy=report.strategy,
            engine=report.engine_used,
            backend=config.backend,
            wall_s=wall_s,
            doall_s=report.wall.doall if report.wall is not None else 0.0,
            passed=report.passed,
            fallback_reason=report.fallbacks[0][1] if report.fallbacks else None,
            strip_size=report.strips[-1].strip_size if report.strips else None,
            reused=report.reused_schedule,
            recovered_fraction=report.stats.get("recovered_fraction"),
            sync_wait_cycles=report.stats.get("recovery_sync_wait_cycles", 0.0),
        ))
        report.cache_stats = self.profiles.counters()
        return report

    def _compiled_program(self) -> CompiledProgram:
        if self._compiled is None:
            self._compiled = compile_program(self.program)
        return self._compiled

    def _env_at_loop_entry(self) -> Environment:
        env = Environment(self.program, self.inputs)
        if self._before:
            self._compiled_program().run_statements(
                self._before, env, CostCounter()
            )
        return env

    def _finish(self, env: Environment) -> None:
        if self._after:
            self._compiled_program().run_statements(
                self._after, env, CostCounter()
            )

    def _run_serial(self, config: RunConfig) -> ExecutionReport:
        reference = self.serial_run(config.model, config.engine)
        times = TimeBreakdown(serial_rerun=reference.loop_time)
        return ExecutionReport(
            strategy=Strategy.SERIAL.value,
            machine=config.model.name,
            procs=1,
            passed=None,
            test_result=None,
            times=times,
            serial_loop_time=reference.loop_time,
            env=reference.env,
        )

    def _refuse_serially(
        self, env: Environment, sim: DoallSimulator, config: RunConfig,
        reference: SerialRun, *, reason: str | None = None,
    ) -> ExecutionReport:
        """Run serially without attempting any doall: either a
        loop-carried scalar statically blocks speculation, or (with a
        planner engine and ``reason`` set) the loop's recorded failure
        history vetoes another attempt.  Nothing speculated, so the
        serial run is the report's only wall-clock phase (``rollback``)."""
        times = TimeBreakdown()
        wall = WallClock()
        run_with_verdict(
            self.program, self.loop, env, self.plan, sim,
            passed=False, times=times, wall=wall,
            compiled=self._compiled_program(),
        )
        self._finish(env)
        return ExecutionReport(
            strategy=Strategy.SERIAL.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=None,
            test_result=None,
            times=times,
            serial_loop_time=reference.loop_time,
            env=env,
            stats={"refused": 1.0},
            wall=wall,
            engine_decisions=self._decisions(reason),
        )

    def _shared_pool(self, config: RunConfig, sim: DoallSimulator, env: Environment):
        """A persistent worker pool from :attr:`pools` (None without a
        cache, or when the run does not shard onto real workers).

        The pool is keyed by everything its :class:`ShardSpec` and
        layout depend on, so a cache shared across runners and requests
        can never hand back a mismatched pool.
        """
        from repro.runtime.engines import needs_worker_pool

        if self.pools is None or not needs_worker_pool(config.engine, config.workers):
            return None
        from repro.runtime.parallel_backend import (
            ShardSpec,
            default_workers,
            make_worker_pool,
        )

        workers = (
            config.workers if config.workers is not None
            else default_workers(sim.num_procs)
        )
        key = (self._loop_key(), sim.num_procs, workers, config.backend)
        return self.pools.get(key, lambda: make_worker_pool(
            ShardSpec.from_plan(
                self.program, self.loop, self.plan, env, sim.num_procs,
                self._compiled_program(),
            ),
            workers,
            config.backend,
        ))

    def _arm_recovery(self) -> tuple[bool, str | None]:
        """Whether the planner arms the DOACROSS recovery tier.

        Explicit :attr:`Strategy.DOACROSS_RECOVERY` requests always arm;
        this decides the *learned* arming: only once the loop's ring
        records at least one failed attempt (so a loop's very first runs
        behave exactly as before this tier existed), and only while the
        recovery history itself is not vetoed — a loop whose measured
        distances keep coming back serial stops paying the distance
        measurement and rolls back serially again.
        """
        loop_key = self._loop_key()
        failures, _attempts = self.profiles.failure_stats(loop_key)
        if failures < 1:
            return False, None
        veto = self.profiles.recovery_veto(loop_key)
        if veto is not None:
            return False, veto
        return True, (
            f"feedback: arming DOACROSS recovery ({failures} recorded "
            f"failure(s), no recovery veto on record)"
        )

    def _sizer(self, config: RunConfig, planner: bool, whole: bool):
        """The strip policy ``config`` asks for — :class:`WholeLoop` for a
        ``whole`` run — with the planner evidence behind an adaptive
        sizer: ``(sizer, warm-start reason, floor-reset reason)``."""
        if whole:
            return WholeLoop(), None, None
        if not config.adaptive_strip_sizing:
            return FixedStripSizer(config.strip_size), None, None
        initial = config.strip_size or AdaptiveStripSizer.DEFAULT_INITIAL
        warm = warm_reason = floor_reason = None
        if config.strip_size is None and planner:
            warm = self.profiles.warm_strip_size(self._loop_key())
            if warm is not None:
                initial = warm
                warm_reason = (
                    f"feedback: warm-starting the adaptive strip size "
                    f"at {warm} (the last passing strip-mined run's "
                    f"converged size)"
                )
        sizer = AdaptiveStripSizer(initial_size=initial)
        if warm is not None:
            # A converged size from history should survive one unlucky
            # strip: failures shrink no further than it...
            sizer.raise_floor(warm)
        if planner and self.profiles.veto_cleared(self._loop_key()):
            # ...unless that history just went stale — a lifted
            # speculation veto means the ring turned over, so let
            # failures shrink strips all the way down again.
            sizer.reset_floor()
            floor_reason = (
                "feedback: speculation veto lifted — resetting the "
                "adaptive strip-size floor (failures may shrink "
                "strips below the warm-started size again)"
            )
        return sizer, warm_reason, floor_reason

    def _run_speculative(
        self, config: RunConfig, *, recovery: bool = False
    ) -> ExecutionReport:
        """Speculation, whole-loop or strip-mined (SPECULATIVE and
        STRIPPED alike; DOACROSS_RECOVERY arms ``recovery``).

        The one place a loop's history becomes a strategy, in this
        order: a loop-carried scalar refuses statically; a whole-loop
        run with the schedule cache on looks its access pattern up and,
        on a hit, runs the cached verdict (a miss means the pattern was
        never tested, so it speculates); only runs without a pattern
        signature (cache off, strip-mined, or a pattern the inspector
        slice cannot capture) are subject to the failure-rate veto and
        its recovery rescue.  Only a planner (``engine="auto"``) acts on
        the recorded history: an explicitly requested engine keeps the
        paper's optimistic protocol, whatever the loop's record says.
        The sizer comes from the strip configuration (fixed, adaptive,
        or :class:`WholeLoop` when none is set).
        """
        sim = DoallSimulator(config.model, config.schedule)
        env = self._env_at_loop_entry()
        reference = self.serial_run(config.model, config.engine)

        if not self.plan.parallelizable_scalars:
            return self._refuse_serially(env, sim, config, reference)

        whole = config.strip_size is None and not config.adaptive_strip_sizing
        signature = None
        signature_s = 0.0
        if config.use_schedule_cache and whole:
            # The signature must be taken at loop entry, before the doall
            # mutates any state it covers.
            tick = time.perf_counter()
            signature = pattern_signature(self.plan, env)
            signature_s = time.perf_counter() - tick
            cached = self.profiles.lookup_verdict(self._loop_key(), signature)
            if cached is not None:
                report = self._run_from_cached(
                    env, cached, sim, config, reference,
                    signature=signature, signature_s=signature_s,
                    pool=self._shared_pool(config, sim, env),
                )
                self._finish(env)
                return report

        planner = get_engine(config.engine).caps.planner
        decisions: list[str | None] = []
        if planner and not recovery:
            recovery, armed_reason = self._arm_recovery()
            decisions.append(armed_reason)

        veto = None
        if planner and signature is None:
            veto = self.profiles.speculation_veto(self._loop_key())
        if veto is not None:
            rescue = self.profiles.recovery_rescue(self._loop_key())
            if rescue is None:
                return self._refuse_serially(
                    env, sim, config, reference, reason=veto
                )
            # The failure history says stop, but the recovery history
            # says the failures themselves pipeline well: speculate
            # anyway with recovery armed, recording both verdicts.
            recovery = True
            decisions.extend([veto, rescue])

        sizer, warm_reason, floor_reason = self._sizer(config, planner, whole)
        decisions.append(floor_reason)
        outcome = SpeculationPipeline(
            self.program,
            self.loop,
            env,
            self.plan,
            sim,
            sizer=sizer,
            test_mode=config.test_mode,
            granularity=config.granularity,
            schedule=config.schedule,
            dynamic_last_value=config.dynamic_last_value,
            directional=config.directional,
            eager=config.eager_failure_detection,
            engine=config.engine,
            marker=self._spec_marker,
            workers=config.workers,
            pool=self._shared_pool(config, sim, env),
            backend=config.backend,
            profiles=self.profiles,
            loop_key=self._loop_key(),
            recovery=recovery,
            compiled=self._compiled,
        ).run()
        self._spec_marker = outcome.marker
        self._compiled = outcome.compiled
        outcome.wall.signature = signature_s
        if signature is not None:
            self.profiles.record_verdict(self._loop_key(), signature, outcome.result)
        self._finish(env)
        return ExecutionReport(
            strategy=(Strategy.SPECULATIVE if whole else Strategy.STRIPPED).value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=outcome.result.passed,
            test_result=outcome.result,
            times=outcome.times,
            serial_loop_time=reference.loop_time,
            env=env,
            stats=outcome.stats,
            strips=outcome.strips,
            wall=outcome.wall,
            fallbacks=self._fallbacks(outcome.fallback_reason),
            engine_used=outcome.engine_used,
            engine_decisions=self._decisions(
                outcome.engine_decision, warm_reason, *decisions,
                outcome.recovery_decision,
            ),
        )

    def _run_doacross_recovery(self, config: RunConfig) -> ExecutionReport:
        """Speculation with the DOACROSS recovery tier explicitly armed.

        Strip-mined when a strip configuration is set (each failed strip
        recovers independently), else whole-loop.  Refusals
        (unparallelizable scalars) still report as serial runs;
        everything that actually speculated is relabelled so the report
        and the profile ring record which strategy was asked for.
        """
        report = self._run_speculative(config, recovery=True)
        if report.strategy != Strategy.SERIAL.value:
            report.strategy = Strategy.DOACROSS_RECOVERY.value
        return report

    def _run_from_cached(
        self,
        env: Environment,
        cached,
        sim: DoallSimulator,
        config: RunConfig,
        reference: SerialRun,
        *,
        signature,
        signature_s: float,
        pool=None,
    ) -> ExecutionReport:
        """Schedule reuse: skip marking and analysis entirely.

        The plain (uninstrumented) re-execution goes through the
        whole-block vectorized chain rather than the requested engine —
        every engine is state- and cost-identical, so the request only
        governs the *speculative* attempt, and the reuse path is free to
        take the fastest executor (classifier rejects fall back down the
        registry chain as usual).  Worker-sharding requests with a live
        pool keep their engine: the persistent pool IS their fast path.
        Simulated times of repeat reuse runs come from
        :attr:`_reuse_times` instead of being re-derived per run.
        """
        times = TimeBreakdown()
        wall = WallClock(signature=signature_s)
        reuse_engine, reuse_workers = config.engine, config.workers
        if pool is None and not get_engine(config.engine).caps.whole_block:
            reuse_engine, reuse_workers = "vectorized", None
        memo_key = (
            signature, config.model.name, sim.num_procs,
            config.schedule, config.engine, config.workers, config.backend,
        )
        memo = self._reuse_times.get(memo_key) if cached.passed else None
        run, _finalize = run_with_verdict(
            self.program, self.loop, env, self.plan, sim, cached.passed,
            times, wall, schedule=config.schedule, engine=reuse_engine,
            workers=reuse_workers, pool=pool, backend=config.backend,
            profiles=self.profiles, loop_key=self._loop_key(),
            need_costs=memo is None,
            compiled=self._compiled_program(),
        )
        fallback_reason = engine_used = engine_decision = None
        if run is not None:
            if memo is None:
                price_doall(sim, run, config.schedule, times)
                self._reuse_times[memo_key] = times.as_dict()
            else:
                times = TimeBreakdown(**memo)
            fallback_reason = run.fallback_reason
            engine_used = run.engine_used
            engine_decision = run.engine_decision
            if reuse_engine != config.engine and engine_decision is None:
                engine_decision = (
                    f"schedule reuse: plain re-execution via "
                    f"{run.engine_used} (engines are state- and "
                    f"cost-identical; {config.engine!r} governs the "
                    f"speculative attempt only)"
                )
        return ExecutionReport(
            strategy=Strategy.SPECULATIVE.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=cached.passed,
            test_result=cached,
            times=times,
            serial_loop_time=reference.loop_time,
            env=env,
            reused_schedule=True,
            wall=wall,
            fallbacks=self._fallbacks(fallback_reason),
            engine_used=engine_used,
            engine_decisions=self._decisions(engine_decision),
        )

    def _run_inspector(self, config: RunConfig) -> ExecutionReport:
        sim = DoallSimulator(config.model, config.schedule)
        env = self._env_at_loop_entry()
        reference = self.serial_run(config.model, config.engine)
        outcome = run_inspector_executor(
            self.program,
            self.loop,
            env,
            self.plan,
            sim,
            granularity=config.granularity,
            schedule=config.schedule,
            dynamic_last_value=config.dynamic_last_value,
            directional=config.directional,
            engine=config.engine,
            workers=config.workers,
            pool=self._shared_pool(config, sim, env),
            backend=config.backend,
            profiles=self.profiles,
            loop_key=self._loop_key(),
            compiled=self._compiled_program(),
        )
        self._finish(env)
        return ExecutionReport(
            strategy=Strategy.INSPECTOR.value,
            machine=config.model.name,
            procs=sim.num_procs,
            passed=outcome.result.passed,
            test_result=outcome.result,
            times=outcome.times,
            serial_loop_time=reference.loop_time,
            env=env,
            stats=outcome.stats,
            wall=outcome.wall,
            fallbacks=self._fallbacks(outcome.fallback_reason),
            engine_used=outcome.engine_used,
            engine_decisions=self._decisions(outcome.engine_decision),
        )

    def _fallbacks(self, reason: str | None) -> list[tuple[str, str]]:
        """Engine-degradation records for the report (empty when none)."""
        if reason is None:
            return []
        return [(self._loop_key(), reason)]

    def _decisions(self, *reasons: str | None) -> list[tuple[str, str]]:
        """Planner decision records for the report, one per reason that
        is set (empty when the engine was requested explicitly)."""
        return [(self._loop_key(), reason) for reason in reasons if reason is not None]

    def _loop_key(self) -> str:
        return self._key
