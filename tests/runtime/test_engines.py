"""The execution-engine registry, planner and ``auto`` engine.

Covers the registry seam itself (registration, capability queries,
unknown-name errors, fallback-chain walks, serial substitution), the
``EnginePlanner`` policy on the paper workloads, and the ``auto``
engine's contract: bit-identical to the engine it picks, with the
per-loop decision and its reason recorded on the outcome and report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SpeculationError
from repro.machine.costmodel import fx80
from repro.runtime.engines import (
    DEFAULT_ENGINE,
    EngineCaps,
    EngineRegistry,
    ExecutionEngine,
    MIN_VECTOR_TRIP,
    UnknownEngineError,
    engine_names,
    get_engine,
    registry,
    render_engine_table,
)
from repro.runtime.engines.planner import EnginePlanner
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial
from repro.workloads.bdna import build_bdna
from repro.workloads.mdg import build_mdg
from repro.workloads.ocean import build_ocean
from repro.workloads.spice import build_spice
from repro.workloads.track import build_track

from tests.runtime.test_vectorized_engine import (
    _assert_outcomes_identical,
    _speculative,
)


class _StubEngine(ExecutionEngine):
    name = "stub"
    caps = EngineCaps(supports_serial=True)
    summary = "stub"
    guarantee = "stub"

    def execute_doall(self, ctx):  # pragma: no cover - never driven
        raise NotImplementedError


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert engine_names() == [
            "auto", "compiled", "parallel", "vectorized", "walk"
        ]
        assert DEFAULT_ENGINE in engine_names()

    def test_register_and_get(self):
        fresh = EngineRegistry()
        engine = _StubEngine()
        assert fresh.register(engine) is engine
        assert fresh.get("stub") is engine

    def test_duplicate_registration_rejected(self):
        fresh = EngineRegistry()
        fresh.register(_StubEngine())
        with pytest.raises(SpeculationError, match="already registered"):
            fresh.register(_StubEngine())

    def test_unnamed_engine_rejected(self):
        class Nameless(_StubEngine):
            name = ""

        with pytest.raises(SpeculationError, match="declare a name"):
            EngineRegistry().register(Nameless())

    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(UnknownEngineError) as excinfo:
            registry.get("turbo")
        message = str(excinfo.value)
        for name in engine_names():
            assert name in message

    def test_capability_queries(self):
        assert get_engine("walk").caps.supports_serial
        assert get_engine("compiled").caps.supports_serial
        assert not get_engine("vectorized").caps.supports_serial
        assert get_engine("vectorized").caps.whole_block
        assert get_engine("parallel").caps.requires_workers
        assert get_engine("auto").caps.planner

    def test_fallback_chain_walk(self):
        assert registry.fallback_chain("vectorized") == [
            "vectorized", "compiled"
        ]
        assert registry.fallback_chain("compiled") == ["compiled"]
        assert registry.fallback_chain("auto") == ["auto", "compiled"]

    def test_fallback_cycle_rejected(self):
        fresh = EngineRegistry()

        class Cyclic(_StubEngine):
            name = "cyclic"
            caps = EngineCaps(fallback="cyclic")

        fresh.register(Cyclic())
        with pytest.raises(SpeculationError, match="cycle"):
            fresh.fallback_chain("cyclic")

    def test_serial_engine_for_serial_capable(self):
        for name in ("walk", "compiled"):
            assert registry.serial_engine_for(name) == (name, None)

    @pytest.mark.parametrize("name", ["parallel", "vectorized", "auto"])
    def test_serial_engine_for_substitutes(self, name):
        serial_name, reason = registry.serial_engine_for(name)
        assert serial_name == "compiled"
        assert name in reason and "compiled" in reason

    def test_needs_worker_pool(self):
        """Only ``parallel`` shards, and ``auto`` exactly when it picks
        ``parallel`` (workers requested)."""
        assert registry.needs_worker_pool("parallel", None)
        assert registry.needs_worker_pool("parallel", 2)
        assert not registry.needs_worker_pool("vectorized", 2)
        assert not registry.needs_worker_pool("vectorized", None)
        assert registry.needs_worker_pool("auto", 2)
        assert not registry.needs_worker_pool("auto", None)
        assert not registry.needs_worker_pool("compiled", 3)

    def test_render_engine_table_covers_all_engines(self):
        table = render_engine_table()
        for name in engine_names():
            assert f"`{name}`" in table
        assert "(default)" in table


class TestValidation:
    def test_run_config_rejects_unknown_engine(self):
        # "jit" is a retired engine and "doacross" a recovery tier armed
        # by strategy, not an engine: asking for either is an unknown name.
        for name in ("turbo", "jit", "doacross"):
            with pytest.raises(UnknownEngineError, match="registered engines"):
                RunConfig(engine=name)

    def test_run_config_accepts_registered_engines(self):
        for name in engine_names():
            assert RunConfig(engine=name).engine == name

    def test_cli_choices_derive_from_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        run_action = next(
            a
            for a in parser._subparsers._group_actions[0].choices["run"]._actions
            if "--engine" in a.option_strings
        )
        assert list(run_action.choices) == engine_names()

    def test_serial_run_records_substitution(self):
        workload = build_bdna(n=40)
        runner = LoopRunner(workload.program(), workload.inputs)
        substituted = runner.serial_run(fx80(), "parallel")
        assert substituted.engine == "compiled"
        assert "parallel" in substituted.engine_substitution
        direct = runner.serial_run(fx80(), "compiled")
        assert direct.engine_substitution is None
        assert direct.loop_time == substituted.loop_time

    def test_run_serial_substitutes_and_records(self):
        workload = build_bdna(n=40)
        run = run_serial(
            workload.program(), workload.inputs, fx80(), engine="vectorized"
        )
        assert run.engine == "compiled"
        assert "vectorized" in run.engine_substitution


class TestPlanner:
    def _plan(self, workload, *, trip_count, workers=None):
        from repro.analysis.instrument import build_plan
        from repro.dsl.parser import parse

        program = parse(workload.source)
        plan = build_plan(program)
        return EnginePlanner().plan(
            program, plan.loop, plan, trip_count=trip_count, workers=workers
        )

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: build_bdna(n=120), id="bdna"),
            pytest.param(lambda: build_mdg(n=80), id="mdg"),
            pytest.param(lambda: build_ocean(nk=150), id="ocean"),
        ],
    )
    def test_classifier_accepted_loops_pick_vectorized(self, build):
        decision = self._plan(build(), trip_count=120)
        assert decision.engine == "vectorized"
        assert "classifier accepted" in decision.reason

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: build_spice(n=80), id="spice"),
            pytest.param(lambda: build_track(n=150), id="track"),
        ],
    )
    def test_classifier_rejected_loops_pick_compiled(self, build):
        decision = self._plan(build(), trip_count=150)
        assert decision.engine == "compiled"
        assert "rejected" in decision.reason

    def test_small_trip_count_stays_compiled(self):
        decision = self._plan(
            build_bdna(n=40), trip_count=MIN_VECTOR_TRIP - 1
        )
        assert decision.engine == "compiled"
        assert "below" in decision.reason

    def test_rejected_loop_with_workers_picks_parallel(self):
        decision = self._plan(build_spice(n=80), trip_count=80, workers=2)
        assert decision.engine == "parallel"
        assert "2 workers" in decision.reason


class TestAutoEngine:
    """``auto`` is bit-identical to the engine it picks, with the
    decision recorded — on the run, the outcome and the report."""

    def test_bdna_picks_vectorized_bit_identically(self):
        ref, ref_env = _speculative(build_bdna(n=60), "vectorized")
        auto, auto_env = _speculative(build_bdna(n=60), "auto")
        assert auto.run.engine_used == "vectorized"
        assert "classifier accepted" in auto.run.engine_decision
        _assert_outcomes_identical(ref, ref_env, auto, auto_env)

    def test_spice_picks_compiled_bit_identically(self):
        ref, ref_env = _speculative(build_spice(n=80), "compiled")
        auto, auto_env = _speculative(build_spice(n=80), "auto")
        assert auto.run.engine_used == "compiled"
        assert "rejected" in auto.run.engine_decision
        # An explicit pick of compiled is a decision, not a degradation.
        assert auto.run.fallback_reason is None
        _assert_outcomes_identical(ref, ref_env, auto, auto_env)

    def test_failing_loop_parity(self):
        ref, ref_env = _speculative(
            build_ocean(nk=150, overlap=True), "vectorized"
        )
        auto, auto_env = _speculative(build_ocean(nk=150, overlap=True), "auto")
        assert not auto.result.passed
        _assert_outcomes_identical(ref, ref_env, auto, auto_env)

    def test_eager_abort_parity(self):
        ref, ref_env = _speculative(
            build_ocean(nk=150, overlap=True), "vectorized", eager=True
        )
        auto, auto_env = _speculative(
            build_ocean(nk=150, overlap=True), "auto", eager=True
        )
        assert auto.run.aborted
        _assert_outcomes_identical(ref, ref_env, auto, auto_env)

    def test_worker_sharded_parity(self):
        """With workers requested ``auto`` shards by picking
        ``parallel``, even on a classifier-accepted loop."""
        ref, ref_env = _speculative(build_bdna(n=60), "parallel", workers=2)
        auto, auto_env = _speculative(build_bdna(n=60), "auto", workers=2)
        assert auto.run.engine_used == "parallel"
        assert auto.run.engine_decision == "2 workers requested (trip count 60)"
        _assert_outcomes_identical(ref, ref_env, auto, auto_env)

    def _report(self, build, engine, **config_kwargs):
        workload = build()
        runner = LoopRunner(workload.program(), workload.inputs)
        cfg = RunConfig(
            model=fx80().with_procs(8), engine=engine, **config_kwargs
        )
        return runner.run(Strategy.SPECULATIVE, cfg)

    def test_stripped_parity_and_per_strip_planning(self):
        build = lambda: build_bdna(n=60)  # noqa: E731
        ref = self._report(build, "vectorized", strip_size=16)
        auto = self._report(build, "auto", strip_size=16)
        assert auto.engine_used == "vectorized"
        assert auto.times.as_dict() == ref.times.as_dict()
        assert auto.stats == ref.stats
        for name in ref.env.arrays:
            np.testing.assert_array_equal(
                ref.env.arrays[name], auto.env.arrays[name]
            )

    def test_decision_recorded_on_report(self):
        report = self._report(lambda: build_bdna(n=60), "auto")
        assert report.engine_used == "vectorized"
        assert len(report.engine_decisions) == 1
        loop_key, reason = report.engine_decisions[0]
        assert loop_key
        assert "classifier accepted" in reason
        assert report.fallbacks == []

    def test_explicit_engine_records_no_decision(self):
        report = self._report(lambda: build_bdna(n=60), "vectorized")
        assert report.engine_decisions == []

    def test_rejected_pick_recorded_on_report(self):
        report = self._report(lambda: build_spice(n=80), "auto")
        assert report.engine_used == "compiled"
        assert len(report.engine_decisions) == 1
        assert "rejected" in report.engine_decisions[0][1]
