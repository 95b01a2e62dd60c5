"""The vectorized whole-block engine: parity, composition, fallback.

The engine contract (see :mod:`repro.interp.vectorized_spec`) is that a
committed vectorized block is *bit-identical* to the compiled engine on
every observable — LRPD verdict and per-array detail, simulated time
breakdown, run stats, per-iteration costs, post-loop memory — and that
any loop the classifier or a runtime guard rejects silently degrades to
the compiled engine with the reason recorded on the report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, split_at_loop
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.speculative import SpeculationPipeline
from repro.workloads.bdna import build_bdna
from repro.workloads.mdg import build_mdg
from repro.workloads.ocean import build_ocean
from repro.workloads.spice import build_spice

PROCS = 8


def _speculative(workload, engine, *, eager=False, workers=None):
    program = parse(workload.source)
    plan = build_plan(program)
    before, _after = split_at_loop(program, plan.loop)
    env = Environment(program, workload.inputs)
    Interpreter(program, env, value_based=False).exec_block(before)
    sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
    outcome = SpeculationPipeline(
        program, plan.loop, env, plan, sim,
        engine=engine, eager=eager, workers=workers,
    ).run()
    return outcome, env


def _assert_outcomes_identical(ref, ref_env, vec, vec_env):
    assert ref.result == vec.result
    assert ref.times == vec.times
    assert ref.stats == vec.stats
    assert ref.run.aborted == vec.run.aborted
    assert ref.run.executed_iterations == vec.run.executed_iterations
    assert ref.run.iteration_costs == vec.run.iteration_costs
    assert ref_env.scalars == vec_env.scalars
    assert ref_env.arrays.keys() == vec_env.arrays.keys()
    for name in ref_env.arrays:
        np.testing.assert_array_equal(
            ref_env.arrays[name], vec_env.arrays[name], err_msg=name
        )


WORKLOADS = [
    pytest.param(lambda: build_bdna(n=120), id="bdna"),
    pytest.param(lambda: build_mdg(n=80), id="mdg"),
    pytest.param(lambda: build_ocean(nk=150), id="ocean"),
    pytest.param(lambda: build_ocean(nk=150, overlap=True), id="ocean-fail"),
]


class TestWholeBlockParity:
    @pytest.mark.parametrize("build", WORKLOADS)
    @pytest.mark.parametrize("eager", [False, True], ids=["lazy", "eager"])
    def test_bit_identical_to_compiled(self, build, eager):
        ref, ref_env = _speculative(build(), "compiled", eager=eager)
        vec, vec_env = _speculative(build(), "vectorized", eager=eager)
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_committed_block_reports_vectorized_engine(self):
        vec, _env = _speculative(build_bdna(n=60), "vectorized")
        assert vec.run.engine_used == "vectorized"
        assert vec.run.fallback_reason is None

    def test_eager_abort_delegates_with_identical_outcome(self):
        """An eager failure inside the block bails pre-commit; the
        compiled rerun reproduces the mid-doall abort point exactly."""
        ref, ref_env = _speculative(
            build_ocean(nk=150, overlap=True), "compiled", eager=True
        )
        vec, vec_env = _speculative(
            build_ocean(nk=150, overlap=True), "vectorized", eager=True
        )
        assert ref.run.aborted and vec.run.aborted
        assert vec.run.engine_used == "compiled"
        assert vec.run.fallback_reason is not None
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_shadow_state_identical(self):
        ref, _a = _speculative(build_mdg(n=60), "compiled")
        vec, _b = _speculative(build_mdg(n=60), "vectorized")
        for name, shadow in ref.run.marker.shadows.items():
            other = vec.run.marker.shadows[name]
            assert shadow.tw == other.tw
            assert shadow.tm == other.tm
            np.testing.assert_array_equal(shadow.w, other.w)
            np.testing.assert_array_equal(shadow.r, other.r)
            np.testing.assert_array_equal(shadow.np_, other.np_)
            np.testing.assert_array_equal(shadow.nx, other.nx)


class TestComposition:
    """The vectorized engine composes with the strip pipeline, and runs
    in-process whatever the worker count, without perturbing a single
    observable."""

    def _reports(self, config_kwargs):
        reports = {}
        for engine in ("compiled", "vectorized"):
            workload = build_bdna(n=60)
            runner = LoopRunner(workload.program(), workload.inputs)
            cfg = RunConfig(
                model=fx80().with_procs(PROCS), engine=engine, **config_kwargs
            )
            reports[engine] = runner.run(Strategy.STRIPPED, cfg)
        return reports["compiled"], reports["vectorized"]

    @pytest.mark.parametrize("strip_size", [7, 16])
    def test_stripped_pipeline(self, strip_size):
        ref, vec = self._reports({"strip_size": strip_size})
        assert ref.times.as_dict() == vec.times.as_dict()
        assert ref.stats == vec.stats
        assert len(ref.strips) == len(vec.strips)
        assert vec.fallbacks == []
        for name in ref.env.arrays:
            np.testing.assert_array_equal(
                ref.env.arrays[name], vec.env.arrays[name]
            )

    def test_worker_backend(self, monkeypatch):
        """A worker count does not shard the whole-block engine (only
        ``parallel`` shards): no pool is built, and the block commits
        in-process, bit-identical to compiled."""
        from repro.runtime import parallel_backend

        def no_pool(*_args, **_kwargs):
            raise AssertionError("vectorized built a worker pool")

        monkeypatch.setattr(parallel_backend, "make_worker_pool", no_pool)
        ref, ref_env = _speculative(build_bdna(n=60), "compiled")
        vec, vec_env = _speculative(build_bdna(n=60), "vectorized", workers=2)
        assert vec.run.engine_used == "vectorized"
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_stripped_with_workers(self):
        ref, vec = self._reports({"strip_size": 16, "workers": 2})
        assert ref.times.as_dict() == vec.times.as_dict()
        assert ref.stats == vec.stats
        for name in ref.env.arrays:
            np.testing.assert_array_equal(
                ref.env.arrays[name], vec.env.arrays[name]
            )


class TestFallback:
    def test_rejected_workload_completes_via_compiled(self):
        """SPICE's reduction arrays are read outside their updates — the
        classifier rejects, and the run must complete on the compiled
        engine with the reject reason recorded."""
        ref, ref_env = _speculative(build_spice(n=80), "compiled")
        vec, vec_env = _speculative(build_spice(n=80), "vectorized")
        assert vec.run.engine_used == "compiled"
        assert vec.run.fallback_reason is not None
        assert "reduction" in vec.run.fallback_reason
        _assert_outcomes_identical(ref, ref_env, vec, vec_env)

    def test_fallbacks_recorded_on_report(self):
        workload = build_spice(n=80)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = runner.run(
            Strategy.SPECULATIVE,
            RunConfig(model=fx80().with_procs(4), engine="vectorized"),
        )
        assert len(report.fallbacks) == 1
        loop_key, reason = report.fallbacks[0]
        assert "reduction" in reason
        assert loop_key

    def test_accepted_workload_records_no_fallback(self):
        workload = build_bdna(n=60)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = runner.run(
            Strategy.SPECULATIVE,
            RunConfig(model=fx80().with_procs(4), engine="vectorized"),
        )
        assert report.fallbacks == []

    def test_runtime_bail_falls_back_bit_identically(self):
        """A loop the classifier accepts but whose execution trips a
        runtime guard (scalar carried across iterations of a virtual
        processor) must degrade to compiled mid-flight, pre-commit."""
        source = (
            "program p\n  integer i, n, idx(8)\n  real a(8), v(8), t\n"
            "  do i = 1, n\n    if (v(i) > 0.5) then\n      t = v(i)\n"
            "    end if\n    a(idx(i)) = t\n  end do\nend\n"
        )
        inputs = {
            "n": 8,
            "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]),
            "v": np.array([0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4]),
            "t": 0.0,
        }
        outcomes = {}
        envs = {}
        for engine in ("compiled", "vectorized"):
            program = parse(source)
            plan = build_plan(program)
            env = Environment(program, inputs)
            sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
            outcomes[engine] = SpeculationPipeline(
                program, plan.loop, env, plan, sim, engine=engine
            ).run()
            envs[engine] = env
        vec = outcomes["vectorized"]
        if vec.run.engine_used == "compiled":
            assert vec.run.fallback_reason
        _assert_outcomes_identical(
            outcomes["compiled"], envs["compiled"], vec, envs["vectorized"]
        )
