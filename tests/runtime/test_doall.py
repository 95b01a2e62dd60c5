"""Emulated doall execution tests."""

import numpy as np
import pytest

from repro.analysis.instrument import build_plan
from repro.core.shadow import Granularity, ShadowMarker
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.doall import finalize_doall, run_doall
from repro.runtime.speculative import SpeculationPipeline

SOURCE = (
    "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
    "  do i = 1, n\n    a(idx(i)) = v(i) * 2.0\n  end do\nend\n"
)


def setup(source=SOURCE, inputs=None, procs=3, marked=True):
    program = parse(source)
    plan = build_plan(program)
    env = Environment(
        program,
        inputs or {"n": 8, "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]), "v": np.arange(8.0)},
    )
    marker = None
    if marked:
        sizes = {name: env.array_size(name) for name in plan.tested_arrays}
        marker = ShadowMarker(sizes)
    run = run_doall(program, plan.loop, env, plan, procs, marker=marker)
    return program, plan, env, run


class TestExecutionStructure:
    def test_every_iteration_executed_once(self):
        _, _, _, run = setup()
        executed = sorted(i for chunk in run.assignment for i in chunk)
        assert executed == list(range(8))
        assert run.num_iterations == 8

    def test_iteration_costs_aligned(self):
        _, _, _, run = setup()
        assert len(run.iteration_costs) == 8
        assert all(c.total_ops() > 0 for c in run.iteration_costs)

    def test_shared_array_untouched_before_finalize(self):
        _, _, env, run = setup()
        assert env.arrays["a"].tolist() == [0.0] * 8  # still in privates

    def test_final_proc_is_owner_of_last_iteration(self):
        _, _, _, run = setup(procs=3)
        final = run.final_proc()
        assert 7 in run.assignment[final]

    def test_marking_happened(self):
        _, _, _, run = setup()
        assert run.marker is not None
        assert run.marker.shadows["a"].tm == 8


class TestFinalize:
    def test_copy_out_matches_serial(self):
        program, plan, env, run = setup()
        finalize_doall(run, env, plan)
        expected = np.zeros(8)
        idx = np.array([3, 1, 4, 2, 8, 6, 5, 7]) - 1
        expected[idx] = np.arange(8.0) * 2.0
        np.testing.assert_allclose(env.arrays["a"], expected)

    def test_loop_var_set_past_bound(self):
        # The exit value is the driver's to set: it alone knows the step
        # and the whole iteration space.
        program = parse(SOURCE)
        plan = build_plan(program)
        env = Environment(
            program,
            {"n": 8, "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]), "v": np.arange(8.0)},
        )
        sim = DoallSimulator(fx80().with_procs(3), ScheduleKind.BLOCK)
        outcome = SpeculationPipeline(program, plan.loop, env, plan, sim).run()
        assert outcome.result.passed
        assert env.scalars["i"] == 9

    def test_zero_trip_loop(self):
        program, plan, env, run = setup(
            inputs={"n": 0, "idx": np.arange(1, 9), "v": np.zeros(8)}
        )
        stats = finalize_doall(run, env, plan)
        assert run.num_iterations == 0
        assert stats.copied_out == 0

    def test_unmarked_run_for_executor_phase(self):
        program, plan, env, run = setup(marked=False)
        assert run.marker is None
        finalize_doall(run, env, plan)
        assert env.arrays["a"].sum() > 0.0


class TestScalarHandling:
    def test_private_scalars_do_not_leak_between_procs(self):
        source = (
            "program p\n  integer i, n, idx(6)\n  real a(6), t, v(6)\n"
            "  do i = 1, n\n    t = v(i) * 10.0\n    a(idx(i)) = t\n  end do\nend\n"
        )
        inputs = {"n": 6, "idx": np.array([2, 4, 6, 1, 3, 5]), "v": np.arange(6.0)}
        program = parse(source)
        plan = build_plan(program)
        env = Environment(program, inputs)
        marker = ShadowMarker({n: env.array_size(n) for n in plan.tested_arrays})
        run = run_doall(program, plan.loop, env, plan, 3, marker=marker)
        finalize_doall(run, env, plan)
        expected = np.zeros(6)
        expected[np.array([2, 4, 6, 1, 3, 5]) - 1] = np.arange(6.0) * 10.0
        np.testing.assert_allclose(env.arrays["a"], expected)

    def test_scalar_reduction_partials_merged(self):
        source = (
            "program p\n  integer i, n, idx(6)\n  real a(6), s, v(6)\n"
            "  do i = 1, n\n    a(idx(i)) = v(i)\n    s = s + v(i)\n  end do\nend\n"
        )
        inputs = {
            "n": 6, "idx": np.array([2, 4, 6, 1, 3, 5]),
            "v": np.arange(6.0), "s": 100.0,
        }
        program = parse(source)
        plan = build_plan(program)
        env = Environment(program, inputs)
        marker = ShadowMarker({n: env.array_size(n) for n in plan.tested_arrays})
        run = run_doall(program, plan.loop, env, plan, 3, marker=marker)
        finalize_doall(run, env, plan)
        assert env.scalars["s"] == pytest.approx(100.0 + 15.0)


class TestProcessorWiseGranule:
    def test_granules_are_processor_ids(self):
        program = parse(SOURCE)
        plan = build_plan(program)
        env = Environment(
            program,
            {"n": 8, "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]), "v": np.arange(8.0)},
        )
        sizes = {n: env.array_size(n) for n in plan.tested_arrays}
        marker = ShadowMarker(sizes, granularity=Granularity.PROCESSOR)
        run_doall(program, plan.loop, env, plan, 2, marker=marker)
        # With 2 processors, last-write granules must only be 0 or 1.
        granules = set(marker.shadows["a"].last_write_granules().tolist())
        assert granules <= {-1, 0, 1}
