"""Serial executor tests."""

import numpy as np

from repro.dsl.parser import parse
from repro.interp.interpreter import Interpreter, find_target_loop
from repro.machine.costmodel import CostModel
from repro.runtime.serial import (
    loop_iteration_values,
    rerun_values_serially,
    run_serial,
)

SOURCE = (
    "program p\n  integer i, n\n  real a(8), s\n"
    "  n = 8\n  s = 0.0\n"
    "  do i = 1, n\n    a(i) = real(i) * 2.0\n  end do\n"
    "  s = a(1)\nend\n"
)


class TestIterationValues:
    def test_simple_range(self):
        assert loop_iteration_values(1, 5, 1) == [1, 2, 3, 4, 5]

    def test_step(self):
        assert loop_iteration_values(1, 10, 3) == [1, 4, 7, 10]

    def test_negative_step(self):
        assert loop_iteration_values(5, 1, -2) == [5, 3, 1]

    def test_empty(self):
        assert loop_iteration_values(5, 1, 1) == []


class TestRunSerial:
    def test_executes_whole_program(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.env.arrays["a"][0] == 2.0
        assert run.env.scalars["s"] == 2.0

    def test_loop_time_and_iteration_costs(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.num_iterations == 8
        assert len(run.loop_iteration_costs) == 8
        assert run.loop_time > 0.0

    def test_setup_and_teardown_timed_separately(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.setup_time > 0.0
        assert run.teardown_time > 0.0

    def test_loop_var_final_value(self):
        run = run_serial(parse(SOURCE), {}, CostModel())
        assert run.env.scalars["i"] == 9

    def test_zero_trip_loop(self):
        source = (
            "program p\n  integer i, n\n  real a(4)\n"
            "  do i = 1, n\n    a(i) = 1.0\n  end do\nend\n"
        )
        run = run_serial(parse(source), {"n": 0}, CostModel())
        assert run.num_iterations == 0
        assert run.loop_time == 0.0


class TestRerunSerially:
    def test_rerun_produces_serial_result(self):
        program = parse(SOURCE)
        from repro.interp.env import Environment

        env = Environment(program, {})
        interp = Interpreter(program, env, value_based=False)
        interp.exec_block(program.body[:2])  # n = 8; s = 0.0
        loop = find_target_loop(program)
        start, stop, step = interp.eval_loop_bounds(loop)
        values = loop_iteration_values(start, stop, step)
        time, iteration_costs = rerun_values_serially(
            interp, loop, values, step, CostModel()
        )
        assert time > 0.0
        assert len(iteration_costs) == 8
        np.testing.assert_allclose(
            env.arrays["a"], np.arange(1, 9, dtype=float) * 2.0
        )
