"""The one speculative driver, seen from the strategies that share it.

Speculation (whole-loop and strip-mined), the inspector's executor half
and schedule reuse all end in the same phase functions of
:mod:`repro.runtime.speculative`; these tests pin what that sharing
guarantees: the loop variable's exit value, timed commit and rollback on
every path, one rule for what a strip configuration means, and serial
execution on the compiled executor, never the tree walker.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from repro.dsl.parser import parse
from repro.interp.compiled import compile_program
from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import fx80
from repro.runtime import orchestrator, speculative
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial
from repro.workloads.bdna import build_bdna
from repro.workloads.ocean import build_ocean
from repro.workloads.spice import build_spice
from repro.workloads.synthetic import (
    build_dependence_injected,
    build_partial_parallel,
    build_synthdoacross,
)

STRIDED = (
    "program p\n  integer i, m, n, k\n  real a(8), b(8)\n"
    "  do i = m, n, k\n    a(i) = b(i) + 1.0\n  end do\nend\n"
)

#: a loop-carried scalar: speculation is refused statically.
CARRIED = (
    "program p\n  integer i, n\n  real s, a(8)\n"
    "  do i = 1, n\n    a(i) = s\n    s = a(i) + 1.0\n  end do\nend\n"
)
CARRIED_INPUTS = {"n": 8, "s": 1.0}

MODEL = fx80().with_procs(4)

REPO = pathlib.Path(__file__).resolve().parents[2]


def _reused(runner: LoopRunner, config: RunConfig):
    """Run twice with the schedule cache on; return the reusing run."""
    runner.run(Strategy.SPECULATIVE, config)
    report = runner.run(Strategy.SPECULATIVE, config)
    assert report.reused_schedule
    return report


PATHS = {
    "speculative": lambda runner: runner.run(
        Strategy.SPECULATIVE, RunConfig(model=MODEL)
    ),
    "stripped": lambda runner: runner.run(
        Strategy.STRIPPED, RunConfig(model=MODEL, strip_size=2)
    ),
    "inspector": lambda runner: runner.run(
        Strategy.INSPECTOR, RunConfig(model=MODEL)
    ),
    "reuse": lambda runner: _reused(
        runner, RunConfig(model=MODEL, use_schedule_cache=True)
    ),
}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize(
    "m, n, k",
    [(1, 1, 2), (1, 0, 1), (5, 1, 1)],
    ids=["one-trip-step-2", "zero-trip", "zero-trip-from-5"],
)
def test_loop_variable_exit_value_matches_serial(path, m, n, k):
    inputs = {"m": m, "n": n, "k": k, "b": np.arange(8.0)}
    runner = LoopRunner(parse(STRIDED), inputs)
    serial = runner.serial_run(MODEL)
    report = PATHS[path](runner)
    assert report.env.scalars == serial.env.scalars
    np.testing.assert_array_equal(report.env.arrays["a"], serial.env.arrays["a"])


class TestScheduleReuseTiming:
    def test_passed_reuse_times_its_commit(self):
        workload = build_bdna(n=60)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = _reused(
            runner, RunConfig(model=fx80().with_procs(8), use_schedule_cache=True)
        )
        assert report.passed
        assert report.times.reduction_merge + report.times.copy_out > 0.0
        assert report.wall.commit > 0.0

    def test_failed_reuse_times_its_rollback(self):
        workload = build_dependence_injected(n=60, dep_fraction=0.2)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = _reused(
            runner, RunConfig(model=fx80().with_procs(8), use_schedule_cache=True)
        )
        assert report.passed is False
        assert report.times.serial_rerun > 0.0
        assert report.wall.rollback > 0.0


class TestRefusedRunTiming:
    """A refused run executes the loop serially and nothing else: that
    serial run is its measured time, booked as ``rollback``."""

    @staticmethod
    def _assert_serial_run_timed(runner, report):
        assert report.stats.get("refused") == 1.0
        assert report.wall.rollback > 0.0
        assert report.wall.doall == 0.0
        assert runner.profiles.observations(runner._loop_key())[-1].doall_s == 0.0

    def test_carried_scalar_refusal(self):
        runner = LoopRunner(parse(CARRIED), CARRIED_INPUTS)
        report = runner.run(Strategy.SPECULATIVE, RunConfig(model=MODEL))
        self._assert_serial_run_timed(runner, report)

    def test_failure_history_veto(self):
        workload = build_ocean(nk=150, overlap=True)
        runner = LoopRunner(workload.program(), workload.inputs)
        config = RunConfig(model=MODEL, engine="auto")
        for _ in range(2):
            assert runner.run(Strategy.SPECULATIVE, config).passed is False
        report = runner.run(Strategy.SPECULATIVE, config)
        assert "failure rate" in report.engine_decisions[0][1]
        self._assert_serial_run_timed(runner, report)


@pytest.mark.parametrize(
    "build",
    [lambda: build_bdna(n=60), lambda: build_partial_parallel(n=120)],
    ids=["bdna", "partial"],
)
def test_strip_configuration_means_strips_whatever_the_name(build):
    """SPECULATIVE reads the strip configuration itself: with a strip
    size it runs, and reports, exactly like STRIPPED."""
    workload = build()
    reports = {
        strategy: LoopRunner(workload.program(), workload.inputs).run(
            strategy, RunConfig(model=fx80().with_procs(8), strip_size=16)
        )
        for strategy in (Strategy.SPECULATIVE, Strategy.STRIPPED)
    }
    spec, stripped = reports[Strategy.SPECULATIVE], reports[Strategy.STRIPPED]
    assert spec.strategy == stripped.strategy == Strategy.STRIPPED.value
    assert spec.passed == stripped.passed
    assert spec.test_result == stripped.test_result
    assert spec.times == stripped.times
    assert spec.stats == stripped.stats
    assert spec.strips == stripped.strips
    assert len(spec.strips) > 1
    assert spec.engine_used == stripped.engine_used
    assert spec.engine_decisions == stripped.engine_decisions
    assert spec.fallbacks == stripped.fallbacks
    assert spec.env.scalars == stripped.env.scalars
    for name in spec.env.arrays:
        np.testing.assert_array_equal(spec.env.arrays[name], stripped.env.arrays[name])


def _carried():
    return parse(CARRIED), dict(CARRIED_INPUTS), ("s",)


def _workload(build):
    def make():
        workload = build()
        return workload.program(), workload.inputs, workload.check_scalars

    return make


COMPILED = RunConfig(model=MODEL, engine="compiled")

#: every path that executes the loop (or its entry and exit blocks)
#: serially: ``(program and inputs, run, check on the report)``.
SERIAL_PATHS = {
    "speculative-rollback": (
        _workload(lambda: build_dependence_injected(n=60, dep_fraction=0.2)),
        lambda runner: runner.run(Strategy.SPECULATIVE, COMPILED),
        lambda report: report.passed is False,
    ),
    "strip-rollback": (
        _workload(lambda: build_partial_parallel(n=120)),
        lambda runner: runner.run(
            Strategy.STRIPPED, dataclasses.replace(COMPILED, strip_size=8)
        ),
        lambda report: report.stats["strips_failed"] >= 2,
    ),
    "doacross-recovery": (
        _workload(lambda: build_synthdoacross(n=120, distance=16)),
        lambda runner: runner.run(Strategy.DOACROSS_RECOVERY, COMPILED),
        lambda report: report.stats["recovered_iterations"] > 0,
    ),
    "carried-scalar-refusal": (
        _carried,
        lambda runner: runner.run(Strategy.SPECULATIVE, COMPILED),
        lambda report: report.stats.get("refused") == 1.0,
    ),
    "failed-verdict-reuse": (
        _workload(lambda: build_dependence_injected(n=60, dep_fraction=0.2)),
        lambda runner: _reused(
            runner, dataclasses.replace(COMPILED, use_schedule_cache=True)
        ),
        lambda report: report.passed is False,
    ),
    "spice-entry-block": (
        _workload(lambda: build_spice(n=80)),
        lambda runner: runner.run(Strategy.SPECULATIVE, COMPILED),
        lambda report: report.strategy == "speculative",
    ),
}


@pytest.mark.parametrize("path", list(SERIAL_PATHS))
def test_serial_paths_do_not_tree_walk(path, monkeypatch):
    """With the tree walker's statement execution disabled, every serial
    path still completes and still equals the walker's serial oracle
    (on every array, the loop variable and the live-out scalars)."""
    make, run, check = SERIAL_PATHS[path]
    program, inputs, scalars = make()
    oracle = run_serial(program, inputs, MODEL, engine="walk").env

    def tree_walk(*_args, **_kwargs):
        raise AssertionError("a serial path tree-walked")

    monkeypatch.setattr(Interpreter, "exec_iteration", tree_walk)
    monkeypatch.setattr(Interpreter, "exec_block", tree_walk)
    runner = LoopRunner(program, inputs)
    report = run(runner)
    assert check(report)
    for name, want in oracle.arrays.items():
        # A p=8 reduction merge reassociates floating-point sums.
        np.testing.assert_allclose(
            report.env.arrays[name], want, rtol=1e-9, atol=1e-12
        )
    for name in (runner.loop.var, *scalars):
        assert math.isclose(
            report.env.scalars[name], oracle.scalars[name],
            rel_tol=1e-9, abs_tol=1e-12,
        ), name


def test_a_strip_mined_run_compiles_its_serial_program_once(monkeypatch):
    calls = []

    def counting(program):
        calls.append(program)
        return compile_program(program)

    monkeypatch.setattr(speculative, "compile_program", counting)
    monkeypatch.setattr(orchestrator, "compile_program", counting)
    workload = build_partial_parallel(n=120)
    runner = LoopRunner(workload.program(), workload.inputs)
    config = RunConfig(model=MODEL, strip_size=8)
    report = runner.run(Strategy.STRIPPED, config)
    assert report.stats["strips_failed"] >= 2
    assert len(calls) == 1
    # The runner keeps the compiled program for its later runs.
    runner.run(Strategy.STRIPPED, config)
    assert len(calls) == 1


class TestOneDriverLint:
    """``benchmarks/check_engine_dispatch.py`` keeps the protocol's
    phases inside the driver module."""

    @staticmethod
    def _lint():
        spec = importlib.util.spec_from_file_location(
            "check_engine_dispatch", REPO / "benchmarks" / "check_engine_dispatch.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.lint

    def test_source_tree_is_clean(self):
        assert self._lint()(REPO / "src" / "repro") == []

    def test_phase_calls_outside_the_driver_are_flagged(self, tmp_path):
        (tmp_path / "runtime" / "engines").mkdir(parents=True)
        (tmp_path / "runtime" / "orchestrator.py").write_text(
            "finalize_doall(run, env, plan)\n"
        )
        (tmp_path / "runtime" / "speculative.py").write_text(
            "Checkpoint(env, arrays)\nfinalize_doall(run, env, plan)\n"
        )
        (tmp_path / "runtime" / "engines" / "doacross.py").write_text(
            "rerun_values_serially(interp, loop, values, step, model)\n"
            "Checkpoint(env, arrays)\n"
        )
        hits = [hit.removeprefix(f"{tmp_path}/") for hit in self._lint()(tmp_path)]
        assert hits == [
            "runtime/engines/doacross.py:1: "
            "rerun_values_serially(interp, loop, values, step, model)",
            "runtime/engines/doacross.py:2: Checkpoint(env, arrays)",
            "runtime/orchestrator.py:1: finalize_doall(run, env, plan)",
        ]

    def test_tree_walked_statements_outside_walk_and_inspector_are_flagged(
        self, tmp_path
    ):
        (tmp_path / "runtime" / "engines").mkdir(parents=True)
        (tmp_path / "baselines").mkdir()
        allowed = "interp.exec_iteration(loop, value)\ninterp.exec_block(body)\n"
        (tmp_path / "runtime" / "engines" / "walk.py").write_text(allowed)
        (tmp_path / "runtime" / "inspector.py").write_text(allowed)
        (tmp_path / "baselines" / "trace.py").write_text(allowed)
        (tmp_path / "runtime" / "orchestrator.py").write_text(
            "interp.exec_block(self._before)\n"
            "compiled.run_statements(self._before, env, cost)\n"
        )
        (tmp_path / "runtime" / "engines" / "doacross.py").write_text(
            "serial.exec_iteration (loop, value)\n"
        )
        hits = [hit.removeprefix(f"{tmp_path}/") for hit in self._lint()(tmp_path)]
        assert hits == [
            "runtime/engines/doacross.py:1: serial.exec_iteration (loop, value)",
            "runtime/orchestrator.py:1: interp.exec_block(self._before)",
        ]
