"""The one speculative driver, seen from the strategies that share it.

Speculation (whole-loop and strip-mined), the inspector's executor half
and schedule reuse all end in the same phase functions of
:mod:`repro.runtime.speculative`; these tests pin what that sharing
guarantees: the loop variable's exit value, timed commit and rollback on
every path, and one rule for what a strip configuration means.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.dsl.parser import parse
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.workloads.bdna import build_bdna
from repro.workloads.synthetic import (
    build_dependence_injected,
    build_partial_parallel,
)

STRIDED = (
    "program p\n  integer i, m, n, k\n  real a(8), b(8)\n"
    "  do i = m, n, k\n    a(i) = b(i) + 1.0\n  end do\nend\n"
)

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
            "runtime/engines/doacross.py:2: Checkpoint(env, arrays)",
            "runtime/orchestrator.py:1: finalize_doall(run, env, plan)",
        ]
