"""LoopRunner orchestration tests: strategies, refusal, schedule reuse."""

import numpy as np
import pytest

from repro.machine.costmodel import CostModel
from repro.runtime.orchestrator import RunConfig, Strategy

from tests.conftest import assert_env_matches, make_runner

PERMUTED = (
    "program p\n  integer i, n, idx(8)\n  real a(8), v(8)\n"
    "  do i = 1, n\n    a(idx(i)) = v(i) * 2.0\n  end do\nend\n"
)
PERMUTED_INPUTS = {
    "n": 8, "idx": np.array([3, 1, 4, 2, 8, 6, 5, 7]), "v": np.arange(8.0),
}


def config(procs=4, **kw):
    return RunConfig(model=CostModel(num_procs=procs), **kw)


class TestStrategies:
    def test_serial_strategy(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        report = runner.run(Strategy.SERIAL, config())
        assert report.strategy == "serial"
        assert report.speedup == pytest.approx(1.0)

    def test_all_strategies_agree_on_state(self):
        results = {}
        for strategy in (Strategy.SERIAL, Strategy.SPECULATIVE, Strategy.INSPECTOR):
            runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
            results[strategy] = runner.run(strategy, config())
        base = results[Strategy.SERIAL].env
        for strategy in (Strategy.SPECULATIVE, Strategy.INSPECTOR):
            assert_env_matches(results[strategy].env, base, arrays=["a"])

    def test_describe_is_informative(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        text = runner.run(Strategy.SPECULATIVE, config()).describe()
        assert "speculative" in text
        assert "speedup" in text


class TestCarriedScalarRefusal:
    SOURCE = (
        "program p\n  integer i, n\n  real s, a(8)\n"
        "  do i = 1, n\n    a(i) = s\n    s = a(i) + 1.0\n  end do\nend\n"
    )

    def test_refuses_speculation(self):
        runner = make_runner(self.SOURCE, {"n": 8, "s": 1.0})
        report = runner.run(Strategy.SPECULATIVE, config())
        assert report.strategy == "serial"
        assert report.stats.get("refused") == 1.0

    def test_state_still_correct(self):
        runner = make_runner(self.SOURCE, {"n": 8, "s": 1.0})
        serial = runner.serial_run(CostModel(num_procs=4))
        report = runner.run(Strategy.SPECULATIVE, config())
        assert_env_matches(report.env, serial.env, arrays=["a"], scalars=["s"])


class TestScheduleReuse:
    def test_second_invocation_reuses(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True)
        first = runner.run(Strategy.SPECULATIVE, cfg)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert not first.reused_schedule
        assert second.reused_schedule
        assert second.loop_time < first.loop_time
        assert second.times.analysis == 0.0

    def test_reuse_runs_the_requested_engine(self):
        """A reuse run without a worker pool re-executes on the engine it
        was asked for: no fallback and no decision to report."""
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True, engine="compiled")
        runner.run(Strategy.SPECULATIVE, cfg)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert second.reused_schedule
        assert second.engine_used == "compiled"
        assert second.fallbacks == []
        assert second.engine_decisions == []

    def test_reused_run_still_correct(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True)
        runner.run(Strategy.SPECULATIVE, cfg)
        serial = runner.serial_run(cfg.model)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert_env_matches(second.env, serial.env, arrays=["a"])

    def test_failed_result_cached_too(self):
        source = (
            "program p\n  integer i, n, w(6), r(6)\n  real a(12), v(6)\n"
            "  do i = 1, n\n    a(w(i)) = a(r(i)) + v(i)\n  end do\nend\n"
        )
        inputs = {
            "n": 6,
            "w": np.array([1, 2, 3, 4, 5, 6]),
            "r": np.array([7, 1, 8, 9, 3, 10]),
            "v": np.arange(6.0),
        }
        runner = make_runner(source, inputs)
        cfg = config(use_schedule_cache=True)
        first = runner.run(Strategy.SPECULATIVE, cfg)
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert not first.passed
        assert second.reused_schedule
        assert not second.passed
        # A cached failure goes straight to serial: no checkpoint at all.
        assert second.times.checkpoint == 0.0

    def test_no_reuse_across_pattern_change(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        cfg = config(use_schedule_cache=True)
        runner.run(Strategy.SPECULATIVE, cfg)
        runner.inputs["idx"] = np.arange(8, 0, -1)
        report = runner.run(Strategy.SPECULATIVE, cfg)
        assert not report.reused_schedule


class TestSerialRunCaching:
    def test_serial_run_cached_per_machine(self):
        runner = make_runner(PERMUTED, dict(PERMUTED_INPUTS))
        model = CostModel(num_procs=4)
        first = runner.serial_run(model)
        second = runner.serial_run(model)
        assert first is second
