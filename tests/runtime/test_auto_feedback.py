"""History-driven decisions under ``engine="auto"``.

A loop's recorded profile never moves the engine pick: whatever the
observations say, ``auto`` applies the planner's static rule.  What the
history does decide lives in the runner: loops with a recorded failure
history are refused up front with the evidence on the report — unless
the schedule cache holds the run's access pattern, whose own verdict
decides first — adaptive strip sizes warm-start from the last passing
run, and a persisted store carries all of it to a brand-new runner.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.profile import LoopProfileStore, RunObservation
from repro.runtime.speculative import AdaptiveStripSizer
from repro.service.catalog import build_workload
from repro.workloads.bdna import build_bdna
from repro.workloads.ocean import build_ocean

PROCS = 4


def _obs(engine, doall_s, *, passed=True, strip_size=None):
    return RunObservation(
        strategy="speculative", engine=engine, backend="fork",
        wall_s=doall_s, doall_s=doall_s, passed=passed,
        strip_size=strip_size,
    )


def _runner(build, **kwargs):
    workload = build()
    return LoopRunner(workload.program(), workload.inputs, **kwargs)


def _seed(runner, *observations):
    for obs in observations:
        runner.profiles.observe(runner._loop_key(), obs)


def _config(engine, **kwargs):
    return RunConfig(model=fx80().with_procs(PROCS), engine=engine, **kwargs)


def _assert_reports_identical(ref, got):
    assert got.passed == ref.passed
    assert got.test_result == ref.test_result
    assert got.times.as_dict() == ref.times.as_dict()
    assert got.stats == ref.stats
    assert got.env.scalars == ref.env.scalars
    assert got.env.arrays.keys() == ref.env.arrays.keys()
    for name in ref.env.arrays:
        np.testing.assert_array_equal(
            ref.env.arrays[name], got.env.arrays[name], err_msg=name
        )


class TestColdStart:
    def test_cold_auto_uses_static_signals(self):
        runner = _runner(lambda: build_bdna(n=60))
        report = runner.run(Strategy.SPECULATIVE, _config("auto"))
        assert report.engine_used == "vectorized"
        (_key, reason), = report.engine_decisions
        assert "classifier accepted" in reason
        assert "feedback" not in reason

    def test_one_observation_is_still_cold(self):
        runner = _runner(lambda: build_bdna(n=60))
        _seed(runner, _obs("compiled", 0.001))
        report = runner.run(Strategy.SPECULATIVE, _config("auto"))
        assert "classifier accepted" in report.engine_decisions[0][1]

    def test_untimed_history_does_not_warm_the_planner(self):
        """Reused-schedule and refused runs in the history leave the
        static pick alone."""
        runner = _runner(lambda: build_bdna(n=60))
        _seed(
            runner,
            _obs(None, 0.0, passed=None),
            RunObservation(strategy="speculative", engine="compiled",
                           backend="fork", wall_s=0.1, doall_s=0.1,
                           passed=True, reused=True),
        )
        report = runner.run(Strategy.SPECULATIVE, _config("auto"))
        assert "classifier accepted" in report.engine_decisions[0][1]


class TestWarmExploit:
    """A runner with recorded engine timings ("warm") still picks by the
    static rule, and its runs stay bit-identical to the engine picked,
    requested explicitly on a fresh runner."""

    def test_fastest_recorded_engine_does_not_move_the_pick(self):
        """History that makes ``walk`` the fastest engine by far leaves
        every pick, run after run, on the static rule."""
        runner = _runner(lambda: build_bdna(n=60))
        _seed(
            runner,
            *[_obs("walk", 0.0001) for _ in range(4)],
            _obs("vectorized", 0.5), _obs("compiled", 0.4),
        )
        for _ in range(8):
            report = runner.run(Strategy.SPECULATIVE, _config("auto"))
            assert report.engine_used == "vectorized"
            (_key, reason), = report.engine_decisions
            assert reason.startswith("classifier accepted")

    def test_failing_loop_parity_when_warm(self):
        """A warm pick on a loop that then fails the LRPD test backs out
        exactly like the explicit engine would (first failure — no veto
        history yet)."""
        build = lambda: build_ocean(nk=150, overlap=True)  # noqa: E731
        auto = _runner(build)
        _seed(auto, _obs("walk", 0.001), _obs("walk", 0.003))
        got = auto.run(Strategy.SPECULATIVE, _config("auto"))
        ref = _runner(build).run(Strategy.SPECULATIVE, _config("vectorized"))
        assert got.engine_used == ref.engine_used
        assert got.passed is False
        _assert_reports_identical(ref, got)

    def test_worker_sharded_warm_pick(self):
        """With workers requested the pick is ``parallel``, whatever the
        history says about the in-process engines."""
        build = lambda: build_bdna(n=60)  # noqa: E731
        auto = _runner(build)
        _seed(
            auto,
            _obs("compiled", 0.0001), _obs("compiled", 0.0001),
            _obs("vectorized", 0.002), _obs("vectorized", 0.002),
        )
        cfg = _config("auto", workers=2, backend="threads")
        got = auto.run(Strategy.SPECULATIVE, cfg)
        ref = _runner(build).run(
            Strategy.SPECULATIVE, _config("parallel", workers=2,
                                          backend="threads")
        )
        assert got.engine_used == "parallel"
        _assert_reports_identical(ref, got)

    def test_stripped_warm_parity(self):
        build = lambda: build_bdna(n=60)  # noqa: E731
        auto = _runner(build)
        _seed(
            auto,
            _obs("compiled", 0.001), _obs("compiled", 0.001),
            _obs("vectorized", 0.4),
        )
        got = auto.run(Strategy.STRIPPED, _config("auto", strip_size=16))
        ref = _runner(build).run(
            Strategy.STRIPPED, _config("vectorized", strip_size=16)
        )
        assert got.engine_used == "vectorized"
        assert all(
            "classifier accepted" in reason
            for _key, reason in got.engine_decisions
        )
        _assert_reports_identical(ref, got)


class TestExploration:
    def test_schedule_is_deterministic(self):
        """Two runners with identical seeded history make identical
        decision sequences — no randomness anywhere."""
        build = lambda: build_bdna(n=60)  # noqa: E731
        picks = []
        for _ in range(2):
            runner = _runner(build)
            _seed(runner, _obs("compiled", 0.001), _obs("walk", 0.3))
            sequence = []
            for _ in range(3):
                report = runner.run(Strategy.SPECULATIVE, _config("auto"))
                sequence.append(report.engine_used)
            picks.append(sequence)
        assert picks[0] == picks[1]


class TestFailureVeto:
    def _fail_config(self):
        return _config("auto")

    def test_history_of_failures_refuses_speculation(self):
        runner = _runner(lambda: build_ocean(nk=150, overlap=True))
        first = runner.run(Strategy.SPECULATIVE, self._fail_config())
        assert first.passed is False
        second = runner.run(Strategy.SPECULATIVE, self._fail_config())
        assert second.passed is False  # 1/1 failed: below min attempts

        third = runner.run(Strategy.SPECULATIVE, self._fail_config())
        assert third.passed is None
        assert third.stats.get("refused") == 1.0
        assert third.strategy == "serial"
        (_key, reason), = third.engine_decisions
        assert "failure rate" in reason
        assert "2/2" in reason

        # The veto is sticky: refused runs are untested and must not
        # dilute the recorded failure rate.
        fourth = runner.run(Strategy.SPECULATIVE, self._fail_config())
        assert fourth.stats.get("refused") == 1.0

    def test_vetoed_run_matches_serial_state(self):
        build = lambda: build_ocean(nk=150, overlap=True)  # noqa: E731
        runner = _runner(build)
        _seed(
            runner,
            _obs("compiled", 0.1, passed=False),
            _obs("compiled", 0.1, passed=False),
        )
        vetoed = runner.run(Strategy.SPECULATIVE, self._fail_config())
        serial = _runner(build).run(Strategy.SERIAL, _config("compiled"))
        for name in serial.env.arrays:
            np.testing.assert_array_equal(
                vetoed.env.arrays[name], serial.env.arrays[name],
                err_msg=name,
            )

    def test_explicit_engine_ignores_failure_history(self):
        """Only the planner may act on history; an explicitly requested
        engine keeps the paper's optimistic protocol."""
        runner = _runner(lambda: build_ocean(nk=150, overlap=True))
        _seed(
            runner,
            _obs("vectorized", 0.1, passed=False),
            _obs("vectorized", 0.1, passed=False),
        )
        report = runner.run(Strategy.SPECULATIVE, _config("vectorized"))
        assert report.passed is False  # it speculated (and failed) anyway
        assert report.stats.get("refused") is None

    def test_stripped_strategy_respects_veto(self):
        runner = _runner(lambda: build_ocean(nk=150, overlap=True))
        _seed(
            runner,
            _obs("compiled", 0.1, passed=False),
            _obs("compiled", 0.1, passed=False),
        )
        report = runner.run(
            Strategy.STRIPPED, _config("auto", strip_size=32)
        )
        assert report.stats.get("refused") == 1.0
        assert "failure rate" in report.engine_decisions[0][1]


class TestVerdictCacheBeforeVeto:
    """With the schedule cache on, history is kept per access pattern:
    a cached verdict decides first, and a pattern never tested
    speculates whatever the loop's other patterns did.  Only a run
    without a pattern signature falls back on the loop-wide veto."""

    def _run(self, name, store, **kwargs):
        workload = build_workload(name)
        runner = LoopRunner(workload.program(), workload.inputs, profiles=store)
        config = RunConfig(
            model=fx80().with_procs(8), engine="auto", **kwargs
        )
        return runner, runner.run(Strategy.SPECULATIVE, config)

    def _failure_history(self):
        """Two cached ``synthfail`` jobs: 2/2 failures on record."""
        store = LoopProfileStore()
        for _ in range(2):
            _runner, report = self._run("synthfail", store, use_schedule_cache=True)
            assert report.passed is False
        return store

    def test_untested_pattern_speculates_past_other_patterns_failures(self):
        store = self._failure_history()
        runner, first = self._run("synthpass", store, use_schedule_cache=True)
        # synthpass is the same loop (one profile key), new inputs.
        assert store.failure_stats(runner._loop_key()) == (2, 3)
        assert first.strategy == "speculative"
        assert first.passed is True
        assert not first.reused_schedule
        assert first.speedup == pytest.approx(1.627, abs=1e-3)
        assert not any(
            "failure rate" in reason for _key, reason in first.engine_decisions
        )
        _runner, second = self._run("synthpass", store, use_schedule_cache=True)
        assert second.passed is True
        assert second.reused_schedule
        assert second.speedup == pytest.approx(2.783, abs=1e-3)

    def test_run_without_a_signature_is_still_vetoed(self):
        store = self._failure_history()
        _runner, report = self._run("synthpass", store)  # cache off
        assert report.stats.get("refused") == 1.0
        assert report.strategy == "serial"
        (_key, reason), = report.engine_decisions
        assert "failure rate 2/2" in reason


class TestWarmStartStripSize:
    def test_adaptive_sizer_warm_starts_from_history(self):
        runner = _runner(lambda: build_bdna(n=200))
        _seed(runner, _obs("compiled", 0.1, strip_size=64))
        report = runner.run(
            Strategy.STRIPPED,
            _config("auto", adaptive_strip_sizing=True),
        )
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any("warm-starting the adaptive strip size at 64" in r
                   for r in reasons)
        assert report.strips[0].strip_size == 64

    def test_explicit_strip_size_wins_over_history(self):
        runner = _runner(lambda: build_bdna(n=200))
        _seed(runner, _obs("compiled", 0.1, strip_size=64))
        report = runner.run(
            Strategy.STRIPPED,
            _config("auto", strip_size=8, adaptive_strip_sizing=True),
        )
        assert report.strips[0].strip_size == 8

    def test_explicit_engine_does_not_warm_start(self):
        runner = _runner(lambda: build_bdna(n=200))
        _seed(runner, _obs("compiled", 0.1, strip_size=64))
        report = runner.run(
            Strategy.STRIPPED,
            _config("compiled", adaptive_strip_sizing=True),
        )
        assert report.strips[0].strip_size == AdaptiveStripSizer.DEFAULT_INITIAL


class TestPersistenceAcrossRunners:
    def test_saved_profile_warms_a_fresh_runner(self, tmp_path):
        """A saved profile warm-starts a fresh runner's adaptive strip
        size at the size the last passing strip-mined run converged on."""
        path = tmp_path / "profiles.json"
        build = lambda: build_bdna(n=200)  # noqa: E731

        trainer = _runner(build, profiles=LoopProfileStore(path=path))
        trained = trainer.run(
            Strategy.STRIPPED,
            _config("compiled", strip_size=16, adaptive_strip_sizing=True),
        )
        assert trained.passed
        converged = trained.strips[-1].strip_size
        trainer.profiles.save()

        fresh = _runner(build, profiles=LoopProfileStore(path=path))
        assert fresh.profiles.load_error is None
        report = fresh.run(
            Strategy.STRIPPED, _config("auto", adaptive_strip_sizing=True)
        )
        assert report.strips[0].strip_size == converged
        assert any(
            f"warm-starting the adaptive strip size at {converged}" in reason
            for _key, reason in report.engine_decisions
        )

    def test_retired_engine_history_loads_and_is_never_picked(self, tmp_path):
        """A profile file written when a since-retired engine ("jit")
        was registered still loads cleanly, and ``auto`` picks a
        registered engine by its static rule — even when the retired one
        holds the best recorded mean."""
        path = tmp_path / "profiles.json"
        build = lambda: build_bdna(n=60)  # noqa: E731

        writer = _runner(build, profiles=LoopProfileStore(path=path))
        _seed(
            writer,
            _obs("jit", 0.0001), _obs("jit", 0.0001), _obs("jit", 0.0001),
            _obs("compiled", 0.001), _obs("compiled", 0.001),
        )
        writer.profiles.save()

        fresh = _runner(build, profiles=LoopProfileStore(path=path))
        assert fresh.profiles.load_error is None
        report = fresh.run(Strategy.SPECULATIVE, _config("auto"))
        (_key, reason), = report.engine_decisions
        assert report.engine_used == "vectorized"
        assert "classifier accepted" in reason
        assert "jit" not in reason

    def test_file_with_planner_counters_loads_and_vetoes(self, tmp_path):
        """A profile file that still carries a loop's ``decisions``
        counter and timed ``doall_s`` observations loads cleanly, and
        its recorded failures still veto speculation."""
        build = lambda: build_ocean(nk=150, overlap=True)  # noqa: E731
        key = _runner(build)._loop_key()
        failed = {
            "strategy": "speculative", "engine": "vectorized",
            "backend": "fork", "wall_s": 0.02, "doall_s": 0.01,
            "passed": False, "fallback_reason": None, "strip_size": None,
            "reused": False, "recovered_fraction": None,
            "sync_wait_cycles": 0.0,
        }
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({
            "format": "repro-loop-profiles",
            "version": 1,
            "verdicts": [],
            "loops": {key: {"decisions": 9, "observations": [failed, failed]}},
        }))

        fresh = _runner(build, profiles=LoopProfileStore(path=path))
        assert fresh.profiles.load_error is None
        assert fresh.profiles.observations(key)[0].doall_s == 0.01
        report = fresh.run(Strategy.SPECULATIVE, _config("auto"))
        assert report.stats.get("refused") == 1.0
        assert "failure rate 2/2" in report.engine_decisions[0][1]

    def test_saved_verdict_reused_by_fresh_runner(self, tmp_path):
        path = tmp_path / "profiles.json"
        build = lambda: build_ocean(nk=150)  # noqa: E731
        cfg = _config("compiled", use_schedule_cache=True)

        first_runner = _runner(build, profiles=LoopProfileStore(path=path))
        first = first_runner.run(Strategy.SPECULATIVE, cfg)
        assert not first.reused_schedule
        first_runner.profiles.save()

        second_runner = _runner(build, profiles=LoopProfileStore(path=path))
        second = second_runner.run(Strategy.SPECULATIVE, cfg)
        assert second.reused_schedule
        assert second.cache_stats["hits"] == 1
        assert second.passed == first.passed
        for name in first.env.arrays:
            np.testing.assert_array_equal(
                first.env.arrays[name], second.env.arrays[name],
                err_msg=name,
            )

    def test_failure_history_survives_persistence(self, tmp_path):
        path = tmp_path / "profiles.json"
        build = lambda: build_ocean(nk=150, overlap=True)  # noqa: E731

        trainer = _runner(build, profiles=LoopProfileStore(path=path))
        for _ in range(2):
            assert trainer.run(
                Strategy.SPECULATIVE, _config("auto")
            ).passed is False
        trainer.profiles.save()

        fresh = _runner(build, profiles=LoopProfileStore(path=path))
        report = fresh.run(Strategy.SPECULATIVE, _config("auto"))
        assert report.stats.get("refused") == 1.0
        assert "failure rate" in report.engine_decisions[0][1]


class TestReportTelemetry:
    def test_every_run_leaves_an_observation(self):
        runner = _runner(lambda: build_bdna(n=60))
        runner.run(Strategy.SPECULATIVE, _config("vectorized"))
        runner.run(Strategy.SERIAL, _config("compiled"))
        observations = runner.profiles.observations(runner._loop_key())
        assert len(observations) == 2
        assert observations[0].engine == "vectorized"
        assert observations[0].doall_s > 0.0
        assert observations[0].passed is True
        assert observations[1].strategy == "serial"
        assert observations[1].passed is None

    def test_cache_counters_on_report(self):
        runner = _runner(lambda: build_ocean(nk=150))
        cfg = _config("compiled", use_schedule_cache=True)
        first = runner.run(Strategy.SPECULATIVE, cfg)
        assert first.cache_stats == {
            "lookups": 1, "hits": 0, "misses": 1,
            "evictions": 0, "entries": 1,
        }
        second = runner.run(Strategy.SPECULATIVE, cfg)
        assert second.cache_stats["hits"] == 1
        assert second.cache_stats["entries"] == 1

    def test_stripped_run_records_converged_strip_size(self):
        runner = _runner(lambda: build_bdna(n=200))
        runner.run(
            Strategy.STRIPPED,
            _config("compiled", strip_size=16, adaptive_strip_sizing=True),
        )
        obs, = runner.profiles.observations(runner._loop_key())
        assert obs.strip_size is not None
        assert obs.strategy == "stripped"
