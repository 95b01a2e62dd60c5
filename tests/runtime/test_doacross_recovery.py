"""The speculative DOACROSS recovery tier, end to end.

A failed LRPD run whose shadow stamps measure a min dependence distance
``d > 1`` re-executes as a priced pipelined DOACROSS instead of a plain
serial re-run.  State must stay bit-identical to the rollback path on
every configuration (whole-loop, stripped, real workers); the planner
arms the tier only when profiled history justifies it; and distance-≤1
loops are vetoed deterministically.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.dependence import DepKind, DistanceReport, ElementDistance
from repro.core.shadow import Granularity
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.profile import RunObservation
from repro.runtime.speculative import recovery_decision
from repro.workloads.synthetic import build_partial_parallel, build_synthdoacross

PROCS = 8
DISTANCE = 16


def _runner(build=None) -> LoopRunner:
    workload = (build or (lambda: build_synthdoacross(
        n=200, distance=DISTANCE, work=20)))()
    return LoopRunner(workload.program(), workload.inputs)


def _config(**kwargs) -> RunConfig:
    return RunConfig(model=fx80().with_procs(PROCS), **kwargs)


def _assert_matches_serial(runner: LoopRunner, report, config) -> None:
    serial = runner.serial_run(config.model)
    np.testing.assert_array_equal(
        report.env.arrays["a"], serial.env.arrays["a"],
        err_msg="recovered state diverged from the serial oracle",
    )


def _obs(*, passed, recovered_fraction=None, sync_wait_cycles=0.0):
    return RunObservation(
        strategy="speculative", engine="compiled", backend="fork",
        wall_s=0.01, doall_s=0.01, passed=passed,
        recovered_fraction=recovered_fraction,
        sync_wait_cycles=sync_wait_cycles,
    )


class TestRecoveryDecision:
    """The tier's deterministic go/veto on measured distances."""

    def _report(self, *distances: int) -> DistanceReport:
        return DistanceReport(
            num_granules=64,
            distances=[
                ElementDistance("a", i, DepKind.FLOW, d, exact=True)
                for i, d in enumerate(distances)
            ],
        )

    def test_goes_at_measured_distance(self):
        d, reason = recovery_decision(
            self._report(7, 4), aborted=False, granularity=Granularity.ITERATION
        )
        assert d == 4
        assert "pipelined DOACROSS at distance 4" in reason

    def test_vetoes_processor_granularity(self):
        d, reason = recovery_decision(
            self._report(4), aborted=False, granularity=Granularity.PROCESSOR
        )
        assert d is None
        assert "processor-wise" in reason

    def test_vetoes_aborted_attempt(self):
        d, reason = recovery_decision(
            self._report(4), aborted=True, granularity=Granularity.ITERATION
        )
        assert d is None
        assert "prefix" in reason

    def test_vetoes_unmeasured_distance(self):
        d, reason = recovery_decision(
            self._report(), aborted=False, granularity=Granularity.ITERATION
        )
        assert d is None
        assert "no cross-iteration dependence" in reason

    def test_vetoes_serial_chain(self):
        d, reason = recovery_decision(
            self._report(1), aborted=False, granularity=Granularity.ITERATION
        )
        assert d is None
        assert "fully serial chain" in reason


class TestWholeLoopRecovery:
    def test_bit_identical_with_pipelined_pricing(self):
        runner = _runner()
        config = _config()
        report = runner.run(Strategy.DOACROSS_RECOVERY, config)
        assert not report.passed
        assert report.strategy == "doacross_recovery"
        assert report.stats["recovery_distance"] == DISTANCE
        assert report.stats["recovered_iterations"] == 200.0
        assert report.stats["recovered_fraction"] > 0.0
        assert report.stats["recovery_sync_waits"] > 0.0
        _assert_matches_serial(runner, report, config)

    def test_recovery_beats_rollback(self):
        config = _config()
        recovered = _runner().run(Strategy.DOACROSS_RECOVERY, config)
        rolled_back = _runner().run(Strategy.SPECULATIVE, config)
        assert not rolled_back.passed
        assert "recovered_fraction" not in rolled_back.stats
        assert recovered.loop_time < rolled_back.loop_time
        assert recovered.speedup > rolled_back.speedup

    def test_decision_recorded_on_report(self):
        report = _runner().run(Strategy.DOACROSS_RECOVERY, _config())
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any(
            f"pipelined DOACROSS at distance {DISTANCE}" in r for r in reasons
        )

    def test_observation_carries_recovery_fields(self):
        runner = _runner()
        report = runner.run(Strategy.DOACROSS_RECOVERY, _config())
        obs = runner.profiles.observations(runner._loop_key())[-1]
        assert obs.recovered_fraction == report.stats["recovered_fraction"]
        assert obs.sync_wait_cycles == report.stats["recovery_sync_wait_cycles"]


class TestStrippedRecovery:
    def test_every_failed_strip_recovers(self):
        runner = _runner()
        config = _config(strip_size=50)
        report = runner.run(Strategy.DOACROSS_RECOVERY, config)
        assert report.strategy == "doacross_recovery"
        assert [s.recovered for s in report.strips] == [True] * 4
        assert report.stats["strips_recovered"] == 4.0
        assert report.stats["recovery_distance"] == DISTANCE
        assert report.stats["recovered_fraction"] > 0.0
        _assert_matches_serial(runner, report, config)

    def test_worker_sharded_strips_stay_bit_identical(self):
        runner = _runner()
        config = _config(
            engine="parallel", backend="threads", workers=2, strip_size=50
        )
        report = runner.run(Strategy.DOACROSS_RECOVERY, config)
        assert report.stats["strips_recovered"] == 4.0
        _assert_matches_serial(runner, report, config)


class TestDeterministicVeto:
    def test_distance_one_band_rolls_back_serially(self):
        runner = _runner(lambda: build_partial_parallel(n=96, band_length=16))
        config = _config()
        report = runner.run(Strategy.DOACROSS_RECOVERY, config)
        assert not report.passed
        assert report.stats["recovered_fraction"] == 0.0
        assert "strips_recovered" not in report.stats
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any(
            "recovery veto: measured min dependence distance 1" in r
            for r in reasons
        )
        _assert_matches_serial(runner, report, config)

    def test_vetoed_strips_are_not_marked_recovered(self):
        runner = _runner(lambda: build_partial_parallel(n=96, band_length=16))
        config = _config(strip_size=32)
        report = runner.run(Strategy.DOACROSS_RECOVERY, config)
        assert not any(s.recovered for s in report.strips)
        assert report.stats["recovered_fraction"] == 0.0
        _assert_matches_serial(runner, report, config)


class TestPlannerArming:
    """``engine="auto"`` learns when to arm the tier from the profile."""

    def test_first_failure_runs_unarmed(self):
        runner = _runner()
        report = runner.run(Strategy.SPECULATIVE, _config(engine="auto"))
        assert not report.passed
        assert "recovered_fraction" not in report.stats
        reasons = [reason for _key, reason in report.engine_decisions]
        assert not any("arming DOACROSS recovery" in r for r in reasons)

    def test_second_failure_arms_recovery(self):
        runner = _runner()
        config = _config(engine="auto")
        runner.run(Strategy.SPECULATIVE, config)
        report = runner.run(Strategy.SPECULATIVE, config)
        assert report.strategy == "speculative"
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any("feedback: arming DOACROSS recovery" in r for r in reasons)
        assert report.stats["recovered_fraction"] > 0.0
        _assert_matches_serial(runner, report, config)

    def test_explicit_engines_never_arm(self):
        runner = _runner()
        config = _config(engine="compiled")
        runner.run(Strategy.SPECULATIVE, config)
        report = runner.run(Strategy.SPECULATIVE, config)
        assert "recovered_fraction" not in report.stats
        assert report.engine_decisions == []

    def test_recovery_history_rescues_a_vetoed_loop(self):
        runner = _runner()
        key = runner._loop_key()
        for _ in range(2):
            runner.profiles.observe(key, _obs(
                passed=False, recovered_fraction=0.5, sync_wait_cycles=4.0,
            ))
        config = _config(engine="auto")
        report = runner.run(Strategy.SPECULATIVE, config)
        # The failure veto fired, but recovery history overrode it: the
        # loop speculated (and failed, and recovered) instead of refusing.
        assert not report.passed
        assert report.stats["recovered_fraction"] > 0.0
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any("skipping speculation" in r for r in reasons)
        assert any("speculating past the failure veto" in r for r in reasons)
        _assert_matches_serial(runner, report, config)

    def test_lifted_veto_resets_the_strip_size_floor(self):
        runner = _runner()
        loop_key = runner._loop_key()
        # A vetoed loop whose failures then age out of the ring: the
        # next planner-driven strip-mined run must drop the warm-start
        # floor (the history behind it went stale) and say so.
        for _ in range(2):
            runner.profiles.observe(loop_key, _obs(passed=False))
        assert runner.profiles.speculation_veto(loop_key) is not None
        for _ in range(8):
            runner.profiles.observe(loop_key, _obs(passed=True))
        config = _config(
            engine="auto", strip_size=50, adaptive_strip_sizing=True
        )
        report = runner.run(Strategy.STRIPPED, config)
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any(
            "resetting the adaptive strip-size floor" in r for r in reasons
        )
        _assert_matches_serial(runner, report, config)

    def test_poor_recovery_history_stops_arming(self):
        runner = _runner()
        loop_key = runner._loop_key()
        runner.profiles.observe(loop_key, _obs(
            passed=False, recovered_fraction=0.0,
        ))
        report = runner.run(Strategy.SPECULATIVE, _config(engine="auto"))
        assert "recovered_fraction" not in report.stats
        reasons = [reason for _key, reason in report.engine_decisions]
        assert any("failed runs roll back serially" in r for r in reasons)
        assert runner.profiles.recovery_veto(loop_key) is not None
