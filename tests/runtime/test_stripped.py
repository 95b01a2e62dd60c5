"""The strip-mined speculation pipeline (Strategy.STRIPPED)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.speculative import AdaptiveStripSizer, FixedStripSizer
from repro.workloads.bdna import build_bdna
from repro.workloads.mdg import build_mdg
from repro.workloads.ocean import build_ocean
from repro.workloads.synthetic import build_partial_parallel


def _runner(workload) -> LoopRunner:
    return LoopRunner(workload.program(), workload.inputs)


@pytest.mark.parametrize(
    "build, kwargs",
    [
        (build_bdna, {"n": 60}),
        (build_mdg, {"n": 40}),
        (build_ocean, {}),
    ],
    ids=["bdna", "mdg", "ocean"],
)
def test_strip_size_none_is_bit_identical_to_speculative(build, kwargs):
    """strip_size=None degenerates to the unstripped protocol: the whole
    report — every simulated time, every stat, every memory cell — must
    reproduce Strategy.SPECULATIVE exactly."""
    workload = build(**kwargs)
    spec = _runner(workload).run(Strategy.SPECULATIVE, RunConfig(model=fx80()))
    none = _runner(workload).run(Strategy.STRIPPED, RunConfig(model=fx80()))
    assert none.times.as_dict() == spec.times.as_dict()
    assert none.stats == spec.stats
    assert none.passed == spec.passed
    assert none.strips == []
    assert none.env.scalars == spec.env.scalars
    for name in none.env.arrays:
        np.testing.assert_array_equal(none.env.arrays[name], spec.env.arrays[name])


@pytest.mark.parametrize("strip_size", [7, 16, 1000])
def test_stripped_passing_workload_matches_serial(strip_size):
    workload = build_bdna(n=60)
    runner = _runner(workload)
    serial = runner.serial_run(fx80())
    report = runner.run(
        Strategy.STRIPPED, RunConfig(model=fx80(), strip_size=strip_size)
    )
    assert report.passed
    assert all(s.passed for s in report.strips)
    for name in workload.check_arrays:
        np.testing.assert_allclose(
            report.env.arrays[name], serial.env.arrays[name]
        )
    # The per-strip breakdowns sum to the report's whole-loop breakdown.
    total = {}
    for s in report.strips:
        for phase, cycles in s.times.as_dict().items():
            total[phase] = total.get(phase, 0.0) + cycles
    for phase, cycles in report.times.as_dict().items():
        assert cycles == pytest.approx(total.get(phase, 0.0)), phase


def test_failed_strip_rolls_back_only_itself():
    """A serial dependence band fails only the strip(s) covering it; the
    loop still completes with serial-identical memory and the parallel
    strips' speedup survives."""
    workload = build_partial_parallel(n=400, band_length=24, work=60)
    runner = _runner(workload)
    serial = runner.serial_run(fx80())
    unstripped = _runner(workload).run(Strategy.SPECULATIVE, RunConfig(model=fx80()))
    report = runner.run(Strategy.STRIPPED, RunConfig(model=fx80(), strip_size=50))

    assert not unstripped.passed
    assert unstripped.speedup <= 1.0
    assert not report.passed  # some strip rolled back
    failed = [s for s in report.strips if not s.passed]
    assert 1 <= len(failed) <= 2  # the band spans at most two strips
    assert len(report.strips) == 8
    # Rollback is bounded: only failed strips pay restore + serial rerun.
    for s in report.strips:
        if s.passed:
            assert s.times.serial_rerun == 0.0
            assert s.times.restore == 0.0
        else:
            assert s.times.serial_rerun > 0.0
    assert report.stats["serial_iterations"] == sum(s.iterations for s in failed)
    np.testing.assert_allclose(
        report.env.arrays["a"], serial.env.arrays["a"]
    )
    assert report.speedup > 1.5 > unstripped.speedup


def test_stripped_checkpoint_excludes_buffered_arrays():
    """Per-strip checkpoints save only arrays the doall writes in place;
    tested (privatized) and reduction arrays are buffered in private
    copies/partials, so a workload whose written arrays are all tested
    checkpoints nothing per strip."""
    workload = build_partial_parallel(n=100, band_length=10, work=5)
    spec = _runner(workload).run(Strategy.SPECULATIVE, RunConfig(model=fx80()))
    stripped = _runner(workload).run(
        Strategy.STRIPPED, RunConfig(model=fx80(), strip_size=25)
    )
    assert spec.stats["checkpoint_elements"] > 0.0
    assert stripped.stats["checkpoint_elements"] == 0.0


def test_eager_aborts_inside_failing_strips():
    workload = build_partial_parallel(n=200, band_length=16, work=5)
    report = _runner(workload).run(
        Strategy.STRIPPED,
        RunConfig(model=fx80(), strip_size=25, eager_failure_detection=True),
    )
    aborted = [s for s in report.strips if s.aborted]
    assert aborted and all(not s.passed for s in aborted)
    assert report.stats["aborted_strips"] == len(aborted)
    for s in aborted:
        assert s.times.analysis == 0.0  # detection replaced the test phase
    serial = _runner(workload).serial_run(fx80())
    np.testing.assert_allclose(report.env.arrays["a"], serial.env.arrays["a"])


def test_fixed_sizer_rejects_nonpositive():
    from repro.errors import SpeculationError

    with pytest.raises(SpeculationError):
        FixedStripSizer(0)


def test_adaptive_sizer_grows_and_shrinks():
    assert AdaptiveStripSizer.GROW_AFTER == 2
    sizer = AdaptiveStripSizer(initial_size=16)
    assert sizer.next_size() == 16
    sizer.record(True)
    assert sizer.next_size() == 16  # one pass is not yet a streak
    sizer.record(True)
    assert sizer.next_size() == 32  # grew after two consecutive passes
    sizer.record(False)
    assert sizer.next_size() == 16  # halved on failure
    for _ in range(10):
        sizer.record(False)
    assert sizer.next_size() == AdaptiveStripSizer.MIN_SIZE == 2  # floor
    for _ in range(40):
        sizer.record(True)
    assert sizer.next_size() == AdaptiveStripSizer.MAX_SIZE == 4096  # ceiling


def test_adaptive_sizer_floor_defaults_to_min_size():
    sizer = AdaptiveStripSizer(initial_size=16)
    assert sizer.floor == AdaptiveStripSizer.MIN_SIZE
    for _ in range(10):
        sizer.record(False)
    assert sizer.next_size() == AdaptiveStripSizer.MIN_SIZE


def test_adaptive_sizer_raised_floor_stops_the_shrink():
    # The warm-start contract: one unlucky strip must not shrink below
    # the converged size history handed the sizer.
    sizer = AdaptiveStripSizer(initial_size=32)
    sizer.raise_floor(32)
    for _ in range(10):
        sizer.record(False)
    assert sizer.next_size() == 32


def test_adaptive_sizer_reset_floor_restores_full_range():
    sizer = AdaptiveStripSizer(initial_size=32)
    sizer.raise_floor(32)
    sizer.record(False)
    assert sizer.next_size() == 32
    sizer.reset_floor()  # a lifted veto marked the history stale
    assert sizer.floor == AdaptiveStripSizer.MIN_SIZE
    for _ in range(10):
        sizer.record(False)
    assert sizer.next_size() == AdaptiveStripSizer.MIN_SIZE


def test_adaptive_sizer_floor_clamps_to_bounds():
    sizer = AdaptiveStripSizer(initial_size=16)
    sizer.raise_floor(10**6)
    assert sizer.floor == AdaptiveStripSizer.MAX_SIZE
    sizer.raise_floor(1)
    assert sizer.floor == AdaptiveStripSizer.MIN_SIZE
    # The initial size is clamped to the same bounds.
    assert AdaptiveStripSizer(initial_size=1).next_size() == AdaptiveStripSizer.MIN_SIZE
    assert AdaptiveStripSizer(initial_size=10**6).next_size() == AdaptiveStripSizer.MAX_SIZE


def test_adaptive_strip_sizing_end_to_end():
    workload = build_partial_parallel(n=400, band_length=24, work=20)
    runner = _runner(workload)
    serial = runner.serial_run(fx80())
    report = runner.run(
        Strategy.STRIPPED,
        RunConfig(model=fx80(), strip_size=25, adaptive_strip_sizing=True),
    )
    sizes = [s.strip_size for s in report.strips]
    assert max(sizes) > 25  # grew over the parallel prefix
    np.testing.assert_allclose(report.env.arrays["a"], serial.env.arrays["a"])


def test_serial_run_honors_engine():
    """The serial reference is cached per (machine, engine) and actually
    runs the requested engine; both engines are count-identical."""
    workload = build_bdna(n=40)
    runner = _runner(workload)
    compiled = runner.serial_run(fx80(), "compiled")
    walk = runner.serial_run(fx80(), "walk")
    assert compiled is not walk  # separate cache entries
    assert compiled.loop_time == walk.loop_time
    assert runner.serial_run(fx80(), "walk") is walk  # cached
    np.testing.assert_array_equal(
        compiled.env.arrays["force"], walk.env.arrays["force"]
    )


def test_stripped_refuses_unparallelizable_scalar():
    """A loop-carried scalar refuses speculation in the stripped path
    exactly as in the unstripped one."""
    from repro.dsl.parser import parse

    source = """
program carried
  integer i, n
  real a(20), acc
  do i = 1, n
    acc = acc * 0.5 + a(i)
    a(i) = acc
  end do
end
"""
    inputs = {"n": 10, "a": np.linspace(0.0, 1.0, 20), "acc": 0.0}
    runner = LoopRunner(parse(source), inputs)
    report = runner.run(
        Strategy.STRIPPED, RunConfig(model=fx80(), strip_size=4)
    )
    assert report.strategy == Strategy.SERIAL.value
    assert report.stats.get("refused") == 1.0
