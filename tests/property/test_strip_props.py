"""Property: strip-mined speculation ≡ serial, and ≡ unstripped when legal.

Random gather/scatter loops with a reduction (the SPEC shape of the
engine-equivalence suite), random strip sizes (degenerate single-
iteration strips through one-strip-covers-everything), both execution
engines and eager failure detection on/off:

* the post-loop memory always matches the serial oracle — whether every
  strip passed, some rolled back, or eager detection aborted mid-strip;
* both engines produce the same stripped execution, observable for
  observable (verdict, per-strip records, simulated times, stats,
  memory);
* on inputs where the unstripped test passes, the aggregate stripped
  verdict and the whole-loop tw/tm totals are identical to the
  unstripped analysis (the :class:`StripAggregator` contract).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.speculative import FixedStripSizer, SpeculationPipeline

N = 10
SIZE = 12

TEMPLATE = f"""
program randstrip
  integer i, n
  integer w({N}), r({N}), ridx({N})
  real a({SIZE}), s({SIZE}), v({N}), x
  do i = 1, n
    x = a(r(i)) + v(i)
    a(w(i)) = x * 0.5
    s(ridx(i)) = s(ridx(i)) + x
  end do
end
"""

indices = st.lists(
    st.integers(min_value=1, max_value=SIZE), min_size=N, max_size=N
)


def _inputs(w, r, ridx):
    return {
        "n": N,
        "w": np.array(w),
        "r": np.array(r),
        "ridx": np.array(ridx),
        "v": np.linspace(0.5, 1.5, N),
        "a": np.linspace(-1.0, 1.0, SIZE),
        "s": np.zeros(SIZE),
        "x": 0.0,
    }


def _serial_oracle(inputs):
    program = parse(TEMPLATE)
    env = Environment(program, inputs)
    Interpreter(program, env, value_based=False).run()
    return env


def _run_stripped(inputs, strip_size, engine, eager):
    program = parse(TEMPLATE)
    plan = build_plan(program)
    env = Environment(program, inputs)
    sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
    outcome = SpeculationPipeline(
        program, plan.loop, env, plan, sim,
        sizer=FixedStripSizer(strip_size), eager=eager, engine=engine,
    ).run()
    return outcome, env


@settings(max_examples=40, deadline=None)
@given(
    w=indices, r=indices, ridx=indices,
    strip_size=st.integers(min_value=1, max_value=N + 2),
    eager=st.booleans(),
)
def test_stripped_matches_serial_and_unstripped(w, r, ridx, strip_size, eager):
    inputs = _inputs(w, r, ridx)
    oracle = _serial_oracle(inputs)

    outcomes = {}
    for engine in ("walk", "compiled"):
        outcome, env = _run_stripped(inputs, strip_size, engine, eager)
        outcomes[engine] = (outcome, env)
        # Memory always equals the serial reference: passed strips
        # committed in order, failed strips rolled back + re-ran serially
        # (allclose: per-strip reduction merges legally reassociate).
        np.testing.assert_allclose(
            env.arrays["a"], oracle.arrays["a"], err_msg=f"{engine}: a"
        )
        np.testing.assert_allclose(
            env.arrays["s"], oracle.arrays["s"], err_msg=f"{engine}: s"
        )

    walk, fast = outcomes["walk"], outcomes["compiled"]
    assert walk[0].result == fast[0].result
    assert walk[0].times == fast[0].times
    assert walk[0].stats == fast[0].stats
    assert [(s.passed, s.aborted, s.iterations) for s in walk[0].strips] == [
        (s.passed, s.aborted, s.iterations) for s in fast[0].strips
    ]
    assert walk[1].scalars == fast[1].scalars
    for name in ("a", "s"):
        np.testing.assert_array_equal(walk[1].arrays[name], fast[1].arrays[name])

    # Against the unstripped protocol (fresh env: the driver mutates it).
    program = parse(TEMPLATE)
    plan = build_plan(program)
    env = Environment(program, inputs)
    sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
    unstripped = SpeculationPipeline(
        program, plan.loop, env, plan, sim, eager=eager, engine="compiled"
    ).run()

    stripped = fast[0]
    if unstripped.result.passed:
        # A whole-loop pass means no intra-strip conflicts either: every
        # strip passes and the aggregate verdict, tw and tm reproduce the
        # unstripped analysis exactly.
        assert stripped.result.passed
        assert all(s.passed for s in stripped.strips)
        assert float(stripped.stats["strips_failed"]) == 0.0
        for name, detail in unstripped.result.details.items():
            agg = stripped.result.details[name]
            assert agg.tw == detail.tw, name
            assert agg.tm == detail.tm, name
            assert agg.fully_parallel == detail.fully_parallel, name
            assert agg.failed_elements == 0
    elif strip_size >= N:
        # One strip covering the whole loop is the unstripped test:
        # the verdict must agree (single-strip aggregation is lossless).
        assert stripped.result.passed == unstripped.result.passed
