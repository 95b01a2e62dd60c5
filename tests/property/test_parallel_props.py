"""Property: the multiprocess backend ≡ the compiled engine.

Random gather/scatter/reduction loops (the same shape as the engine-
equivalence template) must produce identical LRPD outcomes, simulated
times, stats, shadow counts and post-loop memory when executed on real
worker processes with shared-memory shadow sets and the cross-processor
merge.  Eagerly aborted runs are compared on the guaranteed surface
only — the verdict and the rolled-back, serially recomputed memory —
because workers abort at a local point, not the emulation's global
round-robin point.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.speculative import SpeculationPipeline

SPEC_N = 10
SPEC_SIZE = 12

SPEC_TEMPLATE = f"""
program randpar
  integer i, n
  integer w({SPEC_N}), r({SPEC_N}), ridx({SPEC_N})
  real a({SPEC_SIZE}), s({SPEC_SIZE}), v({SPEC_N}), x
  do i = 1, n
    x = a(r(i)) + v(i)
    a(w(i)) = x * 0.5
    s(ridx(i)) = s(ridx(i)) + x
  end do
end
"""

spec_indices = st.lists(
    st.integers(min_value=1, max_value=SPEC_SIZE),
    min_size=SPEC_N, max_size=SPEC_N,
)


@settings(max_examples=20, deadline=None)
@given(w=spec_indices, r=spec_indices, ridx=spec_indices, eager=st.booleans())
def test_parallel_backend_agrees_with_compiled(w, r, ridx, eager):
    inputs = {
        "n": SPEC_N,
        "w": np.array(w),
        "r": np.array(r),
        "ridx": np.array(ridx),
        "v": np.linspace(0.5, 1.5, SPEC_N),
        "a": np.linspace(-1.0, 1.0, SPEC_SIZE),
        "s": np.zeros(SPEC_SIZE),
        "x": 0.0,
    }

    outcomes = {}
    envs = {}
    for engine in ("compiled", "parallel"):
        program = parse(SPEC_TEMPLATE)
        plan = build_plan(program)
        env = Environment(program, inputs)
        sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
        outcomes[engine] = SpeculationPipeline(
            program, plan.loop, env, plan, sim,
            eager=eager, engine=engine, workers=2,
        ).run()
        envs[engine] = env

    ref, par = outcomes["compiled"], outcomes["parallel"]
    aborted = ref.run.aborted or par.run.aborted
    assert ref.result.passed == par.result.passed
    assert envs["compiled"].scalars == envs["parallel"].scalars
    for name in ("a", "s"):
        np.testing.assert_array_equal(
            envs["compiled"].arrays[name], envs["parallel"].arrays[name]
        )
    if not aborted:
        assert ref.result == par.result
        assert ref.times == par.times
        assert ref.stats == par.stats
        assert ref.run.iteration_costs == par.run.iteration_costs
        for name, shadow in ref.run.marker.shadows.items():
            other = par.run.marker.shadows[name]
            assert shadow.tw == other.tw
            assert shadow.tm == other.tm
            np.testing.assert_array_equal(shadow.w, other.w)
            np.testing.assert_array_equal(shadow.r, other.r)
            np.testing.assert_array_equal(shadow.np_, other.np_)
            np.testing.assert_array_equal(shadow.nx, other.nx)


@settings(max_examples=10, deadline=None)
@given(w=spec_indices, r=spec_indices, ridx=spec_indices)
def test_vectorized_worker_backend_agrees_with_compiled(w, r, ridx):
    """The vectorized engine through real worker shards ≡ compiled.

    Each worker classifies and lowers its shard to the whole-block
    kernels (or falls back to the compiled per-iteration path inside the
    worker); either way the merged run must match the serial compiled
    engine bit for bit.
    """
    inputs = {
        "n": SPEC_N,
        "w": np.array(w),
        "r": np.array(r),
        "ridx": np.array(ridx),
        "v": np.linspace(0.5, 1.5, SPEC_N),
        "a": np.linspace(-1.0, 1.0, SPEC_SIZE),
        "s": np.zeros(SPEC_SIZE),
        "x": 0.0,
    }

    outcomes = {}
    envs = {}
    for engine in ("compiled", "vectorized"):
        program = parse(SPEC_TEMPLATE)
        plan = build_plan(program)
        env = Environment(program, inputs)
        sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
        outcomes[engine] = SpeculationPipeline(
            program, plan.loop, env, plan, sim,
            engine=engine, workers=2 if engine == "vectorized" else None,
        ).run()
        envs[engine] = env

    ref, vec = outcomes["compiled"], outcomes["vectorized"]
    assert ref.result == vec.result
    assert ref.times == vec.times
    assert ref.stats == vec.stats
    assert ref.run.iteration_costs == vec.run.iteration_costs
    assert envs["compiled"].scalars == envs["vectorized"].scalars
    for name in ("a", "s"):
        np.testing.assert_array_equal(
            envs["compiled"].arrays[name], envs["vectorized"].arrays[name]
        )
