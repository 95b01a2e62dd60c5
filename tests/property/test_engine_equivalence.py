"""Property: every registered engine ≡ the tree walker.

Random execution-safe programs (guarded arithmetic, in-range subscripts)
must produce identical final state AND identical operation counts under
every serial-capable engine — the compiled fast path may not drift
semantically.  The same holds for the speculative engines: random
workloads with reductions, passing and failing speculations (including
eager aborts) must yield the same LRPD outcome, shadow counts, simulated
times and memory state for every registered engine (the vectorized
whole-block engine commits in bulk or falls back, the ``auto`` planner
delegates to its pick — all bit-identical by contract).

The engine lists are drawn from the registry, so a newly registered
engine joins these suites automatically.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.compiled import compile_program
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.engines import registry
from repro.runtime.serial import run_serial
from repro.runtime.speculative import SpeculationPipeline

#: every registered engine that runs without forking real worker
#: processes (a fork per hypothesis example is prohibitively slow; the
#: multiprocess backend has its own parity suite in
#: tests/runtime/test_parallel_backend.py and tests/property/
#: test_parallel_props.py).
IN_PROCESS_ENGINES = [
    engine.name
    for engine in registry.all()
    if not engine.caps.requires_workers
]

N = 8
SIZE = 10

TEMPLATE = f"""
program randexec
  integer i, j, n
  integer idx({N}), gate({N})
  real a({SIZE}), b({SIZE}), x, y
  do i = 1, n
    x = a(idx(i)) * {{c1}} + real(i)
    if (gate(i) == 1 and x > {{c2}}) then
      b(idx(i)) = x - y
      y = y + {{c3}}
    else
      do j = 1, {{inner}}
        b(j) = b(j) * {{c4}} + x
      end do
    end if
    a(idx(i)) = min(max(x, -100.0), 100.0)
  end do
end
"""

constants = st.floats(
    min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False
)
indices = st.lists(st.integers(min_value=1, max_value=SIZE), min_size=N, max_size=N)
gates = st.lists(st.integers(min_value=0, max_value=1), min_size=N, max_size=N)


@settings(max_examples=100, deadline=None)
@given(
    c1=constants, c2=constants, c3=constants, c4=constants,
    inner=st.integers(min_value=0, max_value=4),
    idx=indices, gate=gates,
)
def test_engines_agree(c1, c2, c3, c4, inner, idx, gate):
    source = TEMPLATE.format(c1=repr(abs(c1)), c2=repr(abs(c2)),
                             c3=repr(abs(c3)), c4=repr(abs(c4)), inner=inner)
    inputs = {
        "n": N,
        "idx": np.array(idx),
        "gate": np.array(gate),
        "a": np.linspace(-1.0, 1.0, SIZE),
        "b": np.linspace(2.0, 3.0, SIZE),
        "y": 0.25,
    }

    program_a = parse(source)
    env_a = Environment(program_a, inputs)
    walker = Interpreter(program_a, env_a, value_based=False)
    walker.run()

    program_b = parse(source)
    env_b = Environment(program_b, inputs)
    cost_b = compile_program(program_b).run(env_b)

    assert env_a.scalars == env_b.scalars
    np.testing.assert_array_equal(env_a.arrays["a"], env_b.arrays["a"])
    np.testing.assert_array_equal(env_a.arrays["b"], env_b.arrays["b"])
    assert walker.cost.total() == cost_b.total()

    # Every serial-capable engine in the registry agrees with the walker
    # on state, iteration costs and phase times.
    runs = {
        engine.name: run_serial(
            parse(source), inputs, fx80(), engine=engine.name
        )
        for engine in registry.all()
        if engine.caps.supports_serial
    }
    reference = runs["walk"]
    for name, other in runs.items():
        if name == "walk":
            continue
        assert reference.env.scalars == other.env.scalars
        np.testing.assert_array_equal(
            reference.env.arrays["a"], other.env.arrays["a"]
        )
        np.testing.assert_array_equal(
            reference.env.arrays["b"], other.env.arrays["b"]
        )
        assert reference.loop_iteration_costs == other.loop_iteration_costs
        assert reference.loop_time == other.loop_time
        assert reference.setup_time == other.setup_time
        assert reference.teardown_time == other.teardown_time


SPEC_N = 10
SPEC_SIZE = 12

SPEC_TEMPLATE = f"""
program randspec
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


@settings(max_examples=50, deadline=None)
@given(w=spec_indices, r=spec_indices, ridx=spec_indices, eager=st.booleans())
def test_speculative_engines_agree(w, r, ridx, eager):
    """Walker ≡ compiled ≡ vectorized on the full speculative protocol.

    The random w/r vectors produce passing runs (disjoint, privatizable)
    and failing ones (cross-iteration flow dependences) — with ``eager``
    the latter abort mid-doall, exercising the batched-marking engine's
    small-buffer replay path.  Every observable must match: LRPD result
    (per-array tw/tm/failed elements), simulated time breakdown, run
    stats (marks, iterations, aborted_after) and the post-loop memory.
    """
    source = SPEC_TEMPLATE
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
    for engine in IN_PROCESS_ENGINES:
        program = parse(source)
        plan = build_plan(program)
        env = Environment(program, inputs)
        sim = DoallSimulator(fx80().with_procs(4), ScheduleKind.BLOCK)
        outcomes[engine] = SpeculationPipeline(
            program, plan.loop, env, plan, sim, eager=eager, engine=engine
        ).run()
        envs[engine] = env

    walk = outcomes["walk"]
    for engine in IN_PROCESS_ENGINES:
        if engine == "walk":
            continue
        other = outcomes[engine]
        assert walk.result == other.result
        assert walk.times == other.times
        assert walk.stats == other.stats
        assert walk.run.aborted == other.run.aborted
        assert walk.run.executed_iterations == other.run.executed_iterations
        assert walk.run.iteration_costs == other.run.iteration_costs
        assert envs["walk"].scalars == envs[engine].scalars
        for name in ("a", "s"):
            np.testing.assert_array_equal(
                envs["walk"].arrays[name], envs[engine].arrays[name]
            )
