"""Compiled engine: unit tests + equivalence with the walker."""

import sys
import threading

import numpy as np
import pytest

from repro.analysis.instrument import build_plan
from repro.dsl.ast_nodes import Assign, BinOp, If, Num, Program, ScalarDecl, Var
from repro.dsl.parser import parse
from repro.errors import InterpError
from repro.interp import compiled as compiled_module
from repro.interp.compiled import compile_program, generate_marked_loop
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, find_target_loop
from repro.machine.costmodel import CostModel, fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.serial import run_serial
from repro.runtime.speculative import SpeculationPipeline
from repro.workloads.track import build_track


def run_both(source, inputs):
    program_a = parse(source)
    env_a = Environment(program_a, inputs)
    walker = Interpreter(program_a, env_a, value_based=False)
    walker.run()

    program_b = parse(source)
    env_b = Environment(program_b, inputs)
    cost_b = compile_program(program_b).run(env_b)
    return env_a, walker.cost, env_b, cost_b


def assert_equivalent(source, inputs):
    env_a, cost_a, env_b, cost_b = run_both(source, inputs)
    assert env_a.scalars == env_b.scalars
    for name in env_a.arrays:
        np.testing.assert_array_equal(env_a.arrays[name], env_b.arrays[name])
    assert cost_a.total() == cost_b.total()


class TestEquivalence:
    def test_arithmetic_program(self):
        assert_equivalent(
            "program p\n  integer i, n\n  real a(10), s\n  s = 0.5\n"
            "  do i = 1, n\n    a(i) = s * real(i) ** 2 + 1.0 / real(i)\n"
            "    s = s + a(i)\n  end do\nend\n",
            {"n": 10},
        )

    def test_control_flow(self):
        assert_equivalent(
            "program p\n  integer i, n\n  real a(10), x\n"
            "  do i = 1, n\n    if (mod(i, 2) == 0 and i > 3) then\n"
            "      a(i) = 1.0\n    else if (i == 1 or i == 7) then\n"
            "      a(i) = 2.0\n    else\n      a(i) = 3.0\n    end if\n"
            "  end do\nend\n",
            {"n": 10},
        )

    def test_while_and_indirection(self):
        assert_equivalent(
            "program p\n  integer i, k\n  integer nxt(6)\n  real y(6)\n"
            "  k = 1\n  i = 0\n  do while (k > 0)\n    y(k) = y(k) + 1.0\n"
            "    k = nxt(k)\n    i = i + 1\n  end do\nend\n",
            {"nxt": np.array([3, 0, 5, 0, 2, 0])},
        )

    def test_short_circuit_counting_matches(self):
        # The RHS of 'and' must not be evaluated (or counted) when the
        # LHS is false — both engines must agree on the counts.
        assert_equivalent(
            "program p\n  integer i, n\n  real a(8), x\n"
            "  do i = 1, n\n    if (i > 4 and a(i) == 0.0) then\n"
            "      x = x + 1.0\n    end if\n  end do\nend\n",
            {"n": 8},
        )

    def test_iteration_costs_match_walker(self):
        source = (
            "program p\n  integer i, n\n  real a(8)\n"
            "  do i = 1, n\n    a(i) = a(i) * 2.0 + 1.0\n  end do\nend\n"
        )
        walk = run_serial(parse(source), {"n": 8}, CostModel(), engine="walk")
        fast = run_serial(parse(source), {"n": 8}, CostModel(), engine="compiled")
        assert walk.loop_iteration_costs == fast.loop_iteration_costs
        assert walk.loop_time == fast.loop_time
        assert walk.setup_time == fast.setup_time


class TestErrors:
    def test_out_of_bounds(self):
        program = parse("program p\n  real a(3)\n  a(5) = 1.0\nend\n")
        with pytest.raises(InterpError):
            compile_program(program).run(Environment(program, {}))

    def test_zero_step(self):
        program = parse(
            "program p\n  integer i\n  do i = 1, 3, 0\n    i = i\n  end do\nend\n"
        )
        with pytest.raises(InterpError):
            compile_program(program).run(Environment(program, {}))

    def test_division_by_zero(self):
        program = parse("program p\n  real x\n  x = 1.0 / 0.0\nend\n")
        with pytest.raises(InterpError):
            compile_program(program).run(Environment(program, {}))

    def test_run_loop_requires_compiled_loop(self):
        program = parse(
            "program p\n  integer i\n  do i = 1, 3\n    i = i\n  end do\nend\n"
        )
        other = parse(
            "program p\n  integer i\n  do i = 1, 3\n    i = i\n  end do\nend\n"
        )
        compiled = compile_program(program)
        env = Environment(program, {})
        with pytest.raises(InterpError):
            compiled.run_loop(find_target_loop(other), env, CostCounter(), [1])

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_serial(
                parse("program p\n  integer i\n  do i = 1, 2\n    i = i\n  end do\nend\n"),
                {}, CostModel(), engine="turbo",
            )


class TestRunStatements:
    def test_partial_execution(self):
        program = parse(
            "program p\n  integer n\n  real x\n  n = 5\n  x = 2.0\nend\n"
        )
        compiled = compile_program(program)
        env = Environment(program, {})
        compiled.run_statements(program.body[:1], env, CostCounter())
        assert env.scalars["n"] == 5
        assert env.scalars["x"] == 0.0

    def test_foreign_statement_rejected(self):
        program = parse("program p\n  integer n\n  n = 5\nend\n")
        other = parse("program p\n  integer n\n  n = 7\nend\n")
        compiled = compile_program(program)
        env = Environment(program, {})
        with pytest.raises(InterpError):
            compiled.run_statements(other.body, env, CostCounter())


def _nest(depth: int) -> str:
    """``depth`` nested do loops around one update (two trips outside);
    the outermost body also updates ``s`` after its inner nest."""
    names = [f"i{level}" for level in range(depth)]
    source = f"program nest\n  integer {', '.join(names)}\n  real s\n"
    for level, name in enumerate(names):
        source += f"  do {name} = 1, {2 if level < 3 else 1}\n"
    source += "  s = s + real(i0 + i2)\n" + "  end do\n" * (depth - 1)
    return source + "  s = s * 0.5\n  end do\nend\n"


KEYWORDS = (
    "program p\n  integer lambda, range, cost\n"
    "  real class, float, scalars, t1, s0\n  real values(4)\n"
    "  float = 0.5\n"
    "  do lambda = 1, 4\n"
    "    class = class + float * real(lambda)\n"
    "    values(lambda) = class\n"
    "    cost = cost + lambda\n"
    "    if (cost > 3 and class < 9.0) then\n      s0 = s0 + 1.0\n    end if\n"
    "    scalars = t1 + s0\n"
    "    do range = lambda, 1, -1\n      t1 = t1 + real(range)\n    end do\n"
    "  end do\nend\n"
)


class TestGeneratedSource:
    """The two CPython limits, the text rule and the code cache."""

    def test_a_25_deep_do_nest_matches_the_walker(self):
        assert_equivalent(_nest(25), {})

    def test_a_failure_deep_in_a_nest_leaves_the_walkers_state(self):
        """The innermost loops run in split-off functions: their scalar
        writes reach the environment even when they raise."""
        source = _nest(25).replace(
            "  real s\n", "  real s, a(2)\n"
        ).replace(
            "  s = s + real(i0 + i2)\n",
            "  s = s + real(i0 + i2)\n  a(i0 + i1) = s\n",
        )
        program = parse(source)
        walked = Environment(program, {})
        with pytest.raises(InterpError) as walk_error:
            Interpreter(program, walked, value_based=False).run()
        generated = Environment(program, {})
        with pytest.raises(InterpError) as error:
            compile_program(program).run(generated)
        assert str(error.value) == str(walk_error.value)
        assert generated.scalars == walked.scalars
        np.testing.assert_array_equal(generated.arrays["a"], walked.arrays["a"])

    def test_a_400_term_expression_matches_the_walker(self):
        terms = " + ".join(f"a({k % 5 + 1}) * {k}.5" for k in range(400))
        assert_equivalent(
            f"program p\n  real a(5), s\n  s = {terms}\nend\n",
            {"a": np.arange(1.0, 6.0)},
        )

    @pytest.mark.parametrize("op", ["or", "and"])
    def test_a_100_deep_right_nested_logical_chain_matches_the_walker(self, op):
        chain = BinOp(">", Var("x"), Num(99.5))
        for k in range(100):
            chain = BinOp(op, BinOp(">", Var("x"), Num(k + 0.5)), chain)
        program = Program(
            "chain", [ScalarDecl("x", "real"), ScalarDecl("y", "real")],
            [Assign(Var("y"), chain),
             If(chain, [Assign(Var("y"), BinOp("+", Var("y"), Num(1.0)))])],
        )
        compiled = compile_program(program)
        for x in (-1.0, 3.0, 200.0):
            walked = Environment(program, {"x": x})
            walker = Interpreter(program, walked, value_based=False)
            walker.run()
            generated = Environment(program, {"x": x})
            cost = compiled.run(generated)
            assert generated.scalars == walked.scalars
            assert cost.total() == walker.cost.total()

    def test_keyword_builtin_and_generator_names_match_the_walker(self):
        assert_equivalent(KEYWORDS, {"t1": 0.25})
        program = parse(KEYWORDS)
        loop = find_target_loop(program)
        walk = run_serial(program, {"t1": 0.25}, CostModel(), loop=loop, engine="walk")
        fast = run_serial(program, {"t1": 0.25}, CostModel(), loop=loop, engine="compiled")
        assert walk.loop_iteration_costs == fast.loop_iteration_costs
        assert walk.env.scalars == fast.env.scalars

    def test_programs_differing_only_in_names_generate_identical_source(self):
        renamed = (
            KEYWORDS.replace("lambda", "ii").replace("range", "jj")
            .replace("cost", "kk").replace("class", "xx").replace("float", "yy")
            .replace("scalars", "zz").replace("t1", "q1").replace("s0", "q0")
            .replace("values", "vv").replace("program p", "program other")
        )
        first = compile_program(parse(KEYWORDS)).source
        second = compile_program(parse(renamed)).source
        assert first == second
        for name in ("lambda", "class", "xx", "vv", "other"):
            assert name not in first

    def test_the_code_cache_stays_at_its_capacity(self):
        capacity = compiled_module.CODE_CACHE_CAPACITY
        for k in range(capacity + 8):
            program = parse(f"program p\n  real s\n  s = s + {k}.0\nend\n")
            env = Environment(program, {})
            compile_program(program).run(env)
            assert env.scalars["s"] == float(k)
        assert len(compiled_module._CODE_CACHE) == capacity

    def test_concurrent_compilation_never_mixes_programs(self):
        """Threads racing on cold cache entries (a fresh literal per
        round) each get the code of their own program."""
        rounds = 6
        sources = {
            (depth, k): _nest(depth).replace("real(i0 + i2)", f"real(i0 + i2) + {k}.5")
            for depth in range(4, 8) for k in range(rounds)
        }
        want = {}
        for key, source in sources.items():
            env = Environment(parse(source), {})
            Interpreter(parse(source), env, value_based=False).run()
            want[key] = env.scalars["s"]
        failures = []
        done = []

        def worker():
            for key, source in sources.items():
                env = Environment(parse(source), {})
                compile_program(parse(source)).run(env)
                if env.scalars["s"] != want[key]:
                    failures.append(key)
            done.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == len(threads)
        assert failures == []


def _speculate(source: str, inputs: dict, engine: str, **options):
    program = parse(source)
    plan = build_plan(program)
    env = Environment(program, inputs)
    sim = DoallSimulator(fx80().with_procs(3), ScheduleKind.BLOCK)
    outcome = SpeculationPipeline(
        program, plan.loop, env, plan, sim, engine=engine, **options
    ).run()
    return outcome, env


def assert_speculation_matches_the_walker(source: str, inputs: dict, **options):
    walked, walk_env = _speculate(source, inputs, "walk", **options)
    generated, env = _speculate(source, inputs, "compiled", **options)
    assert generated.result == walked.result
    assert generated.times == walked.times
    assert generated.stats == walked.stats
    assert generated.run.iteration_costs == walked.run.iteration_costs
    assert env.scalars == walk_env.scalars
    for name, array in walk_env.arrays.items():
        np.testing.assert_array_equal(env.arrays[name], array)
    return generated


@pytest.fixture
def generations(monkeypatch):
    """Every marked-loop generation, in order."""
    calls = []

    def counting(program, loop, **options):
        calls.append(loop)
        return generate_marked_loop(program, loop, **options)

    monkeypatch.setattr(compiled_module, "generate_marked_loop", counting)
    return calls


MARKED = (
    "program p\n  integer i, k, n\n  real a(12), b(12), w(4), s\n  integer idx(12)\n"
    "  do i = 1, n\n"
    "    k = idx(i)\n"
    "    w(1) = a(k) * 0.5\n"
    "    w(2) = w(1) + a(i) * w(1)\n"
    "    if (w(2) > s) then\n      b(k) = w(2) - w(1)\n    else\n      b(k) = s\n    end if\n"
    "    s = s + b(k)\n"
    "  end do\nend\n"
)
MARKED_INPUTS = {
    "n": 12, "a": np.linspace(-1.0, 2.0, 12), "s": 0.5,
    "idx": np.array([3, 1, 12, 5, 2, 8, 4, 11, 7, 6, 10, 9]),
}


class TestGeneratedMarkedLoop:
    """The speculative iteration: one text per loop shape, the CPython
    limits inside a marked body, and one generation per configuration."""

    @staticmethod
    def _marked_source(source: str) -> str:
        program = parse(source)
        plan = build_plan(program)
        return compile_program(program).marked_loop(
            plan.loop, tested=plan.tested_arrays, value_based=True,
            redux_refs=plan.redux_refs, private=plan.tested_arrays,
            partial=plan.reduction_arrays, live_out=plan.live_out_scalars,
        ).source

    def test_loops_differing_only_in_names_generate_identical_marked_source(self):
        renamed = (
            MARKED.replace("idx", "perm").replace("w(", "tmp(").replace("w(4)", "tmp(4)")
            .replace("a(", "src(").replace("b(", "dst(").replace(" s\n", " acc\n")
            .replace("s + ", "acc + ").replace("> s", "> acc").replace("= s\n", "= acc\n")
            .replace("    s = ", "    acc = ").replace("program p", "program other")
        )
        assert "acc" in renamed and "tmp" in renamed
        first = self._marked_source(MARKED)
        assert first == self._marked_source(renamed)
        for name in ("idx", "perm", "tmp", "src", "dst", "acc", "other"):
            assert name not in first

    def test_a_marked_loop_matches_the_walker(self):
        assert_speculation_matches_the_walker(MARKED, MARKED_INPUTS)
        assert_speculation_matches_the_walker(MARKED, MARKED_INPUTS, eager=True)

    def test_a_25_deep_nest_in_a_marked_body_matches_the_walker(self):
        source = _nest(25).replace(
            "  real s\n", "  real s, a(40), b(3)\n"
        ).replace(
            "  s = s + real(i0 + i2)\n",
            "  s = s + a(i2 + 1) * 0.5\n  a(i0 * 10 + i1 + 1) = s\n",
        ).replace("  s = s * 0.5\n", "  b(i0 + 1) = s * 0.5\n")
        assert "\n    def g" in self._marked_source(source)  # the nest is split off
        assert_speculation_matches_the_walker(source, {"a": np.linspace(0.0, 1.0, 40)})

    def test_a_400_term_expression_in_a_marked_body_matches_the_walker(self):
        terms = " + ".join(f"a({k % 5 + 1}) * {k}.5" for k in range(400))
        source = (
            "program p\n  integer i\n  real a(5), b(8), s\n  do i = 1, 8\n"
            f"    s = {terms}\n    b(i) = s\n    a(mod(i, 5) + 1) = s * 0.001\n"
            "  end do\nend\n"
        )
        assert_speculation_matches_the_walker(source, {"a": np.arange(1.0, 6.0)})

    def test_a_strip_mined_run_generates_its_marked_loop_once(self, generations):
        workload = build_track(n=64)
        runner = LoopRunner(workload.program(), workload.inputs)
        report = runner.run(
            Strategy.STRIPPED, RunConfig(model=fx80(), engine="compiled", strip_size=4)
        )
        assert report.stats["strips"] == 16
        assert len(generations) == 1

    def test_thread_backend_shards_share_one_generated_loop(self, generations):
        workload = build_track(n=64)
        runner = LoopRunner(workload.program(), workload.inputs)
        config = RunConfig(
            model=fx80().with_procs(4), engine="parallel", workers=2, backend="threads"
        )
        for _ in range(2):
            assert runner.run(Strategy.SPECULATIVE, config).passed
        assert len(generations) == 1
