"""Property: generated serial code ≡ the tree walker on random programs.

A hypothesis grammar builds programs over every statement form (scalar,
array and real→integer assignment, ``if``/``else``, ``do`` with literal,
strided, negative, zero and computed steps and integer or real loop
variables, ``do while``) and every expression form (literals, scalar and
array reads with integer, computed and float subscripts, every binary
and unary operator, every intrinsic), plus reads and writes of
undeclared names.  The ASTs are built directly, not parsed, so nothing
upstream cleans them.

:mod:`repro.interp.compiled` must agree with the walker on the final
state (array bytes, scalar values and types), on operation counts (whole
program and per iteration of the target loop) and, for programs that
raise — out of bounds, non-integral subscript, zero step, division by
zero, a ``sqrt``/``log`` domain error, a conversion overflow — on the
exception and the state it leaves behind.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl.ast_nodes import (
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Do,
    If,
    Num,
    Program,
    ScalarDecl,
    UnaryOp,
    Var,
    While,
)
from repro.dsl.parser import parse
from repro.errors import InterpError
from repro.interp.compiled import compile_program
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, find_target_loop, split_at_loop
from repro.runtime.serial import loop_iteration_values

DECLS = [
    ScalarDecl("i", "integer"), ScalarDecl("j", "integer"),
    ScalarDecl("k", "integer"), ScalarDecl("m", "integer"),
    ScalarDecl("w1", "integer"), ScalarDecl("w2", "integer"),
    ScalarDecl("x", "real"), ScalarDecl("y", "real"), ScalarDecl("r", "real"),
    ArrayDecl("ia", "integer", 6), ArrayDecl("ra", "real", 6),
    ArrayDecl("rb", "real", 4),
]
INPUTS = {
    "k": 3, "m": -2, "x": 1.5, "y": -0.75,
    "ia": np.array([1, 4, 2, 6, 3, 5]),
    "ra": np.linspace(-1.0, 2.0, 6),
    "rb": np.array([0.5, 4.0, -2.0, 9.0]),
}

#: ``zz`` and ``qq`` are declared nowhere; ``ra`` is an array, not a
#: scalar.  Scalar targets never include the while counters.
READ_NAMES = ["i", "j", "k", "m", "x", "y", "r", "w1"]
TARGETS = ["k", "m", "j", "x", "y", "r", "i"]
UNDECLARED_SCALARS = ["zz", "ra"]
ARRAYS = ["ia", "ra", "rb"]
INTEGER_NAMES = {"i", "j", "k", "m", "ia"}
BINOPS = ["+", "-", "*", "/", "==", "/=", "<", "<=", ">", ">=", "and", "or"]
UNARY_INTRINSICS = ["abs", "sqrt", "exp", "log", "sin", "cos", "floor", "int", "real"]


def num(value) -> Num:
    return Num(float(value), is_int=isinstance(value, int))


def clamp(expr, low: int, high: int) -> Call:
    """``min(max(expr, low), high)``: keeps integer state small."""
    return Call("min", [Call("max", [expr, num(low)]), num(high)])


def rarely(common, rare, odds: int = 50):
    """``rare`` about once in ``odds`` draws, else ``common`` (a middle
    roll: hypothesis favours the ends of a range)."""
    return st.integers(0, odds - 1).flatmap(
        lambda roll: rare if roll == odds // 2 else common
    )


real_literals = st.sampled_from([0.0, 0.5, 1.5, 2.0, 2.5, 3.25]).map(num)
int_literals = st.integers(0, 9).map(num)
reads = rarely(st.sampled_from(READ_NAMES), st.sampled_from(UNDECLARED_SCALARS)).map(Var)


def wrapped(expr, size: int) -> BinOp:
    """``mod(abs(expr), size) + 1``: in bounds when ``expr`` is integral."""
    return BinOp("+", Call("mod", [Call("abs", [expr]), num(size)]), num(1))


@functools.lru_cache(maxsize=None)
def subscripts(depth: int):
    safe = st.one_of(
        st.sampled_from(["i", "j", "k", "m"]).map(lambda name: wrapped(Var(name), 4)),
        st.integers(1, 4).map(num),
        st.just(num(2.0)),
    )
    risky = [
        st.sampled_from(["i", "j", "k"]).map(Var),
        st.sampled_from([0, 7]).map(num),
        st.just(num(2.5)),
    ]
    if depth > 0:
        risky.append(exprs(depth - 1).map(lambda e: wrapped(e, 6)))
    return rarely(safe, st.one_of(risky))


@functools.lru_cache(maxsize=None)
def array_refs(depth: int):
    names = rarely(st.sampled_from(ARRAYS), st.just("qq"))
    return st.builds(ArrayRef, name=names, index=subscripts(depth))


@functools.lru_cache(maxsize=None)
def exprs(depth: int):
    leaves = st.one_of(int_literals, real_literals, reads, array_refs(0))
    if depth == 0:
        return leaves
    sub = exprs(depth - 1)
    calls = st.one_of(
        st.builds(lambda f, a: Call(f, [a]), st.sampled_from(UNARY_INTRINSICS), sub),
        st.builds(lambda f, a, b: Call(f, [a, b]),
                  st.sampled_from(["sign", "mod", "min", "max"]), sub, sub),
        st.builds(lambda f, args: Call(f, args),
                  st.sampled_from(["min", "max"]), st.lists(sub, min_size=3, max_size=3)),
    )
    return st.one_of(
        leaves,
        st.builds(BinOp, op=st.sampled_from(BINOPS), left=sub, right=sub),
        st.builds(lambda base, e: BinOp("**", base, num(e)), sub, st.integers(0, 3)),
        st.builds(UnaryOp, op=st.sampled_from(["-", "not"]), operand=sub),
        calls,
        array_refs(depth),
    )


def _assign_scalar(name, expr):
    if name in INTEGER_NAMES:
        expr = clamp(expr, -50, 50)
    return [Assign(Var(name), expr)]


def _assign_array(ref, expr):
    if ref.name in INTEGER_NAMES:
        expr = clamp(expr, -50, 50)
    return [Assign(ref, expr)]


bounds = st.one_of(
    st.integers(-2, 4).map(num),
    exprs(1).map(lambda e: clamp(e, -3, 5)),
)
steps = rarely(
    st.one_of(
        st.none(),
        st.sampled_from([1, 2]).map(num),
        st.sampled_from([1, 2]).map(lambda v: UnaryOp("-", num(v))),
        st.just(num(2.0)),
    ),
    st.sampled_from([num(0), Call("mod", [Var("k"), num(3)])]),
    odds=20,
)


@functools.lru_cache(maxsize=None)
def statements(depth: int):
    """Strategies for a list of statements nested ``depth`` deep."""
    simple = st.one_of(
        st.builds(
            _assign_scalar,
            rarely(st.sampled_from(TARGETS), st.sampled_from(UNDECLARED_SCALARS)),
            exprs(2),
        ),
        st.builds(_assign_array, array_refs(1), exprs(2)),
    )
    if depth == 0:
        return st.lists(simple, max_size=3).map(_flatten)
    body = statements(depth - 1)
    counter = f"w{depth}"
    compound = st.one_of(
        st.builds(lambda c, t, e: [If(c, t, e)], exprs(2), body, body),
        st.builds(
            lambda v, a, b, s, body: [Do(v, a, b, s, body)],
            rarely(st.sampled_from(["j", "r", "i"]), st.just("zz")),
            bounds, bounds, steps, body,
        ),
        st.builds(
            lambda limit, cond, body: [
                Assign(Var(counter), num(0)),
                While(
                    BinOp("and", BinOp("<", Var(counter), num(limit)), cond),
                    body + [Assign(Var(counter), BinOp("+", Var(counter), num(1)))],
                ),
            ],
            st.integers(0, 4), exprs(2), body,
        ),
    )
    return st.lists(st.one_of(simple, simple, compound), max_size=3).map(_flatten)


def _flatten(groups):
    return [stmt for group in groups for stmt in group]


programs = st.builds(
    lambda before, start, stop, step, body, after: Program(
        "randgen", list(DECLS), before + [Do("i", start, stop, step, body)] + after
    ),
    statements(0),
    st.one_of(st.just(num(1)), bounds),
    st.one_of(st.integers(2, 6).map(num), bounds),
    steps,
    statements(2),
    statements(0),
)


def _outcome(action):
    try:
        action()
    except Exception as exc:  # noqa: BLE001 - the exception is the observable
        return type(exc), str(exc)
    return None


def _assert_same_state(walked: Environment, generated: Environment) -> None:
    assert walked.scalars.keys() == generated.scalars.keys()
    for name, want in walked.scalars.items():
        got = generated.scalars[name]
        assert type(got) is type(want), name
        assert got == want or (math.isnan(want) and math.isnan(got)), name
    for name, want in walked.arrays.items():
        assert generated.arrays[name].tobytes() == want.tobytes(), name


@settings(max_examples=200, deadline=None)
@given(program=programs)
def test_generated_program_matches_the_walker(program):
    _assert_runs_alike(program, INPUTS)


def _assert_runs_alike(program: Program, inputs: dict):
    """Run the whole program both ways; return the shared outcome."""
    walked = Environment(program, inputs)
    walker = Interpreter(program, walked, value_based=False)
    generated = Environment(program, inputs)
    compiled = compile_program(program)
    cost = CostCounter()

    outcome = _outcome(walker.run)
    assert _outcome(lambda: compiled.run(generated, cost)) == outcome
    _assert_same_state(walked, generated)
    if outcome is None:
        assert cost.total() == walker.cost.total()
    return outcome


#: failures whose order the random grammar reaches only rarely.
FAILING = {
    # The walker bounds-checks a store only as it stores, after the value.
    "store-checks-after-its-value": (
        "program p\n  real a(3), x\n  x = 2.0\n  a(0) = sqrt(x - 5.0)\nend\n",
        "sqrt of a negative value",
    ),
    "out-of-bounds-mid-loop": (
        "program p\n  integer i\n  real a(3), s\n"
        "  do i = 1, 5\n    s = s + 1.0\n    a(i) = s\n  end do\nend\n",
        "index 4 out of bounds for a(3)",
    ),
    "zero-step-after-its-bounds": (
        "program p\n  integer i, k\n  real a(3)\n"
        "  do i = a(4), 3, k\n    k = k\n  end do\nend\n",
        "index 4 out of bounds for a(3)",
    ),
    "integer-division-in-an-inner-loop": (
        "program p\n  integer i, j, k\n  real s\n"
        "  do i = 1, 3\n    do j = 2, 0, -1\n      s = s + 1.0\n"
        "      k = i / j\n    end do\n  end do\nend\n",
        "integer division by zero",
    ),
    "non-integral-subscript": (
        "program p\n  real a(3), x\n  x = 1.5\n  a(1) = a(x + 0.25)\nend\n",
        "non-integral array subscript 1.75",
    ),
    "log-domain": (
        "program p\n  real x, y\n  y = 3.0\n  x = log(x) + y\nend\n",
        "log of a non-positive value",
    ),
}


@pytest.mark.parametrize("case", list(FAILING))
def test_generated_code_fails_where_the_walker_fails(case):
    source, message = FAILING[case]
    assert _assert_runs_alike(parse(source), {}) == (InterpError, message)


@settings(max_examples=200, deadline=None)
@given(program=programs)
def test_generated_loop_iterations_match_the_walker(program):
    """``run_loop`` from the loop's entry state: the same iteration
    costs, totals, state and failure as walker iterations."""
    loop = find_target_loop(program)
    before, _ = split_at_loop(program, loop)
    env = Environment(program, INPUTS)
    entry = Interpreter(program, env, value_based=False)
    if _outcome(lambda: entry.exec_block(before)) is not None:
        return
    try:
        values = loop_iteration_values(*entry.eval_loop_bounds(loop))
    except Exception:  # noqa: BLE001 - a failing bound is not this test's
        return

    walked = env.copy()
    walk_cost = CostCounter()
    walker = Interpreter(program, walked, value_based=False, cost=walk_cost)

    def walk():
        for value in values:
            walker.exec_iteration(loop, value)

    generated = env.copy()
    cost = CostCounter()
    outcome = _outcome(walk)
    assert _outcome(
        lambda: compile_program(program).run_loop(loop, generated, cost, values)
    ) == outcome
    _assert_same_state(walked, generated)
    if outcome is None:
        assert cost.iteration_costs == walk_cost.iteration_costs
        assert cost.total() == walk_cost.total()

