"""Property: the generated marked iteration ≡ the walker's ``exec_iteration``.

Random programs from the grammar of ``test_generated_serial.py`` (every
statement and expression form, integer and real loop variables,
strided, negative and computed steps, ``do while``) get reduction
statements (array ``+``/``*``/``min``/``max`` updates and a scalar sum)
and scalars computed from array loads spliced into the target loop, and
are planned by ``build_plan``.
Drawn at random: the privatized arrays (also the marked ones, unless the
doall runs unmarked), which reduction arrays go to partials,
``value_based``, eager detection, and p ∈ {1, 3}.

Both sides run the same iterations in the emulated engine's round-robin
order over identical private copies, partials and per-processor scalars:
the walker through the access router and a recording marker, the
generated code through :meth:`CompiledProgram.marked_loop`.  Every
completed iteration must give the same marks (array, kind, element and
operator, in order), cost, private rows and stamps, partial map and
processor scalars.  An iteration that raises must raise the same error —
under eager detection the same ``(array, element)`` — and, unless eager
detection aborted it, leave the same state.

As in the serial grammar, values stored to integer arrays are clamped,
so no conversion overflows a 64-bit element.
"""

from __future__ import annotations

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st
from test_generated_serial import ARRAYS, INPUTS, clamp, exprs, num, programs, subscripts

from repro.analysis.instrument import build_plan
from repro.core.privatize import PrivateCopies
from repro.core.reduction_exec import REDUCTION_IDENTITY, ReductionPartials
from repro.core.shadow import KIND_READ, KIND_REDUX, KIND_WRITE, OP_NAMES, ShadowMarker
from repro.dsl.ast_nodes import ArrayRef, Assign, BinOp, Call, Var
from repro.errors import SpeculationFailed
from repro.interp.compiled import compile_program
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.events import NullObserver
from repro.interp.interpreter import Interpreter, find_target_loop, split_at_loop
from repro.machine.schedule import assign_iterations
from repro.runtime.access_router import AccessRouter
from repro.runtime.serial import loop_iteration_values


class Recorder(ShadowMarker):
    """A shadow marker that keeps the marks of the current iteration."""

    def __init__(self, sizes: dict[str, int], eager: bool):
        super().__init__(sizes, eager=eager)
        self.marks: list[tuple] = []

    def on_read(self, array, index):
        super().on_read(array, index)
        self.marks.append((array, KIND_READ, index, None))

    def on_write(self, array, index):
        super().on_write(array, index)
        self.marks.append((array, KIND_WRITE, index, None))

    def on_redux(self, array, index, op):
        super().on_redux(array, index, op)
        self.marks.append((array, KIND_REDUX, index, op))

    def flush_batch(self, buffers):
        total = super().flush_batch(buffers)
        stream = sorted(
            (pos, name, kind, index, opcode)
            for name, buf in buffers.items()
            for pos, kind, index, opcode in buf
        )
        self.marks.extend(
            (name, kind, index + 1, OP_NAMES.get(opcode) if kind == KIND_REDUX else None)
            for _pos, name, kind, index, opcode in stream
        )
        return total


@st.composite
def splices(draw, program):
    """Splice reduction statements, and scalars carrying array values
    (taints, once the array is marked), into the target loop's body;
    maybe read two of those scalars after the loop (live-out taints)."""
    loop = find_target_loop(program)
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.integers(0, 3))
        array = draw(st.sampled_from(ARRAYS))
        sub = draw(subscripts(1))
        operand = draw(exprs(1))
        if shape == 0:
            stmt = Assign(Var("r"), BinOp("+", Var("r"), operand))
        elif shape == 1:
            name = draw(st.sampled_from(["x", "y", "k"]))
            value = BinOp(draw(st.sampled_from(["+", "*", "<"])), ArrayRef(array, sub), operand)
            stmt = Assign(Var(name), clamp(value, -50, 50) if name == "k" else value)
        else:
            ops = ["+", "min", "max"] if array == "ia" else ["+", "*", "min", "max"]
            op = draw(st.sampled_from(ops))
            if array == "ia":
                operand = clamp(operand, -50, 50)
            read = ArrayRef(array, copy.deepcopy(sub))
            update = (
                BinOp(op, read, operand) if op in ("+", "*") else Call(op, [read, operand])
            )
            stmt = Assign(ArrayRef(array, sub), update)
        loop.body.insert(draw(st.integers(0, len(loop.body))), stmt)
    if draw(st.booleans()):
        program.body.append(Assign(Var("w2"), clamp(BinOp("+", Var("x"), Var("k")), -50, 50)))
    return program


@st.composite
def configurations(draw):
    program = draw(programs.flatmap(splices))
    if draw(st.booleans()):
        # The grammar's bounds run few iterations; give half the loops more.
        loop = find_target_loop(program)
        loop.start, loop.stop, loop.step = num(1), num(draw(st.integers(3, 8))), None
    plan = build_plan(program)
    private = frozenset(draw(st.sets(st.sampled_from(ARRAYS), min_size=1)))
    marking = draw(st.integers(0, 3)) > 0
    reducible = sorted(plan.reduction_arrays & private)
    return {
        "program": program,
        "plan": plan,
        "private": private,
        "partial": frozenset(draw(st.sets(st.sampled_from(reducible))) if reducible else ()),
        "tested": private if marking else frozenset(),
        "value_based": draw(st.integers(0, 3)) > 0,
        "eager": marking and draw(st.booleans()),
        "procs": draw(st.sampled_from([1, 3])),
    }


def _entry_state(program, loop):
    """The loop-entry environment and iteration values (None: the
    entry block or the bounds fail, which is not this test's)."""
    before, _ = split_at_loop(program, loop)
    declared = {decl.name for decl in program.decls}
    env = Environment(program, {k: v for k, v in INPUTS.items() if k in declared})
    walker = Interpreter(program, env, value_based=False)
    try:
        walker.exec_block(before)
        return env, loop_iteration_values(*walker.eval_loop_bounds(loop))
    except Exception:  # noqa: BLE001
        return None, None


def _run(config, env, values, generated: bool):
    """Run the doall's iterations; return the outcome, one record per
    completed iteration, and the final state."""
    program, plan = config["program"], config["plan"]
    loop, procs, tested = plan.loop, config["procs"], config["tested"]
    env = env.copy()
    privates = {
        name: PrivateCopies(name, env.arrays[name], procs)
        for name in sorted(config["private"])
    }
    partials = {name: ReductionPartials(name, procs) for name in sorted(config["partial"])}
    proc_envs = []
    for _ in range(procs):
        proc_env = env.fork_scalars()
        for name, op in plan.scalar_reductions.items():
            proc_env.scalars[name] = REDUCTION_IDENTITY[op]
        proc_envs.append(proc_env)
    marker = (
        Recorder({name: env.array_size(name) for name in tested}, config["eager"])
        if tested else None
    )
    counters = [CostCounter() for _ in range(procs)]
    if generated:
        iteration = compile_program(program).marked_loop(
            loop, tested=tested, value_based=config["value_based"],
            redux_refs=plan.redux_refs, private=privates, partial=partials,
            live_out=plan.live_out_scalars,
        ).bind(env.arrays, privates, partials, marker, plan.live_out_scalars)

        def execute(proc, position):
            return iteration(proc_envs[proc].scalars, proc, position, values[position])
    else:
        router = AccessRouter(env, privates, partials, plan.redux_refs)
        walkers = [
            Interpreter(
                program, proc_env, memory=router,
                observer=marker if marker is not None else NullObserver(),
                tested=tested, value_based=config["value_based"],
                cost=counters[proc], redux_refs=plan.redux_refs,
            )
            for proc, proc_env in enumerate(proc_envs)
        ]

        def execute(proc, position):
            router.set_context(proc, position)
            walkers[proc].exec_iteration(
                loop, values[position], flush_live_out=plan.live_out_scalars
            )
            return counters[proc].iteration_costs[-1]

    assignment = assign_iterations(len(values), procs)
    order = [
        (proc, positions[step])
        for step in range(max(map(len, assignment), default=0))
        for proc, positions in enumerate(assignment)
        if step < len(positions)
    ]
    records, outcome = [], None
    for proc, position in order:
        if marker is not None:
            marker.set_granule(position)
            marker.cost = counters[proc]
            marker.marks = []
        try:
            cost = execute(proc, position)
        except Exception as exc:  # noqa: BLE001 - the exception is the observable
            outcome = (type(exc), str(exc))
            break
        records.append((
            position, cost, marker.marks if marker is not None else [],
            {n: (c.data[proc].tobytes(), c.wstamp[proc].tobytes()) for n, c in privates.items()},
            {n: dict(p.proc_maps()[proc]) for n, p in partials.items()},
            _scalars(proc_envs[proc].scalars),
        ))
    state = (
        {n: a.tobytes() for n, a in env.arrays.items()},
        [_scalars(proc_env.scalars) for proc_env in proc_envs],
        {n: (c.data.tobytes(), c.wstamp.tobytes()) for n, c in privates.items()},
        [{n: p.proc_maps()[proc] for n, p in partials.items()} for proc in range(procs)],
        {n: (s.w.tobytes(), s.r.tobytes(), s.tw) for n, s in (marker.shadows.items() if marker else [])},
    )
    return outcome, records, state


def _scalars(scalars):
    """Scalars comparably: type and value, NaN equal to NaN."""
    return {
        name: (type(value), "nan" if isinstance(value, float) and math.isnan(value) else value)
        for name, value in scalars.items()
    }


@settings(max_examples=300, deadline=None)
@given(config=configurations())
def test_generated_iterations_match_the_walker(config):
    env, values = _entry_state(config["program"], config["plan"].loop)
    if env is None:
        return
    walked = _run(config, env, values, generated=False)
    generated = _run(config, env, values, generated=True)
    assert generated[0] == walked[0]
    assert generated[1] == walked[1]
    if walked[0] is None or walked[0][0] is not SpeculationFailed:
        assert generated[2] == walked[2]
    else:
        # Eager detection stopped the walker mid-iteration; the marks it
        # made before the conflict are the shadows' state either way.
        assert generated[2][4] == walked[2][4]


def test_an_eager_conflict_before_an_error_aborts_on_the_conflict():
    """The walker marks as it goes, so a conflicting read raises before
    a later out-of-bounds store in the same iteration can."""
    from repro.dsl.parser import parse

    program = parse(
        "program p\n  integer i\n  real a(4), b(1)\n"
        "  do i = 1, 3\n    a(i + 1) = 1.0\n    b(1) = a(i)\n"
        "    b(i) = 2.0\n  end do\nend\n"
    )
    plan = build_plan(program)
    config = {
        "program": program, "plan": plan, "private": frozenset({"a", "b"}),
        "partial": frozenset(), "tested": frozenset({"a", "b"}),
        "value_based": True, "eager": True, "procs": 1,
    }
    env, values = _entry_state(program, plan.loop)
    walked = _run(config, env, values, generated=False)
    generated = _run(config, env, values, generated=True)
    assert walked[0] == (SpeculationFailed, "definite cross-iteration flow on a(2)")
    assert generated[0] == walked[0]
    assert generated[1] == walked[1]


def test_pending_reads_are_reported_in_the_walkers_set_order():
    """A value's pending reads form a frozenset; where its elements
    collide in the hash table, the walker's sequence of unions decides
    their order.  Thirty five-element sets over three arrays make some
    collide under any hash seed."""
    from repro.dsl.parser import parse

    program = parse(
        "program p\n  integer i\n  real a(210), b(30), c(91), d(150), x\n"
        "  do i = 1, 30\n    x = d(5 * i) * a(7 * i)\n"
        "    b(i) = a(i) * c(3 * i) + x - c(i + 1)\n  end do\nend\n"
    )
    plan = build_plan(program)
    config = {
        "program": program, "plan": plan, "private": frozenset({"a", "b", "c", "d"}),
        "partial": frozenset(), "tested": frozenset({"a", "b", "c", "d"}),
        "value_based": True, "eager": False, "procs": 1,
    }
    env, values = _entry_state(program, plan.loop)
    walked = _run(config, env, values, generated=False)
    generated = _run(config, env, values, generated=True)
    assert walked[0] is None and len(walked[1]) == 30
    assert generated[1] == walked[1]
