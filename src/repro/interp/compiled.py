"""A closure-compiling execution engine for serial runs.

The tree-walking interpreter (:mod:`repro.interp.interpreter`) pays
dynamic dispatch on every AST node.  For the *serial* executions the
runtime performs constantly — the serial reference run, the loop's entry
and exit blocks, and the rollback and DOACROSS-recovery re-runs after a
failed speculation — this module compiles a program once into nested
Python closures: each expression becomes a function ``rt -> value``,
each statement a function ``rt -> None``, composed bottom-up.

Semantics and *operation counting* are bit-identical to the tree walker
(including short-circuit ``and``/``or`` counting only the evaluated
side), which the equivalence property tests enforce.  The engine is
serial-only: no memory routing, no observers, no taint tracking.  Its
stores write ``env.arrays`` directly (see
:meth:`~repro.interp.env.Environment.bump_version`).
"""

from __future__ import annotations

from typing import Callable

from repro.dsl.ast_nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    Do,
    Expr,
    If,
    Num,
    Program,
    Stmt,
    UnaryOp,
    Var,
    While,
)
from repro.errors import InterpError
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import (
    MAX_WHILE_ITERATIONS,
    _apply_binop,
    _apply_intrinsic,
)


class _Runtime:
    """Execution state handed through the compiled closures."""

    __slots__ = ("scalars", "arrays", "kinds", "sizes", "cost")

    def __init__(self, env: Environment, cost: CostCounter):
        self.scalars = env.scalars
        self.arrays = env.arrays
        self.kinds = env.kinds
        self.sizes = {name: arr.size for name, arr in env.arrays.items()}
        self.cost = cost


ExprFn = Callable[[_Runtime], float | int]
StmtFn = Callable[[_Runtime], None]


class CompiledProgram:
    """A program compiled to closures; reusable across environments."""

    def __init__(self, program: Program):
        self.program = program
        self._stmt_fns: dict[int, StmtFn] = {
            id(stmt): _compile_stmt(stmt) for stmt in program.body
        }
        self._loops: dict[int, tuple[StmtFn, ExprFn, ExprFn, ExprFn | None, str]] = {}
        for stmt in program.body:
            if isinstance(stmt, Do):
                self._loops[id(stmt)] = (
                    _compile_block(stmt.body) if stmt.body else _noop,
                    _compile_expr(stmt.start),
                    _compile_expr(stmt.stop),
                    _compile_expr(stmt.step) if stmt.step is not None else None,
                    stmt.var,
                )

    def run(self, env: Environment, cost: CostCounter | None = None) -> CostCounter:
        """Execute the whole program against ``env``."""
        cost = cost if cost is not None else CostCounter()
        rt = _Runtime(env, cost)
        for stmt in self.program.body:
            self._stmt_fns[id(stmt)](rt)
        return cost

    def run_statements(
        self, stmts: list[Stmt], env: Environment, cost: CostCounter
    ) -> None:
        """Execute a subset of the program's top-level statements."""
        rt = _Runtime(env, cost)
        for stmt in stmts:
            fn = self._stmt_fns.get(id(stmt))
            if fn is None:
                raise InterpError("statement was not compiled with this program")
            fn(rt)

    def run_loop(
        self,
        loop: Do,
        env: Environment,
        cost: CostCounter,
        values: list[int],
    ) -> None:
        """Execute the target loop iteration-by-iteration (cost-bracketed).

        Matches :meth:`Interpreter.exec_iteration` driving: one
        IterationCost per value, loop variable left one step past the
        bound by the caller.
        """
        entry = self._loops.get(id(loop))
        if entry is None:
            raise InterpError("loop was not compiled as part of this program")
        body, _start, _stop, _step, var = entry
        kind = env.kinds.get(var)
        if kind is None:
            raise InterpError(f"undeclared scalar {var!r}")
        as_kind = int if kind == "integer" else float
        scalars = env.scalars
        rt = _Runtime(env, cost)
        for value in values:
            scalars[var] = as_kind(value)
            cost.start_iteration()
            body(rt)
            cost.end_iteration()


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` once; run it many times."""
    return CompiledProgram(program)


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------


def _compile_block(body: list[Stmt]) -> StmtFn:
    fns = [_compile_stmt(stmt) for stmt in body]
    if len(fns) == 1:
        return fns[0]

    def run_block(rt: _Runtime) -> None:
        for fn in fns:
            fn(rt)

    return run_block


def _compile_stmt(stmt: Stmt) -> StmtFn:
    if isinstance(stmt, Assign):
        return _compile_assign(stmt)
    if isinstance(stmt, If):
        cond = _compile_expr(stmt.cond)
        then_body = _compile_block(stmt.then_body) if stmt.then_body else _noop
        else_body = _compile_block(stmt.else_body) if stmt.else_body else _noop

        def run_if(rt: _Runtime) -> None:
            rt.cost.branches += 1
            if cond(rt) != 0:
                then_body(rt)
            else:
                else_body(rt)

        return run_if
    if isinstance(stmt, Do):
        return _compile_do(stmt)
    if isinstance(stmt, While):
        return _compile_while(stmt)
    raise InterpError(f"cannot compile {type(stmt).__name__}")


def _noop(rt: _Runtime) -> None:
    return None


def _compile_assign(stmt: Assign) -> StmtFn:
    value_fn = _compile_expr(stmt.expr)
    target = stmt.target
    if isinstance(target, Var):
        name = target.name

        def run_scalar_assign(rt: _Runtime) -> None:
            value = value_fn(rt)
            rt.cost.scalar_ops += 1
            kind = rt.kinds.get(name)
            if kind is None:
                raise InterpError(f"undeclared scalar {name!r}")
            rt.scalars[name] = int(value) if kind == "integer" else float(value)

        return run_scalar_assign

    assert isinstance(target, ArrayRef)
    index_fn = _compile_index(target.index)
    array = target.name

    def run_array_assign(rt: _Runtime) -> None:
        offset = index_fn(rt, array)
        value = value_fn(rt)
        rt.cost.mem_writes += 1
        rt.arrays[array][offset] = value

    return run_array_assign


def _compile_do(stmt: Do) -> StmtFn:
    start_fn = _compile_expr(stmt.start)
    stop_fn = _compile_expr(stmt.stop)
    step_fn = _compile_expr(stmt.step) if stmt.step is not None else None
    body = _compile_block(stmt.body) if stmt.body else _noop
    var = stmt.var

    def run_do(rt: _Runtime) -> None:
        start = int(start_fn(rt))
        stop = int(stop_fn(rt))
        step = int(step_fn(rt)) if step_fn is not None else 1
        if step == 0:
            raise InterpError("do loop with zero step")
        kind = rt.kinds.get(var)
        if kind is None:
            raise InterpError(f"undeclared scalar {var!r}")
        as_kind = int if kind == "integer" else float
        scalars = rt.scalars
        value = start
        cost = rt.cost
        while (step > 0 and value <= stop) or (step < 0 and value >= stop):
            scalars[var] = as_kind(value)
            cost.scalar_ops += 1
            body(rt)
            value += step
        scalars[var] = as_kind(value)

    return run_do


def _compile_while(stmt: While) -> StmtFn:
    cond = _compile_expr(stmt.cond)
    body = _compile_block(stmt.body) if stmt.body else _noop

    def run_while(rt: _Runtime) -> None:
        count = 0
        while True:
            rt.cost.branches += 1
            if cond(rt) == 0:
                return
            body(rt)
            count += 1
            if count > MAX_WHILE_ITERATIONS:
                raise InterpError("do while exceeded the iteration safety limit")

    return run_while


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

_FAST_BINOPS: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "==": lambda a, b: 1 if a == b else 0,
    "/=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


def _compile_expr(expr: Expr) -> ExprFn:
    if isinstance(expr, Num):
        value = int(expr.value) if expr.is_int else expr.value
        return lambda rt: value
    if isinstance(expr, Var):
        name = expr.name

        def read_scalar(rt: _Runtime):
            rt.cost.scalar_ops += 1
            try:
                return rt.scalars[name]
            except KeyError:
                raise InterpError(f"undeclared scalar {name!r}") from None

        return read_scalar
    if isinstance(expr, ArrayRef):
        index_fn = _compile_index(expr.index)
        array = expr.name

        def read_array(rt: _Runtime):
            offset = index_fn(rt, array)
            rt.cost.mem_reads += 1
            value = rt.arrays[array][offset]
            return int(value) if rt.kinds[array] == "integer" else float(value)

        return read_array
    if isinstance(expr, BinOp):
        return _compile_binop(expr)
    if isinstance(expr, UnaryOp):
        operand = _compile_expr(expr.operand)
        if expr.op == "-":
            def negate(rt: _Runtime):
                rt.cost.flops += 1
                return -operand(rt)

            return negate

        def logical_not(rt: _Runtime):
            rt.cost.flops += 1
            return 1 if operand(rt) == 0 else 0

        return logical_not
    if isinstance(expr, Call):
        func = expr.func
        arg_fns = [_compile_expr(a) for a in expr.args]

        def call(rt: _Runtime):
            rt.cost.intrinsics += 1
            return _apply_intrinsic(func, [fn(rt) for fn in arg_fns])

        return call
    raise InterpError(f"cannot compile {type(expr).__name__}")


def _compile_binop(expr: BinOp) -> ExprFn:
    op = expr.op
    if op == "and":
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)

        def short_and(rt: _Runtime):
            rt.cost.flops += 1
            if left(rt) == 0:
                return 0
            return 1 if right(rt) != 0 else 0

        return short_and
    if op == "or":
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)

        def short_or(rt: _Runtime):
            rt.cost.flops += 1
            if left(rt) != 0:
                return 1
            return 1 if right(rt) != 0 else 0

        return short_or

    left = _compile_expr(expr.left)
    right = _compile_expr(expr.right)
    fast = _FAST_BINOPS.get(op)
    if fast is not None:
        def run_fast(rt: _Runtime):
            rt.cost.flops += 1
            return fast(left(rt), right(rt))

        return run_fast

    def run_general(rt: _Runtime):  # '/' and '**' share the walker's rules
        rt.cost.flops += 1
        return _apply_binop(op, left(rt), right(rt))

    return run_general


def _compile_index(expr: Expr) -> Callable[[_Runtime, str], int]:
    """Compile a subscript: returns the bounds-checked 0-based offset."""
    index_fn = _compile_expr(expr)

    def compute(rt: _Runtime, array: str) -> int:
        value = index_fn(rt)
        if isinstance(value, float):
            if not value.is_integer():
                raise InterpError(f"non-integral array subscript {value!r}")
            value = int(value)
        size = rt.sizes.get(array)
        if size is None:
            raise InterpError(f"undeclared array {array!r}")
        if not 1 <= value <= size:
            raise InterpError(f"index {value} out of bounds for {array}({size})")
        return value - 1

    return compute
