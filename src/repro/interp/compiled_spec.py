"""Closure-compiled speculative execution engine.

:mod:`repro.interp.compiled` gives serial runs a fast path but the
speculative doall — the very path the LRPD test's overhead claims are
about — stayed on the tree walker.  This module compiles the *target
loop body* into closures that carry the full speculative machinery:

* array accesses go through the :class:`~repro.interp.memory.MemoryModel`
  (the :class:`~repro.runtime.access_router.AccessRouter` in a doall), so
  privatization, reduction partials and ``redux_refs`` dispatch behave
  exactly as under the walker;
* tested-array accesses are recorded for shadow marking — but instead of
  one observer call per access, each iteration's accesses are buffered as
  ``(position, kind, index0, opcode)`` tuples and flushed once per
  iteration through :meth:`repro.core.shadow.ShadowMarker.flush_batch`;
* value-based (LPD) taint semantics are reproduced bit-for-bit: loads of
  tested arrays produce :class:`~repro.interp.interpreter.Tainted`
  values whose pending reads are reported only where the walker would
  report them (stores, subscripts, branch conditions, loop bounds,
  live-out flushes).  A static *taintable-scalars* fixpoint lets every
  expression that provably never sees a tainted value compile to the
  plain fast closure;
* per-iteration cost bracketing matches the walker's
  :meth:`~repro.interp.interpreter.Interpreter.exec_iteration` exactly,
  including the discarded bracket of an eagerly aborted iteration.

Simulated costs, shadow state and LRPD outcomes are bit-identical to the
tree walker (property-tested).  The one *latency* difference: eager
failure detection fires at iteration granularity (at flush time) instead
of per access — the aborted attempt, its shadow state and the raised
element are still identical, because a failing flush falls back to a
scalar replay of the buffered stream.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from repro.core.privatize import PrivateCopies
from repro.core.reduction_exec import REDUCTION_IDENTITY, ReductionPartials
from repro.core.shadow import KIND_READ, KIND_REDUX, KIND_WRITE, OP_CODES, ShadowMarker
from repro.dsl.ast_nodes import (
    ArrayDecl,
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
    walk_statements,
)
from repro.errors import InterpError
from repro.interp.costs import CostCounter
from repro.interp.env import Environment
from repro.interp.interpreter import (
    MAX_WHILE_ITERATIONS,
    Tainted,
    _apply_binop,
    _apply_intrinsic,
)
from repro.interp.memory import MemoryModel

#: the operators that need no walker semantics beyond Python's own.
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


class _SpecRuntime:
    """Per-processor execution state threaded through the closures."""

    __slots__ = ("scalars", "memory", "cost", "taints", "buffers", "pos", "proc", "iteration")

    def __init__(
        self,
        env: Environment,
        memory: MemoryModel,
        cost: CostCounter,
        tested: Iterable[str],
        proc: int = 0,
    ):
        self.scalars = env.scalars
        self.memory = memory
        self.cost = cost
        #: the virtual processor this runtime belongs to (fixed), and the
        #: current iteration position (the private write stamp).
        self.proc = proc
        self.iteration = 0
        #: pending taints held by scalar variables (value-based mode).
        self.taints: dict[str, frozenset[tuple[str, int]]] = {}
        #: per tested array: buffered (position, kind, index0, opcode).
        self.buffers: dict[str, list[tuple[int, int, int, int]]] = {
            name: [] for name in sorted(tested)
        }
        #: next global stream position (strictly increasing across arrays).
        self.pos = 0


ExprFn = Callable[[_SpecRuntime], object]
StmtFn = Callable[[_SpecRuntime], None]


def _noop(rt: _SpecRuntime) -> None:
    return None


class CompiledSpecLoop:
    """One target loop compiled for marked/routed doall execution."""

    def __init__(
        self,
        program: Program,
        loop: Do,
        *,
        tested: Iterable[str] = (),
        value_based: bool = True,
        redux_refs: Mapping[int, str] | None = None,
        privates: Mapping[str, PrivateCopies] | None = None,
        partials: Mapping[str, ReductionPartials] | None = None,
        shared_env: Environment | None = None,
    ):
        """``privates``/``partials``/``shared_env`` optionally fix each
        reference site's memory route at compile time — they must be the
        very structures the doall's :class:`AccessRouter` dispatches over.
        Routed sites then bind those structures directly (private rows,
        partial maps, shared ndarrays) with inline bounds checks, skipping
        the router's per-access dispatch entirely.  Omit them to stay on
        the generic :class:`~repro.interp.memory.MemoryModel` surface of
        the runtime's ``memory``.
        """
        compiler = _SpecCompiler(
            program, tested, value_based, redux_refs,
            privates=privates, partials=partials, shared_env=shared_env,
        )
        compiler.taintable = compiler.compute_taintable(loop.body)
        self.loop = loop
        self.var = loop.var
        self.tested = compiler.tested
        #: scalars that may carry pending reads (diagnostic/testing aid).
        self.taintable_scalars = compiler.taintable
        kind = compiler.kinds.get(loop.var)
        self._as_kind = None if kind is None else (int if kind == "integer" else float)
        self._body = compiler.compile_block(loop.body) if loop.body else _noop

    def new_runtime(
        self,
        env: Environment,
        memory: MemoryModel,
        cost: CostCounter | None = None,
        proc: int = 0,
    ) -> _SpecRuntime:
        return _SpecRuntime(
            env, memory, cost if cost is not None else CostCounter(), self.tested,
            proc=proc,
        )

    def run_iteration(
        self,
        rt: _SpecRuntime,
        marker: ShadowMarker | None,
        iteration_value: int,
        flush_live_out: Iterable[str] = (),
    ) -> None:
        """Execute one iteration; mirrors ``Interpreter.exec_iteration``.

        The buffered marks are flushed (and charged) inside the cost
        bracket; a :class:`~repro.errors.SpeculationFailed` raised by the
        flush leaves the bracket open, so the aborted iteration's costs
        are discarded exactly as under the per-access walker.
        """
        if self._as_kind is None:
            raise InterpError(f"undeclared scalar {self.var!r}")
        rt.scalars[self.var] = self._as_kind(iteration_value)
        cost = rt.cost
        cost.start_iteration()
        self._body(rt)
        if flush_live_out:
            held = rt.taints
            if held:
                buffers = rt.buffers
                pos = rt.pos
                for name in flush_live_out:
                    taints = held.pop(name, None)
                    if taints:
                        for array, index in taints:
                            buffers[array].append((pos, KIND_READ, index - 1, 0))
                            pos += 1
                rt.pos = pos
        if marker is not None:
            try:
                marker.flush_batch(rt.buffers)
            finally:
                for buf in rt.buffers.values():
                    buf.clear()
                rt.pos = 0
        cost.end_iteration()
        rt.taints.clear()


class _SpecCompiler:
    """Compiles loop-body statements into speculative closures."""

    def __init__(
        self,
        program: Program,
        tested: Iterable[str],
        value_based: bool,
        redux_refs: Mapping[int, str] | None,
        *,
        privates: Mapping[str, PrivateCopies] | None = None,
        partials: Mapping[str, ReductionPartials] | None = None,
        shared_env: Environment | None = None,
    ):
        self.tested = frozenset(tested)
        self.redux_refs = dict(redux_refs or {})
        self.value_based = bool(value_based) and bool(self.tested)
        self.kinds = {decl.name: decl.kind for decl in program.decls}
        self.sizes = {
            decl.name: decl.size
            for decl in program.decls
            if isinstance(decl, ArrayDecl)
        }
        self.taintable: frozenset[str] = frozenset()
        self.privates = privates if shared_env is not None else None
        self.partials: Mapping[str, ReductionPartials] = partials or {}
        self.shared_env = shared_env

    def _route(self, name: str, ref_id: int) -> str:
        """The site's static memory route, mirroring the router's dispatch."""
        if self.privates is None:
            return "generic"
        if self.redux_refs.get(ref_id) is not None and name in self.partials:
            return "partial"
        if name in self.privates:
            return "private"
        return "shared"

    def _as_kind(self, name: str):
        return int if self.kinds.get(name) == "integer" else float

    # -- taintable-scalars fixpoint ----------------------------------------

    def compute_taintable(self, body: list[Stmt]) -> frozenset[str]:
        """Scalars that may ever hold a pending-read taint.

        A scalar is taintable iff some assignment gives it an expression
        that can evaluate to a Tainted value: a tested non-reduction array
        load, or a read of an already-taintable scalar, propagated through
        arithmetic (but not through ``and``/``or``, whose operands are
        flushed).  Everything outside this set compiles to taint-free fast
        closures.
        """
        if not self.value_based:
            return frozenset()
        scalar_assigns = [
            stmt
            for stmt in walk_statements(body)
            if isinstance(stmt, Assign) and isinstance(stmt.target, Var)
        ]
        taintable: set[str] = set()
        changed = True
        while changed:
            changed = False
            for stmt in scalar_assigns:
                if stmt.target.name in taintable:
                    continue
                if self._expr_may_taint(stmt.expr, taintable):
                    taintable.add(stmt.target.name)
                    changed = True
        return frozenset(taintable)

    def _expr_may_taint(self, expr: Expr, taintable: set[str] | frozenset[str]) -> bool:
        if isinstance(expr, Num):
            return False
        if isinstance(expr, Var):
            return expr.name in taintable
        if isinstance(expr, ArrayRef):
            # The loaded value (not the subscript) decides taintedness:
            # subscripts are flushed, and only tested non-reduction loads
            # produce Tainted values.
            return (
                expr.name in self.tested
                and self.redux_refs.get(expr.ref_id) is None
            )
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                return False
            return self._expr_may_taint(expr.left, taintable) or self._expr_may_taint(
                expr.right, taintable
            )
        if isinstance(expr, UnaryOp):
            return self._expr_may_taint(expr.operand, taintable)
        if isinstance(expr, Call):
            return any(self._expr_may_taint(arg, taintable) for arg in expr.args)
        return False

    def may_taint(self, expr: Expr) -> bool:
        return self.value_based and self._expr_may_taint(expr, self.taintable)

    # -- statements --------------------------------------------------------

    def compile_block(self, body: list[Stmt]) -> StmtFn:
        fns = [self.compile_stmt(stmt) for stmt in body]
        if len(fns) == 1:
            return fns[0]

        def run_block(rt: _SpecRuntime) -> None:
            for fn in fns:
                fn(rt)

        return run_block

    def compile_stmt(self, stmt: Stmt) -> StmtFn:
        if isinstance(stmt, Assign):
            return self._compile_assign(stmt)
        if isinstance(stmt, If):
            cond = self.compile_flushed(stmt.cond)
            then_body = self.compile_block(stmt.then_body) if stmt.then_body else _noop
            else_body = self.compile_block(stmt.else_body) if stmt.else_body else _noop

            def run_if(rt: _SpecRuntime) -> None:
                rt.cost.branches += 1
                if cond(rt) != 0:
                    then_body(rt)
                else:
                    else_body(rt)

            return run_if
        if isinstance(stmt, Do):
            return self._compile_do(stmt)
        if isinstance(stmt, While):
            return self._compile_while(stmt)
        raise InterpError(f"cannot compile {type(stmt).__name__}")

    def _compile_assign(self, stmt: Assign) -> StmtFn:
        target = stmt.target
        if isinstance(target, Var):
            return self._compile_scalar_assign(target.name, stmt.expr)

        assert isinstance(target, ArrayRef)
        index_fn = self.compile_index(target.index)
        value_fn = self.compile_flushed(stmt.expr)
        name = target.name
        ref_id = target.ref_id
        store_fn = self._make_store(name, ref_id)
        if name in self.tested:
            op = self.redux_refs.get(ref_id)
            kind, opcode = (
                (KIND_WRITE, 0) if op is None else (KIND_REDUX, OP_CODES[op])
            )

            def store_marked(rt: _SpecRuntime) -> None:
                index = index_fn(rt)
                value = value_fn(rt)
                rt.cost.mem_writes += 1
                store_fn(rt, index, value)
                rt.buffers[name].append((rt.pos, kind, index - 1, opcode))
                rt.pos += 1

            return store_marked

        def store_plain(rt: _SpecRuntime) -> None:
            index = index_fn(rt)
            value = value_fn(rt)
            rt.cost.mem_writes += 1
            store_fn(rt, index, value)

        return store_plain

    # -- routed raw accesses -------------------------------------------------
    # ``_make_load``/``_make_store`` bind each site's memory structures at
    # compile time (the transform plan fixes the route): private rows,
    # partial maps or the shared ndarray, with the bounds check inlined
    # against the declared size.  Value semantics are the router's exactly
    # — same bounds error, same kind coercions, same write stamps.

    def _make_load(self, name: str, ref_id: int) -> Callable[[_SpecRuntime, int], object]:
        route = self._route(name, ref_id)
        if route == "generic":

            def load_generic(rt: _SpecRuntime, index: int):
                return rt.memory.load(name, index, ref_id)

            return load_generic
        size = self.sizes[name]
        oob = f"index {{0}} out of bounds for {name}({size})"
        if route == "partial":
            op = self.redux_refs[ref_id]
            identity = REDUCTION_IDENTITY[op]
            maps = self.partials[name].proc_maps()

            def load_partial(rt: _SpecRuntime, index: int):
                if not 1 <= index <= size:
                    raise InterpError(oob.format(index))
                entry = maps[rt.proc].get(index - 1)
                if entry is None:
                    return identity
                return entry[1]

            return load_partial
        if route == "private":
            mirror = self.privates[name].value_rows()

            def load_private(rt: _SpecRuntime, index: int):
                if not 1 <= index <= size:
                    raise InterpError(oob.format(index))
                return mirror[rt.proc][index - 1]

            return load_private
        arr = self.shared_env.arrays[name]
        cast = self._as_kind(name)

        def load_shared(rt: _SpecRuntime, index: int):
            if not 1 <= index <= size:
                raise InterpError(oob.format(index))
            return cast(arr[index - 1])

        return load_shared

    def _make_store(
        self, name: str, ref_id: int
    ) -> Callable[[_SpecRuntime, int, object], None]:
        route = self._route(name, ref_id)
        if route == "generic":

            def store_generic(rt: _SpecRuntime, index: int, value) -> None:
                rt.memory.store(name, index, value, ref_id)

            return store_generic
        size = self.sizes[name]
        oob = f"index {{0}} out of bounds for {name}({size})"
        if route == "partial":
            op = self.redux_refs[ref_id]
            maps = self.partials[name].proc_maps()

            def store_partial(rt: _SpecRuntime, index: int, value) -> None:
                if not 1 <= index <= size:
                    raise InterpError(oob.format(index))
                maps[rt.proc][index - 1] = (op, value)

            return store_partial
        if route == "private":
            copies = self.privates[name]
            data_rows = list(copies.data)
            stamp_rows = list(copies.wstamp)
            mirror = copies.value_rows()
            cast = self._as_kind(name)

            def store_private(rt: _SpecRuntime, index: int, value) -> None:
                if not 1 <= index <= size:
                    raise InterpError(oob.format(index))
                offset = index - 1
                proc = rt.proc
                data_rows[proc][offset] = value
                stamp_rows[proc][offset] = rt.iteration
                mirror[proc][offset] = cast(value)

            return store_private
        arr = self.shared_env.arrays[name]
        cast = self._as_kind(name)

        def store_shared(rt: _SpecRuntime, index: int, value) -> None:
            if not 1 <= index <= size:
                raise InterpError(oob.format(index))
            arr[index - 1] = cast(value)

        return store_shared

    def _compile_scalar_assign(self, name: str, expr: Expr) -> StmtFn:
        value_fn = self.compile_expr(expr)
        kind = self.kinds.get(name)
        if kind is None:

            def assign_undeclared(rt: _SpecRuntime) -> None:
                value_fn(rt)
                rt.cost.scalar_ops += 1
                raise InterpError(f"undeclared scalar {name!r}")

            return assign_undeclared
        as_kind = int if kind == "integer" else float
        if self.may_taint(expr):

            def assign_tainted(rt: _SpecRuntime) -> None:
                value = value_fn(rt)
                rt.cost.scalar_ops += 1
                if type(value) is Tainted:
                    rt.scalars[name] = as_kind(value.value)
                    if value.taints:
                        rt.taints[name] = value.taints
                    else:
                        rt.taints.pop(name, None)
                else:
                    rt.scalars[name] = as_kind(value)
                    rt.taints.pop(name, None)

            return assign_tainted
        if name in self.taintable:
            # Another assignment may have tainted this scalar earlier in
            # the iteration: a raw overwrite drops the pending reads.

            def assign_clearing(rt: _SpecRuntime) -> None:
                value = value_fn(rt)
                rt.cost.scalar_ops += 1
                rt.scalars[name] = as_kind(value)
                rt.taints.pop(name, None)

            return assign_clearing

        def assign_fast(rt: _SpecRuntime) -> None:
            value = value_fn(rt)
            rt.cost.scalar_ops += 1
            rt.scalars[name] = as_kind(value)

        return assign_fast

    def _compile_do(self, stmt: Do) -> StmtFn:
        start_fn = self.compile_flushed(stmt.start)
        stop_fn = self.compile_flushed(stmt.stop)
        step_fn = self.compile_flushed(stmt.step) if stmt.step is not None else None
        body = self.compile_block(stmt.body) if stmt.body else _noop
        var = stmt.var
        kind = self.kinds.get(var)
        as_kind = None if kind is None else (int if kind == "integer" else float)

        def run_do(rt: _SpecRuntime) -> None:
            start = int(start_fn(rt))
            stop = int(stop_fn(rt))
            step = int(step_fn(rt)) if step_fn is not None else 1
            if step == 0:
                raise InterpError("do loop with zero step")
            if as_kind is None:
                raise InterpError(f"undeclared scalar {var!r}")
            scalars = rt.scalars
            cost = rt.cost
            value = start
            while (step > 0 and value <= stop) or (step < 0 and value >= stop):
                scalars[var] = as_kind(value)
                cost.scalar_ops += 1
                body(rt)
                value += step
            # Fortran leaves the loop variable one step past the bound.
            # Note: like the walker, this does NOT clear a pending taint
            # held by the loop variable.
            scalars[var] = as_kind(value)

        return run_do

    def _compile_while(self, stmt: While) -> StmtFn:
        cond = self.compile_flushed(stmt.cond)
        body = self.compile_block(stmt.body) if stmt.body else _noop

        def run_while(rt: _SpecRuntime) -> None:
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

    # -- expressions -------------------------------------------------------

    def compile_flushed(self, expr: Expr) -> ExprFn:
        """Compile an escape position: pending reads are reported here."""
        if (
            self.value_based
            and isinstance(expr, ArrayRef)
            and expr.name in self.tested
            and self.redux_refs.get(expr.ref_id) is None
        ):
            # Singleton peephole: a bare tested load whose value escapes
            # right here never taints anything downstream, so the pending
            # read is reported immediately — no Tainted round trip.  The
            # mark position is the walker's exactly: its flush of the
            # singleton taint set follows the load with nothing between.
            return self._compile_marked_load(expr)
        fn = self.compile_expr(expr)
        if not self.may_taint(expr):
            return fn

        def flushed(rt: _SpecRuntime):
            value = fn(rt)
            if type(value) is Tainted:
                pos = rt.pos
                buffers = rt.buffers
                for array, index in value.taints:
                    buffers[array].append((pos, KIND_READ, index - 1, 0))
                    pos += 1
                rt.pos = pos
                return value.value
            return value

        return flushed

    def compile_index(self, expr: Expr) -> ExprFn:
        """Compile a subscript: flushed, integral, still 1-based."""
        fn = self.compile_flushed(expr)
        if self._is_integral(expr):
            # Statically integer-valued: the float coercion (which is the
            # identity on ints) can be skipped entirely.
            return fn

        def as_index(rt: _SpecRuntime):
            value = fn(rt)
            if isinstance(value, float):
                if not value.is_integer():
                    raise InterpError(f"non-integral array subscript {value!r}")
                return int(value)
            return value

        return as_index

    def _is_integral(self, expr: Expr) -> bool:
        """The expression provably evaluates to a Python int.

        Integer scalars and integer-kind array elements stay ints under
        the walker's numeric rules (``/`` is Fortran integer division,
        comparisons and logicals yield 0/1); ``**`` is excluded because a
        negative exponent goes float at run time.
        """
        if isinstance(expr, Num):
            return expr.is_int
        if isinstance(expr, (Var, ArrayRef)):
            return self.kinds.get(expr.name) == "integer"
        if isinstance(expr, BinOp):
            if expr.op in ("==", "/=", "<", "<=", ">", ">=", "and", "or"):
                return True
            if expr.op in ("+", "-", "*", "/"):
                return self._is_integral(expr.left) and self._is_integral(expr.right)
            return False
        if isinstance(expr, UnaryOp):
            return expr.op == "not" or self._is_integral(expr.operand)
        return False

    def compile_expr(self, expr: Expr) -> ExprFn:
        if isinstance(expr, Num):
            value = int(expr.value) if expr.is_int else expr.value
            return lambda rt: value
        if isinstance(expr, Var):
            return self._compile_var(expr.name)
        if isinstance(expr, ArrayRef):
            return self._compile_load(expr)
        if isinstance(expr, BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, UnaryOp):
            return self._compile_unary(expr)
        if isinstance(expr, Call):
            return self._compile_call(expr)
        raise InterpError(f"cannot compile {type(expr).__name__}")

    def _compile_var(self, name: str) -> ExprFn:
        if name in self.taintable:

            def read_taintable(rt: _SpecRuntime):
                rt.cost.scalar_ops += 1
                try:
                    value = rt.scalars[name]
                except KeyError:
                    raise InterpError(f"undeclared scalar {name!r}") from None
                taints = rt.taints.get(name)
                if taints:
                    return Tainted(value, taints)
                return value

            return read_taintable

        def read_scalar(rt: _SpecRuntime):
            rt.cost.scalar_ops += 1
            try:
                return rt.scalars[name]
            except KeyError:
                raise InterpError(f"undeclared scalar {name!r}") from None

        return read_scalar

    def _compile_load(self, ref: ArrayRef) -> ExprFn:
        index_fn = self.compile_index(ref.index)
        name = ref.name
        ref_id = ref.ref_id
        route = self._route(name, ref_id)
        if name in self.tested:
            op = self.redux_refs.get(ref_id)
            if op is not None:
                opcode = OP_CODES[op]
                load_fn = self._make_load(name, ref_id)

                def load_redux(rt: _SpecRuntime):
                    index = index_fn(rt)
                    rt.cost.mem_reads += 1
                    value = load_fn(rt, index)
                    rt.buffers[name].append((rt.pos, KIND_REDUX, index - 1, opcode))
                    rt.pos += 1
                    return value

                return load_redux
            if self.value_based:
                if route == "private":
                    size = self.sizes[name]
                    mirror = self.privates[name].value_rows()

                    def load_tainted_private(rt: _SpecRuntime):
                        index = index_fn(rt)
                        rt.cost.mem_reads += 1
                        if not 1 <= index <= size:
                            raise InterpError(
                                f"index {index} out of bounds for {name}({size})"
                            )
                        return Tainted(
                            mirror[rt.proc][index - 1],
                            frozenset(((name, index),)),
                        )

                    return load_tainted_private
                load_fn = self._make_load(name, ref_id)

                def load_tainted(rt: _SpecRuntime):
                    index = index_fn(rt)
                    rt.cost.mem_reads += 1
                    return Tainted(load_fn(rt, index), frozenset(((name, index),)))

                return load_tainted
            return self._compile_marked_load(ref, index_fn)
        if route == "shared":
            size = self.sizes[name]
            arr = self.shared_env.arrays[name]
            cast = self._as_kind(name)

            def load_plain_shared(rt: _SpecRuntime):
                index = index_fn(rt)
                rt.cost.mem_reads += 1
                if not 1 <= index <= size:
                    raise InterpError(f"index {index} out of bounds for {name}({size})")
                return cast(arr[index - 1])

            return load_plain_shared
        load_fn = self._make_load(name, ref_id)

        def load_plain(rt: _SpecRuntime):
            index = index_fn(rt)
            rt.cost.mem_reads += 1
            return load_fn(rt, index)

        return load_plain

    def _compile_marked_load(self, ref: ArrayRef, index_fn: ExprFn | None = None) -> ExprFn:
        """A tested non-reduction load whose pending read is reported at
        the load itself (reference-based marking, or the value-based
        singleton peephole)."""
        if index_fn is None:
            index_fn = self.compile_index(ref.index)
        name = ref.name
        ref_id = ref.ref_id
        if self._route(name, ref_id) == "private":
            size = self.sizes[name]
            mirror = self.privates[name].value_rows()

            def load_marked_private(rt: _SpecRuntime):
                index = index_fn(rt)
                rt.cost.mem_reads += 1
                if not 1 <= index <= size:
                    raise InterpError(f"index {index} out of bounds for {name}({size})")
                value = mirror[rt.proc][index - 1]
                rt.buffers[name].append((rt.pos, KIND_READ, index - 1, 0))
                rt.pos += 1
                return value

            return load_marked_private
        load_fn = self._make_load(name, ref_id)

        def load_marked(rt: _SpecRuntime):
            index = index_fn(rt)
            rt.cost.mem_reads += 1
            value = load_fn(rt, index)
            rt.buffers[name].append((rt.pos, KIND_READ, index - 1, 0))
            rt.pos += 1
            return value

        return load_marked

    def _compile_binop(self, expr: BinOp) -> ExprFn:
        op = expr.op
        if op == "and":
            left = self.compile_flushed(expr.left)
            right = self.compile_flushed(expr.right)

            def short_and(rt: _SpecRuntime):
                rt.cost.flops += 1
                if left(rt) == 0:
                    return 0
                return 1 if right(rt) != 0 else 0

            return short_and
        if op == "or":
            left = self.compile_flushed(expr.left)
            right = self.compile_flushed(expr.right)

            def short_or(rt: _SpecRuntime):
                rt.cost.flops += 1
                if left(rt) != 0:
                    return 1
                return 1 if right(rt) != 0 else 0

            return short_or

        left_fn = self.compile_expr(expr.left)
        right_fn = self.compile_expr(expr.right)
        fast = _FAST_BINOPS.get(op)
        if fast is None:

            def apply_op(a, b, _op=op):  # '/' and '**' share the walker's rules
                return _apply_binop(_op, a, b)

        else:
            apply_op = fast
        if not (self.may_taint(expr.left) or self.may_taint(expr.right)):

            def run_fast(rt: _SpecRuntime):
                rt.cost.flops += 1
                return apply_op(left_fn(rt), right_fn(rt))

            return run_fast

        def run_tainted(rt: _SpecRuntime):
            rt.cost.flops += 1
            left = left_fn(rt)
            right = right_fn(rt)
            left_t = type(left) is Tainted
            right_t = type(right) is Tainted
            if not (left_t or right_t):
                return apply_op(left, right)
            result = apply_op(
                left.value if left_t else left,
                right.value if right_t else right,
            )
            # Reuse a lone operand's taint set: equal frozensets iterate
            # identically, so the eventual flush order is unchanged.
            if left_t:
                taints = left.taints | right.taints if right_t else left.taints
            else:
                taints = right.taints
            if taints:
                return Tainted(result, taints)
            return result

        return run_tainted

    def _compile_unary(self, expr: UnaryOp) -> ExprFn:
        operand = self.compile_expr(expr.operand)
        negate = expr.op != "not"
        if not self.may_taint(expr.operand):
            if negate:

                def run_negate(rt: _SpecRuntime):
                    rt.cost.flops += 1
                    return -operand(rt)

                return run_negate

            def run_not(rt: _SpecRuntime):
                rt.cost.flops += 1
                return 1 if operand(rt) == 0 else 0

            return run_not

        def run_tainted(rt: _SpecRuntime):
            rt.cost.flops += 1
            value = operand(rt)
            tainted = type(value) is Tainted
            raw = value.value if tainted else value
            result = -raw if negate else (1 if raw == 0 else 0)
            if tainted and value.taints:
                return Tainted(result, value.taints)
            return result

        return run_tainted

    def _compile_call(self, expr: Call) -> ExprFn:
        func = expr.func
        arg_fns = [self.compile_expr(arg) for arg in expr.args]
        if not any(self.may_taint(arg) for arg in expr.args):

            def run_fast(rt: _SpecRuntime):
                rt.cost.intrinsics += 1
                return _apply_intrinsic(func, [fn(rt) for fn in arg_fns])

            return run_fast

        def run_tainted(rt: _SpecRuntime):
            rt.cost.intrinsics += 1
            values = [fn(rt) for fn in arg_fns]
            raws = [v.value if type(v) is Tainted else v for v in values]
            result = _apply_intrinsic(func, raws)
            taints: frozenset[tuple[str, int]] = frozenset()
            for value in values:
                if type(value) is Tainted:
                    taints |= value.taints
            if taints:
                return Tainted(result, taints)
            return result

        return run_tainted
