"""The compiled engine: DSL programs run as generated Python.

The tree-walking interpreter (:mod:`repro.interp.interpreter`) pays
dynamic dispatch on every AST node.  This module generates Python
source from the DSL AST instead, compiles the text once and runs the
functions.  Two kinds of code come from one generator:

* *serial* code, for the serial executions the runtime performs
  constantly — the serial reference run, the loop's entry and exit
  blocks, and the rollback and DOACROSS-recovery re-runs after a failed
  speculation: one function per top-level statement and one per
  top-level ``do`` loop (its iterations, for
  :meth:`CompiledProgram.run_loop`).  Its stores write ``env.arrays``
  directly (see :meth:`~repro.interp.env.Environment.bump_version`);
* the *marked iteration* of a speculative doall
  (:meth:`CompiledProgram.marked_loop`): each array access goes to the
  structure the access router would pick (a private copy's rows, a
  reduction partial map, the shared array), each access to a tested
  array is buffered as a shadow mark in the walker's order and flushed
  once per iteration through
  :meth:`~repro.core.shadow.ShadowMarker.flush_batch`, and value-based
  (LPD) reads are reported where the walker reports them, from the
  walker's own taint sets.

How the generated code keeps the walker's semantics:

* Scalars are Python locals, loaded at function entry and written back
  in a ``finally`` block, so the environment after an
  :class:`~repro.errors.InterpError` holds what the walker's would.
  Arrays and their sizes are bound once per call (per doall, for the
  marked iteration).
* Operation counts are static per statement: every straight-line region
  adds its constants to local counters, each branch arm its own, and a
  loop whose body is straight-line adds ``trips * body`` once.
  ``and``/``or`` become ``if``/``else``, so only the evaluated side is
  counted.
* ``/``, ``**`` and every intrinsic call the walker's ``_apply_binop``
  and ``_apply_intrinsic``.  Every operation that can raise (array
  accesses, ``/``, ``**``, intrinsics, reads of undeclared names) is
  bound to a temporary in the walker's evaluation order, so the same
  error surfaces first.  Subscripts keep the non-integral and 1-based
  bounds checks; the float check, and the ``int()``/``float()`` of a
  scalar assignment, are skipped only where the value's type is
  statically known.  A store evaluates its subscript, then its value,
  then checks bounds, as the walker does.

The text holds only generated identifiers and the ``repr()`` of finite
integer and float literals.  Every DSL name (and any other literal)
reaches the code through the constants tuple ``K`` bound in the
functions' globals, so no name a frontend produces can collide with
Python syntax, builtins or the generator's own locals, and two programs
that differ only in their identifiers generate the same text.  That
text keys a process-wide, least-recently-used cache of code objects
(:data:`CODE_CACHE_CAPACITY` entries), so a freshly built program whose
text was seen before costs only its text generation.  Two CPython
limits are handled in the one generator: an expression nested deeper
than a fixed depth is bound to a temporary ("too many nested
parentheses"), and a compound statement nested deeper than a fixed
block or indentation depth becomes a separate generated function
("too many statically nested blocks").
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from types import CodeType
from typing import Callable, Iterable, Mapping

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
    ScalarDecl,
    Stmt,
    UnaryOp,
    Var,
    While,
    walk_statements,
)
from repro.core.reduction_exec import REDUCTION_IDENTITY
from repro.core.shadow import KIND_READ, KIND_REDUX, KIND_WRITE, OP_CODES
from repro.errors import InterpError
from repro.interp.costs import CostCounter, IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import (
    MAX_WHILE_ITERATIONS,
    _apply_binop,
    _apply_intrinsic,
)

#: compiled programs kept by :func:`_code_for`, least recently used
#: evicted first.
CODE_CACHE_CAPACITY = 256

#: parenthesis depth at which an expression is bound to a temporary.
_MAX_EXPR_DEPTH = 12
#: loops (and ``try`` blocks) one generated function may nest; CPython
#: refuses more than 20.
_MAX_BLOCKS = 10
#: indentation depth at which a compound statement moves to its own
#: function; CPython's tokenizer refuses more than 100.
_MAX_INDENT = 32

_INT, _REAL = "int", "float"

#: counter order of the generated code, as in ``CostCounter``.
_FLOPS, _READS, _WRITES, _SCALARS, _INTRINSICS, _BRANCHES = range(6)
_COUNTERS = ("flops", "mem_reads", "mem_writes", "scalar_ops", "intrinsics", "branches")

_ARITHMETIC = ("+", "-", "*")
_COMPARISONS = {"==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_REAL_INTRINSICS = frozenset(("sqrt", "exp", "log", "sin", "cos", "real"))
_INT_INTRINSICS = frozenset(("floor", "int"))


# ---------------------------------------------------------------------------
# Runtime support bound into every generated function's globals
# ---------------------------------------------------------------------------


def _subscript(value):
    if isinstance(value, float):
        if not value.is_integer():
            raise InterpError(f"non-integral array subscript {value!r}")
        return int(value)
    return value


def _out_of_bounds(value, name, size):
    raise InterpError(f"index {value} out of bounds for {name}({size})")


def _undeclared_scalar(name):
    raise InterpError(f"undeclared scalar {name!r}")


def _undeclared_array(name):
    raise InterpError(f"undeclared array {name!r}")


def _read_scalar(scalars, name):
    try:
        return scalars[name]
    except KeyError:
        raise InterpError(f"undeclared scalar {name!r}") from None


def _zero_step():
    raise InterpError("do loop with zero step")


def _while_limit():
    raise InterpError("do while exceeded the iteration safety limit")


_EMPTY: frozenset = frozenset()


def _union(*parts):
    """The walker's taint union: each tainted part, in order, joined onto
    an empty set, so the result iterates as the walker's does."""
    taints = _EMPTY
    for part in parts:
        if part:
            taints = taints | part
    return taints or None


def _reads(taints, buffers, q):
    """Buffer a read mark per pending read, in the set's iteration order."""
    for array, index in taints:
        buffers[array].append((q, KIND_READ, index - 1, 0))
        q += 1
    return q


_RUNTIME = {
    "_apply_binop": _apply_binop,
    "_apply_intrinsic": _apply_intrinsic,
    "_subscript": _subscript,
    "_out_of_bounds": _out_of_bounds,
    "_undeclared_scalar": _undeclared_scalar,
    "_undeclared_array": _undeclared_array,
    "_read_scalar": _read_scalar,
    "_zero_step": _zero_step,
    "_while_limit": _while_limit,
    "_IterationCost": IterationCost,
    "_MAX_WHILE": MAX_WHILE_ITERATIONS,
    "_EMPTY": _EMPTY,
    "_union": _union,
    "_reads": _reads,
}


# ---------------------------------------------------------------------------
# The code cache
# ---------------------------------------------------------------------------

_CODE_CACHE: OrderedDict[str, CodeType] = OrderedDict()
_CODE_CACHE_LOCK = threading.Lock()
#: held while a program's marked loops are looked up or generated, so
#: threads sharing a program generate each loop once.
_MARKED_LOCK = threading.Lock()


def _code_for(text: str) -> CodeType:
    """The compiled code object of ``text``, from the cache when present.

    Two threads missing on one text may both compile it; each entry is
    the compilation of its own key, so either result is right.
    """
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(text)
        if code is not None:
            _CODE_CACHE.move_to_end(text)
            return code
    code = compile(text, "<generated serial program>", "exec")
    with _CODE_CACHE_LOCK:
        _CODE_CACHE[text] = code
        _CODE_CACHE.move_to_end(text)
        while len(_CODE_CACHE) > CODE_CACHE_CAPACITY:
            _CODE_CACHE.popitem(last=False)
    return code


# ---------------------------------------------------------------------------
# The compiled program
# ---------------------------------------------------------------------------


class CompiledProgram:
    """A program compiled to generated Python; reusable across environments.

    The environments it runs against must be built from ``program``
    (:class:`~repro.interp.env.Environment`), so every declared name is
    present with its declared kind.
    """

    def __init__(self, program: Program):
        self.program = program
        generator = _Generator(program)
        stmt_names = [generator.statement_function(stmt) for stmt in program.body]
        loop_names = [
            generator.loop_function(stmt) if isinstance(stmt, Do) else None
            for stmt in program.body
        ]
        #: the generated module text (free of every DSL identifier).
        self.source = generator.text()
        namespace = dict(_RUNTIME, K=tuple(generator.constants))
        exec(_code_for(self.source), namespace)
        self._stmt_fns: dict[int, Callable] = {
            id(stmt): namespace[name] for stmt, name in zip(program.body, stmt_names)
        }
        self._loop_fns: dict[int, Callable] = {
            id(stmt): namespace[name]
            for stmt, name in zip(program.body, loop_names)
            if name is not None
        }
        self._marked: dict[tuple, MarkedLoop] = {}

    def run(self, env: Environment, cost: CostCounter | None = None) -> CostCounter:
        """Execute the whole program against ``env``."""
        cost = cost if cost is not None else CostCounter()
        self.run_statements(self.program.body, env, cost)
        return cost

    def run_statements(
        self, stmts: list[Stmt], env: Environment, cost: CostCounter
    ) -> None:
        """Execute a subset of the program's top-level statements."""
        scalars, arrays = env.scalars, env.arrays
        for stmt in stmts:
            fn = self._stmt_fns.get(id(stmt))
            if fn is None:
                raise InterpError("statement was not compiled with this program")
            flops, reads, writes, scalar_ops, intrinsics, branches = fn(scalars, arrays)
            cost.flops += flops
            cost.mem_reads += reads
            cost.mem_writes += writes
            cost.scalar_ops += scalar_ops
            cost.intrinsics += intrinsics
            cost.branches += branches

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
        fn = self._loop_fns.get(id(loop))
        if fn is None:
            raise InterpError("loop was not compiled as part of this program")
        fn(env.scalars, env.arrays, cost, values)

    def marked_loop(
        self,
        loop: Do,
        *,
        tested: Iterable[str],
        value_based: bool,
        redux_refs: Mapping[int, str],
        private: Iterable[str],
        partial: Iterable[str],
        live_out: Iterable[str],
    ) -> "MarkedLoop":
        """The speculative iteration of ``loop``, generated at first use.

        ``tested`` are the arrays whose accesses are marked (empty for an
        unmarked doall), ``private`` and ``partial`` the arrays the doall
        privatizes and reduces into partials, ``live_out`` the scalars
        whose pending reads are reported at each iteration's end.  The
        generated text depends on nothing else, so every doall of one
        configuration (every strip, a vectorized bail's re-run, every
        task of a worker pool) shares one generation.
        """
        tested = frozenset(tested)
        key = (
            id(loop), tested, bool(value_based) and bool(tested),
            frozenset(redux_refs.items()), frozenset(private),
            frozenset(partial), frozenset(live_out),
        )
        with _MARKED_LOCK:
            marked = self._marked.get(key)
            if marked is None:
                marked = self._marked[key] = generate_marked_loop(
                    self.program, loop, tested=tested, value_based=key[2],
                    redux_refs=redux_refs, private=key[4], partial=key[5],
                    live_out=key[6],
                )
        return marked


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` once; run it many times."""
    return CompiledProgram(program)


class MarkedLoop:
    """A target loop's generated speculative iteration, bound per doall.

    :meth:`bind` returns ``iteration(scalars, proc, position, value)``:
    it runs one iteration for virtual processor ``proc`` against its
    scalars, stamps private writes with ``position``, buffers the
    iteration's shadow marks and flushes them through the marker's
    :meth:`~repro.core.shadow.ShadowMarker.flush_batch`, and returns the
    iteration's :class:`~repro.interp.costs.IterationCost`.  A flush
    that raises :class:`~repro.errors.SpeculationFailed` returns
    nothing, so the aborted iteration's counts are discarded.
    """

    def __init__(self, loop: Do, factory: Callable, source: str,
                 tested: frozenset[str], live_names: list[str]):
        #: held, so the loop's id stays the memo key of this loop alone.
        self.loop = loop
        #: the generated module text (free of every DSL identifier).
        self.source = source
        self._factory = factory
        self._tested = sorted(tested)
        self._live_names = live_names

    def bind(self, arrays, privates, partials, marker, live_out: Iterable[str]):
        """Bind the doall's shared arrays, private copies, reduction
        partials and marker (None for an unmarked doall).  ``live_out``
        must be the very collection the walker would iterate: its order
        is the order of the end-of-iteration reads."""
        live = self._live_names
        return self._factory(
            arrays,
            {name: list(copies.data) for name, copies in privates.items()},
            {name: list(copies.wstamp) for name, copies in privates.items()},
            {name: copies.value_rows() for name, copies in privates.items()},
            {name: part.proc_maps() for name, part in partials.items()},
            {name: [] for name in self._tested},
            marker.flush_batch if marker is not None else None,
            tuple(live.index(name) for name in live_out if name in live),
        )


def generate_marked_loop(
    program: Program,
    loop: Do,
    *,
    tested: frozenset[str],
    value_based: bool,
    redux_refs: Mapping[int, str],
    private: frozenset[str],
    partial: frozenset[str],
    live_out: frozenset[str],
) -> MarkedLoop:
    """Generate and compile ``loop``'s speculative iteration."""
    gen = _MarkedGenerator(
        program, loop, tested, value_based, dict(redux_refs), private,
        partial, live_out,
    )
    factory = gen.factory()
    source = gen.text()
    namespace = dict(_RUNTIME, K=tuple(gen.constants))
    exec(_code_for(source), namespace)
    return MarkedLoop(loop, namespace[factory], source, tested, gen.live_names)


# ---------------------------------------------------------------------------
# Source generation
# ---------------------------------------------------------------------------


def _has_logical(expr: Expr) -> bool:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp):
            if node.op in ("and", "or"):
                return True
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.extend(node.args)
        elif isinstance(node, ArrayRef):
            stack.append(node.index)
    return False


def _assigns(body: list[Stmt], name: str) -> bool:
    """True when some statement nested in ``body`` writes scalar ``name``."""
    for stmt in walk_statements(body):
        if isinstance(stmt, Assign) and isinstance(stmt.target, Var):
            if stmt.target.name == name:
                return True
        elif isinstance(stmt, Do) and stmt.var == name:
            return True
    return False


def _straight(body: list[Stmt]) -> bool:
    """True when every execution of ``body`` performs the same
    operations: assignments only, and no short-circuit operator."""
    for stmt in body:
        if not isinstance(stmt, Assign) or _has_logical(stmt.expr):
            return False
        if isinstance(stmt.target, ArrayRef) and _has_logical(stmt.target.index):
            return False
    return True


def _literal(value: int | float) -> str:
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def _numeric_type(left: str | None, right: str | None) -> str | None:
    if left == _INT and right == _INT:
        return _INT
    if left is not None and right is not None:
        return _REAL
    return None


def _intrinsic_type(func: str, types: list[str | None]) -> str | None:
    if not types:
        return None
    if func in _REAL_INTRINSICS:
        return _REAL
    if func in _INT_INTRINSICS:
        return _INT
    if func in ("abs", "sign"):
        return types[0]
    if func == "mod" and len(types) == 2:
        return _numeric_type(*types)
    if func in ("min", "max") and all(t == types[0] for t in types):
        return types[0]
    return None


class _Generator:
    """Generates the module text of one program and its constants."""

    def __init__(self, program: Program):
        self.constants: list = []
        self._constant_index: dict[tuple, int] = {}
        self.functions: list[str] = []
        self._count = 0
        # The declarations as an Environment built from them sees them.
        self.kinds: dict[str, str] = {}
        self.scalar_names: set[str] = set()
        self.array_names: set[str] = set()
        declared: dict[str, int] = {}
        for decl in program.decls:
            self.kinds[decl.name] = decl.kind
            declared[decl.name] = declared.get(decl.name, 0) + 1
            if isinstance(decl, ArrayDecl):
                self.array_names.add(decl.name)
            else:
                assert isinstance(decl, ScalarDecl)
                self.scalar_names.add(decl.name)
        #: the static type of each scalar's value (names declared once).
        self.scalar_types = {
            name: _INT if self.kinds[name] == "integer" else _REAL
            for name in self.scalar_names
            if declared[name] == 1
        }

    def constant(self, value) -> str:
        """``K[i]``: how the generated text refers to ``value``."""
        key = (type(value), value)
        index = self._constant_index.get(key)
        if index is None:
            index = self._constant_index[key] = len(self.constants)
            self.constants.append(value)
        return f"K[{index}]"

    def kind_of(self, name: str) -> str:
        return _INT if self.kinds[name] == "integer" else _REAL

    def _name(self, prefix: str) -> str:
        self._count += 1
        return f"{prefix}{self._count}"

    def statement_function(self, stmt: Stmt) -> str:
        fn = _Function(self, self._name("s"), "scalars, arrays")
        fn.statement(stmt)
        self.functions.append(fn.finish())
        return fn.name

    def split_function(self, stmt: Stmt) -> "_Function":
        fn = self.split_callee(self._name("g"))
        fn.statement(stmt)
        self.functions.append(fn.finish())
        return fn

    def split_callee(self, name: str) -> "_Function":
        return _Function(self, name, "scalars, arrays")

    def loop_function(self, loop: Do) -> str:
        fn = _Function(self, self._name("l"), "scalars, arrays, cost, values")
        fn.loop_iterations(loop)
        self.functions.append(fn.finish())
        return fn.name

    def text(self) -> str:
        return "\n".join(self.functions)


class _Function:
    """Generates one function: its body, its locals and its counters.

    Locals: ``v<i>`` scalars, ``a<i>``/``n<i>`` arrays and their sizes,
    ``t<i>`` temporaries, ``c0``–``c5`` operation counters.

    An expression generates to ``(text, type, depth, taint)``.  The
    taint is always None here; :class:`_MarkedFunction` gives the hooks
    (:meth:`load`, :meth:`store`, :meth:`reads`, :meth:`union`,
    :meth:`taint_of`) their speculative meaning.
    """

    #: the arguments a split-off callee is called with.
    split_args = "scalars, arrays"

    def __init__(self, gen: _Generator, name: str, params: str):
        self.gen = gen
        self.name = name
        self.params = params
        #: lines, and (indent, callee) placeholders filled in by
        #: :meth:`finish`: a split call's spill (callee None) and reload.
        self.lines: list[str | tuple[int, _Function | None]] = []
        self.prologue: list[str] = []
        self.handler: list[str] = []
        self.epilogue = ["return (c0, c1, c2, c3, c4, c5)"]
        self.indent = 2  # inside ``def`` and ``try``
        self.blocks = 1  # the ``try``
        self.temps = 0
        #: declared scalar name -> (local, constant)
        self.scalars: dict[str, tuple[str, str]] = {}
        #: declared scalar names this function (or a split callee) writes.
        self.written: set[str] = set()
        #: array name -> (local, size local, constant)
        self.arrays: dict[str, tuple[str, str, str]] = {}
        self.pending = [0] * 6
        #: marks buffered since the mark position ``q`` last advanced.
        self.qpend = 0
        #: the counters are not yet initialised: the next flush assigns.
        self.fresh = True
        #: (subscript, size) pairs bounds-checked on every path to the
        #: current line, whose subscript has not changed since.
        self.checked: set[tuple[str, str]] = set()
        #: loop-variable locals known to be at least 1.
        self.positive: set[str] = set()

    # -- output ---------------------------------------------------------------

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def flush(self) -> None:
        """Emit the counts of the region that ends here."""
        counts = self.pending
        if self.fresh:
            self.line(
                "c0, c1, c2, c3, c4, c5 = " + ", ".join(str(k) for k in counts)
            )
            self.fresh = False
        else:
            for j, k in enumerate(counts):
                if k:
                    self.line(f"c{j} += {k}")
        self.pending = [0] * 6
        self.flush_q()

    def flush_q(self) -> None:
        """Advance the mark position past the marks buffered since."""
        if self.qpend:
            self.line(f"q += {self.qpend}")
            self.qpend = 0

    def settled_checks(self) -> set[tuple[str, str]]:
        """The checks of literal and temporary subscripts: they hold
        wherever control goes next, since neither kind is reassigned."""
        locals_ = {local for local, _ in self.scalars.values()}
        return {key for key in self.checked if key[0] not in locals_}

    def scalar(self, name: str, write: bool = False) -> str:
        entry = self.scalars.get(name)
        if entry is None:
            entry = self.scalars[name] = (
                f"v{len(self.scalars)}", self.gen.constant(name)
            )
        if write:
            self.written.add(name)
        return entry[0]

    def array(self, name: str) -> tuple[str, str]:
        entry = self.arrays.get(name)
        if entry is None:
            n = len(self.arrays)
            entry = self.arrays[name] = (f"a{n}", f"n{n}", self.gen.constant(name))
        return entry[0], entry[1]

    def finish(self) -> str:
        self.flush()
        out = [f"def {self.name}({self.params}):"]
        out.extend("    " + text for text in self.entry())
        out.append("    try:")
        for entry in self.lines:
            if isinstance(entry, tuple):
                out.extend(self._spill_lines(*entry))
            else:
                out.append(entry)
        out.extend(self.handler)
        out.append("    finally:")
        out.extend(self._exit_lines() or ["        pass"])
        out.extend("    " + text for text in self.epilogue)
        return "\n".join(out) + "\n"

    def entry(self) -> list[str]:
        """The lines that bind arrays and load scalars at entry."""
        out = []
        for local, size, const in self.arrays.values():
            out.append(f"{local} = arrays[{const}]")
            out.append(f"{size} = {local}.size")
        out.extend(f"{local} = scalars[{const}]" for local, const in self.scalars.values())
        return out + self.prologue

    def _exit_lines(self) -> list[str]:
        return self._store_lines(self.written, 2)

    def _store_lines(self, names: set[str], indent: int) -> list[str]:
        pad = "    " * indent
        return [
            f"{pad}scalars[{const}] = {local}"
            for name, (local, const) in self.scalars.items()
            if name in names
        ]

    def _spill_lines(self, indent: int, callee: "_Function | None") -> list[str]:
        if callee is None:
            return self._store_lines(self.written, indent)
        pad = "    " * indent
        reloads = [
            f"{pad}{local} = scalars[{const}]"
            for name, (local, const) in self.scalars.items()
            if name in callee.written
        ]
        return reloads or [f"{pad}pass"]

    # -- statements -------------------------------------------------------------

    def loop_iterations(self, loop: Do) -> None:
        """The body of :meth:`CompiledProgram.run_loop`: one iteration per
        value, one ``IterationCost`` each, totals added to ``cost``."""
        self.line("for value in values:")
        self.indent += 1
        self.blocks += 1
        self.prologue.append("append = cost.iteration_costs.append")
        self.set_iteration_var(loop.var)
        counters = ", ".join(f"c{j}" for j in range(6))
        if _straight(loop.body):
            self.fresh = False
            self.block(loop.body)
            counts, self.pending = self.pending, [0] * 6
            self.line("append(ic)")
            self.prologue.append(
                "ic = _IterationCost(" + ", ".join(map(str, counts)) + ", 0)"
            )
            self.epilogue = [
                f"cost.{_COUNTERS[j]} += {k} * len(values)"
                for j, k in enumerate(counts)
                if k
            ]
            return
        self.block(loop.body)
        self.flush()
        self.line(f"key = ({counters})")
        self.line("ic = memo.get(key)")
        self.line("if ic is None:")
        self.line(f"    ic = memo[key] = _IterationCost({counters}, 0)")
        self.line("append(ic)")
        for j in range(6):
            self.line(f"u{j} += c{j}")
        self.prologue.append("memo = {}")
        self.prologue.append("u0 = u1 = u2 = u3 = u4 = u5 = 0")
        self.epilogue = [f"cost.{_COUNTERS[j]} += u{j}" for j in range(6)]

    def set_iteration_var(self, var: str) -> None:
        """Set the loop variable to ``value``, as the walker's
        ``exec_iteration`` does."""
        gen = self.gen
        if var in gen.scalar_names:
            local = self.scalar(var, write=True)
            self.line(f"{local} = {gen.kind_of(var)}(value)")
        elif var in gen.kinds:
            const = gen.constant(var)
            self.line(f"scalars[{const}] = {gen.kind_of(var)}(value)")
        else:
            self.prologue.append(f"_undeclared_scalar({gen.constant(var)})")

    def block(self, body: list[Stmt]) -> None:
        if not body:
            self.line("pass")
        for stmt in body:
            self.statement(stmt)

    def statement(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            self.assign(stmt)
            return
        if not isinstance(stmt, (If, Do, While)):
            raise InterpError(f"cannot compile {type(stmt).__name__}")
        if self.indent >= _MAX_INDENT or (
            self.blocks >= _MAX_BLOCKS and not isinstance(stmt, If)
        ):
            self.flush()
            self.split(stmt)
        elif isinstance(stmt, If):
            self.branch(stmt)
        elif isinstance(stmt, Do):
            self.do(stmt)
        else:
            self.loop_while(stmt)

    def split(self, stmt: Stmt) -> None:
        """Run ``stmt`` as its own generated function: spill the dirty
        scalar locals, call, reload what the callee may have written."""
        callee = self.gen.split_function(stmt)
        self.lines.append((self.indent, None))
        result = self.temp()
        self.line("try:")
        self.line(f"    {result} = {callee.name}({self.split_args})")
        self.line("finally:")
        self.lines.append((self.indent + 1, callee))
        for j in range(6):
            self.line(f"c{j} += {result}[{j}]")
        self.after_split(callee, result)
        self.written |= callee.written
        self.checked = self.settled_checks()

    def after_split(self, callee: "_Function", result: str) -> None:
        return None

    def assign(self, stmt: Assign) -> None:
        target = stmt.target
        if isinstance(target, Var):
            text, kind, _, taint = self.expr(stmt.expr)
            self.pending[_SCALARS] += 1
            self.store_scalar(target.name, text, kind, taint)
            return
        assert isinstance(target, ArrayRef)
        # The walker evaluates a store's subscript, then its value, and
        # checks the subscript's bounds only as it stores.
        index = self.subscript(target)
        text, kind, _, taint = self.expr(stmt.expr)
        self.reads(taint)
        self.pending[_WRITES] += 1
        self.store(target, index, text, kind)

    def store(self, ref: ArrayRef, index: str, text: str, kind: str | None) -> None:
        """Emit ``ref(index) = text`` with its bounds check."""
        if self.bounds_check(ref, index):
            local, _ = self.array(ref.name)
            self.line(f"{local}[{index} - 1] = {text}")

    def store_scalar(self, name: str, text: str, kind: str | None, taint) -> None:
        gen = self.gen
        if name in gen.scalar_names:
            declared = gen.kind_of(name)
            local = self.scalar(name, write=True)
            value = text if kind == declared else f"{declared}({text})"
            self.line(f"{local} = {value}")
            self.checked = {key for key in self.checked if key[0] != local}
        elif name in gen.kinds:
            self.line(f"scalars[{gen.constant(name)}] = {gen.kind_of(name)}({text})")
        else:
            self.line(f"_undeclared_scalar({gen.constant(name)})")

    def branch(self, stmt: If) -> None:
        self.pending[_BRANCHES] += 1
        cond = self.condition(stmt.cond)
        self.flush()
        self.line(f"if {cond}:")
        before = self.checked
        after = self.arm(stmt.then_body, before)
        if stmt.else_body:
            self.line("else:")
            after &= self.arm(stmt.else_body, before)
        else:
            after &= before
        self.checked = after

    def arm(self, body: list[Stmt], checked: set[tuple[str, str]]) -> set[tuple[str, str]]:
        """Generate one branch arm from the checks that hold before it;
        return the checks that hold at its end."""
        self.checked = set(checked)
        self.indent += 1
        self.block(body)
        self.flush()
        self.indent -= 1
        return self.checked

    def bound(self, expr: Expr) -> str:
        """A loop bound, converted by ``int()``: a literal or a temporary."""
        if isinstance(expr, Num) and math.isfinite(expr.value):
            return _literal(int(expr.value))
        text, kind, _, taint = self.expr(expr)
        self.reads(taint)
        temp = self.temp()
        self.line(f"{temp} = {text}" if kind == _INT else f"{temp} = int({text})")
        return temp

    def do(self, stmt: Do) -> None:
        start = self.bound(stmt.start)
        stop = self.bound(stmt.stop)
        if stmt.step is None:
            step: str | int = 1
        elif isinstance(stmt.step, Num) and math.isfinite(stmt.step.value):
            step = int(stmt.step.value)
        else:
            step = self.bound(stmt.step)
        if isinstance(step, int):
            if step == 0:
                self.line("_zero_step()")
            elif step > 0:
                by = "" if step == 1 else f", {step}"
                trips = f"range({start}, {stop} + 1{by})"
            else:
                trips = f"range({start}, {stop} - 1, {step})"
        else:
            self.line(f"if {step} == 0: _zero_step()")
            trips = (
                f"range({start}, {stop} + 1, {step}) if {step} > 0 "
                f"else range({start}, {stop} - 1, {step})"
            )
        gen = self.gen
        var = stmt.var
        if var not in gen.kinds:
            self.line(f"_undeclared_scalar({gen.constant(var)})")
            return
        if step == 0:
            return
        kind = gen.kind_of(var)
        local = self.scalar(var, write=True) if var in gen.scalar_names else None
        values = self.temp()
        self.line(f"{values} = {trips}")
        self.flush()
        if local is not None and kind == _INT:
            self.line(f"for {local} in {values}:")
            self.indent += 1
        else:
            counter = self.temp()
            self.line(f"for {counter} in {values}:")
            self.indent += 1
            self.set_loop_var(var, local, f"{kind}({counter})")
        self.blocks += 1
        settled = self.settled_checks()
        self.checked = set(settled)
        # A loop variable counting up from 1 that the body never assigns
        # needs only the upper bounds check.
        positive = (
            local is not None and kind == _INT
            and isinstance(stmt.start, Num) and stmt.start.value >= 1
            and isinstance(step, int) and step > 0
            and not _assigns(stmt.body, var)
        )
        if positive:
            self.positive.add(local)
        straight = _straight(stmt.body)
        if straight:
            self.block(stmt.body)
            self.flush_q()
            counts, self.pending = self.pending, [0] * 6
        else:
            self.pending[_SCALARS] += 1
            self.block(stmt.body)
            self.flush()
        self.positive.discard(local)
        self.indent -= 1
        self.blocks -= 1
        self.checked = settled
        trips = self.temp()
        self.line(f"{trips} = len({values})")
        # Fortran leaves the loop variable one step past the bound.
        final = f"{start} + {trips} * {step}"
        self.set_loop_var(var, local, final if kind == _INT else f"float({final})")
        if straight:
            counts[_SCALARS] += 1
            for j, k in enumerate(counts):
                if k:
                    self.line(f"c{j} += {k} * {trips}")

    def set_loop_var(self, var: str, local: str | None, value: str) -> None:
        if local is not None:
            self.line(f"{local} = {value}")
        else:
            self.line(f"scalars[{self.gen.constant(var)}] = {value}")

    def loop_while(self, stmt: While) -> None:
        self.flush()
        settled = self.settled_checks()
        self.checked = set(settled)
        count = self.temp()
        self.line(f"{count} = 0")
        self.line("while True:")
        self.indent += 1
        self.blocks += 1
        self.pending[_BRANCHES] += 1
        cond = self.condition(stmt.cond)
        self.flush()
        self.line(f"if not {cond}:")
        self.line("    break")
        self.block(stmt.body)
        self.flush()
        self.line(f"{count} += 1")
        self.line(f"if {count} > _MAX_WHILE:")
        self.line("    _while_limit()")
        self.indent -= 1
        self.blocks -= 1
        self.checked = settled

    # -- expressions ------------------------------------------------------------

    def nest(self, text: str, kind: str | None, depth: int, taint=None):
        """``text`` inline, or bound to a temporary once it nests too deep."""
        if depth <= _MAX_EXPR_DEPTH:
            return text, kind, depth, taint
        temp = self.temp()
        self.line(f"{temp} = {text}")
        return temp, kind, 0, taint

    def expr(self, expr: Expr):
        """(text, static type, nesting depth, taint) of ``expr``'s value.

        Operations that can raise are emitted as statements, in
        evaluation order; the returned text only combines values.
        """
        if isinstance(expr, Num):
            return self.number(expr)
        if isinstance(expr, Var):
            self.pending[_SCALARS] += 1
            name = expr.name
            taint = self.taint_of(name)
            if name in self.gen.scalar_names:
                return self.scalar(name), self.gen.scalar_types.get(name), 0, taint
            temp = self.temp()
            self.line(f"{temp} = _read_scalar(scalars, {self.gen.constant(name)})")
            return temp, None, 0, taint
        if isinstance(expr, ArrayRef):
            return self.load(expr)
        if isinstance(expr, BinOp):
            return self.binop(expr)
        if isinstance(expr, UnaryOp):
            self.pending[_FLOPS] += 1
            text, kind, depth, taint = self.expr(expr.operand)
            if expr.op == "not":
                return self.nest(f"(0 if {text} else 1)", _INT, depth + 1, taint)
            return self.nest(f"(-{text})", kind, depth + 1, taint)
        if isinstance(expr, Call):
            self.pending[_INTRINSICS] += 1
            args = [self.expr(arg) for arg in expr.args]
            temp = self.temp()
            func = self.gen.constant(expr.func)
            listed = ", ".join(arg[0] for arg in args)
            self.line(f"{temp} = _apply_intrinsic({func}, [{listed}])")
            kind = _intrinsic_type(expr.func, [arg[1] for arg in args])
            return temp, kind, 0, self.union([arg[3] for arg in args])
        raise InterpError(f"cannot compile {type(expr).__name__}")

    def load(self, ref: ArrayRef):
        """Emit a load's subscript and checks; return its value."""
        index = self.subscript(ref)
        declared = self.bounds_check(ref, index)
        self.pending[_READS] += 1
        if not declared:
            return "None", None, 0, None
        local, _ = self.array(ref.name)
        kind = self.gen.kind_of(ref.name)
        return f"{kind}({local}[{index} - 1])", kind, 1, None

    def taint_of(self, name: str):
        """The pending reads scalar ``name`` may hold (None: none)."""
        return None

    def union(self, taints: list):
        """The taint of a value computed from values with ``taints``."""
        return None

    def reads(self, taint) -> None:
        """Report the pending reads of a value that escapes here."""
        return None

    def number(self, num: Num):
        value = int(num.value) if num.is_int else num.value
        if type(value) is int:
            return _literal(value), _INT, 0, None
        if type(value) is float:
            if math.isfinite(value):
                return _literal(value), _REAL, 0, None
            return self.gen.constant(value), _REAL, 0, None
        return self.gen.constant(value), None, 0, None

    def binop(self, expr: BinOp):
        op = expr.op
        if op in ("and", "or"):
            return self.logical(expr), _INT, 0, None
        self.pending[_FLOPS] += 1
        left, left_kind, left_depth, left_taint = self.expr(expr.left)
        right, right_kind, right_depth, right_taint = self.expr(expr.right)
        depth = max(left_depth, right_depth) + 1
        compare = _COMPARISONS.get(op)
        if op in _ARITHMETIC:
            kind = _numeric_type(left_kind, right_kind)
            text = f"({left} {op} {right})"
        elif compare is not None:
            kind, text = _INT, f"(1 if {left} {compare} {right} else 0)"
        else:
            if op == "/":
                kind = _numeric_type(left_kind, right_kind)
            elif (
                op == "**" and left_kind == right_kind == _INT
                and isinstance(expr.right, Num) and expr.right.value >= 0
            ):
                kind = _INT
            else:
                kind = None
            text, depth = self.temp(), 0
            self.line(f"{text} = _apply_binop({self.gen.constant(op)}, {left}, {right})")
        return self.nest(text, kind, depth, self.union([left_taint, right_taint]))

    def logical(self, expr: BinOp) -> str:
        """``and``/``or`` into a 1/0 temporary: each right side runs, and
        is counted, only when the sides before it do not decide.  A
        chain of one operator nested to the right stays flat."""
        op = expr.op
        result = self.temp()
        self.pending[_FLOPS] += 1
        left = self.condition(expr.left)
        self.flush()
        self.line(f"{result} = 1 if {left} else 0")
        guard = f"if not {result}:" if op == "or" else f"if {result}:"
        before = self.checked
        right = expr.right
        while True:
            self.line(guard)
            self.indent += 1
            self.checked = set(before)
            chained = isinstance(right, BinOp) and right.op == op
            if chained:
                self.pending[_FLOPS] += 1
            text = self.condition(right.left if chained else right)
            self.flush()
            self.line(f"{result} = 1 if {text} else 0")
            self.indent -= 1
            if not chained:
                break
            right = right.right
        self.checked = before
        return result

    def condition(self, expr: Expr) -> str:
        """Text whose truth is ``expr != 0``, as a branch tests it; the
        value's pending reads are reported."""
        if isinstance(expr, BinOp):
            if expr.op in ("and", "or"):
                return self.logical(expr)
            compare = _COMPARISONS.get(expr.op)
            if compare is not None:
                self.pending[_FLOPS] += 1
                left, _, _, left_taint = self.expr(expr.left)
                right, _, _, right_taint = self.expr(expr.right)
                self.reads(self.union([left_taint, right_taint]))
                return f"({left} {compare} {right})"
        if isinstance(expr, UnaryOp) and expr.op == "not":
            self.pending[_FLOPS] += 1
            inner = self.condition(expr.operand)
            temp = self.temp()
            self.line(f"{temp} = not {inner}")
            return temp
        text, _, _, taint = self.expr(expr)
        self.reads(taint)
        return text

    def subscript(self, ref: ArrayRef) -> str:
        """Emit a subscript's evaluation and non-integral check; return
        the name or literal holding its integer value."""
        text, kind, depth, taint = self.expr(ref.index)
        self.reads(taint)
        if kind != _INT:
            temp = self.temp()
            self.line(f"{temp} = _subscript({text})")
            return temp
        if depth:
            temp = self.temp()
            self.line(f"{temp} = {text}")
            return temp
        return text

    def bounds_check(self, ref: ArrayRef, index: str) -> bool:
        """Emit the array's declaration and 1-based bounds checks for
        ``index``; False when the array is undeclared (the emitted code
        raises)."""
        gen = self.gen
        const = gen.constant(ref.name)
        if ref.name not in gen.array_names:
            self.line(f"_undeclared_array({const})")
            return False
        _, size = self.array(ref.name)
        if (index, size) in self.checked:
            return True
        self.checked.add((index, size))
        if isinstance(ref.index, Num) and ref.index.is_int:
            literal = int(ref.index.value)
            if literal < 1:
                self.line(f"_out_of_bounds({index}, {const}, {size})")
                return True
            self.line(f"if {size} < {literal}:")
        elif index in self.positive:
            self.line(f"if {index} > {size}:")
        else:
            self.line(f"if not 1 <= {index} <= {size}:")
        self.line(f"    _out_of_bounds({index}, {const}, {size})")
        return True


# ---------------------------------------------------------------------------
# The speculative (marked) iteration
# ---------------------------------------------------------------------------

#: the factory parameter each per-processor row local is taken from:
#: private data, write stamps and mirror, and reduction partial maps.
_ROW_SOURCES = {"d": "D", "e": "S", "r": "M", "p": "P"}


class _MarkedGenerator(_Generator):
    """Generates the factory text of one target loop's marked iteration.

    ``m<i>(arrays, D, S, M, P, B, flush, order)`` binds one doall's
    structures (see :meth:`MarkedLoop.bind`) once and returns the
    iteration function ``it``; split-off callees are its siblings.
    Factory locals: ``a<i>``/``n<i>`` an array and its size, ``D``/``S``/
    ``M``/``P<i>`` its per-processor rows, ``b<i>``/``w<i>`` its mark
    buffer and the buffer's ``append``.
    """

    def __init__(self, program, loop, tested, value_based, redux_refs,
                 private, partial, live_out):
        super().__init__(program)
        self.loop = loop
        self.tested = tested
        self.value_based = value_based
        self.redux_refs = redux_refs
        self.private = private
        self.partial = partial
        #: factory lines, the locals they bind, and each array's slot.
        self.bindings: list[str] = []
        self.bound: set[str] = set()
        self.slots: dict[str, int] = {}
        #: the mark buffers the iteration fills, cleared after each flush.
        self.buffers: list[str] = []
        assigns = [
            stmt for stmt in walk_statements(loop.body)
            if isinstance(stmt, Assign) and isinstance(stmt.target, Var)
        ]
        #: scalars that may hold pending reads: some assignment gives
        #: them a value computed from a tested load or such a scalar.
        self.taintable: set[str] = set()
        changed = value_based
        while changed:
            changed = False
            for stmt in assigns:
                name = stmt.target.name
                if name not in self.taintable and self.may_taint(stmt.expr):
                    self.taintable.add(name)
                    changed = True
        #: the taintable live-out scalars, in first-assignment order.
        self.live_names = [
            name for name in dict.fromkeys(stmt.target.name for stmt in assigns)
            if name in self.taintable and name in live_out
        ]

    def may_taint(self, expr: Expr) -> bool:
        """Whether ``expr``'s value may carry pending reads (operands of
        ``and``/``or`` and subscripts report theirs on the spot)."""
        if isinstance(expr, Var):
            return expr.name in self.taintable
        if isinstance(expr, ArrayRef):
            return expr.name in self.tested and expr.ref_id not in self.redux_refs
        if isinstance(expr, BinOp):
            return expr.op not in ("and", "or") and (
                self.may_taint(expr.left) or self.may_taint(expr.right)
            )
        if isinstance(expr, UnaryOp):
            return self.may_taint(expr.operand)
        if isinstance(expr, Call):
            return any(self.may_taint(arg) for arg in expr.args)
        return False

    def route(self, name: str, op: str | None) -> str:
        """A site's memory, as the access router dispatches it."""
        if op is not None and name in self.partial:
            return "partial"
        return "private" if name in self.private else "shared"

    def bind(self, local: str, text: str) -> str:
        """A factory local, bound once per doall."""
        if local not in self.bound:
            self.bound.add(local)
            self.bindings.append(f"{local} = {text}")
        return local

    def slot(self, name: str) -> int:
        slot = self.slots.get(name)
        if slot is None:
            slot = self.slots[name] = len(self.slots)
            self.bind(f"a{slot}", f"arrays[{self.constant(name)}]")
            self.bind(f"n{slot}", f"a{slot}.size")
        return slot

    def buffer(self, name: str) -> str:
        """The ``append`` of ``name``'s mark buffer."""
        slot = self.slot(name)
        if f"b{slot}" not in self.bound:
            self.buffers.append(self.bind(f"b{slot}", f"B[{self.constant(name)}]"))
        return self.bind(f"w{slot}", f"b{slot}.append")

    def split_callee(self, name: str) -> "_Function":
        return _MarkedFunction(self, name, _MarkedFunction.split_args)

    def factory(self) -> str:
        it = _MarkedFunction(self, "it", "scalars, proc, position, value")
        it.iteration(self.loop)
        functions = [*self.functions, it.finish()]
        name = self._name("m")
        out = [f"def {name}(arrays, D, S, M, P, B, flush, order):"]
        out += ["    " + line for line in self.bindings]
        out.append("    memo = {}")
        out += ["    " + line for text in functions for line in text.splitlines()]
        out.append("    return it")
        self.functions = ["\n".join(out) + "\n"]
        return name


class _MarkedFunction(_Function):
    """One function of a marked iteration: accesses routed to the
    doall's structures, marks buffered, value-based taints tracked.

    Extra locals: ``d``/``e``/``r<i>`` the processor's private data,
    write-stamp and mirror rows, ``p<i>`` its partial map, ``x<i>`` a
    scalar's pending reads (None, or the walker's frozenset), ``q`` the
    next mark position.  A taint is None, ``(array, index)`` for the one
    read of a tested load, or a local holding None or a frozenset; the
    frozensets are built by the walker's own sequence of unions, so
    they iterate, and report their reads, in the walker's order.
    """

    split_args = "scalars, taints, proc, position, q"

    def __init__(self, gen: _MarkedGenerator, name: str, params: str):
        super().__init__(gen, name, params)
        self.blocks = 2  # the ``try`` and, in ``it``, its ``except``
        self.epilogue = ["return (c0, c1, c2, c3, c4, c5, q)"]
        #: row local -> its per-call binding.
        self.rows: dict[str, str] = {}
        #: scalar name -> (taint local, constant)
        self.taints: dict[str, tuple[str, str]] = {}
        #: scalar names whose taint this function (or a callee) sets.
        self.taint_written: set[str] = set()
        self.is_iteration = False
        self.splits = False

    def array(self, name: str) -> tuple[str, str]:
        slot = self.gen.slot(name)
        return f"a{slot}", f"n{slot}"

    def row(self, prefix: str, name: str) -> str:
        slot = self.gen.slot(name)
        local = f"{prefix}{slot}"
        if local not in self.rows:
            source = _ROW_SOURCES[prefix]
            outer = self.gen.bind(f"{source}{slot}", f"{source}[{self.gen.constant(name)}]")
            self.rows[local] = f"{outer}[proc]"
        return local

    def taint_local(self, name: str, write: bool = False) -> str:
        entry = self.taints.get(name)
        if entry is None:
            entry = self.taints[name] = (
                f"x{len(self.taints)}", self.gen.constant(name)
            )
        if write:
            self.taint_written.add(name)
        return entry[0]

    # -- the function frame -------------------------------------------------------

    def iteration(self, loop: Do) -> None:
        """The body of the iteration function ``it``: set the loop
        variable, run the body, report the live-out scalars' reads, flush
        the marks and return the iteration's cost."""
        gen = self.gen
        self.is_iteration = True
        self.set_iteration_var(loop.var)
        self.block(loop.body)
        live = [self.taint_local(name) for name in gen.live_names]
        if len(live) == 1:
            self.reads(live[0])
        elif live:
            self.flush_q()
            self.line(f"live = ({', '.join(live)})")
            self.line("for j in order:")
            self.line("    if live[j]:")
            self.line("        q = _reads(live[j], B, q)")
        self.flush()
        counters = "c0, c1, c2, c3, c4, c5"
        if gen.tested:
            self.prologue.append("q = 0")
            # The walker marks as it goes: an iteration that raises has
            # marked what it reached, and an eager conflict among those
            # marks is raised first.
            self.handler = ["    except BaseException:", "        flush(B)", "        raise"]
            self.epilogue = ["if q:", "    flush(B)"]
            self.epilogue += [f"    {buffer}.clear()" for buffer in gen.buffers]
            marks = "q"
        else:
            self.epilogue = []
            marks = "0"
        self.epilogue += [
            f"key = ({counters}, {marks})",
            "ic = memo.get(key)",
            "if ic is None:",
            f"    ic = memo[key] = _IterationCost({counters}, {marks})",
            "return ic",
        ]

    def entry(self) -> list[str]:
        out = [f"{local} = {source}" for local, source in self.rows.items()]
        out += [f"{local} = scalars[{const}]" for local, const in self.scalars.values()]
        if self.is_iteration:
            out += [f"{local} = None" for local, _ in self.taints.values()]
            if self.splits:
                out.append("taints = {}")
        else:
            out += [f"{local} = taints.get({const})" for local, const in self.taints.values()]
        return out + self.prologue

    def _exit_lines(self) -> list[str]:
        out = self._store_lines(self.written, 2)
        if not self.is_iteration:
            out += self._taint_lines(2)
        return out

    def _taint_lines(self, indent: int) -> list[str]:
        pad = "    " * indent
        return [
            f"{pad}taints[{const}] = {local}"
            for name, (local, const) in self.taints.items()
            if name in self.taint_written
        ]

    def _spill_lines(self, indent: int, callee: "_Function | None") -> list[str]:
        if callee is None:
            return self._store_lines(self.written, indent) + self._taint_lines(indent) or [
                "    " * indent + "pass"
            ]
        pad = "    " * indent
        return super()._spill_lines(indent, callee) + [
            f"{pad}{local} = taints.get({const})"
            for name, (local, const) in self.taints.items()
            if name in callee.taint_written
        ]

    def after_split(self, callee: "_Function", result: str) -> None:
        self.line(f"q = {result}[6]")
        self.taint_written |= callee.taint_written
        self.splits = True

    # -- routed accesses and marks --------------------------------------------------

    def mark(self, name: str, kind: int, index: str, opcode: int) -> None:
        append = self.gen.buffer(name)
        position = f"q + {self.qpend}" if self.qpend else "q"
        self.line(f"{append}(({position}, {kind}, {index} - 1, {opcode}))")
        self.qpend += 1

    def load(self, ref: ArrayRef):
        index = self.subscript(ref)
        declared = self.bounds_check(ref, index)
        self.pending[_READS] += 1
        if not declared:
            return "None", None, 0, None
        gen, name = self.gen, ref.name
        op = gen.redux_refs.get(ref.ref_id)
        route = gen.route(name, op)
        if route == "partial":
            identity = gen.constant((op, REDUCTION_IDENTITY[op]))
            text, kind = f"{self.row('p', name)}.get({index} - 1, {identity})[1]", None
        elif route == "private":
            text, kind = f"{self.row('r', name)}[{index} - 1]", gen.kind_of(name)
        else:
            local, _ = self.array(name)
            kind = gen.kind_of(name)
            text = f"{kind}({local}[{index} - 1])"
        taint = None
        if name in gen.tested:
            if op is not None:
                self.mark(name, KIND_REDUX, index, OP_CODES[op])
            elif gen.value_based:
                gen.buffer(name)
                taint = (name, index)
            else:
                self.mark(name, KIND_READ, index, 0)
        return text, kind, 1, taint

    def store(self, ref: ArrayRef, index: str, text: str, kind: str | None) -> None:
        if not self.bounds_check(ref, index):
            return
        gen, name = self.gen, ref.name
        op = gen.redux_refs.get(ref.ref_id)
        route = gen.route(name, op)
        offset = f"{index} - 1"
        if route == "partial":
            self.line(f"{self.row('p', name)}[{offset}] = ({gen.constant(op)}, {text})")
        elif route == "private":
            if not text.isidentifier():
                value, text = text, self.temp()
                self.line(f"{text} = {value}")
            declared = gen.kind_of(name)
            self.line(f"{self.row('d', name)}[{offset}] = {text}")
            self.line(f"{self.row('e', name)}[{offset}] = position")
            mirrored = text if kind == declared else f"{declared}({text})"
            self.line(f"{self.row('r', name)}[{offset}] = {mirrored}")
        else:
            super().store(ref, index, text, kind)
        if name in gen.tested:
            if op is None:
                self.mark(name, KIND_WRITE, index, 0)
            else:
                self.mark(name, KIND_REDUX, index, OP_CODES[op])

    # -- taints ---------------------------------------------------------------------

    def taint_of(self, name: str):
        return self.taint_local(name) if name in self.gen.taintable else None

    def materialize(self, taint) -> str:
        if taint is None:
            return "None"
        if isinstance(taint, tuple):
            name, index = taint
            return f"frozenset((({self.gen.constant(name)}, {index}),))"
        return taint

    def union(self, taints: list):
        present = [taint for taint in taints if taint is not None]
        if len(present) == 1 and isinstance(present[0], tuple):
            return present[0]  # one read joined onto nothing is itself
        if not present:
            return None
        temp = self.temp()
        if len(present) > 1:
            self.line(f"{temp} = _union({', '.join(map(self.materialize, present))})")
        else:
            self.line(f"{temp} = _EMPTY | {present[0]} if {present[0]} else None")
        return temp

    def reads(self, taint) -> None:
        if taint is None:
            return
        if isinstance(taint, tuple):
            self.mark(taint[0], KIND_READ, taint[1], 0)
            return
        self.flush_q()
        self.line(f"q = _reads({taint}, B, q) if {taint} else q")

    def store_scalar(self, name: str, text: str, kind: str | None, taint) -> None:
        if name in self.gen.taintable:
            # Before the value: the value may overwrite the subscript
            # local a pending read refers to.
            local = self.taint_local(name, write=True)
            self.line(f"{local} = {self.materialize(taint)}")
        super().store_scalar(name, text, kind, taint)
