"""The execution-engine protocol: capabilities, context, fallback.

Every doall body executor — the reference tree walker, the
compiled fast path, the vectorized whole-block lowering, the
multiprocess backend and the ``auto`` planner — implements
:class:`ExecutionEngine` and registers itself in
:mod:`repro.runtime.engines.registry`.  The rest of the runtime never
compares engine *names*; it asks the registry for an engine object and
queries its declared :class:`EngineCaps`.  That single seam is what
makes a fifth engine a one-file addition: define it, register it, and
the CLI choices, ``RunConfig`` validation, worker-pool decisions,
serial substitution and the equivalence test suites all pick it up.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import InterpError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (doall imports us)
    from repro.analysis.instrument import InstrumentationPlan
    from repro.core.shadow import ShadowMarker
    from repro.dsl.ast_nodes import Do, Program
    from repro.interp.compiled import CompiledProgram
    from repro.interp.env import Environment
    from repro.machine.costmodel import CostModel
    from repro.machine.schedule import ScheduleKind
    from repro.runtime.doall import DoallRun
    from repro.runtime.results import SerialRun


class UnknownEngineError(InterpError, ValueError):
    """An engine name that no registered engine answers to.

    Doubles as a :class:`ValueError` so construction-time validation
    (``RunConfig``, CLI) and the historic ``run_serial`` contract raise
    a type existing callers already catch.
    """


class EngineFallback(Exception):
    """Raised by an engine that declines the loop (pre-commit, no state
    touched); the dispatcher walks the engine's declared fallback chain
    and records ``reason`` on the resulting run."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class EngineCaps:
    """Declared capabilities of one execution engine.

    These replace every scattered ``engine == "..."`` comparison: call
    sites query the capability they actually care about.
    """

    #: has a serial (non-doall) executor — :meth:`ExecutionEngine.execute_serial`.
    supports_serial: bool = False
    #: shards the doall across real workers (``workers=``/``pool=``),
    #: one per usable core without an explicit worker count (the
    #: "parallel" engine, the only one that shards).
    requires_workers: bool = False
    #: executes the loop body as one whole-block lowering rather than
    #: per-iteration dispatch.
    whole_block: bool = False
    #: selects another engine per loop instead of executing itself
    #: (the ``auto`` planner).
    planner: bool = False
    #: next engine to try when this one declines a loop
    #: (:class:`EngineFallback`), and the serial substitute when
    #: ``supports_serial`` is false.  ``None`` terminates the chain.
    fallback: Optional[str] = None


@dataclass
class DoallContext:
    """Everything one doall execution needs, engine-independent.

    Built once by :func:`repro.runtime.doall.run_doall` and handed to
    the selected engine; a fallback re-dispatch reuses the same context
    (the declining engine is contractually forbidden from mutating any
    of it pre-commit).
    """

    program: "Program"
    loop: "Do"
    env: "Environment"
    plan: "InstrumentationPlan"
    num_procs: int
    marker: Optional["ShadowMarker"]
    value_based: bool
    schedule: "ScheduleKind"
    #: the iteration values to execute (already resolved: full loop
    #: bounds or one strip of them).
    values: list[int]
    workers: Optional[int] = None
    pool: object = None
    #: worker-pool flavour for sharded execution ("fork" or "threads");
    #: validated by :func:`repro.runtime.parallel_backend.validate_backend`.
    backend: str = "fork"
    #: False when the caller will not read ``iteration_costs`` off the
    #: run (schedule reuse with memoized times): engines whose cost
    #: accounting is separable from execution may skip it and return an
    #: empty cost list.  Engines with accounting interleaved into
    #: execution simply ignore the hint.
    need_costs: bool = True
    #: ``program`` compiled, when the caller keeps one (a runner does):
    #: engines that run generated code memoize their loop text on it.
    compiled: Optional["CompiledProgram"] = None


class ExecutionEngine(abc.ABC):
    """One doall body executor.

    Subclasses set :attr:`name`, :attr:`caps` and the documentation
    strings (the README engine table is generated from them), implement
    :meth:`execute_doall`, and — when ``caps.supports_serial`` —
    :meth:`execute_serial`.  ``select`` is the planner hook: the default
    engine selects itself.
    """

    #: registry key and user-facing ``--engine`` value.
    name: str = ""
    caps: EngineCaps = EngineCaps()
    #: one-line description for generated docs (README engine table).
    summary: str = ""
    #: the parity/performance contract for generated docs.
    guarantee: str = ""

    def select(self, ctx: DoallContext) -> tuple["ExecutionEngine", Optional[str]]:
        """Resolve the engine that should execute ``ctx``.

        Returns ``(engine, reason)``; non-planner engines return
        themselves with no reason, the ``auto`` planner returns its
        per-loop pick and the recorded rationale.
        """
        return self, None

    @abc.abstractmethod
    def execute_doall(self, ctx: DoallContext) -> "DoallRun":
        """Execute the marked doall; raise :class:`EngineFallback` to
        decline (strictly before touching any caller-visible state)."""

    def execute_serial(
        self,
        program: "Program",
        env: "Environment",
        model: "CostModel",
        loop: "Do",
        before: list,
        after: list,
        *,
        compiled: "CompiledProgram | None" = None,
    ) -> "SerialRun":
        """Serial whole-program execution (engines with ``supports_serial``).

        ``compiled`` is ``program`` already compiled; an engine that
        runs compiled code uses it instead of compiling its own.
        """
        raise UnknownEngineError(
            f"engine {self.name!r} has no serial executor"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<engine {self.name!r}>"
