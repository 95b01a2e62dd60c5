"""Pluggable execution engines behind one registry seam.

Importing this package registers the built-in engines (walk, compiled,
vectorized, parallel, auto); everything else resolves engines
through :data:`registry` — by name for dispatch, by capability for decisions
(worker pools, serial substitution, CLI choices, test
parameterization).  Adding an engine is one module: subclass
:class:`ExecutionEngine`, declare :class:`EngineCaps`, call
``registry.register``, import it here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import InterpError
from repro.runtime.engines.base import (
    DoallContext,
    EngineCaps,
    EngineFallback,
    ExecutionEngine,
    UnknownEngineError,
)
from repro.runtime.engines.planner import (
    MIN_VECTOR_TRIP,
    EnginePlan,
    EnginePlanner,
)
from repro.runtime.engines.registry import EngineRegistry, registry

# Importing the engine modules is what populates the registry.
from repro.runtime.engines import compiled as _compiled  # noqa: E402,F401
from repro.runtime.engines import walk as _walk  # noqa: E402,F401
from repro.runtime.engines import vectorized as _vectorized  # noqa: E402,F401
from repro.runtime.engines import parallel as _parallel  # noqa: E402,F401
from repro.runtime.engines import auto as _auto  # noqa: E402,F401

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.doall import DoallRun

#: the engine a fresh :class:`~repro.runtime.orchestrator.RunConfig` uses.
DEFAULT_ENGINE = "compiled"

#: didactic ordering of the generated docs table (registry order is
#: alphabetical; the docs read reference-first).
_DOC_ORDER = ("walk", "compiled", "vectorized", "parallel", "auto")


def get_engine(name: str) -> ExecutionEngine:
    """Resolve ``name`` (raises :class:`UnknownEngineError` listing the
    registered engines) — the single engine-validation point."""
    return registry.get(name)


def engine_names() -> list[str]:
    """Registered engine names, sorted (the CLI's ``--engine`` choices)."""
    return registry.names()


def all_engines() -> list[ExecutionEngine]:
    """Registered engines in name order (test parameterization)."""
    return registry.all()


def serial_engine_for(name: str) -> tuple[str, Optional[str]]:
    """See :meth:`EngineRegistry.serial_engine_for`."""
    return registry.serial_engine_for(name)


def needs_worker_pool(name: str, workers: Optional[int]) -> bool:
    """See :meth:`EngineRegistry.needs_worker_pool`."""
    return registry.needs_worker_pool(name, workers)


def execute_doall(ctx: DoallContext, name: str) -> "DoallRun":
    """Select, execute, and — on declines — walk the fallback chain.

    This is the one dispatcher behind :func:`repro.runtime.doall.run_doall`:
    ``select`` resolves planners (``auto``) to their per-loop pick, then
    the chosen engine runs; an :class:`EngineFallback` re-dispatches to
    the engine's declared ``caps.fallback`` with the first decline
    reason recorded on the returned run (exactly the old inline
    vectorized→compiled special case, now a declared chain).
    """
    engine, decision = registry.get(name).select(ctx)
    fallback_reason: Optional[str] = None
    current = engine
    while True:
        try:
            run = current.execute_doall(ctx)
            break
        except EngineFallback as decline:
            if fallback_reason is None:
                fallback_reason = decline.reason
            next_name = current.caps.fallback
            if next_name is None:
                raise InterpError(
                    f"engine {current.name!r} declined the loop "
                    f"({decline.reason}) and declares no fallback"
                ) from decline
            current = registry.get(next_name)
    if run.fallback_reason is None:
        run.fallback_reason = fallback_reason
    run.engine_decision = decision
    return run


def render_engine_table() -> str:
    """The README's engine table, generated from the registry.

    One row per registered engine (declared ``summary``/``guarantee``),
    so the docs cannot drift from the code —
    ``tests/integration/test_readme_examples.py`` asserts the README
    matches this output verbatim.
    """
    names = [n for n in _DOC_ORDER if n in registry.names()]
    names += [n for n in registry.names() if n not in names]
    lines = ["| Engine | What it is | Guarantee |", "|---|---|---|"]
    for name in names:
        engine = registry.get(name)
        label = f"`{name}`" + (" (default)" if name == DEFAULT_ENGINE else "")
        lines.append(f"| {label} | {engine.summary} | {engine.guarantee} |")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_ENGINE",
    "DoallContext",
    "EngineCaps",
    "EngineFallback",
    "EnginePlan",
    "EnginePlanner",
    "EngineRegistry",
    "ExecutionEngine",
    "MIN_VECTOR_TRIP",
    "UnknownEngineError",
    "all_engines",
    "engine_names",
    "execute_doall",
    "get_engine",
    "needs_worker_pool",
    "registry",
    "render_engine_table",
    "serial_engine_for",
]
