"""The process-wide execution-engine registry.

Engines register themselves at import time (see the sibling modules);
every consumer — ``run_doall`` dispatch, ``run_serial``, ``RunConfig``
validation, the CLI's ``--engine`` choices, the worker-pool decision in
the strip pipeline and the parameterized equivalence suites — resolves
names and capabilities through this one object instead of comparing
strings.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SpeculationError
from repro.runtime.engines.base import ExecutionEngine, UnknownEngineError


class EngineRegistry:
    """Name -> :class:`ExecutionEngine` mapping with capability queries."""

    def __init__(self) -> None:
        self._engines: dict[str, ExecutionEngine] = {}

    # -- registration --------------------------------------------------------

    def register(self, engine: ExecutionEngine) -> ExecutionEngine:
        """Add ``engine`` under its declared name (names are unique)."""
        if not engine.name:
            raise SpeculationError("an execution engine must declare a name")
        if engine.name in self._engines:
            raise SpeculationError(
                f"execution engine {engine.name!r} is already registered"
            )
        self._engines[engine.name] = engine
        return engine

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> ExecutionEngine:
        """The engine registered under ``name``.

        Raises :class:`UnknownEngineError` with the registered names in
        the message — the single validation point for user-supplied
        engine strings (``RunConfig``/CLI call this at construction).
        """
        try:
            return self._engines[name]
        except KeyError:
            raise UnknownEngineError(
                f"unknown engine {name!r}; registered engines: "
                f"{', '.join(self.names())}"
            ) from None

    def names(self) -> list[str]:
        """All registered engine names, sorted (CLI choices)."""
        return sorted(self._engines)

    def all(self) -> list[ExecutionEngine]:
        """All registered engines in name order (test parameterization)."""
        return [self._engines[name] for name in self.names()]

    # -- capability walks ----------------------------------------------------

    def fallback_chain(self, name: str) -> list[str]:
        """The declared fallback chain starting at ``name`` (inclusive).

        E.g. ``["vectorized", "compiled"]``: a vectorized decline re-runs
        on compiled.  Cycles are an engine-definition bug and rejected.
        """
        chain: list[str] = []
        current: Optional[str] = name
        while current is not None:
            if current in chain:
                raise SpeculationError(
                    f"engine fallback cycle: {' -> '.join(chain + [current])}"
                )
            engine = self.get(current)
            chain.append(current)
            current = engine.caps.fallback
        return chain

    def serial_engine_for(self, name: str) -> tuple[str, Optional[str]]:
        """The engine to run a *serial* execution requested as ``name``.

        Returns ``(engine name, substitution reason)``; the reason is
        ``None`` when the engine runs serially itself.  Engines without
        a serial executor (parallel has no doall to shard, vectorized no
        block to lower, auto nothing to plan) substitute the first
        serial-capable engine on their declared fallback chain — and the
        substitution is *reported*, not silently dropped.
        """
        for candidate in self.fallback_chain(name):
            if self.get(candidate).caps.supports_serial:
                if candidate == name:
                    return name, None
                return candidate, (
                    f"engine {name!r} has no serial executor; "
                    f"substituted {candidate!r}"
                )
        raise UnknownEngineError(
            f"engine {name!r} has no serial-capable engine on its "
            f"fallback chain"
        )

    def needs_worker_pool(self, name: str, workers: Optional[int]) -> bool:
        """Whether a run of ``name`` with ``workers`` shards onto real
        worker processes (the strip pipeline pre-forks one pool if so)."""
        caps = self.get(name).caps
        # The planner picks the sharding engine exactly when workers
        # were requested (see EnginePlanner).
        return caps.requires_workers or (caps.planner and workers is not None)


#: the process-wide registry; populated by the engine modules' imports
#: in :mod:`repro.runtime.engines`.
registry = EngineRegistry()
