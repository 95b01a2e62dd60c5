"""Execution strategies: serial, speculative doall, inspector/executor.

The orchestrator (:class:`repro.runtime.orchestrator.LoopRunner`) ties
the whole framework together: it compiles the instrumentation plan,
chooses (or is told) a strategy, runs it against the simulated machine
and produces an :class:`repro.runtime.results.ExecutionReport` with the
simulated time breakdown and speedup.
"""

from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.results import ExecutionReport, SerialRun

__all__ = [
    "ExecutionReport",
    "LoopRunner",
    "RunConfig",
    "SerialRun",
    "Strategy",
]
