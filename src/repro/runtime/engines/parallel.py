"""The multiprocess engine (``engine="parallel"``).

The marked doall runs on real forked worker processes — each owning a
contiguous block of virtual processors and a shared-memory shadow set —
with the paper's cross-processor merge folding the marks back
(:mod:`repro.runtime.parallel_backend`).  The per-iteration body
executor inside each worker is the compiled engine.
"""

from __future__ import annotations

from repro.runtime.doall import DoallRun
from repro.runtime.engines.base import DoallContext, EngineCaps, ExecutionEngine
from repro.runtime.engines.registry import registry


class ParallelEngine(ExecutionEngine):
    name = "parallel"
    caps = EngineCaps(requires_workers=True, fallback="compiled")
    summary = (
        "`multiprocessing` workers (`--workers N`), each marking its own "
        "shadow set in shared memory, OR/sum-merged before analysis"
    )
    guarantee = (
        "bit-identical to `compiled`; real wall-clock speedup on "
        "multi-core hosts"
    )

    def execute_doall(self, ctx: DoallContext) -> DoallRun:
        # Imported lazily: the backend imports DoallRun from the doall
        # module this package plugs into.
        from repro.runtime.parallel_backend import run_parallel_doall

        return run_parallel_doall(
            ctx.program, ctx.loop, ctx.env, ctx.plan, ctx.num_procs,
            marker=ctx.marker, value_based=ctx.value_based,
            schedule=ctx.schedule, values=ctx.values,
            workers=ctx.workers, pool=ctx.pool,
            backend=ctx.backend, compiled=ctx.compiled,
        )


registry.register(ParallelEngine())
