"""Worker-side shard execution for the multiprocess speculative backend.

The true-parallel doall (:mod:`repro.runtime.parallel_backend`) shards
the *virtual processors* of a marked doall across real OS worker
processes.  This module is the part that runs inside one worker: it owns
a contiguous block of virtual processors, executes exactly the
iterations the deterministic schedule assigned to them — in the same
per-processor order the emulated executor uses — and records everything
the parent needs to reconstruct a bit-identical
:class:`~repro.runtime.doall.DoallRun`:

* shadow marks go into the worker's own shadow set (the parent hands in
  a :class:`~repro.core.shadow.ShadowMarker`, typically backed by
  shared-memory views, so marks need no serialization at all);
* speculative array writes go to the owned processors' private copies
  and reduction partials, returned as per-processor rows/maps;
* writes to untransformed (shared) arrays are tracked as a diff against
  the loop-entry state and returned as sparse (index, value) updates;
* per-iteration operation counts are bracketed exactly as the emulated
  engine brackets them, including the discarded bracket of an eagerly
  aborted iteration.

Iterations run the loop's generated marked iteration
(:meth:`~repro.interp.compiled.CompiledProgram.marked_loop` on the
spec's compiled program: generated once per spec and worker process,
bound per task), unless a whole-block lowering takes the task.

Everything here is deliberately single-process and deterministic — the
module has no multiprocessing dependency, which is what lets the parity
suite drive a shard in-process and compare it mark-for-mark against the
emulated engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.privatize import PrivateCopies
from repro.core.reduction_exec import REDUCTION_IDENTITY, ReductionPartials
from repro.core.shadow import Granularity, ShadowMarker
from repro.dsl.ast_nodes import Do, Program
from repro.errors import SpeculationFailed
from repro.analysis.vectorize import classify_loop
from repro.interp.compiled import CompiledProgram, compile_program
from repro.interp.costs import IterationCost
from repro.interp.vectorized_spec import VectorizeBail, execute_vectorized_block
from repro.interp.env import Environment


@dataclass(frozen=True)
class ShardSpec:
    """Static per-loop configuration, fixed for a worker pool's lifetime.

    Everything that does not change between doalls of the same target
    loop: the program (and its compilation, which keeps the loop's
    generated iteration for every task), the transform plan's array
    classification and the virtual-processor count.  Shipped to workers
    once (inherited through ``fork``), while the per-doall state travels
    in :class:`ShardTask`.
    """

    program: Program
    loop: Do
    tested_arrays: frozenset[str]
    reduction_arrays: frozenset[str]
    redux_refs: dict[int, str]
    scalar_reductions: dict[str, str]
    live_out_scalars: frozenset[str]
    #: arrays the doall writes in place (checkpointed minus transformed).
    inplace_arrays: tuple[str, ...]
    num_procs: int
    shadow_sizes: dict[str, int]
    compiled: CompiledProgram = field(compare=False, repr=False)

    @classmethod
    def from_plan(cls, program: Program, loop: Do, plan, env: Environment,
                  num_procs: int,
                  compiled: CompiledProgram | None = None) -> "ShardSpec":
        inplace = tuple(sorted(
            set(plan.checkpoint_arrays)
            - set(plan.tested_arrays)
            - set(plan.reduction_arrays)
        ))
        return cls(
            program=program,
            loop=loop,
            tested_arrays=plan.tested_arrays,
            reduction_arrays=plan.reduction_arrays,
            redux_refs=dict(plan.redux_refs),
            scalar_reductions=dict(plan.scalar_reductions),
            live_out_scalars=plan.live_out_scalars,
            inplace_arrays=inplace,
            num_procs=num_procs,
            shadow_sizes={
                name: env.array_size(name) for name in sorted(plan.tested_arrays)
            },
            compiled=compiled if compiled is not None else compile_program(program),
        )


@dataclass
class ShardTask:
    """One worker's slice of one doall execution."""

    #: the iteration values of the whole doall (strip) being executed.
    values: list[int]
    #: full schedule: positions into ``values`` per virtual processor.
    assignment: list[list[int]]
    #: the virtual processors this worker owns (contiguous block).
    procs: list[int]
    #: loop-entry state (pickled across the pipe; workers never touch
    #: the parent's environment).
    env: Environment
    marking: bool = True
    value_based: bool = True
    granularity: Granularity = Granularity.ITERATION
    eager: bool = False
    #: run the owned lanes through the vectorized whole-block lowering
    #: (falls back to compiled per-iteration on a bail) instead of the
    #: per-iteration compiled executor.
    whole_block: bool = False


@dataclass
class ShardResult:
    """What one worker hands back (shadow marks travel via shared memory)."""

    #: post-execution scalar state per owned virtual processor.
    proc_scalars: dict[int, dict[str, float | int]]
    #: per tested array: {proc: (data row, wstamp row)} for owned procs.
    private_rows: dict[str, dict[int, tuple[np.ndarray, np.ndarray]]]
    #: per reduction array: {proc: partial map} for owned procs.
    partial_maps: dict[str, dict[int, dict[int, tuple[str, float]]]]
    #: (position, cost tuple) per completed iteration.
    iteration_costs: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    #: sparse in-place writes to untransformed arrays: name -> (idx, values).
    shared_writes: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    #: per tested array: this worker's tw contribution.
    tw: dict[str, int] = field(default_factory=dict)
    executed: int = 0
    aborted: bool = False
    #: why a requested vectorized execution degraded to compiled (if it did).
    fallback: str | None = None


def execute_shard(
    spec: ShardSpec, task: ShardTask, marker: ShadowMarker | None
) -> ShardResult:
    """Run one worker's virtual processors through their assigned iterations.

    Mirrors the emulated executor's round-robin interleaving restricted
    to the owned processors, so every per-processor observable (private
    rows, partials, scalars, iteration cost brackets, shadow marks and
    the eager-abort point) is deterministic and identical to what those
    processors produce under the single-process engines.
    """
    env = task.env
    privates = {
        name: PrivateCopies(name, env.arrays[name], spec.num_procs)
        for name in sorted(spec.tested_arrays)
    }
    partials = {
        name: ReductionPartials(name, spec.num_procs)
        for name in sorted(spec.reduction_arrays)
    }
    baselines = {name: env.arrays[name].copy() for name in spec.inplace_arrays}

    proc_envs: dict[int, Environment] = {}
    for proc in task.procs:
        proc_env = env.fork_scalars()
        for name, op in spec.scalar_reductions.items():
            proc_env.scalars[name] = REDUCTION_IDENTITY[op]
        proc_envs[proc] = proc_env

    tested = spec.tested_arrays if (marker is not None and task.marking) else frozenset()

    fallback: str | None = None
    if task.whole_block:
        positions = [p for proc in task.procs for p in task.assignment[proc]]
        decision = classify_loop(spec.program, spec.loop, spec)
        if decision:
            try:
                pairs = execute_vectorized_block(
                    spec.program, spec.loop,
                    values=task.values, positions=positions,
                    assignment=task.assignment, num_procs=spec.num_procs,
                    tested=tested, redux_refs=spec.redux_refs,
                    scalar_reductions=spec.scalar_reductions,
                    live_out_scalars=spec.live_out_scalars,
                    value_based=task.value_based,
                    marker=marker if task.marking else None,
                    privates=privates, partials=partials,
                    proc_envs=proc_envs, shared_env=env,
                )
            except VectorizeBail as bail:
                fallback = bail.reason
            else:
                return ShardResult(
                    proc_scalars={
                        proc: dict(pe.scalars) for proc, pe in proc_envs.items()
                    },
                    private_rows={
                        name: {
                            proc: (copies.data[proc].copy(),
                                   copies.wstamp[proc].copy())
                            for proc in task.procs
                        }
                        for name, copies in privates.items()
                    },
                    partial_maps={
                        name: {proc: dict(p.proc_maps()[proc])
                               for proc in task.procs}
                        for name, p in partials.items()
                    },
                    iteration_costs=[
                        (pos, (c.flops, c.mem_reads, c.mem_writes,
                               c.scalar_ops, c.intrinsics, c.branches,
                               c.marks))
                        for pos, c in pairs
                    ],
                    shared_writes={},  # the classifier rejects shared stores
                    tw={
                        name: shadow.tw
                        for name, shadow in (
                            marker.shadows if marker else {}
                        ).items()
                    },
                    executed=len(positions),
                    aborted=False,
                )
        else:
            fallback = decision.reason
        # The block attempt committed nothing: run the owned processors
        # per-iteration on the compiled engine over the same structures.

    iteration = spec.compiled.marked_loop(
        spec.loop, tested=tested, value_based=task.value_based,
        redux_refs=spec.redux_refs, private=privates, partial=partials,
        live_out=spec.live_out_scalars,
    ).bind(
        env.arrays, privates, partials, marker if task.marking else None,
        spec.live_out_scalars,
    )

    iteration_costs: list[tuple[int, IterationCost]] = []
    pointers = {proc: 0 for proc in task.procs}
    remaining = sum(len(task.assignment[proc]) for proc in task.procs)
    executed = 0
    aborted = False
    values = task.values
    while remaining and not aborted:
        for proc in task.procs:
            if pointers[proc] >= len(task.assignment[proc]):
                continue
            position = task.assignment[proc][pointers[proc]]
            pointers[proc] += 1
            remaining -= 1
            if marker is not None:
                granule = (
                    position
                    if marker.granularity is Granularity.ITERATION
                    else proc
                )
                marker.set_granule(granule)
            try:
                cost = iteration(
                    proc_envs[proc].scalars, proc, position, values[position]
                )
            except SpeculationFailed:
                # Local on-the-fly detection: a conflict within this
                # worker's granules is already a certain global failure
                # (the merge only adds marks), so the shard stops here.
                aborted = True
                break
            iteration_costs.append((position, cost))
            executed += 1

    shared_writes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, baseline in baselines.items():
        current = env.arrays[name]
        changed = np.nonzero(current != baseline)[0]
        if changed.size:
            shared_writes[name] = (changed, current[changed].copy())

    return ShardResult(
        proc_scalars={proc: dict(pe.scalars) for proc, pe in proc_envs.items()},
        private_rows={
            name: {
                proc: (copies.data[proc].copy(), copies.wstamp[proc].copy())
                for proc in task.procs
            }
            for name, copies in privates.items()
        },
        partial_maps={
            name: {proc: dict(p.proc_maps()[proc]) for proc in task.procs}
            for name, p in partials.items()
        },
        iteration_costs=[
            (pos, (c.flops, c.mem_reads, c.mem_writes, c.scalar_ops,
                   c.intrinsics, c.branches, c.marks))
            for pos, c in iteration_costs
        ],
        shared_writes=shared_writes,
        tw={name: shadow.tw for name, shadow in (marker.shadows if marker else {}).items()},
        executed=executed,
        aborted=aborted,
        fallback=fallback,
    )
