"""The true multiprocess speculative backend.

Where :func:`repro.runtime.doall.run_doall` *emulates* ``p`` processors
inside one OS process, this backend actually runs the marked doall on
real worker processes:

* the ``p`` virtual processors of the machine model are partitioned into
  contiguous blocks, one block per worker (``workers`` is an execution
  resource, independent of the simulated processor count);
* each worker owns a full shadow set for the tested arrays, laid out in
  a :class:`multiprocessing.shared_memory.SharedMemory` segment so the
  parent reads the marks back without any serialization;
* each worker executes its processors' iterations via
  :func:`repro.interp.parallel_spec.execute_shard` — private copies,
  reduction partials and per-processor scalars included;
* after the join, the parent performs the paper's cross-processor merge
  (:meth:`repro.core.shadow.ShadowArray.merge_from`: OR/union of the
  mark bits, summed ``tw``, merged ``tm`` stamps) into the caller's
  marker and reconstructs a :class:`~repro.runtime.doall.DoallRun` that
  the existing LRPD analysis and commit machinery consume unchanged.

The reconstruction is bit-identical to the emulated engines for every
analysis-visible quantity (shadow contents, ``tw``/``tm``, private rows
and write stamps, reduction partials, per-processor scalars, iteration
costs and the derived simulated times) on runs that complete.  Runs cut
short by eager (on-the-fly) detection abort at a worker-local point
rather than the emulation's global round-robin point, so only the
verdict (always "fail", guaranteed by mark monotonicity under the
merge) and the post-protocol environment are comparable there.

Workers are forked (``fork`` start method) so the shared-memory views
and the shard spec, with its compiled program, are inherited, not
pickled; a persistent :class:`WorkerPool` amortizes the fork across the
strips of a strip-mined run.  Segment teardown is robust: :meth:`WorkerPool.close`
unlinks every segment even when a strip aborted or a worker raised, so
no ``/dev/shm`` segments outlive the pool.

A ``threads`` sibling (:class:`ThreadWorkerPool`, ``--backend
threads``) runs the very same shards on ``threading`` workers over
per-worker in-process :class:`~repro.core.shadow.ShadowArray` sets — no
fork, no shared memory, no environment pickling — through the identical
``merge_from`` path, so small-trip loops stop losing their speedup to
process setup.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import secrets
import threading
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.analysis.instrument import InstrumentationPlan
from repro.core.privatize import PrivateCopies
from repro.core.reduction_exec import REDUCTION_IDENTITY, ReductionPartials
from repro.core.shadow import SHADOW_FIELDS, Granularity, ShadowArray, ShadowMarker
from repro.dsl.ast_nodes import Do, Program
from repro.errors import InterpError
from repro.interp.compiled import CompiledProgram
from repro.interp.costs import IterationCost
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter
from repro.interp.parallel_spec import (
    ShardResult,
    ShardSpec,
    ShardTask,
    execute_shard,
)
from repro.machine.schedule import ScheduleKind, assign_iterations
from repro.runtime.doall import DoallRun
from repro.runtime.serial import loop_iteration_values

#: /dev/shm name prefix of the arena's segments (the teardown test
#: globs for leftovers under this prefix).
SEGMENT_PREFIX = "lrpd-shadow"

_ALIGN = 8

#: the selectable worker-pool flavours (``--backend``): forked processes
#: over shared-memory shadows, or in-process threads over plain shadows.
BACKENDS = ("fork", "threads")
DEFAULT_BACKEND = "fork"


def validate_backend(backend: str) -> str:
    """The single backend-name validation point (RunConfig, CLI)."""
    if backend not in BACKENDS:
        raise InterpError(
            f"unknown parallel backend {backend!r}; choose from "
            f"{', '.join(BACKENDS)}"
        )
    return backend


def default_workers(num_procs: int) -> int:
    """Worker count when the caller does not pin one: one per usable
    core, never more than the virtual processors being sharded."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(num_procs, cores))


def partition_procs(num_procs: int, workers: int) -> list[list[int]]:
    """Deal the virtual processors into contiguous per-worker blocks.

    Empty blocks (``workers > num_procs``) are dropped, so the result's
    length is the *effective* worker count.
    """
    if num_procs < 1:
        raise InterpError("cannot shard a doall across zero processors")
    if workers < 1:
        raise InterpError("parallel backend needs at least one worker")
    return [
        chunk.tolist()
        for chunk in np.array_split(np.arange(num_procs), min(workers, num_procs))
        if chunk.size
    ]


class SharedShadowArena:
    """Per-worker shadow sets backed by shared-memory segments.

    One segment per worker packs all ten shadow buffers
    (:data:`~repro.core.shadow.SHADOW_FIELDS`) of every tested array at
    8-byte-aligned offsets.  The segments are created — and the numpy
    views plus :class:`ShadowMarker` wrappers built — in the parent
    *before* the workers fork, so both sides address the same physical
    pages and marks made in a worker are immediately visible to the
    parent's merge without serialization.
    """

    def __init__(self, shadow_sizes: dict[str, int], workers: int):
        self.shadow_sizes = dict(shadow_sizes)
        layout: list[tuple[str, str, int, np.dtype, int]] = []
        offset = 0
        for name in sorted(self.shadow_sizes):
            size = self.shadow_sizes[name]
            for fieldname, dtype in SHADOW_FIELDS:
                dtype = np.dtype(dtype)
                offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
                layout.append((name, fieldname, size, dtype, offset))
                offset += size * dtype.itemsize
        self._layout = layout
        self._segment_bytes = max(offset, 1)

        self.segments: list[SharedMemory] = []
        self.markers: list[ShadowMarker] = []
        try:
            for _ in range(workers):
                segment = SharedMemory(
                    create=True,
                    size=self._segment_bytes,
                    name=f"{SEGMENT_PREFIX}-{os.getpid()}-{secrets.token_hex(4)}",
                )
                self.segments.append(segment)
                self.markers.append(self._build_marker(segment))
        except BaseException:
            self.close()
            raise

    def _build_marker(self, segment: SharedMemory) -> ShadowMarker:
        buffers: dict[str, dict[str, np.ndarray]] = {
            name: {} for name in self.shadow_sizes
        }
        for name, fieldname, size, dtype, offset in self._layout:
            buffers[name][fieldname] = np.ndarray(
                (size,), dtype=dtype, buffer=segment.buf, offset=offset
            )
        shadows = {
            name: ShadowArray.from_buffers(name, self.shadow_sizes[name], views)
            for name, views in buffers.items()
        }
        return ShadowMarker.from_shadows(shadows)

    def close(self) -> None:
        """Release the views and unlink every segment (idempotent)."""
        self.markers.clear()
        segments, self.segments = self.segments, []
        for segment in segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - view still exported
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def _worker_main(spec: ShardSpec, marker: ShadowMarker, conn) -> None:
    """One worker's serve loop: recv a :class:`ShardTask`, run it, reply.

    Replies are ``("ok", ShardResult)`` or ``("error", exception)``; the
    loop exits on a ``None`` sentinel or a closed pipe.  The worker's
    marker (shared-memory backed, inherited through fork) is reset here,
    per task, so the parent never races a worker on the buffers.
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            if task.marking:
                marker.reset(task.granularity, eager=task.eager)
                result = execute_shard(spec, task, marker)
            else:
                result = execute_shard(spec, task, None)
            reply = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            reply = ("error", exc)
        try:
            conn.send(reply)
        except Exception:  # pragma: no cover - unpicklable payload
            conn.send(("error", InterpError(f"worker reply failed: {reply[1]!r}")))


class WorkerPool:
    """A persistent set of forked shard workers over one shadow arena.

    Forked once and reused across doalls of the same loop (the strip
    pipeline sends every strip through the same pool), which amortizes
    process startup and shadow allocation.  Always :meth:`close` the
    pool — it is also a context manager — to join the workers and unlink
    the shared-memory segments; teardown runs even after aborts and
    forwarded worker exceptions.
    """

    def __init__(self, spec: ShardSpec, workers: int):
        self.spec = spec
        self.chunks = partition_procs(spec.num_procs, workers)
        self.num_workers = len(self.chunks)
        self.arena = SharedShadowArena(spec.shadow_sizes, self.num_workers)
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        try:
            for marker in self.arena.markers:
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(spec, marker, child_conn),
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Dispatch one task per worker; gather results in worker order.

        All replies are drained before any forwarded worker exception is
        re-raised, so the pool stays reusable after a failed doall.
        """
        if len(tasks) != self.num_workers:
            raise InterpError(
                f"pool of {self.num_workers} workers got {len(tasks)} shard tasks"
            )
        for conn, task in zip(self._conns, tasks):
            conn.send(task)
        results: list[ShardResult] = []
        errors: list[BaseException] = []
        for index, conn in enumerate(self._conns):
            try:
                status, payload = conn.recv()
            except (EOFError, OSError):
                errors.append(InterpError(f"parallel worker {index} died"))
                continue
            if status == "ok":
                results.append(payload)
            else:
                errors.append(payload)
        if errors:
            raise errors[0]
        return results

    def close(self) -> None:
        """Join the workers and unlink the arena (idempotent)."""
        conns, self._conns = self._conns, []
        procs, self._procs = self._procs, []
        for conn in conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            conn.close()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5.0)
        self.arena.close()


class ThreadShadowArena:
    """Per-worker shadow sets as plain in-process :class:`ShadowArray`\\ s.

    The thread backend's sibling of :class:`SharedShadowArena`: same
    ``markers`` contract (one :class:`ShadowMarker` per worker that the
    parent's :func:`_merge_results` reads directly), but the buffers are
    ordinary numpy arrays — no ``/dev/shm`` segments to allocate or
    unlink, which is exactly the setup cost the backend exists to avoid.
    """

    def __init__(self, shadow_sizes: dict[str, int], workers: int):
        self.shadow_sizes = dict(shadow_sizes)
        self.markers: list[ShadowMarker] = [
            ShadowMarker.from_shadows({
                name: ShadowArray(name, size)
                for name, size in sorted(self.shadow_sizes.items())
            })
            for _ in range(workers)
        ]

    def close(self) -> None:
        """Drop the markers (idempotent; nothing external to release)."""
        self.markers.clear()


def _thread_worker_main(spec: ShardSpec, marker: ShadowMarker, inbox, outbox):
    """One thread worker's serve loop — :func:`_worker_main` minus pipes.

    Unlike a forked worker, a thread shares the parent's address space:
    the task's environment must be cloned here (fork workers get theirs
    through the pickle/fork copy) or the shard's in-place writes would
    mutate the parent environment directly *and* come back again through
    ``shared_writes`` in the merge.
    """
    while True:
        task = inbox.get()
        if task is None:
            return
        try:
            task = dataclasses.replace(task, env=task.env.copy())
            if task.marking:
                marker.reset(task.granularity, eager=task.eager)
                result = execute_shard(spec, task, marker)
            else:
                result = execute_shard(spec, task, None)
            reply = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            reply = ("error", exc)
        outbox.put(reply)


class ThreadWorkerPool:
    """A persistent set of ``threading`` shard workers — no fork at all.

    Same contract as :class:`WorkerPool` (``spec``, ``chunks``,
    ``num_workers``, ``arena``, :meth:`run`, :meth:`close`, context
    manager) over per-worker in-process :class:`ShadowArray` sets, so
    :func:`_merge_results` runs the identical ``merge_from`` path and
    the results are bit-identical to the fork backend.  Small-trip
    loops keep their speedup because there is no process start, no
    shared-memory allocation and no environment pickling — each worker
    clones the environment in-process instead.
    """

    def __init__(self, spec: ShardSpec, workers: int):
        self.spec = spec
        self.chunks = partition_procs(spec.num_procs, workers)
        self.num_workers = len(self.chunks)
        self.arena = ThreadShadowArena(spec.shadow_sizes, self.num_workers)
        self._inboxes: list[queue.SimpleQueue] = []
        self._outboxes: list[queue.SimpleQueue] = []
        self._threads: list[threading.Thread] = []
        for marker in self.arena.markers:
            inbox: queue.SimpleQueue = queue.SimpleQueue()
            outbox: queue.SimpleQueue = queue.SimpleQueue()
            thread = threading.Thread(
                target=_thread_worker_main,
                args=(spec, marker, inbox, outbox),
                daemon=True,
            )
            thread.start()
            self._inboxes.append(inbox)
            self._outboxes.append(outbox)
            self._threads.append(thread)

    def __enter__(self) -> "ThreadWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, tasks: list[ShardTask]) -> list[ShardResult]:
        """Dispatch one task per worker; gather results in worker order.

        Same drain-then-raise discipline as :meth:`WorkerPool.run`, so
        the pool stays reusable after a failed doall.
        """
        if len(tasks) != self.num_workers:
            raise InterpError(
                f"pool of {self.num_workers} workers got {len(tasks)} shard tasks"
            )
        for inbox, task in zip(self._inboxes, tasks):
            inbox.put(task)
        results: list[ShardResult] = []
        errors: list[BaseException] = []
        for outbox in self._outboxes:
            status, payload = outbox.get()
            if status == "ok":
                results.append(payload)
            else:
                errors.append(payload)
        if errors:
            raise errors[0]
        return results

    def close(self) -> None:
        """Join the worker threads and drop the arena (idempotent)."""
        inboxes, self._inboxes = self._inboxes, []
        threads, self._threads = self._threads, []
        self._outboxes = []
        for inbox in inboxes:
            inbox.put(None)
        for thread in threads:
            thread.join(timeout=5.0)
        self.arena.close()


def make_worker_pool(spec: ShardSpec, workers: int, backend: str = DEFAULT_BACKEND):
    """Build the requested pool flavour over ``spec`` (the one place
    backend names are compared)."""
    validate_backend(backend)
    if backend == "threads":
        return ThreadWorkerPool(spec, workers)
    return WorkerPool(spec, workers)


class WorkerPoolCache:
    """Persistent worker pools kept alive across doalls *and* requests.

    The strip pipeline already reuses one pool across the strips of a
    single run; this cache promotes that reuse to the next level — a
    long-lived owner (a :class:`~repro.runtime.orchestrator.LoopRunner`
    held by the serve daemon) keys pools by
    ``(loop identity, num_procs, workers, backend)`` and hands the same
    forked workers to every subsequent request of the same loop, so
    repeat jobs pay neither process startup nor shared-memory setup.

    A :class:`~repro.interp.parallel_spec.ShardSpec` is fixed for a
    loop's lifetime (program, transform plan, shadow sizes), so a cached
    pool stays valid as long as its key does.  Pools are OS resources:
    always :meth:`close` the cache (it is also a context manager) —
    every pool's teardown is attempted even if one raises.
    """

    def __init__(self) -> None:
        self._pools: dict[tuple, object] = {}
        #: reuse telemetry (surfaced in the serve daemon's stats).
        self.hits = 0
        self.builds = 0

    def get(self, key: tuple, build):
        """The cached pool under ``key``, building it on first use."""
        pool = self._pools.get(key)
        if pool is not None:
            self.hits += 1
            return pool
        pool = build()
        self._pools[key] = pool
        self.builds += 1
        return pool

    def __len__(self) -> int:
        return len(self._pools)

    def __enter__(self) -> "WorkerPoolCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every cached pool (idempotent; closes all even on error)."""
        pools, self._pools = self._pools, {}
        errors: list[BaseException] = []
        for pool in pools.values():
            try:
                pool.close()
            except BaseException as exc:  # noqa: BLE001 - close them all
                errors.append(exc)
        if errors:
            raise errors[0]


def run_parallel_doall(
    program: Program,
    loop: Do,
    env: Environment,
    plan: InstrumentationPlan,
    num_procs: int,
    *,
    marker: ShadowMarker | None,
    value_based: bool = True,
    schedule: ScheduleKind = ScheduleKind.BLOCK,
    values: list[int] | None = None,
    workers: int | None = None,
    pool: WorkerPool | ThreadWorkerPool | None = None,
    backend: str = DEFAULT_BACKEND,
    compiled: CompiledProgram | None = None,
) -> DoallRun:
    """Execute the marked doall on real worker processes.

    Drop-in replacement for the emulated executors behind
    :func:`repro.runtime.doall.run_doall` (reached via the ``parallel``
    engine): same contract, same returned :class:`DoallRun`, with the
    shadow marks merged into ``marker`` per the paper's cross-processor
    union.  ``marker`` must be freshly reset (the speculative protocols
    guarantee this) — the merge folds the workers' marks into it rather
    than marking incrementally.

    ``pool`` reuses a persistent :class:`WorkerPool` /
    :class:`ThreadWorkerPool` (the strip pipeline passes one); otherwise
    an ephemeral pool of ``workers`` workers (default: one per usable
    core) of the requested ``backend`` flavour is built and torn down
    around this single doall, its shards running on ``compiled``
    (``program`` compiled, compiled here when None).
    """
    if values is None:
        bounds_interp = Interpreter(program, env, value_based=False)
        start, stop, step = bounds_interp.eval_loop_bounds(loop)
        values = loop_iteration_values(start, stop, step)

    exec_schedule = (
        ScheduleKind.CYCLIC if schedule is ScheduleKind.DYNAMIC else schedule
    )
    assignment = assign_iterations(len(values), num_procs, exec_schedule)

    owned_pool = None
    if pool is None:
        spec = ShardSpec.from_plan(program, loop, plan, env, num_procs, compiled)
        owned_pool = pool = make_worker_pool(
            spec,
            workers if workers is not None else default_workers(num_procs),
            backend,
        )
    elif pool.spec.num_procs != num_procs:
        raise InterpError(
            f"worker pool sharded for p={pool.spec.num_procs}, doall wants "
            f"p={num_procs}"
        )
    try:
        eager = marker is not None and any(
            shadow.eager for shadow in marker.shadows.values()
        )
        tasks = [
            ShardTask(
                values=values,
                assignment=assignment,
                procs=chunk,
                env=env,
                marking=marker is not None,
                value_based=value_based,
                granularity=(
                    marker.granularity if marker is not None
                    else Granularity.ITERATION
                ),
                eager=eager,
            )
            for chunk in pool.chunks
        ]
        results = pool.run(tasks)
        return _merge_results(
            pool, results, env, plan, num_procs, marker, values, assignment,
        )
    finally:
        if owned_pool is not None:
            owned_pool.close()


def _merge_results(
    pool: WorkerPool | ThreadWorkerPool,
    results: list[ShardResult],
    env: Environment,
    plan: InstrumentationPlan,
    num_procs: int,
    marker: ShadowMarker | None,
    values: list[int],
    assignment: list[list[int]],
) -> DoallRun:
    """Fold the per-worker shard results into one :class:`DoallRun`.

    This is the paper's cross-processor merge phase plus the bookkeeping
    that re-creates exactly the state the emulated executor would have
    left behind: merged shadows in ``marker``, full private-copy and
    partial structures with the owned rows/maps written back, per-
    processor scalar environments, the dense iteration-cost list, and
    the in-place writes to untransformed shared arrays applied in
    worker (= serial block) order.
    """
    if marker is not None:
        for name, shadow in marker.shadows.items():
            parts = []
            for worker_marker, result in zip(pool.arena.markers, results):
                part = worker_marker.shadows[name]
                part.tw = result.tw.get(name, 0)
                parts.append(part)
            shadow.merge_from(parts)

    scalar_init = {
        name: env.scalars[name]
        for name in plan.scalar_reductions
        if name in env.scalars
    }

    privates = {
        name: PrivateCopies(name, env.arrays[name], num_procs)
        for name in sorted(plan.tested_arrays)
    }
    partials = {
        name: ReductionPartials(name, num_procs)
        for name in sorted(plan.reduction_arrays)
    }
    proc_envs: list[Environment] = []
    for _proc in range(num_procs):
        proc_env = env.fork_scalars()
        for name, op in plan.scalar_reductions.items():
            proc_env.scalars[name] = REDUCTION_IDENTITY[op]
        proc_envs.append(proc_env)

    iteration_costs: list[IterationCost] = [IterationCost()] * len(values)
    for result in results:
        for name, rows in result.private_rows.items():
            copies = privates[name]
            for proc, (data, wstamp) in rows.items():
                copies.data[proc] = data
                copies.wstamp[proc] = wstamp
        for name, maps in result.partial_maps.items():
            proc_maps = partials[name].proc_maps()
            for proc, partial in maps.items():
                proc_maps[proc].update(partial)
        for proc, scalars in result.proc_scalars.items():
            proc_envs[proc].scalars = dict(scalars)
        for position, cost in result.iteration_costs:
            iteration_costs[position] = IterationCost(*cost)
        for name, (indices, written) in result.shared_writes.items():
            env.arrays[name][indices] = written

    return DoallRun(
        values=values,
        assignment=assignment,
        iteration_costs=iteration_costs,
        privates=privates,
        partials=partials,
        proc_envs=proc_envs,
        marker=marker,
        scalar_init=scalar_init,
        aborted=any(result.aborted for result in results),
        executed_iterations=sum(result.executed for result in results),
        engine_used="parallel",
    )
