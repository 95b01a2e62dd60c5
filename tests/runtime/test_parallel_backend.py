"""Cross-engine parity and teardown tests for the multiprocess backend.

The parallel engine must be observationally identical to the compiled
single-process engine: same LRPD verdicts, same shadow contents
(including ``tw``/``tm`` and the directional stamps), same simulated
times and stats, and the same post-protocol memory — on paper loops,
failing loops and strip-mined runs alike.  Runs cut short by eager
detection abort at a worker-local point, so there only the verdict and
the post-protocol environment are comparable (see
:mod:`repro.runtime.parallel_backend`).

Teardown is part of the contract: no ``/dev/shm`` segment may survive a
pool, whether the run passed, aborted eagerly, or died on a forwarded
worker exception.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.analysis.instrument import build_plan
from repro.core.shadow import Granularity, ShadowArray, ShadowMarker
from repro.dsl.parser import parse
from repro.errors import InterpError
from repro.interp.env import Environment
from repro.interp.parallel_spec import ShardSpec, ShardTask, execute_shard
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind, assign_iterations
from repro.machine.simulator import DoallSimulator
from repro.runtime.doall import run_doall
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.parallel_backend import (
    SEGMENT_PREFIX,
    WorkerPool,
    partition_procs,
    run_parallel_doall,
)
from repro.runtime.speculative import SpeculationPipeline
from repro.workloads import PAPER_LOOPS
from repro.workloads.synthetic import build_dependence_injected

#: every analysis-visible ShadowArray buffer (the parity surface).
#: ``_last_write`` is deliberately absent: it is a marking-time scratch
#: stamp (read-coveredness, tw counting) whose final value reflects the
#: executor's interleaving — the emulation's round-robin order vs the
#: merge's serial-order canonicalization — and nothing reads it after
#: the run.
SHADOW_SURFACE = (
    "w", "r", "np_", "nx", "redux_touched", "multi_w",
    "_min_write", "_max_exposed_read", "_min_exposed_read", "_redux_op",
)


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


def spec_outcome(workload, engine, *, workers=None, procs=8, eager=False):
    """Run the unstripped protocol, returning (outcome, post-loop env)."""
    runner = LoopRunner(workload.program(), workload.inputs)
    env = Environment(runner.program, runner.inputs)
    from repro.interp.interpreter import Interpreter

    Interpreter(runner.program, env, value_based=False).exec_block(runner._before)
    sim = DoallSimulator(fx80().with_procs(procs), ScheduleKind.BLOCK)
    outcome = SpeculationPipeline(
        runner.program, runner.loop, env, runner.plan, sim,
        engine=engine, workers=workers, eager=eager,
    ).run()
    return outcome, env


def assert_env_equal(env_a: Environment, env_b: Environment) -> None:
    assert env_a.scalars == env_b.scalars
    assert env_a.arrays.keys() == env_b.arrays.keys()
    for name in env_a.arrays:
        np.testing.assert_array_equal(env_a.arrays[name], env_b.arrays[name])


def assert_shadows_equal(marker_a: ShadowMarker, marker_b: ShadowMarker) -> None:
    assert marker_a.shadows.keys() == marker_b.shadows.keys()
    for name, shadow_a in marker_a.shadows.items():
        shadow_b = marker_b.shadows[name]
        assert shadow_a.tw == shadow_b.tw, name
        assert shadow_a.tm == shadow_b.tm, name
        for fieldname in SHADOW_SURFACE:
            np.testing.assert_array_equal(
                getattr(shadow_a, fieldname), getattr(shadow_b, fieldname),
                err_msg=f"{name}.{fieldname}",
            )


def assert_full_parity(compiled, parallel, env_compiled, env_parallel):
    """Everything observable must match on runs that complete."""
    assert compiled.result == parallel.result
    assert compiled.times == parallel.times
    assert compiled.stats == parallel.stats
    assert compiled.run.aborted == parallel.run.aborted
    assert compiled.run.executed_iterations == parallel.run.executed_iterations
    assert compiled.run.iteration_costs == parallel.run.iteration_costs
    assert compiled.run.assignment == parallel.run.assignment
    assert_shadows_equal(compiled.run.marker, parallel.run.marker)
    assert_env_equal(env_compiled, env_parallel)


# -- parity: paper loops ------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["BDNA_ACTFOR_do240", "MDG_INTERF_do1000", "OCEAN_FTRVMT_do109"]
)
def test_paper_loop_parity(name):
    workload = PAPER_LOOPS[name]()
    compiled, env_c = spec_outcome(workload, "compiled")
    parallel, env_p = spec_outcome(workload, "parallel", workers=3)
    assert compiled.result.passed and parallel.result.passed
    assert_full_parity(compiled, parallel, env_c, env_p)
    assert leaked_segments() == []


def test_copied_out_last_values_match():
    """Dynamic last-value copy-out survives the cross-worker rebuild."""
    workload = PAPER_LOOPS["BDNA_ACTFOR_do240"]()
    compiled, env_c = spec_outcome(workload, "compiled")
    parallel, env_p = spec_outcome(workload, "parallel", workers=4)
    assert compiled.stats["copied_out"] == parallel.stats["copied_out"]
    for name, copies in compiled.run.privates.items():
        other = parallel.run.privates[name]
        np.testing.assert_array_equal(copies.data, other.data, err_msg=name)
        np.testing.assert_array_equal(copies.wstamp, other.wstamp, err_msg=name)


# -- parity: failure and rollback paths ---------------------------------------


def test_failing_loop_full_parity():
    """A failed (non-eager) speculation is still fully bit-identical:
    the doall completes, the analysis fails, rollback + serial rerun."""
    workload = build_dependence_injected(n=80, dep_fraction=0.25)
    compiled, env_c = spec_outcome(workload, "compiled")
    parallel, env_p = spec_outcome(workload, "parallel", workers=2)
    assert not compiled.result.passed and not parallel.result.passed
    assert_full_parity(compiled, parallel, env_c, env_p)
    assert leaked_segments() == []


def test_eager_abort_verdict_and_env_parity():
    """Eager aborts stop at a worker-local point, so the comparable
    surface is the verdict (always a fail, by mark monotonicity under
    the merge) and the rolled-back + serially recomputed memory."""
    workload = build_dependence_injected(n=80, dep_fraction=0.25)
    compiled, env_c = spec_outcome(workload, "compiled", eager=True)
    parallel, env_p = spec_outcome(workload, "parallel", workers=2, eager=True)
    assert compiled.run.aborted and parallel.run.aborted
    assert not compiled.result.passed and not parallel.result.passed
    assert_env_equal(env_c, env_p)
    assert leaked_segments() == []


def test_stripped_strategy_parity():
    """The strip pipeline reuses one pool across strips; every strip's
    outcome, the whole-loop verdict, times, stats and memory match."""
    workload = build_dependence_injected(n=120, dep_fraction=0.1)

    def run(engine, workers=None):
        runner = LoopRunner(workload.program(), workload.inputs)
        return runner.run(
            Strategy.STRIPPED,
            RunConfig(engine=engine, workers=workers, strip_size=25),
        )

    compiled = run("compiled")
    parallel = run("parallel", workers=2)
    assert compiled.passed == parallel.passed
    assert compiled.times == parallel.times
    assert compiled.stats == parallel.stats
    assert [(s.passed, s.aborted, s.iterations) for s in compiled.strips] == [
        (s.passed, s.aborted, s.iterations) for s in parallel.strips
    ]
    assert_env_equal(compiled.env, parallel.env)
    assert leaked_segments() == []


# -- worker-count edges -------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 3, 16])
def test_worker_count_invariance(workers):
    """The shard partition must not be observable: 1 worker, an uneven
    split, and more workers than virtual processors all agree."""
    workload = PAPER_LOOPS["MDG_INTERF_do1000"]()
    compiled, env_c = spec_outcome(workload, "compiled")
    parallel, env_p = spec_outcome(workload, "parallel", workers=workers)
    assert_full_parity(compiled, parallel, env_c, env_p)


def test_partition_procs_contiguous_and_total():
    chunks = partition_procs(8, 3)
    assert [len(c) for c in chunks] == [3, 3, 2]
    assert sorted(p for c in chunks for p in c) == list(range(8))
    assert partition_procs(2, 16) == [[0], [1]]
    with pytest.raises(InterpError):
        partition_procs(8, 0)


# -- in-process shard executor ------------------------------------------------


def _plan_env(workload):
    program = workload.program()
    plan = build_plan(program)
    env = Environment(program, workload.inputs)
    return program, plan, env


def test_execute_shard_matches_emulated_doall():
    """One shard owning *all* virtual processors, run in-process, must
    reproduce the emulated doall's private rows, partials, scalars and
    iteration costs exactly."""
    workload = PAPER_LOOPS["BDNA_ACTFOR_do240"]()
    program, plan, env = _plan_env(workload)
    num_procs = 4

    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    marker = ShadowMarker(shadow_sizes)
    reference = run_doall(
        program, plan.loop, env.copy(), plan, num_procs, marker=marker
    )

    spec = ShardSpec.from_plan(program, plan.loop, plan, env, num_procs)
    shard_marker = ShadowMarker(shadow_sizes)
    task = ShardTask(
        values=reference.values,
        assignment=reference.assignment,
        procs=list(range(num_procs)),
        env=env.copy(),
        granularity=Granularity.ITERATION,
    )
    result = execute_shard(spec, task, shard_marker)

    assert not result.aborted
    assert result.executed == reference.executed_iterations
    assert_shadows_equal(marker, shard_marker)
    for name, copies in reference.privates.items():
        for proc in range(num_procs):
            data, wstamp = result.private_rows[name][proc]
            np.testing.assert_array_equal(copies.data[proc], data)
            np.testing.assert_array_equal(copies.wstamp[proc], wstamp)
    for name, partials in reference.partials.items():
        maps = partials.proc_maps()
        for proc in range(num_procs):
            assert maps[proc] == result.partial_maps[name][proc]
    for proc in range(num_procs):
        assert reference.proc_envs[proc].scalars == result.proc_scalars[proc]
    rebuilt = {pos: cost for pos, cost in result.iteration_costs}
    for position, cost in enumerate(reference.iteration_costs):
        assert rebuilt[position] == (
            cost.flops, cost.mem_reads, cost.mem_writes, cost.scalar_ops,
            cost.intrinsics, cost.branches, cost.marks,
        )


# -- shadow merge primitives --------------------------------------------------


def test_merge_from_equals_sequential_marking():
    """Marking granules into per-worker shadows and merging must equal
    marking the same accesses into one shadow."""
    size = 16
    sequential = ShadowArray("a", size)
    part_one = ShadowArray("a", size)
    part_two = ShadowArray("a", size)

    # granules 0..3 on worker one, 4..7 on worker two (disjoint granules,
    # overlapping elements — exercises multi_w, np_, tw and the stamps).
    accesses = [
        (0, "w", 3), (0, "r", 5), (1, "w", 3), (1, "r", 3),
        (2, "redux", 7), (3, "w", 9),
        (4, "w", 3), (4, "r", 9), (5, "redux", 7), (6, "w", 5), (7, "r", 3),
    ]
    for granule, kind, index in accesses:
        part = part_one if granule < 4 else part_two
        for shadow in (sequential, part):
            if kind == "w":
                shadow.mark_write(index, granule)
            elif kind == "r":
                shadow.mark_read(index, granule)
            else:
                shadow.mark_redux(index, granule, "+")

    merged = ShadowArray("a", size)
    merged.merge_from([part_one, part_two])
    assert merged.tw == sequential.tw
    assert merged.tm == sequential.tm
    for fieldname in SHADOW_SURFACE:
        np.testing.assert_array_equal(
            getattr(merged, fieldname), getattr(sequential, fieldname),
            err_msg=fieldname,
        )


def test_from_buffers_rejects_bad_layout():
    from repro.core.shadow import SHADOW_FIELDS

    buffers = {
        name: np.zeros(4, dtype=dtype) for name, dtype in SHADOW_FIELDS
    }
    ShadowArray.from_buffers("a", 4, buffers)  # well-formed: accepted
    bad = dict(buffers)
    bad["_last_write"] = np.zeros(4, dtype=np.int32)
    with pytest.raises(ValueError):
        ShadowArray.from_buffers("a", 4, bad)
    with pytest.raises(ValueError):
        ShadowArray.from_buffers("a", 5, buffers)


# -- teardown robustness ------------------------------------------------------


def test_no_segments_leak_after_eager_abort():
    """The bugfix satellite: an eagerly aborted doall (worker raises
    SpeculationFailed mid-strip) must still unlink every segment."""
    workload = build_dependence_injected(n=80, dep_fraction=0.5)
    runner = LoopRunner(workload.program(), workload.inputs)
    report = runner.run(
        Strategy.SPECULATIVE,
        RunConfig(engine="parallel", workers=2, eager_failure_detection=True),
    )
    assert report.passed is False
    assert leaked_segments() == []


def test_no_segments_leak_after_worker_exception():
    """A worker crash (out-of-bounds subscript -> InterpError) is
    forwarded to the parent and the pool still unlinks its segments."""
    source = """
program oob
  integer i, n
  integer idx(6)
  real a(6)
  do i = 1, n
    a(idx(i)) = a(idx(i)) + 1.0
  end do
end
"""
    program = parse(source)
    plan = build_plan(program)
    env = Environment(
        program,
        {"n": 6, "idx": np.array([1, 2, 99, 4, 5, 6]), "a": np.zeros(6)},
    )
    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    marker = ShadowMarker(shadow_sizes)
    with pytest.raises(InterpError, match="out of bounds"):
        run_parallel_doall(
            program, plan.loop, env, plan, 4, marker=marker, workers=2
        )
    assert leaked_segments() == []


def test_pool_reuse_and_mismatch():
    """One pool serves several doalls; a processor-count mismatch is
    rejected; close() is idempotent and unlinks the arena."""
    workload = PAPER_LOOPS["BDNA_ACTFOR_do240"]()
    program, plan, env = _plan_env(workload)
    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}
    spec = ShardSpec.from_plan(program, plan.loop, plan, env, 4)
    with WorkerPool(spec, workers=2) as pool:
        assert leaked_segments() != []  # arena is live while the pool is
        for _ in range(2):
            marker = ShadowMarker(shadow_sizes)
            run = run_parallel_doall(
                program, plan.loop, env.copy(), plan, 4, marker=marker, pool=pool
            )
            assert run.executed_iterations == run.num_iterations
        with pytest.raises(InterpError, match="sharded for p="):
            run_parallel_doall(
                program, plan.loop, env.copy(), plan, 8,
                marker=ShadowMarker(shadow_sizes), pool=pool,
            )
    assert leaked_segments() == []
    pool.close()  # idempotent


def test_unmarked_executor_run():
    """marker=None (schedule-reuse / inspector executor) works and the
    assignment/iteration counts match the emulated engine."""
    workload = PAPER_LOOPS["OCEAN_FTRVMT_do109"]()
    program, plan, env = _plan_env(workload)
    reference = run_doall(
        program, plan.loop, env.copy(), plan, 4, marker=None, value_based=False
    )
    env_p = env.copy()
    run = run_parallel_doall(
        program, plan.loop, env_p, plan, 4,
        marker=None, value_based=False, workers=2,
    )
    assert run.assignment == reference.assignment
    assert run.iteration_costs == reference.iteration_costs
    assert run.executed_iterations == reference.executed_iterations
    assert leaked_segments() == []


def test_dynamic_schedule_parity():
    """DYNAMIC scheduling (emulated as a cyclic deal) shards identically."""
    workload = PAPER_LOOPS["MDG_INTERF_do1000"]()
    program, plan, env = _plan_env(workload)
    shadow_sizes = {name: env.array_size(name) for name in plan.tested_arrays}

    def one(engine):
        marker = ShadowMarker(shadow_sizes)
        run = run_doall(
            program, plan.loop, env.copy(), plan, 4, marker=marker,
            schedule=ScheduleKind.DYNAMIC, engine=engine, workers=2,
        )
        return run, marker

    ref_run, ref_marker = one("compiled")
    par_run, par_marker = one("parallel")
    expected = assign_iterations(
        len(ref_run.values), 4, ScheduleKind.CYCLIC
    )
    assert ref_run.assignment == expected == par_run.assignment
    assert ref_run.iteration_costs == par_run.iteration_costs
    assert_shadows_equal(ref_marker, par_marker)
