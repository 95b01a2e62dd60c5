"""The no-fork thread backend (``--backend threads``).

The thread pool is a drop-in sibling of the forked :class:`WorkerPool`:
per-worker in-process shadow sets, the same shard tasks, the same
serial-order merge — so every observable (verdicts, shadows, simulated
times, stats, post-protocol memory) must be bit-identical to both the
fork backend and the compiled single-process engine.  Aborted shards
must merge identically too, and backend validation must reject unknown
names at every entry point (pool factory, RunConfig, CLI).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.errors import InterpError
from repro.interp.env import Environment
from repro.interp.parallel_spec import ShardSpec
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.parallel_backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    ThreadShadowArena,
    ThreadWorkerPool,
    WorkerPool,
    make_worker_pool,
    validate_backend,
)
from repro.workloads import PAPER_LOOPS
from repro.workloads.bdna import build_bdna
from repro.workloads.ocean import build_ocean
from repro.workloads.synthetic import build_dependence_injected

from tests.runtime.test_parallel_backend import (
    assert_env_equal,
    assert_full_parity,
    leaked_segments,
)


def spec_outcome(workload, engine, *, workers=None, procs=8, eager=False,
                 backend="fork"):
    """Run the unstripped protocol, returning (outcome, post-loop env)."""
    from repro.interp.interpreter import Interpreter
    from repro.machine.schedule import ScheduleKind
    from repro.machine.simulator import DoallSimulator
    from repro.runtime.speculative import SpeculationPipeline

    runner = LoopRunner(workload.program(), workload.inputs)
    env = Environment(runner.program, runner.inputs)
    Interpreter(runner.program, env, value_based=False).exec_block(runner._before)
    sim = DoallSimulator(fx80().with_procs(procs), ScheduleKind.BLOCK)
    outcome = SpeculationPipeline(
        runner.program, runner.loop, env, runner.plan, sim,
        engine=engine, workers=workers, eager=eager, backend=backend,
    ).run()
    return outcome, env


def _shard_spec(workload):
    program = parse(workload.source)
    plan = build_plan(program)
    env = Environment(program, workload.inputs)
    return ShardSpec.from_plan(program, plan.loop, plan, env, num_procs=8)


# -- parity -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["BDNA_ACTFOR_do240", "MDG_INTERF_do1000", "OCEAN_FTRVMT_do109"]
)
def test_threads_match_fork_and_compiled(name):
    workload = PAPER_LOOPS[name]()
    compiled, env_c = spec_outcome(workload, "compiled")
    fork, env_f = spec_outcome(workload, "parallel", workers=3)
    threads, env_t = spec_outcome(
        workload, "parallel", workers=3, backend="threads"
    )
    assert_full_parity(compiled, threads, env_c, env_t)
    assert_full_parity(fork, threads, env_f, env_t)


def test_failing_loop_parity():
    workload = build_ocean(nk=150, overlap=True)
    fork, env_f = spec_outcome(workload, "parallel", workers=3)
    threads, env_t = spec_outcome(
        workload, "parallel", workers=3, backend="threads"
    )
    assert not threads.result.passed
    assert_full_parity(fork, threads, env_f, env_t)


def test_aborted_shard_merges_identically():
    """Eager abort inside a shard: the surviving marks of every shard —
    including the aborted one — must fold back to a fail, and the
    rolled-back + serially recomputed memory must match fork exactly."""
    workload = build_dependence_injected(n=80, dep_fraction=0.25)
    fork, env_f = spec_outcome(workload, "parallel", workers=2, eager=True)
    threads, env_t = spec_outcome(
        workload, "parallel", workers=2, eager=True, backend="threads"
    )
    assert fork.run.aborted and threads.run.aborted
    assert not fork.result.passed and not threads.result.passed
    assert_env_equal(env_f, env_t)


def test_whole_block_shards_over_threads():
    """The whole-block engine ignores the worker backend: it runs
    in-process under either flavour, identically."""
    ref, env_r = spec_outcome(build_bdna(n=60), "vectorized", workers=2)
    threads, env_t = spec_outcome(
        build_bdna(n=60), "vectorized", workers=2, backend="threads"
    )
    assert_full_parity(ref, threads, env_r, env_t)


def test_stripped_pipeline_over_threads():
    def report(backend):
        workload = build_bdna(n=60)
        runner = LoopRunner(workload.program(), workload.inputs)
        cfg = RunConfig(
            model=fx80().with_procs(8), engine="parallel",
            workers=2, strip_size=16, backend=backend,
        )
        return runner.run(Strategy.STRIPPED, cfg)

    ref = report("fork")
    threads = report("threads")
    assert threads.times.as_dict() == ref.times.as_dict()
    assert threads.stats == ref.stats
    for name in ref.env.arrays:
        np.testing.assert_array_equal(
            ref.env.arrays[name], threads.env.arrays[name], err_msg=name
        )


def test_threads_leave_no_shm_segments():
    before = set(leaked_segments())
    spec_outcome(build_bdna(n=60), "parallel", workers=3, backend="threads")
    assert set(leaked_segments()) == before


# -- pool mechanics and validation --------------------------------------------


class TestPoolFactory:
    def test_backend_dispatch(self):
        spec = _shard_spec(build_bdna(n=40))
        with make_worker_pool(spec, 2, "threads") as pool:
            assert isinstance(pool, ThreadWorkerPool)
            assert pool.num_workers == 2
        with make_worker_pool(spec, 2, "fork") as pool:
            assert isinstance(pool, WorkerPool)

    def test_unknown_backend_rejected(self):
        spec = _shard_spec(build_bdna(n=40))
        with pytest.raises(InterpError, match="unknown parallel backend"):
            make_worker_pool(spec, 2, "turbo")

    def test_validate_backend(self):
        for name in BACKENDS:
            assert validate_backend(name) == name
        with pytest.raises(InterpError, match="turbo"):
            validate_backend("turbo")
        assert DEFAULT_BACKEND in BACKENDS

    def test_pool_reuse_across_runs(self):
        """One pool, many doalls — the strip-mined pipeline's pattern."""
        workload = build_bdna(n=60)
        spec = _shard_spec(workload)
        with make_worker_pool(spec, 2, "threads") as pool:
            for _ in range(3):
                assert pool.num_workers == 2

    def test_arena_close_is_idempotent(self):
        arena = ThreadShadowArena({"a": 16}, workers=2)
        assert len(arena.markers) == 2
        arena.close()
        arena.close()

    def test_pool_close_is_idempotent(self):
        spec = _shard_spec(build_bdna(n=40))
        pool = make_worker_pool(spec, 2, "threads")
        pool.close()
        pool.close()


class TestConfigValidation:
    def test_run_config_rejects_unknown_backend(self):
        with pytest.raises(InterpError, match="unknown parallel backend"):
            RunConfig(backend="turbo")

    def test_run_config_accepts_known_backends(self):
        for name in BACKENDS:
            assert RunConfig(backend=name).backend == name

    def test_cli_choices_derive_from_backends(self):
        from repro.cli import build_parser

        parser = build_parser()
        action = next(
            a
            for a in parser._subparsers._group_actions[0].choices["run"]._actions
            if "--backend" in a.option_strings
        )
        assert tuple(action.choices) == BACKENDS
        assert action.default == DEFAULT_BACKEND
