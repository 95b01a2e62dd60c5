"""Infrastructure benchmark — execution-engine wall-clock comparison.

Not a paper artifact: measures this repository's execution engines
(tree-walking interpreter vs closure-compiled fast path) on BDNA, both
on the serial run and on the full speculative protocol.  The compiled
engines must produce bit-identical simulated times, test outcomes and
memory state — the only thing allowed to differ is the real wall clock.
Both engines are timed the same way (best of ``ROUNDS`` runs each) so
the comparison is fair: neither side gets warm-cache rounds the other
does not.
"""

import numpy as np

from conftest import calibrate, min_wall, run_once, write_bench_json
from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, split_at_loop
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.serial import run_serial
from repro.runtime.speculative import SpeculationPipeline
from repro.workloads.bdna import build_bdna

ROUNDS = 3
PROCS = 8


def _env_state(env: Environment):
    return (
        {name: arr.copy() for name, arr in env.arrays.items()},
        dict(env.scalars),
    )


def _assert_same_env(state_a, state_b) -> None:
    arrays_a, scalars_a = state_a
    arrays_b, scalars_b = state_b
    assert scalars_a == scalars_b
    assert arrays_a.keys() == arrays_b.keys()
    for name, arr in arrays_a.items():
        assert np.array_equal(arr, arrays_b[name]), name


def test_engine_speed_serial(benchmark, artifact):
    workload = build_bdna(n=400)
    program = parse(workload.source)

    def measure():
        walk = min_wall(
            lambda: run_serial(program, workload.inputs, fx80(), engine="walk")
        )
        fast = min_wall(
            lambda: run_serial(program, workload.inputs, fx80(), engine="compiled")
        )
        return walk, fast

    (walk_wall, walk_run), (fast_wall, fast_run) = run_once(benchmark, measure)

    artifact(
        "engine_speed",
        "\n".join(
            [
                f"Execution engines on BDNA n=400 (serial run, best of {ROUNDS})",
                f"tree walker : {walk_wall * 1000:8.1f} ms wall clock",
                f"compiled    : {fast_wall * 1000:8.1f} ms wall clock "
                f"({walk_wall / fast_wall:.2f}x)",
                f"identical simulated loop time: "
                f"{walk_run.loop_time == fast_run.loop_time}",
            ]
        ),
    )

    # Same simulated behaviour...
    assert walk_run.loop_time == fast_run.loop_time
    assert walk_run.num_iterations == fast_run.num_iterations
    assert walk_run.loop_iteration_costs == fast_run.loop_iteration_costs
    # ...delivered faster for real.
    assert fast_wall < walk_wall


def test_engine_speed_speculative(benchmark, artifact):
    """The compiled speculative engine: >=2x over the instrumented walker.

    Runs the full protocol (checkpoint, marked doall, LRPD analysis,
    merge) on BDNA and asserts bit-identical simulated loop time, shadow
    analysis result and post-loop environment between the engines.
    """
    workload = build_bdna(n=400)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = SpeculationPipeline(
            program, loop, env, plan, sim, engine=engine
        ).run()
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        walk = min_wall(lambda: speculative("walk"))
        fast = min_wall(lambda: speculative("compiled"))
        return calibration_s, walk, fast

    calibration_s, (walk_wall, (walk_out, walk_env)), (fast_wall, (fast_out, fast_env)) = (
        run_once(benchmark, measure)
    )
    ratio = walk_wall / fast_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"walk_speculative": walk_wall, "compiled_speculative": fast_wall},
        extra={"walk_over_compiled": ratio},
    )

    artifact(
        "engine_speed_speculative",
        "\n".join(
            [
                f"Execution engines on BDNA n=400 "
                f"(speculative protocol, p={PROCS}, best of {ROUNDS})",
                f"instrumented walker: {walk_wall * 1000:8.1f} ms wall clock",
                f"compiled engine    : {fast_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"LRPD passed (both engines): {walk_out.result.passed}",
                f"identical simulated times : {walk_out.times == fast_out.times}",
            ]
        ),
    )

    # Bit-identical simulated protocol under both engines.
    assert walk_out.result == fast_out.result
    assert walk_out.result.passed
    assert walk_out.times == fast_out.times
    assert walk_out.stats == fast_out.stats
    _assert_same_env(walk_env, fast_env)
    # The perf target: the compiled engine halves the attempt's wall clock.
    assert ratio >= 2.0, f"compiled speculative engine only {ratio:.2f}x"


def test_engine_speed_vectorized(benchmark, artifact):
    """The vectorized whole-block engine: >=3x over compiled on BDNA.

    The larger n=800 instance is where whole-block lowering pays: the
    per-iteration Python dispatch the compiled engine still does is
    replaced by a handful of NumPy kernels over index vectors plus one
    bulk shadow-marking pass.  The block must actually commit (no
    fallback) and every observable must match the compiled engine.
    """
    workload = build_bdna(n=800)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = SpeculationPipeline(
            program, loop, env, plan, sim, engine=engine
        ).run()
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        fast = min_wall(lambda: speculative("compiled"), rounds=5)
        vec = min_wall(lambda: speculative("vectorized"), rounds=5)
        return calibration_s, fast, vec

    calibration_s, (fast_wall, (fast_out, fast_env)), (vec_wall, (vec_out, vec_env)) = (
        run_once(benchmark, measure)
    )
    ratio = fast_wall / vec_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {
            "compiled_speculative_n800": fast_wall,
            "vectorized_speculative": vec_wall,
        },
        extra={"compiled_over_vectorized": ratio},
        merge=True,
    )

    artifact(
        "engine_speed_vectorized",
        "\n".join(
            [
                f"Execution engines on BDNA n=800 "
                f"(speculative protocol, p={PROCS}, best of 5)",
                f"compiled engine  : {fast_wall * 1000:8.1f} ms wall clock",
                f"vectorized engine: {vec_wall * 1000:8.1f} ms wall clock "
                f"({ratio:.2f}x)",
                f"block committed vectorized: "
                f"{vec_out.run.engine_used == 'vectorized'}",
                f"LRPD passed (both engines): {fast_out.result.passed}",
                f"identical simulated times : {fast_out.times == vec_out.times}",
            ]
        ),
    )

    # The block must commit — a silent fallback would time compiled twice.
    assert vec_out.run.engine_used == "vectorized"
    assert vec_out.run.fallback_reason is None
    # Bit-identical simulated protocol under both engines.
    assert fast_out.result == vec_out.result
    assert fast_out.result.passed
    assert fast_out.times == vec_out.times
    assert fast_out.stats == vec_out.stats
    assert fast_out.run.iteration_costs == vec_out.run.iteration_costs
    _assert_same_env(fast_env, vec_env)
    # The perf target: whole-block lowering is >=3x over closure dispatch.
    assert ratio >= 3.0, f"vectorized speculative engine only {ratio:.2f}x"


def test_engine_speed_auto(benchmark, artifact):
    """The auto planner matches explicit vectorized on BDNA n=800.

    ``engine="auto"`` must pick the vectorized engine here (classifier
    accepts, trip count far above the threshold) and its one-off
    planning cost — a classifier pass over the loop body — must be noise
    next to the block execution, so the wall clock stays within
    tolerance of the explicit request.  Everything else is the standard
    parity contract.
    """
    workload = build_bdna(n=800)
    program = parse(workload.source)
    plan = build_plan(program)
    loop = plan.loop
    before, _after = split_at_loop(program, loop)

    def speculative(engine: str):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = SpeculationPipeline(
            program, loop, env, plan, sim, engine=engine
        ).run()
        return outcome, _env_state(env)

    def measure():
        calibration_s = calibrate()
        vec = min_wall(lambda: speculative("vectorized"), rounds=5)
        auto = min_wall(lambda: speculative("auto"), rounds=5)
        return calibration_s, vec, auto

    calibration_s, (vec_wall, (vec_out, vec_env)), (auto_wall, (auto_out, auto_env)) = (
        run_once(benchmark, measure)
    )
    overhead = auto_wall / vec_wall

    write_bench_json(
        "engine_speed",
        calibration_s,
        {"auto_speculative": auto_wall},
        extra={"auto_over_vectorized": overhead},
        merge=True,
    )

    artifact(
        "engine_speed_auto",
        "\n".join(
            [
                f"Auto engine selection on BDNA n=800 "
                f"(speculative protocol, p={PROCS}, best of 5)",
                f"explicit vectorized: {vec_wall * 1000:8.1f} ms wall clock",
                f"auto (planner)     : {auto_wall * 1000:8.1f} ms wall clock "
                f"({overhead:.2f}x)",
                f"planner picked     : {auto_out.run.engine_used} "
                f"({auto_out.run.engine_decision})",
                f"identical simulated times : {vec_out.times == auto_out.times}",
            ]
        ),
    )

    # The planner must pick the whole-block engine and say why.
    assert auto_out.run.engine_used == "vectorized"
    assert "classifier accepted" in auto_out.run.engine_decision
    # Bit-identical simulated protocol either way.
    assert vec_out.result == auto_out.result
    assert vec_out.result.passed
    assert vec_out.times == auto_out.times
    assert vec_out.stats == auto_out.stats
    assert vec_out.run.iteration_costs == auto_out.run.iteration_costs
    _assert_same_env(vec_env, auto_env)
    # Planning overhead is noise: within 25% of the explicit request
    # (the same tolerance the CI regression gate applies).
    assert overhead <= 1.25, f"auto planner overhead {overhead:.2f}x"
