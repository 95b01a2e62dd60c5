"""Infrastructure benchmark — thread-backend doall scaling.

Not a paper artifact: measures real wall clock of the full speculative
protocol under ``engine="parallel" --backend threads`` at 1/2/4/8
worker threads against the compiled single-process engine.  On a
GIL-enabled CPython the marked doall's Python bytecode serializes, so
the curve is flat at best — the benchmark exists for the free-threaded
(3.13t) CI leg, where the threads genuinely overlap and the curve is
the backend's reason to exist.  Every run is parity-checked against the
compiled reference (same verdict, same simulated times, same memory),
so the curve can only be bought with real parallelism.

Writes ``BENCH_thread_scaling.json`` and the ``thread_scaling.txt``
artifact the 3.13t leg uploads.  Scaling is asserted only on
free-threaded builds with enough usable cores; everywhere else the
parity checks are the test.
"""

import os
import sys

import numpy as np

from conftest import calibrate, min_wall, run_once, write_bench_json
from repro.analysis.instrument import build_plan
from repro.dsl.parser import parse
from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter, split_at_loop
from repro.machine.costmodel import fx80
from repro.machine.schedule import ScheduleKind
from repro.machine.simulator import DoallSimulator
from repro.runtime.speculative import SpeculationPipeline
from repro.workloads.bdna import build_bdna

ROUNDS = 3
PROCS = 8
THREAD_COUNTS = (1, 2, 4, 8)
SPEEDUP_TARGET = 1.3


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def gil_enabled() -> bool:
    """True on builds where the GIL serializes the worker threads."""
    checker = getattr(sys, "_is_gil_enabled", None)
    return True if checker is None else bool(checker())


def _assert_parity(reference, candidate) -> None:
    ref_out, ref_env = reference
    out, env = candidate
    assert out.result == ref_out.result
    assert out.times == ref_out.times
    assert out.stats == ref_out.stats
    assert env[1] == ref_env[1]  # scalars
    for name, arr in ref_env[0].items():
        assert np.array_equal(arr, env[0][name]), name


def _speculative_runner(workload):
    program = parse(workload.source)
    plan = build_plan(program)
    before, _after = split_at_loop(program, plan.loop)

    def run(engine: str, workers: int | None = None, backend: str = "fork"):
        env = Environment(program, workload.inputs)
        Interpreter(program, env, value_based=False).exec_block(before)
        sim = DoallSimulator(fx80().with_procs(PROCS), ScheduleKind.BLOCK)
        outcome = SpeculationPipeline(
            program, plan.loop, env, plan, sim,
            engine=engine, workers=workers, backend=backend,
        ).run()
        state = (
            {name: arr.copy() for name, arr in env.arrays.items()},
            dict(env.scalars),
        )
        return outcome, state

    return run


def test_thread_scaling(benchmark, artifact):
    workload = build_bdna(n=400)
    run = _speculative_runner(workload)
    cores = usable_cores()
    gil = gil_enabled()

    def measure():
        calibration_s = calibrate()
        entries: dict[str, float] = {}
        compiled_wall, reference = min_wall(lambda: run("compiled"))
        entries["bdna_compiled"] = compiled_wall
        runs = {}
        for workers in THREAD_COUNTS:
            wall, candidate = min_wall(
                lambda w=workers: run("parallel", workers=w, backend="threads")
            )
            entries[f"bdna_threads_w{workers}"] = wall
            runs[workers] = candidate
        return calibration_s, entries, reference, compiled_wall, runs

    calibration_s, entries, reference, compiled_wall, runs = run_once(
        benchmark, measure
    )

    assert reference[0].result.passed
    for candidate in runs.values():
        _assert_parity(reference, candidate)

    speedups = {
        f"w{workers}": compiled_wall / entries[f"bdna_threads_w{workers}"]
        for workers in THREAD_COUNTS
    }
    write_bench_json(
        "thread_scaling",
        calibration_s,
        entries,
        extra={
            "speedups": speedups,
            "cores": cores,
            "gil_enabled": gil,
            "procs": PROCS,
        },
    )
    artifact(
        "thread_scaling",
        "\n".join(
            [
                f"Thread-backend doall scaling on BDNA n=400 "
                f"(p={PROCS} simulated, {cores} usable cores, "
                f"GIL {'on' if gil else 'off'}, best of {ROUNDS})",
                f"compiled (1 proc) : {compiled_wall * 1000:8.1f} ms",
            ]
            + [
                f"threads w={workers}       : "
                f"{entries[f'bdna_threads_w{workers}'] * 1000:8.1f} ms "
                f"({speedups[f'w{workers}']:.2f}x, bit-identical)"
                for workers in THREAD_COUNTS
            ]
        ),
    )

    # Real scaling needs threads that actually overlap: assert only on
    # free-threaded builds with the cores to show it.  GIL builds (and
    # starved runners) still exercised every parity assertion above.
    if not gil and cores >= 4:
        assert speedups["w4"] > SPEEDUP_TARGET, (
            f"thread backend only {speedups['w4']:.2f}x over compiled "
            f"at w=4 on a free-threaded build ({cores} cores)"
        )
        assert speedups["w4"] > speedups["w1"]
