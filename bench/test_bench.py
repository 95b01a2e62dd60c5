"""Tests of the benchmark itself: ``python -m pytest bench -q``.

The quick runs execute every workload end to end in a fresh process, a
fixed small number of ops each.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import suite
from hostspeed import REFERENCE_S, HostSpeed
from spans import SpanRecorder

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
IN_PROCESS = [name for name in WORKLOADS if name != "serve-mix"]
HOST_KEYS = {"cores", "python", "gil", "numpy", "numba", "commit", "seed"}


def quick_run(out: Path, workload: str, seed: int, trace: int = 0):
    """One ``--quick`` run in a fresh process: (last stdout line, result file)."""
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace), "--quick",
            "--out", str(out),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads((out / f"{workload}.json").read_text())


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed1")
    start = time.monotonic()
    runs = {name: quick_run(out, name, seed=1) for name in WORKLOADS}
    return runs, time.monotonic() - start


def test_quick_mode_runs_every_workload_within_a_minute(seed1):
    _runs, elapsed = seed1
    assert elapsed < 60.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_has_unit_and_direction(seed1, workload):
    last, result = seed1[0][workload]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(last["metrics"]) == set(declared)
    for name, metric in declared.items():
        assert last["metrics"][name]["unit"] == metric["unit"]
        assert result["metrics"][name]["better"] == metric["better"]
        value = last["metrics"][name]["value"]
        assert np.isfinite(value) and value > 0, (name, value)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_op_fails(seed1, workload):
    last, result = seed1[0][workload]
    assert last["correct"] and last["failed"] == 0, result["failures"]
    assert last["attempted"] >= suite.WORKLOADS[workload].quick_ops


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_file_records_the_host(seed1, workload):
    _last, result = seed1[0][workload]
    assert set(result["host"]) == HOST_KEYS
    assert result["host"]["seed"] == 1


def op_sequence(result: dict) -> list:
    return [(kind, detail) for kind, detail, *_timing in result["ops"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_runs_the_same_ops(seed1, workload, tmp_path):
    first_last, first = seed1[0][workload]
    again_last, again = quick_run(tmp_path, workload, seed=1)
    assert op_sequence(again) == op_sequence(first)
    if workload in IN_PROCESS:
        # serve-mix's daemon keeps measured doall times in its profile
        # store and picks engines from them, so its reports can depend
        # on timing.
        assert (again_last["metrics"]["sim_speedup"]
                == first_last["metrics"]["sim_speedup"])


@pytest.mark.parametrize("workload", ["paper-spec", "serve-mix"])
def test_different_seed_same_op_count_other_ops(seed1, workload, tmp_path):
    first_last, first = seed1[0][workload]
    other_last, other = quick_run(tmp_path, workload, seed=2)
    assert other_last["attempted"] == first_last["attempted"]
    assert op_sequence(other) != op_sequence(first)


def test_different_seed_draws_different_inputs():
    for workload in (suite.PAPER_SPEC, suite.FAIL_RECOVER):
        kind = workload.kinds[0]
        _case, one = workload.prepare(kind, 1)
        _case, two = workload.prepare(kind, 2)
        assert one.source == two.source
        assert any(
            not np.array_equal(one.inputs[name], two.inputs[name])
            for name in one.inputs if isinstance(one.inputs[name], np.ndarray)
        )
    corpus = suite.WORKLOADS["lift-corpus"]
    _loop, one, _native = corpus.prepare("histogram", 1)
    _loop, two, _native = corpus.prepare("histogram", 2)
    assert not np.array_equal(one["w"], two["w"])


def test_redraw_keeps_shape_dtype_range_and_permutations():
    template = {
        "perm": np.random.default_rng(0).permutation(50).astype(np.int64),
        "idx": np.array([3, 7, 7, 12], dtype=np.int64),
        "x": np.array([-0.5, 0.1, 0.4]),
        "out": np.zeros(4),
        "n": 50,
    }
    drawn = suite.redraw(template, np.random.default_rng(7))
    assert sorted(drawn["perm"]) == list(range(50))
    assert drawn["idx"].dtype == np.int64
    assert drawn["idx"].min() >= 3 and drawn["idx"].max() <= 12
    assert drawn["x"].min() >= -0.5 and drawn["x"].max() <= 0.4
    assert not drawn["out"].any() and drawn["n"] == 50


@pytest.mark.parametrize("workload", ["paper-spec", "serve-mix"])
def test_trace_run_reports_every_per_layer_metric(workload, tmp_path):
    last, result = quick_run(tmp_path, workload, seed=1, trace=1)
    assert last["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    assert result["spans"]
    for name, metric in last["metrics"].items():
        if metric["unit"] == "ms":
            assert metric["value"] > 0, name


def test_corrupted_walk_oracle_fails_the_run(monkeypatch, capsys):
    real = suite.run_serial

    def corrupted(*args, **kwargs):
        serial = real(*args, **kwargs)
        for array in serial.env.arrays.values():
            # The recurrence loops overflow to inf along their chains, so
            # corrupt a finite element, by more than the tolerance.
            finite = np.flatnonzero(np.isfinite(array))
            if array.dtype.kind == "f" and finite.size:
                array[finite[0]] = array[finite[0]] * 1.001 + 1.0
        return serial

    monkeypatch.setattr(suite, "run_serial", corrupted)
    code = run.main(["--workload", "fail-recover", "--seed", "3", "--quick"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not last["correct"] and last["failed"] == last["attempted"]


def test_corrupted_native_oracle_is_caught():
    corpus = suite.WORKLOADS["lift-corpus"]
    prepared = corpus.prepare("saxpy", 5)
    report = corpus.execute(prepared, suite.OFF)
    assert corpus.check(prepared, report) is None
    prepared[2]["x"][0] += 1.0
    assert "differs" in corpus.check(prepared, report)


def test_wrong_reject_reason_is_caught():
    corpus = suite.WORKLOADS["lift-corpus"]
    prepared = corpus.prepare("total", 5)
    rejected = corpus.execute(prepared, suite.OFF)
    assert corpus.check(prepared, rejected) is None
    rejected.decision = type(rejected.decision)(False, "multidim-array")
    assert "expected" in corpus.check(prepared, rejected)


def test_corrupted_served_digest_is_caught():
    job = suite.JobRequest(workload="synthpass", procs=4)
    service = suite.LoopService()
    try:
        served = suite.ServedReport.from_json(service.execute(job))
    finally:
        service.close()
    refs = {("synthpass", 4): served.env_digest, ("synthpass", "serial"): "x"}
    assert suite.ServeMix.check(job, served, refs) is None
    refs["synthpass", 4] = "0" * 64
    assert "differs" in suite.ServeMix.check(job, served, refs)


def test_span_self_time_excludes_children():
    recorder = SpanRecorder()
    with recorder.span("op", op=7):
        time.sleep(0.01)
        with recorder.span("child"):
            time.sleep(0.02)
    op, child = recorder.spans
    assert child.op == 7 and child.parent == 0
    op_self, child_self = recorder.self_times()
    assert child_self == pytest.approx(child.duration)
    assert op_self == pytest.approx(op.duration - child.duration)
    assert 0.005 < op_self < 0.02


def test_host_speed_samples_every_so_often_and_scales_by_the_nearest():
    speed = HostSpeed()
    for position in range(10):
        speed.after_op(position, 0.01)
    assert speed.positions == [0, 2, 4, 6, 8]

    speed.positions = list(range(20))
    speed.seconds = [REFERENCE_S] * 10 + [2 * REFERENCE_S] * 10
    assert speed.factor(0) == 1.0
    assert speed.factor(19) == 0.5

    # a call is scaled by the samples around it alone
    speed.measure = lambda: 4 * REFERENCE_S
    assert speed.around(lambda: 1.0) == 0.25


def test_host_speed_holds_a_call_on_the_sampled_core():
    speed = HostSpeed()
    allowed = os.sched_getaffinity(0)
    held = []
    speed.around(lambda: held.append(os.sched_getaffinity(0)) or 1.0)
    assert len(held[0]) == 1 and held[0] <= allowed
    assert os.sched_getaffinity(0) == allowed


def test_host_speed_sample_maps_no_memory():
    """A sample must cost the same whatever the program left in the heap.
    After the benchmark's imports, glibc maps and unmaps 160 KB blocks
    afresh, and a kernel with such temporaries faulted in ~900 pages per
    sample."""
    code = (
        "import resource, suite, hostspeed\n"
        "speed = hostspeed.HostSpeed()\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(5):\n"
        "    speed.measure()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True,
        text=True, check=True, timeout=60,
    )
    assert int(proc.stdout) <= 5


def _results(metric: str, values: list[float]) -> list[dict]:
    return [{"metrics": {metric: {"value": v}}} for v in values]


@pytest.mark.parametrize("metric", ["ops_per_s", "sim_speedup"])
def test_compare_flags_a_drop_of_a_higher_is_better_metric(metric):
    declared = next(m for m in SPEC["end_to_end"] if m["name"] == metric)
    noise = [1.0 + 0.001 * ((i * 7) % 5) for i in range(10)]
    parent = [100.0 * n for n in noise]
    drop = [70.0 * n for n in noise]
    rise = [130.0 * n for n in noise]
    judge = compare.judge
    assert judge("higher", declared["bound"], parent, drop) == "regression"
    assert judge("higher", declared["bound"], parent, rise) == "gain"
    assert judge("higher", declared["bound"], parent, parent) == "ok"


def test_compare_rates_latency_in_the_other_direction():
    parent = [10.0 + 0.01 * i for i in range(10)]
    slower = [13.0 + 0.01 * i for i in range(10)]
    assert compare.judge("lower", 0.1, parent, slower) == "regression"
    assert compare.judge("lower", 0.1, slower, parent) == "gain"


def test_compare_calls_a_noisy_metric_unresolved():
    parent = [100.0, 60.0, 140.0, 90.0, 120.0, 70.0, 130.0, 80.0, 110.0, 100.0]
    change = [v * 0.85 for v in parent]
    assert compare.judge("higher", 0.1, parent, change) == "unresolved"


def test_stripped_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-spec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
