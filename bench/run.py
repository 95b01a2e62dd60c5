"""Run the repro benchmark and print every metric with its unit.

    python3 bench/run.py --workload paper-spec --seed 1
    python3 bench/run.py --workload serve-mix --seed 1 --trace 1 --out results/01
    python3 bench/run.py --seed 1        # every workload, each in a fresh process

One run measures one workload for ``--seconds`` of op time, checks every
op against its oracle and prints the metrics, then, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
derived from spans recorded around the calls into each layer.  The
end-to-end times are scaled to a reference host speed measured during
the run (see ``hostspeed.py``).  The exit code is non-zero when any op
gave a wrong result.

``--quick`` runs a fixed, small number of ops instead of a timed phase,
so two runs of one seed run exactly the same ops.  ``--out DIR`` writes
``DIR/<workload>.json``: the metrics with unit and direction, the host,
the op sequence and, when traced, the spans; ``bench/compare.py`` reads
these files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: fresh launches whose median is ``setup_s``.
SETUP_LAUNCHES = 11
#: failure messages kept in a result file.
MAX_FAILURES_KEPT = 20


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="run a fixed small number of ops instead of a timed phase",
    )
    parser.add_argument("--out", type=Path, default=None, metavar="DIR")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro").is_dir():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_every_workload(args, spec)
    return run_workload(args, spec)


def run_every_workload(args, spec: dict) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    worst = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.quick:
            command.append("--quick")
        if args.out is not None:
            command += ["--out", str(args.out)]
        print(f"== {workload['name']}", flush=True)
        worst = max(worst, subprocess.run(command).returncode)
    return worst


def run_workload(args, spec: dict) -> int:
    import suite
    from spans import SpanRecorder

    workload = suite.WORKLOADS[args.workload]
    budget = suite.Budget(
        args.seconds, workload.quick_ops if args.quick else None
    )
    spans = SpanRecorder() if args.trace else None
    measurement = workload.measure(args.seed, budget, spans)
    if args.trace:
        values = per_layer(measurement, spans)
        declared = spec["per_layer"]
    else:
        setup = [
            measurement.speed.around(workload.setup_once)
            for _ in range(SETUP_LAUNCHES)
        ]
        values = end_to_end(measurement, setup)
        declared = spec["end_to_end"]
    if set(values) != {metric["name"] for metric in declared}:
        raise RuntimeError(
            f"computed metrics {sorted(values)} do not match BENCHMARK.json"
        )

    ops = measurement.warmup + measurement.records
    failures = [f"op {r.index} ({r.kind}): {r.error}" for r in ops if r.error]
    host = host_info(args.seed)
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }

    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print(
        f"# {args.workload}: {len(measurement.records)} timed ops + "
        f"{len(measurement.warmup)} warm-up, {len(failures)} failed "
        f"(fail_frac {len(failures) / len(ops):.4f}), timed phase "
        f"{measurement.timed_s:.2f} s, trace {'on' if args.trace else 'off'}"
    )
    samples = measurement.speed.seconds
    print(
        f"# reference kernel: median {1e3 * statistics.median(samples):.3f} ms "
        f"over {len(samples)} samples"
    )
    for failure in failures[:MAX_FAILURES_KEPT]:
        print(f"# FAILED {failure}")
    for metric in declared:
        bound = (
            f" (bound {metric['bound']:.0%})" if "bound" in metric else ""
        )
        print(
            f"{metric['name']:42s} {values[metric['name']]:14.6f} "
            f"{metric['unit']:6s} {metric['better']} is better{bound}"
        )
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "quick": args.quick,
            "host": host,
            **result,
            "metrics": {
                m["name"]: {**result["metrics"][m["name"]], "better": m["better"]}
                for m in declared
            },
            "failures": failures[:MAX_FAILURES_KEPT],
            "ops": [
                [r.kind, r.detail, r.start, r.seconds, r.scaled]
                for r in sorted(measurement.records, key=lambda r: r.index)
            ],
        }
        if spans is not None:
            record["spans"] = spans.to_json()
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{args.workload}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- metrics --------------------------------------------------------------------


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(m, setup_samples) -> dict[str, float]:
    """Timings over every timed op and set-up launch, each on the
    reference host (see ``hostspeed``).

    The typical op time is each op kind's median, geometric mean over
    the kinds: op kinds differ in cost tenfold, and the median of the
    pooled times falls in the gap between cheap and costly kinds, where
    a few ops more on either side move it by half.
    """
    # An op with a wrong result still took its time; an op that raised
    # has none to report.
    timed = [r for r in m.records if r.seconds > 0]
    by_kind: dict[str, list[float]] = defaultdict(list)
    for r in timed:
        by_kind[r.kind].append(r.scaled)
    latencies = [r.scaled for r in timed]
    speedups = [
        r.summary.speedup for r in m.records
        if r.error is None and r.summary is not None
        and math.isfinite(r.summary.speedup) and r.summary.speedup > 0
    ]
    return {
        "op_p50_ms": 1e3 * math.exp(_mean(
            math.log(statistics.median(times)) for times in by_kind.values()
        )),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_s": statistics.median(setup_samples),
        "mem_mb": m.mem_mb,
        "sim_speedup": math.exp(_mean(math.log(s) for s in speedups)),
    }


def per_layer(m, spans) -> dict[str, float]:
    import suite

    summaries = {
        r.index: r.summary for r in m.layer_records if r.summary is not None
    }
    reports = list(summaries.values())
    self_s: dict[str, float] = defaultdict(float)
    op_s = 0.0
    run_s: dict[int, float] = {}
    for span, own in zip(spans.spans, spans.self_times()):
        self_s[span.name] += own
        if span.name == "op":
            op_s += span.duration
        elif span.name == "runtime.run":
            run_s[span.op] = span.duration
    # Measured and simulated shares over the same runs: a run refused
    # before speculating records no wall-clock phases.
    speculated = [s for s in reports if any(s.wall.values())]
    wall = {p: sum(s.wall[p] for s in speculated) for p in suite.PHASES}
    machine = {
        g: sum(s.machine[g] for s in speculated) for g in suite.MACHINE_PHASES
    }
    values = {
        "runtime.run_ms": 1e3 * _mean(run_s.values()),
        "runtime.orchestrator.self_ms": 1e3 * _mean(
            seconds - sum(summaries[op].wall.values())
            for op, seconds in run_s.items() if op in summaries
        ),
    }
    for phase in ("checkpoint", "doall", "analysis", "commit"):
        values[f"runtime.speculative.{phase}_ms"] = 1e3 * _mean(
            s.wall[phase] for s in reports
        )
    for phase in ("checkpoint", "doall", "analysis", "commit", "rollback"):
        values[f"runtime.speculative.{phase}_share"] = _ratio(
            wall[phase], sum(wall.values())
        )
        values[f"machine.{phase}_share"] = _ratio(
            machine[phase], sum(machine.values())
        )
    values["runtime.profile.signature_share"] = _ratio(
        wall["signature"], sum(wall.values())
    )
    for layer in ("frontend.lift", "analysis.plan", "runtime.serial.reference"):
        values[f"{layer}_share"] = _ratio(self_s[layer], op_s)

    lifts = [r.lifted for r in m.records if r.lifted is not None]
    verdicts = [s.passed for s in reports if s.passed is not None]
    failed = [s for s in reports if s.passed is False]
    values.update({
        "frontend.lift_ok_frac": _ratio(sum(lifts), len(lifts)),
        "core.lrpd.pass_frac": _ratio(sum(verdicts), len(verdicts)),
        "runtime.speculative.strip_rollback_frac": _ratio(
            sum(s.strips_failed for s in reports),
            sum(s.strips for s in reports),
        ),
        "runtime.engines.doacross.recovered_frac": _mean(
            s.recovered for s in failed
        ),
        "runtime.engines.whole_block_frac": _mean(
            s.whole_block for s in reports
        ),
        "runtime.engines.fallback_frac": _mean(s.fallback for s in reports),
        "runtime.profile.hit_frac": _mean(s.reused for s in reports),
    })

    roundtrip_s = sum(r.seconds for r in m.records if r.error is None)
    values["service.overhead_frac"] = (
        1.0 - _ratio(sum(run_s.values()), roundtrip_s) if m.service else 0.0
    )
    for key in ("reuse_frac", "pool_builds", "pool_hits", "daemon_threads"):
        values[f"service.{key}"] = float(m.service.get(key, 0.0))

    values["trace.overhead_frac"] = trace_overhead(m.records)
    return values


def trace_overhead(records) -> float:
    """Traced over untraced median op time, per op kind, geometric mean
    over the kinds minus one.  Kinds differ in op time many times over,
    so comparing the medians of the two whole halves would measure which
    kinds each half happened to draw."""
    times: dict[tuple[str, bool], list[float]] = defaultdict(list)
    for r in records:
        if r.error is None:
            times[r.kind, r.traced].append(r.seconds)
    logs = [
        math.log(statistics.median(times[kind, True])
                 / statistics.median(times[kind, False]))
        for kind in {r.kind for r in records}
        if times[kind, True] and times[kind, False]
    ]
    return math.exp(_mean(logs)) - 1.0


# -- host -------------------------------------------------------------------------


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` inside the checkout."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def host_info(seed: int) -> dict:
    import numpy

    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "gil": "on" if gil else "off",
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
        "seed": seed,
    }


if __name__ == "__main__":
    sys.exit(main())
