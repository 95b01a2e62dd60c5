"""Infrastructure benchmark — feedback-driven auto planning, warmed.

Not a paper artifact: measures what the profile store buys the ``auto``
engine on a mixed workload (BDNA, MDG, OCEAN).  Each loop's profile is
first trained by running every candidate fixed engine against the same
:class:`LoopProfileStore`; the warmed planner must then track the best
fixed engine per loop (within 10% — its per-decision cost is one
classifier pass plus a dict scan over the ring) and strictly beat the
worst fixed engine on the workload total.  The failing OCEAN variant
pins the other half of the feedback loop: after two recorded failures
the planner refuses to speculate at all, with the evidence on the
report.
"""

from __future__ import annotations

import numpy as np

from conftest import calibrate, run_once, write_bench_json
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.profile import LoopProfileStore
from repro.workloads.bdna import build_bdna
from repro.workloads.mdg import build_mdg
from repro.workloads.ocean import build_ocean

PROCS = 8
ROUNDS = 5
TRAIN_RUNS = 2
#: warmed auto may cost at most this over the best fixed engine per loop.
PER_LOOP_TOLERANCE = 1.10

#: the fixed engines a warmed planner competes against (every serial-
#: process candidate it could itself elect for these loops).
CANDIDATES = ("compiled", "vectorized", "walk")

LOOPS = (
    ("bdna", lambda: build_bdna(n=300)),
    ("mdg", lambda: build_mdg(n=250)),
    ("ocean", lambda: build_ocean(nk=600)),
)


def _runner(build, profiles=None):
    workload = build()
    return LoopRunner(workload.program(), workload.inputs, profiles=profiles)


def _config(engine):
    return RunConfig(model=fx80().with_procs(PROCS), engine=engine)


def _timed_run(runner, engine):
    import time

    begin = time.perf_counter()
    report = runner.run(Strategy.SPECULATIVE, _config(engine))
    return time.perf_counter() - begin, report


def test_auto_feedback_mixed_workload(benchmark, artifact):
    def measure():
        calibration_s = calibrate()
        results = {}
        for name, build in LOOPS:
            # One runner (and one profile store) per loop: training,
            # fixed-engine measurement and the warmed-auto measurement
            # all share it, so every engine sees identical runner state.
            runner = _runner(build, profiles=LoopProfileStore())
            # Train: every candidate engine runs against the shared
            # store, so the planner's ring holds timed observations for
            # each before the warmed measurement starts.
            for engine in CANDIDATES:
                for _ in range(TRAIN_RUNS):
                    runner.run(Strategy.SPECULATIVE, _config(engine))

            # Measure in interleaved rounds (auto alongside every fixed
            # engine each round) so clock drift cannot bias one side.
            walls = {engine: [] for engine in CANDIDATES + ("auto",)}
            reports = {}
            for _ in range(ROUNDS):
                for engine in CANDIDATES + ("auto",):
                    wall, report = _timed_run(runner, engine)
                    walls[engine].append(wall)
                    reports[engine] = report
            fixed = {
                engine: (min(walls[engine]), reports[engine])
                for engine in CANDIDATES
            }
            for engine, (_wall, report) in fixed.items():
                assert report.passed, f"{name}/{engine} failed the LRPD test"
            results[name] = (fixed, min(walls["auto"]), reports["auto"])
        return calibration_s, results

    calibration_s, results = run_once(benchmark, measure)

    lines = [
        f"Feedback-driven auto planning, mixed workload "
        f"(p={PROCS}, trained {TRAIN_RUNS}x per engine, best of {ROUNDS})"
    ]
    entries = {}
    auto_total = best_total = worst_total = 0.0
    for name, (fixed, auto_wall, auto_report) in results.items():
        best_engine = min(fixed, key=lambda e: fixed[e][0])
        worst_engine = max(fixed, key=lambda e: fixed[e][0])
        best_wall = fixed[best_engine][0]
        worst_wall = fixed[worst_engine][0]
        auto_total += auto_wall
        best_total += best_wall
        worst_total += worst_wall
        entries[f"auto_{name}"] = auto_wall
        ratio = auto_wall / best_wall
        lines.append(
            f"{name:6s}: auto {auto_wall * 1000:7.1f} ms "
            f"(picked {auto_report.engine_used}) | best fixed "
            f"{best_engine} {best_wall * 1000:7.1f} ms ({ratio:.2f}x) | "
            f"worst fixed {worst_engine} {worst_wall * 1000:7.1f} ms"
        )

        # The warmed planner's pick is history-driven and says so.
        (_key, reason), = auto_report.engine_decisions
        assert "feedback" in reason, reason
        assert auto_report.passed
        # Bit-identical to the fixed engine it elected.
        picked = fixed[auto_report.engine_used][1]
        assert auto_report.test_result == picked.test_result
        assert auto_report.times.as_dict() == picked.times.as_dict()
        for arr in picked.env.arrays:
            np.testing.assert_array_equal(
                auto_report.env.arrays[arr], picked.env.arrays[arr],
                err_msg=f"{name}/{arr}",
            )
        # The acceptance bar: within tolerance of the best fixed engine.
        assert auto_wall <= best_wall * PER_LOOP_TOLERANCE, (
            f"{name}: warmed auto {auto_wall * 1000:.1f} ms exceeds "
            f"{PER_LOOP_TOLERANCE:.2f}x best fixed engine "
            f"{best_engine} {best_wall * 1000:.1f} ms"
        )

    # Across the workload, feedback must beat uniformly picking the
    # worst fixed engine — the regime a static one-size choice risks.
    assert auto_total < worst_total, (
        f"warmed auto total {auto_total * 1000:.1f} ms does not beat the "
        f"worst fixed total {worst_total * 1000:.1f} ms"
    )
    lines.append(
        f"totals: auto {auto_total * 1000:7.1f} ms | best fixed "
        f"{best_total * 1000:7.1f} ms | worst fixed "
        f"{worst_total * 1000:7.1f} ms"
    )

    # The failure half of the feedback loop: two recorded failures veto
    # the third speculation attempt outright, evidence on the report.
    veto_runner = _runner(lambda: build_ocean(nk=300, overlap=True),
                          profiles=LoopProfileStore())
    for _ in range(2):
        assert veto_runner.run(
            Strategy.SPECULATIVE, _config("auto")
        ).passed is False
    vetoed = veto_runner.run(Strategy.SPECULATIVE, _config("auto"))
    assert vetoed.stats.get("refused") == 1.0
    (_key, veto_reason), = vetoed.engine_decisions
    assert "failure rate" in veto_reason
    lines.append(f"ocean-fail: refused after 2 failures ({veto_reason})")

    entries["auto_warm_total"] = auto_total
    write_bench_json(
        "auto_feedback",
        calibration_s,
        entries,
        extra={
            "best_fixed_total_s": best_total,
            "worst_fixed_total_s": worst_total,
            "auto_over_best_fixed": auto_total / best_total,
        },
    )
    artifact("auto_feedback", "\n".join(lines))
