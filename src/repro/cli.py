"""Command-line interface.

::

    python -m repro list                         # available workloads
    python -m repro analyze loop.f               # compiler's view of a file
    python -m repro lift kernel.py --run         # lift a real Python loop
    python -m repro lift corpus/histogram --run  # ... or a corpus loop
    python -m repro run bdna --strategy inspector --procs 14
    python -m repro table1                       # regenerate Table I
    python -m repro table2                       # regenerate Table II
    python -m repro figure mdg                   # speedup-vs-procs series
    python -m repro serve --socket /tmp/repro.sock   # loop-execution daemon
    python -m repro submit ocean --socket /tmp/repro.sock

Workload names are the short forms: track, bdna, mdg, adm, ocean,
spice, dyfesm.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.outcomes import TestMode
from repro.core.shadow import Granularity
from repro.machine.costmodel import fx80, fx2800
from repro.runtime.engines import DEFAULT_ENGINE, engine_names, get_engine
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.workloads import PAPER_LOOPS

#: short name -> canonical Table I name.
SHORT_NAMES = {name.split("_")[0].lower(): name for name in PAPER_LOOPS}

_MACHINES = {"fx80": fx80, "fx2800": fx2800}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The LRPD test (Rauchwerger & Padua, PLDI 1995), reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in workloads")

    analyze = sub.add_parser("analyze", help="static analysis of a program file")
    analyze.add_argument(
        "file",
        help="source file; the frontend is chosen by suffix "
        "(.py lifts a real Python loop, anything else parses as "
        "mini-Fortran)",
    )

    from repro.frontend import frontend_names

    lift = sub.add_parser(
        "lift",
        help="lift a real Python for loop into the marked-doall IR "
        "(show the IR and classifier verdict; optionally run it)",
    )
    lift.add_argument(
        "target",
        help="a corpus loop name (corpus/<name> or bare <name>, see "
        "'repro list') or a path to a Python file defining the kernel "
        "(and optionally a make_inputs() builder)",
    )
    lift.add_argument(
        "--frontend", choices=["auto", *frontend_names()], default="auto",
        help="ingestion frontend (auto: by corpus name or file suffix)",
    )
    lift.add_argument(
        "--func", default=None, metavar="NAME",
        help="function to lift from a file (default: the first def)",
    )
    lift.add_argument(
        "--run", action="store_true",
        help="execute the lifted loop under the LRPD runtime and, for "
        "corpus targets, compare against native Python execution",
    )
    lift.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default="speculative"
    )
    lift.add_argument("--machine", choices=sorted(_MACHINES), default="fx80")
    lift.add_argument("--procs", type=int, default=None)
    lift.add_argument(
        "--engine", choices=engine_names(), default=DEFAULT_ENGINE
    )

    run = sub.add_parser("run", help="run a built-in workload")
    run.add_argument("workload", choices=sorted(SHORT_NAMES))
    run.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default="speculative"
    )
    run.add_argument("--machine", choices=sorted(_MACHINES), default="fx80")
    run.add_argument("--procs", type=int, default=None)
    run.add_argument(
        "--granularity", choices=[g.value for g in Granularity],
        default="iteration",
    )
    run.add_argument(
        "--test-mode", choices=[m.value for m in TestMode], default="lrpd"
    )
    run.add_argument(
        "--engine",
        choices=engine_names(),
        default=DEFAULT_ENGINE,
        help="doall iteration executor (walk = reference tree walker, "
        "parallel = real worker processes with shared-memory shadows, "
        "vectorized = whole-block NumPy lowering with bulk marking; "
        "classifier-rejected loops fall back to compiled; auto = "
        "per-loop static pick among parallel, vectorized and compiled)",
    )
    run.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the parallel engine, the only one "
        "that shards (default: one per usable core); with --engine auto, "
        "setting N makes auto pick parallel; other engines run "
        "in-process",
    )
    from repro.runtime.parallel_backend import BACKENDS, DEFAULT_BACKEND

    run.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default=DEFAULT_BACKEND,
        help="worker-pool flavour for sharded (parallel) runs "
        "(fork = processes over shared-memory shadows, threads = "
        "in-process workers with no fork or shared-memory setup)",
    )
    run.add_argument(
        "--verbose", action="store_true",
        help="print per-loop engine selection and fallback decisions "
        "with their reasons",
    )
    run.add_argument(
        "--strip-size", type=int, default=None, metavar="N",
        help="strip-mine speculation into strips of N iterations "
        "(implies --strategy stripped semantics; with the stripped "
        "strategy and no size, the whole loop is one strip)",
    )
    run.add_argument(
        "--adaptive-strips", action="store_true",
        help="grow/shrink the strip size from per-strip pass/fail feedback",
    )
    run.add_argument(
        "--profile-path", default=None, metavar="FILE",
        help="persist the loop-profile store (cached LRPD verdicts, "
        "per-run observations) as JSON at FILE: loaded before "
        "the run, saved atomically after; enables schedule reuse so a "
        "second invocation gets a verdict-cache hit",
    )

    serve = sub.add_parser(
        "serve",
        help="run the loop-execution daemon (unix socket, many clients)",
    )
    serve.add_argument(
        "--socket", required=True, metavar="PATH",
        help="unix-domain socket path to listen on",
    )
    serve.add_argument(
        "--queue-size", type=int, default=None, metavar="N",
        help="bound on accepted-but-unfinished jobs; a full queue "
        "rejects new jobs with a clean queue-full reply (default 64)",
    )
    serve.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline before the daemon answers with a "
        "timeout error (the job keeps running and warms the profile "
        "store; default 120)",
    )
    serve.add_argument(
        "--profile-path", default=None, metavar="FILE",
        help="persist the fleet-shared loop-profile store at FILE: "
        "loaded at startup, flushed on graceful shutdown, so verdicts "
        "learned by one daemon lifetime seed the next",
    )

    submit = sub.add_parser(
        "submit", help="submit one job to a running repro serve daemon"
    )
    submit.add_argument("workload", help="servable workload name")
    submit.add_argument(
        "--socket", required=True, metavar="PATH",
        help="the daemon's unix-domain socket path",
    )
    submit.add_argument(
        "--strategy", choices=[s.value for s in Strategy], default="speculative"
    )
    submit.add_argument("--machine", choices=sorted(_MACHINES), default="fx80")
    submit.add_argument("--procs", type=int, default=None)
    submit.add_argument(
        "--engine", choices=engine_names(), default=DEFAULT_ENGINE
    )
    submit.add_argument("--workers", type=int, default=None, metavar="N")
    submit.add_argument("--strip-size", type=int, default=None, metavar="N")
    submit.add_argument(
        "--no-schedule-cache", action="store_true",
        help="force a fresh LRPD test even if the daemon's fleet store "
        "already holds a verdict for this loop",
    )
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="client-side wait for the reply (default: forever)",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="print the raw report payload as JSON instead of a summary",
    )
    submit.add_argument(
        "--verbose", action="store_true",
        help="print the served report's per-loop engine selection and "
        "fallback decisions with their reasons (they cross the wire "
        "with the rest of the report)",
    )

    sub.add_parser("table1", help="regenerate Table I (all seven loops)")
    sub.add_parser("table2", help="regenerate Table II (method comparison)")

    report = sub.add_parser(
        "report",
        help="regenerate every evaluation artifact into a directory",
    )
    report.add_argument("--out", default="artifacts", help="output directory")
    report.add_argument(
        "--quick", action="store_true",
        help="smaller workloads / fewer processor counts (for smoke runs)",
    )

    figure = sub.add_parser("figure", help="speedup-vs-processors series")
    figure.add_argument("workload", choices=sorted(SHORT_NAMES))
    figure.add_argument("--machine", choices=sorted(_MACHINES), default="fx80")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "analyze":
        return _cmd_analyze(args.file)
    if args.command == "lift":
        return _cmd_lift(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "table2":
        return _cmd_table2()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "report":
        return _cmd_report(args)
    return 2  # pragma: no cover - argparse enforces choices


def _cmd_list() -> int:
    from repro.workloads.pycorpus import CORPUS

    for short, name in sorted(SHORT_NAMES.items()):
        workload = PAPER_LOOPS[name]()
        print(f"{short:8s} {name:24s} {workload.description}")
    print()
    print("python corpus (repro lift corpus/<name>):")
    for name, loop in CORPUS.items():
        tag = "lifts " if loop.liftable else "reject"
        print(f"  corpus/{name:16s} {tag} {loop.description}")
    return 0


def _lift_file(path: str, frontend_name: str = "auto", func: str | None = None):
    """Lift a source file through the frontend registry.

    Returns a :class:`~repro.frontend.LiftResult`, or None after printing
    an error (unreadable file, broken module).  Python files may define a
    ``make_inputs()`` builder next to the kernel; its bindings give the
    lifter the array sizes and kinds.
    """
    from repro.frontend import get_frontend, registry

    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if frontend_name == "auto":
        frontend = registry.for_path(path)
    else:
        frontend = get_frontend(frontend_name)
    inputs: dict = {}
    if frontend.name == "python":
        namespace: dict = {}
        try:
            exec(compile(text, path, "exec"), namespace)
        except Exception as exc:
            print(f"error: executing {path}: {exc}", file=sys.stderr)
            return None
        builder = namespace.get("make_inputs")
        if callable(builder):
            inputs = builder()
    return frontend.lift(text, name=func, inputs=inputs)


def _cmd_analyze(path: str) -> int:
    from repro.analysis.instrument import build_plan
    from repro.errors import ReproError

    result = _lift_file(path)
    if result is None:
        return 1
    try:
        if not result:
            print(f"error: {result.decision.explain()}", file=sys.stderr)
            return 1
        program = result.require()
        plan = build_plan(program)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"program {program.name}: target loop over '{plan.loop.var}'")
    print("static analysis :", plan.static_report.explain())
    print("plan            :", plan.summary())
    if plan.inspector_obstacles:
        for obstacle in plan.inspector_obstacles:
            print("inspector       :", obstacle)
    for name, cls in sorted(plan.scalar_classes.items()):
        print(f"scalar {name:12s}: {cls.value}")
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.analysis.instrument import build_plan
    from repro.analysis.vectorize import classify_loop
    from repro.errors import ReproError
    from repro.workloads.pycorpus import CORPUS, lift_corpus_loop, run_native

    corpus_loop = CORPUS.get(args.target.removeprefix("corpus/"))
    if corpus_loop is not None:
        result = lift_corpus_loop(corpus_loop)
    else:
        result = _lift_file(args.target, args.frontend, args.func)
        if result is None:
            return 1

    print(f"frontend : {result.frontend}")
    print(f"lift     : {result.decision.explain()}")
    if not result:
        return 1
    program = result.require()
    print("--- lifted IR " + "-" * 50)
    print(result.source, end="")
    print("-" * 64)
    try:
        plan = build_plan(program)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("plan     :", plan.summary())
    verdict = classify_loop(program, plan.loop, plan)
    print(
        "vectorize:",
        "ok" if verdict else f"rejected ({verdict.reason})",
    )
    if not args.run:
        return 0

    model = _MACHINES[args.machine]()
    if args.procs is not None:
        model = model.with_procs(args.procs)
    config = RunConfig(model=model, engine=args.engine)
    runner = LoopRunner(program, result.inputs)
    report = runner.run(Strategy(args.strategy), config)
    print(report.describe())
    if corpus_loop is None or not corpus_loop.liftable:
        return 0
    arrays, scalars = run_native(corpus_loop)
    exact = True
    close = True
    for name in corpus_loop.check_arrays:
        lifted = report.env.arrays[name]
        native = arrays[name]
        exact = exact and lifted.tobytes() == native.tobytes()
        close = close and bool(np.allclose(lifted, native))
    for name in corpus_loop.returns:
        lifted_scalar = report.env.scalars.get(f"{name}_out")
        native_scalar = scalars[name]
        exact = exact and lifted_scalar == native_scalar
        close = close and bool(np.isclose(lifted_scalar, native_scalar))
    if exact:
        print("parity   : bit-identical to native Python execution")
    elif close:
        print("parity   : allclose to native Python execution "
              "(parallel reduction merge reassociates)")
    else:
        print("parity   : DIVERGED from native Python execution")
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    workload = PAPER_LOOPS[SHORT_NAMES[args.workload]]()
    model = _MACHINES[args.machine]()
    if args.procs is not None:
        model = model.with_procs(args.procs)
    strategy = Strategy(args.strategy)
    config = RunConfig(
        model=model,
        granularity=Granularity(args.granularity),
        test_mode=TestMode(args.test_mode),
        engine=args.engine,
        workers=args.workers,
        backend=args.backend,
        strip_size=args.strip_size,
        adaptive_strip_sizing=args.adaptive_strips,
        # A persistent profile exists to be reused: verdict lookups on.
        use_schedule_cache=args.profile_path is not None,
    )
    profiles = None
    if args.profile_path is not None:
        from repro.runtime.profile import LoopProfileStore

        profiles = LoopProfileStore(path=args.profile_path)
        if profiles.load_error is not None:
            print(
                f"profile store: starting empty ({profiles.load_error})",
                file=sys.stderr,
            )
    runner = LoopRunner(workload.program(), workload.inputs, profiles=profiles)

    from repro.errors import InspectorNotExtractable

    print(f"{workload.name}: {workload.description}")
    print("plan:", runner.plan.summary())
    try:
        report = runner.run(strategy, config)
    except InspectorNotExtractable as exc:
        print(f"inspector strategy unavailable: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    if args.verbose:
        for loop_key, reason in report.engine_decisions:
            print(
                f"engine decision : {loop_key}: "
                f"{report.engine_used} ({reason})"
            )
        requested = get_engine(args.engine)
        if report.fallbacks:
            for loop_key, reason in report.fallbacks:
                print(
                    f"engine fallback : {loop_key}: "
                    f"{args.engine} -> {report.engine_used} ({reason})"
                )
        elif requested.caps.whole_block or (
            report.engine_used is not None
            and get_engine(report.engine_used).caps.whole_block
        ):
            print("engine fallback : none (vectorized block committed)")
        if report.cache_stats:
            counters = ", ".join(
                f"{key}={value}" for key, value in report.cache_stats.items()
            )
            print(f"profile cache   : {counters}")
        if report.reused_schedule:
            print("schedule reuse  : verdict served from the profile store")
    print("phase breakdown (cycles):")
    for phase, cycles in report.times.nonzero_phases().items():
        print(f"  {phase:16s} {cycles:14.1f}")
    if report.wall is not None and report.wall.total() > 0.0:
        print(f"measured wall clock (s, engine={args.engine}):")
        for phase, seconds in report.wall.as_dict().items():
            if seconds > 0.0:
                print(f"  {phase:16s} {seconds:14.6f}")
    if report.strips:
        print("strips (index, first value, iters, outcome, cycles):")
        for s in report.strips:
            outcome = "pass" if s.passed else ("abort" if s.aborted else "fail")
            print(
                f"  #{s.index:<3d} @{s.first_value:<6d} x{s.iterations:<5d} "
                f"{outcome:5s} {s.time:14.1f}"
            )
    if profiles is not None:
        profiles.save()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import (
        DEFAULT_QUEUE_SIZE,
        DEFAULT_REQUEST_TIMEOUT,
        serve_forever,
    )

    return serve_forever(
        args.socket,
        queue_size=(
            args.queue_size if args.queue_size is not None
            else DEFAULT_QUEUE_SIZE
        ),
        request_timeout=(
            args.timeout if args.timeout is not None
            else DEFAULT_REQUEST_TIMEOUT
        ),
        profile_path=args.profile_path,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.errors import ServiceError
    from repro.service.client import ReproClient
    from repro.service.protocol import JobRequest

    job = JobRequest(
        workload=args.workload,
        strategy=args.strategy,
        machine=args.machine,
        procs=args.procs,
        engine=args.engine,
        workers=args.workers,
        strip_size=args.strip_size,
        schedule_cache=not args.no_schedule_cache,
    )
    try:
        with ReproClient(args.socket, timeout=args.timeout) as client:
            if args.json:
                print(json.dumps(
                    client.submit_raw(job), indent=2, sort_keys=True
                ))
                return 0
            report = client.submit(job)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.describe())
    if report.reused_schedule:
        print("schedule reuse  : verdict served from the daemon's fleet store")
    if args.verbose:
        for loop_key, reason in report.engine_decisions:
            print(
                f"engine decision : {loop_key}: "
                f"{report.engine_used} ({reason})"
            )
        for loop_key, reason in report.fallbacks:
            print(
                f"engine fallback : {loop_key}: "
                f"{args.engine} -> {report.engine_used} ({reason})"
            )
    print("phase breakdown (cycles):")
    for phase, cycles in report.times.nonzero_phases().items():
        print(f"  {phase:16s} {cycles:14.1f}")
    print(f"post-loop state : sha256 {report.env_digest[:16]}…")
    return 0


def _cmd_table1() -> int:
    from repro.evalx.table1 import build_table1, render_table1

    print(render_table1(build_table1()))
    return 0


def _cmd_table2() -> int:
    from repro.evalx.table2 import build_table2, render_table2

    print(render_table2(build_table2()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Regenerate every table/figure artifact without pytest."""
    import pathlib

    from repro.evalx.figures import (
        failure_cost_series,
        loop_figure,
        marking_overhead_series,
        partial_parallel_series,
        pd_vs_lpd_comparison,
        procwise_qualification,
        schedule_reuse_series,
    )
    from repro.evalx.render import ascii_chart, format_figure, format_table
    from repro.evalx.table1 import build_table1, render_table1
    from repro.evalx.table2 import build_table2, render_table2

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    quick = args.quick
    procs = (1, 2, 4, 8) if quick else (1, 2, 4, 8, 12, 14, 16)

    def write(name: str, text: str) -> None:
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"wrote {out / name}.txt")

    if quick:
        from repro.workloads.bdna import build_bdna
        from repro.workloads.track import build_track

        loops = {
            "TRACK_NLFILT_do300": lambda: build_track(n=150),
            "BDNA_ACTFOR_do240": lambda: build_bdna(n=100),
        }
        table1_loops = loops
        figure_loops = loops
    else:
        table1_loops = None
        figure_loops = PAPER_LOOPS

    write("table1", render_table1(build_table1(table1_loops)))
    write("table2", render_table2(build_table2(n=120 if quick else 240)))

    for name, builder in figure_loops.items():
        workload = builder()
        figure = loop_figure(
            workload, procs=procs,
            include_setup=(name == "SPICE_LOAD_do40"),
        )
        short = name.split("_")[0].lower()
        write(
            f"fig_{short}",
            format_figure(figure, title=f"{name}: speedup vs processors")
            + "\n\n" + ascii_chart(figure, title=name),
        )

    points = failure_cost_series(
        fractions=(0.0, 0.1) if quick else (0.0, 0.02, 0.05, 0.1, 0.25, 0.5),
        n=200 if quick else 400,
    )
    write(
        "fig_failure",
        format_table(
            ["dep fraction", "passed", "time / serial"],
            [[p.dep_fraction, p.passed, p.slowdown_vs_serial] for p in points],
            title="Failed-speculation cost",
        ),
    )

    pp_points = partial_parallel_series(
        procs=(2, 8) if quick else (2, 4, 8, 14),
        n=200 if quick else 400,
        band_length=16 if quick else 24,
        strip_size=25 if quick else 50,
    )
    write(
        "fig_partial",
        format_table(
            ["procs", "unstripped", "stripped", "strips", "rolled back"],
            [[p.procs, p.unstripped_speedup, p.stripped_speedup,
              p.strips, p.strips_failed] for p in pp_points],
            title="Partially parallel loop: all-or-nothing vs strip-mined",
        ),
    )

    pd_points = pd_vs_lpd_comparison(live_fractions=(0.0, 1.0))
    write(
        "ablation_pd_vs_lpd",
        format_table(
            ["live fraction", "PD passes", "LPD passes"],
            [[p.live_fraction, p.pd_passed, p.lpd_passed] for p in pd_points],
            title="PD vs LPD",
        ),
    )

    pw_points = procwise_qualification(procs=(2, 4, 8) if quick else (2, 4, 7, 8, 12))
    write(
        "ablation_procwise",
        format_table(
            ["procs", "iteration-wise", "processor-wise", "speedup"],
            [[p.procs, p.iteration_wise_passed, p.processor_wise_passed,
              p.processor_wise_speedup] for p in pw_points],
            title="Iteration- vs processor-wise",
        ),
    )

    mk_points = marking_overhead_series(
        mark_costs=(0.0, 4.0, 16.0) if quick else (0.0, 2.0, 4.0, 8.0, 16.0)
    )
    write(
        "ablation_marking",
        format_table(
            ["mark cost", "overhead factor", "speedup at p=8"],
            [[p.mark_cost, p.overhead_factor, p.speedup_at_p] for p in mk_points],
            title="Marking-cost sensitivity",
        ),
    )

    without, with_cache = schedule_reuse_series(invocations=3 if quick else 8)
    write(
        "fig_ocean_reuse",
        format_table(
            ["invocation", "no reuse", "with reuse", "reused?"],
            [[a.invocation, a.time, b.time, b.reused]
             for a, b in zip(without, with_cache)],
            title="OCEAN schedule reuse",
        ),
    )
    print(f"report complete: {out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.evalx.figures import loop_figure
    from repro.evalx.render import format_figure

    name = SHORT_NAMES[args.workload]
    workload = PAPER_LOOPS[name]()
    figure = loop_figure(
        workload,
        model=_MACHINES[args.machine](),
        include_setup=(name == "SPICE_LOAD_do40"),
    )
    print(format_figure(figure, title=f"{name}: speedup vs processors"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
