"""The benchmark's four workloads.

Each workload draws its ops from the seed, runs them through repro's
public entry points (the frontend registry, ``LoopRunner``,
``run_serial``, ``ReproClient``, ``LoopService`` and
``repro.service.protocol``) and checks every result against an oracle
outside the timed region:

* ``paper-spec`` and ``fail-recover``: the tree-walking serial run of
  the same inputs (``run_serial(engine="walk")``);
* ``lift-corpus``: the kernel executed natively by CPython, and each
  reject against the corpus' named reason;
* ``serve-mix``: the environment digest of an in-process
  ``LoopService`` execution of the same job, made during set-up.

Ops come in seeded shuffled rounds that run every op kind once, so any
prefix of a run is balanced across kinds and two runs of one seed run
the same ops in the same order.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.frontend import LiftResult, get_frontend  # noqa: E402
from repro.machine.costmodel import fx80  # noqa: E402
from repro.runtime.engines import get_engine  # noqa: E402
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy  # noqa: E402
from repro.runtime.serial import run_serial  # noqa: E402
from repro.service.catalog import workload_names  # noqa: E402
from repro.service.client import ReproClient  # noqa: E402
from repro.service.protocol import JobRequest, ServedReport  # noqa: E402
from repro.service.server import LoopService  # noqa: E402
from repro.workloads import CORPUS, PAPER_LOOPS  # noqa: E402
from repro.workloads.synthetic import (  # noqa: E402
    build_dependence_injected,
    build_partial_parallel,
    build_synthdoacross,
)
from hostspeed import HostSpeed  # noqa: E402
from spans import OFF  # noqa: E402

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent
#: where serve-mix puts the daemon's socket (inside the checkout).
SOCKET_DIR = ROOT / ".bench_serve"

MODEL = fx80().with_procs(8)
SPECULATIVE = RunConfig(model=MODEL, engine="auto")
#: the p=8 reduction merge reassociates floating-point sums, so results
#: are compared with a tolerance, not bit for bit.
RTOL = 1e-9
ATOL = 1e-12
#: op ``i`` of seed ``s`` draws its inputs from seed ``s * STRIDE + i``.
OP_SEED_STRIDE = 1_000_000
REQUEST_TIMEOUT_S = 60.0
DAEMON_START_DEADLINE_S = 30.0

#: measured wall-clock phases, as ``WallClock`` names them.
PHASES = ("checkpoint", "doall", "analysis", "commit", "rollback", "signature")
#: simulated ``TimeBreakdown`` fields grouped like the measured phases
#: (the doall's wall clock includes shadow and private initialization).
MACHINE_PHASES = {
    "checkpoint": ("checkpoint",),
    "doall": (
        "shadow_init", "private_init", "inspector", "body", "dispatch",
        "barrier",
    ),
    "analysis": ("analysis",),
    "commit": ("reduction_merge", "copy_out"),
    "rollback": ("restore", "serial_rerun", "doacross"),
}


@dataclass
class Summary:
    """What the layer metrics need from one report (the environment is
    dropped, so keeping a summary per op costs no memory that grows with
    the loop)."""

    speedup: float
    passed: bool | None
    wall: dict[str, float]
    machine: dict[str, float]
    strips: int
    strips_failed: int
    recovered: float
    fallback: bool
    whole_block: bool
    reused: bool


def summarize(report) -> Summary:
    """Summarize an ``ExecutionReport`` or a ``ServedReport``."""
    wall = report.wall.as_dict() if report.wall is not None else {}
    times = report.times.as_dict()
    return Summary(
        speedup=report.speedup,
        passed=report.passed,
        wall={phase: wall.get(phase, 0.0) for phase in PHASES},
        machine={
            group: sum(times[name] for name in names)
            for group, names in MACHINE_PHASES.items()
        },
        strips=len(report.strips),
        strips_failed=sum(not strip.passed for strip in report.strips),
        recovered=report.stats.get("recovered_fraction", 0.0),
        fallback=bool(report.fallbacks),
        whole_block=(
            report.engine_used is not None
            and get_engine(report.engine_used).caps.whole_block
        ),
        reused=report.reused_schedule,
    )


@dataclass
class OpRecord:
    index: int
    kind: str
    #: the op's input seed, or the served job's fields.
    detail: object
    seconds: float = 0.0
    #: when the op started, in seconds of the timed phase.
    start: float = 0.0
    #: ``seconds`` on the reference host (see ``hostspeed``).
    scaled: float = 0.0
    traced: bool = False
    error: str | None = None
    #: whether the op's lift succeeded (None: no lift in this process).
    lifted: bool | None = None
    summary: Summary | None = None


@dataclass
class Measurement:
    #: the timed ops.
    records: list[OpRecord]
    #: the first round of ops, run before timing starts so caches fill;
    #: checked, not timed.
    warmup: list[OpRecord]
    #: wall time of the timed phase (in-process: the ops' own time).
    timed_s: float
    #: summed PSS of the process tree that executes the program.
    mem_mb: float = 0.0
    #: the records the runtime layer metrics come from.
    layer_records: list[OpRecord] = field(default_factory=list)
    #: daemon-side counters (serve-mix only).
    service: dict[str, float] = field(default_factory=dict)
    #: the reference samples the op times were scaled by.
    speed: HostSpeed | None = None


@dataclass
class Budget:
    """When the timed phase ends: after ``seconds`` of measured time, or
    after exactly ``ops`` ops (the fixed-count quick mode)."""

    seconds: float
    ops: int | None = None

    def done(self, count: int, measured_s: float) -> bool:
        if self.ops is not None:
            return count >= self.ops
        return measured_s >= self.seconds


def op_stream(kinds, seed: int) -> Iterator[tuple[int, str, int]]:
    """``(index, kind, input seed)`` in seeded shuffled rounds."""
    rng = random.Random(seed)
    index = 0
    while True:
        for kind in rng.sample(list(kinds), len(kinds)):
            yield index, kind, seed * OP_SEED_STRIDE + index
            index += 1


def mismatch(env, arrays: dict, scalars: dict) -> str | None:
    """Where ``env`` differs from the oracle's arrays and scalars."""
    for name, want in arrays.items():
        got = env.arrays[name]
        if got.shape != want.shape or not np.allclose(
            got, want, rtol=RTOL, atol=ATOL
        ):
            return f"array {name!r} differs from the oracle"
    for name, want in scalars.items():
        got = env.scalars.get(name)
        if got is None or not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
            return f"scalar {name!r} is {got!r}, the oracle's is {want!r}"
    return None


def speculate(program, inputs, strategy: Strategy, config: RunConfig, spans):
    """Plan, take the serial reference, then run under ``strategy``."""
    with spans.span("analysis.plan"):
        runner = LoopRunner(program, inputs)
    with spans.span("runtime.serial.reference"):
        runner.serial_run(config.model, config.engine)
    with spans.span("runtime.run"):
        return runner.run(strategy, config)


def child_env() -> dict[str, str]:
    """The environment of the processes the benchmark starts.

    The hash seed is fixed: with a random one, set and dict layouts
    differ from one daemon to the next, and serve-mix timings spread
    1.5 to 2 times as wide over runs (measured on a 2-core host).
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree = [root]
    for pid in tree:
        tree.extend(child for child, parent in parents.items() if parent == pid)
    return tree


def pss_mb(pids) -> float:
    """Summed proportional set size of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as fh:
                for line in fh:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except FileNotFoundError:
            continue  # the process ended after the tree was listed
    return total_kb / 1024.0


def thread_count(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    raise RuntimeError(f"no thread count for pid {pid}")


def scale(records: list[OpRecord], speed: HostSpeed) -> None:
    """Set each record's time on the reference host; a record's position
    is its index in ``records``."""
    for position, record in enumerate(records):
        record.scaled = record.seconds * speed.factor(position)


# -- in-process workloads -----------------------------------------------------


class InProcessWorkload:
    """A closed loop with one client, run inside the benchmark process."""

    name: str
    kinds: tuple[str, ...]
    #: modules a fresh process imports before it can take its first op.
    imports: tuple[str, ...]
    #: op count of the fixed-count quick mode.
    quick_ops: int

    def prepare(self, kind: str, op_seed: int):
        """Generate the op's inputs (untimed)."""
        raise NotImplementedError

    def execute(self, prepared, spans):
        """The timed op: a report, or a rejected ``LiftResult``."""
        raise NotImplementedError

    def check(self, prepared, outcome) -> str | None:
        """The oracle: None when the outcome is right, else what is wrong."""
        raise NotImplementedError

    def ops(self, seed: int):
        return op_stream(self.kinds, seed)

    def setup_once(self) -> float:
        """Seconds from interpreter start until the imports are done."""
        code = (
            "import time, " + ", ".join(self.imports)
            + "; print(time.monotonic())"
        )
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=60,
        )
        return float(out.stdout.split()[-1]) - start

    def measure(self, seed: int, budget: Budget, spans=None) -> Measurement:
        """Warm up with one round, then time ops until ``budget`` ends.

        With ``spans``, every other op is traced, so the traced and
        untraced op times of one run give the tracing overhead.
        """
        stream = self.ops(seed)
        warmup = [self.run_op(*next(stream), OFF) for _ in self.kinds]
        speed = HostSpeed()
        records: list[OpRecord] = []
        measured = 0.0
        while not budget.done(len(records), measured):
            index, kind, op_seed = next(stream)
            traced = spans is not None and index % 2 == 0
            record = self.run_op(index, kind, op_seed, spans if traced else OFF)
            record.traced = traced
            record.start = measured
            records.append(record)
            measured += record.seconds
            speed.after_op(len(records) - 1, record.seconds)
        scale(records, speed)
        return Measurement(
            records, warmup, measured,
            mem_mb=pss_mb([os.getpid()]), layer_records=records, speed=speed,
        )

    def run_op(self, index: int, kind: str, op_seed: int, spans) -> OpRecord:
        record = OpRecord(index, kind, op_seed)
        prepared = self.prepare(kind, op_seed)
        try:
            with spans.span("op", op=index):
                start = time.perf_counter()
                outcome = self.execute(prepared, spans)
                record.seconds = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed op is counted
            record.error = f"{type(exc).__name__}: {exc}"
            return record
        record.error = self.check(prepared, outcome)
        record.lifted = not isinstance(outcome, LiftResult)
        if record.lifted:
            record.summary = summarize(outcome)
        return record


@dataclass(frozen=True)
class DslCase:
    """One op kind of a workload written in the mini-Fortran DSL."""

    build: Callable
    strategy: Strategy
    config: RunConfig


class DslWorkload(InProcessWorkload):
    """Fresh seeded inputs per op: ``Workload.program()`` → ``LoopRunner``
    → ``serial_run`` → ``run``; checked against the walk engine."""

    imports = ("repro.workloads", "repro.runtime.orchestrator")

    def __init__(self, name: str, cases: dict[str, DslCase], quick_ops: int):
        self.name = name
        self.cases = cases
        self.kinds = tuple(cases)
        self.quick_ops = quick_ops

    def prepare(self, kind: str, op_seed: int):
        case = self.cases[kind]
        return case, case.build(op_seed)

    def execute(self, prepared, spans):
        case, workload = prepared
        with spans.span("frontend.lift"):
            program = workload.program()
        return speculate(
            program, workload.inputs, case.strategy, case.config, spans
        )

    def check(self, prepared, report) -> str | None:
        case, workload = prepared
        oracle = run_serial(
            workload.program(), workload.inputs, case.config.model,
            engine="walk",
        ).env
        return mismatch(
            report.env,
            {name: oracle.arrays[name] for name in workload.check_arrays},
            {name: oracle.scalars[name] for name in workload.check_scalars},
        )


def redraw(template: dict, rng: np.random.Generator) -> dict:
    """Fresh inputs shaped like ``template``: same shapes and dtypes,
    values drawn from each array's own range, permutations kept as
    permutations and constant arrays (outputs) and scalars kept."""
    out = {}
    for name, value in template.items():
        if not isinstance(value, np.ndarray) or value.min() == value.max():
            out[name] = copy.deepcopy(value)
        elif np.array_equal(np.sort(value, axis=None), np.arange(value.size)):
            out[name] = rng.permutation(value.size).astype(value.dtype)
        elif value.dtype.kind in "iu":
            out[name] = rng.integers(
                value.min(), value.max() + 1, size=value.shape,
                dtype=value.dtype,
            )
        else:
            out[name] = rng.uniform(
                value.min(), value.max(), size=value.shape
            ).astype(value.dtype)
    return out


class CorpusWorkload(InProcessWorkload):
    """Every ``pycorpus`` loop, lifted by the python frontend per op."""

    name = "lift-corpus"
    imports = (
        "repro.frontend", "repro.workloads.pycorpus",
        "repro.runtime.orchestrator",
    )
    quick_ops = 40

    def __init__(self) -> None:
        self.kinds = tuple(CORPUS)
        self._templates: dict[str, dict] = {}

    def prepare(self, kind: str, op_seed: int):
        loop = CORPUS[kind]
        if kind not in self._templates:
            self._templates[kind] = loop.make_inputs()
        inputs = redraw(self._templates[kind], np.random.default_rng(op_seed))
        return loop, inputs, copy.deepcopy(inputs)

    def execute(self, prepared, spans):
        loop, inputs, _native_inputs = prepared
        with spans.span("frontend.lift"):
            lifted = get_frontend("python").lift(loop.kernel, inputs=inputs)
        if not lifted:
            return lifted
        return speculate(
            lifted.program, lifted.inputs, Strategy.SPECULATIVE, SPECULATIVE,
            spans,
        )

    def check(self, prepared, outcome) -> str | None:
        loop, _inputs, native_inputs = prepared
        if isinstance(outcome, LiftResult):
            reason = outcome.decision.reason
            if reason == loop.reject_reason:
                return None
            return f"rejected as {reason!r}, expected {loop.reject_reason!r}"
        if loop.reject_reason is not None:
            return f"lifted a loop that must be rejected ({loop.reject_reason})"
        result = loop.kernel(**native_inputs)
        values = result if isinstance(result, tuple) else (result,)
        return mismatch(
            outcome.env,
            {name: native_inputs[name] for name in loop.check_arrays},
            {f"{name}_out": value for name, value in zip(loop.returns, values)},
        )


# -- serve-mix ------------------------------------------------------------------

SERVE_PROCS = (2, 4, 8)
#: the ``repro submit`` defaults, and ``engine=auto`` with two workers.
#: The workers use the thread backend: the fork backend's shared-memory
#: segments would live outside the checkout.
SERVE_ENGINES = ({}, {"engine": "auto", "workers": 2, "backend": "threads"})
#: a quarter of the jobs skip the schedule cache.
SERVE_CACHE = (True, True, True, False)
#: job fields a catalog loop always needs: a strip size for the partially
#: parallel loop, the recovery tier for the DOACROSS loop.
SERVE_FIXED = {
    "synthpartial": {"strip_size": 16},
    "synthdoacross": {"strategy": "doacross_recovery"},
}


class Daemon:
    """A ``repro serve`` subprocess, timed from spawn to its first ping."""

    def __enter__(self) -> "Daemon":
        SOCKET_DIR.mkdir(exist_ok=True)
        path = SOCKET_DIR / f"{os.getpid()}.sock"
        # A unix socket path is limited to ~107 bytes; the daemon
        # inherits this process' working directory, so a relative path
        # names the same file.
        self.socket = min(str(path), os.path.relpath(path), key=len)
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket],
            env=child_env(), stdout=subprocess.DEVNULL,
        )
        try:
            self.ready_s = self._await_ping(start)
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _await_ping(self, start: float) -> float:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode} "
                    f"during start-up"
                )
            try:
                with ReproClient(self.socket, timeout=5.0) as client:
                    client.ping()
                return time.monotonic() - start
            except ServiceError:
                if time.monotonic() - start > DAEMON_START_DEADLINE_S:
                    raise
                time.sleep(0.002)

    def stop(self) -> None:
        if self.proc.poll() is None:
            with contextlib.suppress(ServiceError):
                with ReproClient(self.socket, timeout=10.0) as client:
                    client.shutdown_server()
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        with contextlib.suppress(OSError):
            SOCKET_DIR.rmdir()


class ServeMix:
    """A ``repro serve`` daemon under a seeded job stream from one
    closed-loop client."""

    name = "serve-mix"
    quick_ops = 60

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(workload_names())

    @property
    def round_size(self) -> int:
        return len(self.kinds) * len(SERVE_ENGINES) * len(SERVE_CACHE)

    def setup_once(self) -> float:
        with Daemon() as daemon:
            return daemon.ready_s

    def ops(self, seed: int) -> Iterator[tuple[int, JobRequest]]:
        """The seeded job stream, in shuffled rounds that run every
        catalog loop under every (engine, schedule cache) slot; the
        processor counts rotate over the slots from round to round.

        An uncached job of a large loop costs ten times a cached job of a
        small one, so every round holds the same jobs and only the seed's
        order differs: drawing the jobs at random would make the work of
        a round, and of a run, a lottery.
        """
        rng = random.Random(seed)
        slots = [
            (name, engine, cache)
            for name in self.kinds
            for engine in SERVE_ENGINES
            for cache in SERVE_CACHE
        ]
        index = 0
        for turn in itertools.count():
            jobs = [
                JobRequest(
                    workload=name,
                    procs=SERVE_PROCS[(slot + turn) % len(SERVE_PROCS)],
                    schedule_cache=cache, **engine,
                    **SERVE_FIXED.get(name, {}),
                )
                for slot, (name, engine, cache) in enumerate(slots)
            ]
            for job in rng.sample(jobs, len(jobs)):
                yield index, job
                index += 1

    def references(self) -> dict:
        """Environment digests of in-process executions: per (loop,
        procs) as the loop is configured in the stream, and per loop run
        serially — the result a job refused by the planner must give."""
        service = LoopService()
        refs = {}
        try:
            for name in self.kinds:
                refs[name, "serial"] = service.execute(
                    JobRequest(workload=name, strategy="serial")
                )["env_digest"]
                for procs in SERVE_PROCS:
                    refs[name, procs] = service.execute(JobRequest(
                        workload=name, procs=procs, **SERVE_FIXED.get(name, {})
                    ))["env_digest"]
        finally:
            service.close()
        return refs

    @staticmethod
    def check(job: JobRequest, report: ServedReport, refs: dict) -> str | None:
        refused = bool(report.stats.get("refused"))
        key = (job.workload, "serial" if refused else job.procs)
        if report.env_digest != refs[key]:
            return (
                f"{job.workload} p={job.procs}: served digest differs from "
                f"the in-process {'serial ' if refused else ''}execution"
            )
        return None

    def submit(self, client, index, job, refs, spans) -> OpRecord:
        record = OpRecord(index, job.workload, job.to_json())
        try:
            with spans.span("service.roundtrip", op=index):
                record.start = time.perf_counter()
                report = client.submit(job)
                record.seconds = time.perf_counter() - record.start
        except ServiceError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            return record
        record.error = self.check(job, report, refs)
        record.summary = summarize(report)
        return record

    def measure(self, seed: int, budget: Budget, spans=None) -> Measurement:
        """Warm up with one round, then submit jobs until ``budget`` ends.

        One client: with a second one, a request arriving mid-job makes
        the daemon's event loop take the interpreter lock from its
        executor thread, and the timed phase's throughput spread over
        10% from one round to the next (16–23% over runs, measured on a
        2-core host, against 6–9% with one client).
        """
        refs = self.references()
        stream = self.ops(seed)
        records: list[OpRecord] = []
        with Daemon() as daemon, ReproClient(
            daemon.socket, timeout=REQUEST_TIMEOUT_S
        ) as client:
            warmup = [
                self.submit(client, *next(stream), refs, OFF)
                for _ in range(self.round_size)
            ]
            speed = HostSpeed()
            start = time.perf_counter()
            while not budget.done(len(records), time.perf_counter() - start):
                index, job = next(stream)
                traced = spans is not None and index % 2 == 0
                record = self.submit(
                    client, index, job, refs, spans if traced else OFF
                )
                record.traced = traced
                record.start -= start
                records.append(record)
                speed.after_op(len(records) - 1, record.seconds)
            timed_s = time.perf_counter() - start
            pid = daemon.proc.pid
            mem_mb = pss_mb(process_tree(pid))
            threads_alive = thread_count(pid)
            stats = client.stats()
        scale(records, speed)
        service = {
            "reuse_frac": 1.0 - stats["runners"] / max(stats["executed"], 1),
            "pool_builds": stats["pool_builds"],
            "pool_hits": stats["pool_hits"],
            "daemon_threads": threads_alive,
        }
        layer_records = records
        if spans is not None:
            layer_records = self.replay(warmup, records, spans)
        return Measurement(
            records, warmup, timed_s, mem_mb=mem_mb,
            layer_records=layer_records, service=service, speed=speed,
        )

    def replay(self, warmup, records, spans) -> list[OpRecord]:
        """Execute the served stream again on an in-process
        ``LoopService``: the runtime layer timings of the same jobs
        without the socket and the queue."""
        service = LoopService()
        replayed = []
        try:
            for record in warmup:
                service.execute(JobRequest.from_json(record.detail))
            for record in records:
                job = JobRequest.from_json(record.detail)
                with spans.span("runtime.run", op=record.index) as span:
                    payload = service.execute(job)
                replayed.append(OpRecord(
                    record.index, record.kind, record.detail,
                    seconds=span.duration, traced=True,
                    summary=summarize(ServedReport.from_json(payload)),
                ))
        finally:
            service.close()
        return replayed


PAPER_SPEC = DslWorkload(
    "paper-spec",
    {
        name.split("_")[0].lower(): DslCase(
            lambda seed, build=build: build(seed=seed),
            Strategy.SPECULATIVE, SPECULATIVE,
        )
        for name, build in PAPER_LOOPS.items()
    },
    quick_ops=14,
)

FAIL_RECOVER = DslWorkload(
    "fail-recover",
    {
        "dependence-injected": DslCase(
            lambda seed: build_dependence_injected(
                n=1600, dep_fraction=0.5, seed=seed
            ),
            Strategy.SPECULATIVE, SPECULATIVE,
        ),
        "partial-strips": DslCase(
            lambda seed: build_partial_parallel(
                n=800, band_length=80, seed=seed
            ),
            Strategy.STRIPPED, dataclasses.replace(SPECULATIVE, strip_size=50),
        ),
        "doacross": DslCase(
            lambda seed: build_synthdoacross(n=800, distance=16, seed=seed),
            Strategy.DOACROSS_RECOVERY, SPECULATIVE,
        ),
    },
    quick_ops=6,
)

WORKLOADS = {
    workload.name: workload
    for workload in (PAPER_SPEC, FAIL_RECOVER, CorpusWorkload(), ServeMix())
}
