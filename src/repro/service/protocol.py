"""The serve daemon's wire protocol.

Newline-delimited JSON over a local (unix-domain) socket, versioned
like :mod:`repro.runtime.profile.persist`: every message carries
``format``/``version`` markers, and a foreign or future-version message
is answered with a clean error reply instead of a crash or a guess.

Three layers live here:

* the **envelope**: :func:`encode_message` / :func:`decode_message`
  frame one message per line and validate the markers;
* the **job spec**: :class:`JobRequest`, the validated description of
  one loop-execution job (workload, strategy, machine, engine, worker
  and strip configuration) with a canonical :meth:`~JobRequest.key`
  that the server coalesces identical in-flight jobs on;
* the **report**: :class:`ServedReport`, the JSON-round-tripped form of
  an :class:`~repro.runtime.results.ExecutionReport`.  The environment
  itself stays on the server; the report ships a content digest of the
  post-loop state instead, strong enough for the smoke suite to assert
  bit-identity between served and direct executions.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.core.outcomes import LrpdResult
from repro.errors import ProtocolError
from repro.machine.stats import StripRecord, TimeBreakdown, WallClock
from repro.runtime.profile.persist import result_from_json, result_to_json

FORMAT = "repro-serve"
VERSION = 2

#: request operations the daemon understands.
OPS = ("ping", "run", "stats", "shutdown")

#: error codes an ``"error"`` reply may carry.
ERROR_CODES = (
    "malformed-request",
    "unsupported-version",
    "unknown-op",
    "invalid-job",
    "unknown-workload",
    "queue-full",
    "timeout",
    "shutting-down",
    "internal",
)


# -- envelope ---------------------------------------------------------------


def encode_message(payload: dict) -> bytes:
    """One wire message: the payload plus format/version markers, as a
    single JSON line (the framing unit of the protocol)."""
    body = {"format": FORMAT, "version": VERSION}
    body.update(payload)
    return (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")


def decode_message(line: bytes | str) -> dict:
    """Parse and validate one received line.

    Raises :class:`~repro.errors.ProtocolError` on anything that is not
    a current-version repro-serve message — undecodable bytes, non-JSON,
    a foreign ``format``, or an unsupported ``version``.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable message bytes: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"message is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ProtocolError("not a repro-serve message")
    if payload.get("version") != VERSION:
        raise ProtocolError(
            f"unsupported protocol version {payload.get('version')!r} "
            f"(this endpoint speaks version {VERSION})"
        )
    return payload


def error_reply(request_id, code: str, message: str) -> dict:
    """The error-reply payload for :func:`encode_message`."""
    assert code in ERROR_CODES, code
    return {
        "id": request_id,
        "status": "error",
        "error": {"code": code, "message": message},
    }


def ok_reply(request_id, **fields) -> dict:
    """The success-reply payload for :func:`encode_message`."""
    reply = {"id": request_id, "status": "ok"}
    reply.update(fields)
    return reply


# -- job spec ---------------------------------------------------------------

#: JobRequest field -> (expected types, default); the validation table
#: :meth:`JobRequest.from_json` enforces (unknown keys are rejected, so
#: a typo'd option never silently becomes a default).
_JOB_FIELDS: dict[str, tuple[tuple[type, ...], object]] = {
    "workload": ((str,), None),
    "strategy": ((str,), "speculative"),
    "machine": ((str,), "fx80"),
    "procs": ((int, type(None)), None),
    "granularity": ((str,), "iteration"),
    "test_mode": ((str,), "lrpd"),
    "engine": ((str,), "compiled"),
    "workers": ((int, type(None)), None),
    "backend": ((str,), "fork"),
    "strip_size": ((int, type(None)), None),
    "adaptive_strips": ((bool,), False),
    "schedule_cache": ((bool,), True),
}


@dataclass(frozen=True)
class JobRequest:
    """One validated loop-execution job.

    Mirrors the knobs of ``repro run``; ``schedule_cache`` defaults on
    because the daemon's whole point is the fleet-shared profile store —
    a repeated loop should skip the test.  Instances are frozen so the
    canonical :meth:`key` stays stable while a job is in flight.
    """

    workload: str
    strategy: str = "speculative"
    machine: str = "fx80"
    procs: int | None = None
    granularity: str = "iteration"
    test_mode: str = "lrpd"
    engine: str = "compiled"
    workers: int | None = None
    backend: str = "fork"
    strip_size: int | None = None
    adaptive_strips: bool = False
    schedule_cache: bool = True

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: object) -> "JobRequest":
        """Validate and build a job from a decoded ``job`` payload.

        Raises :class:`~repro.errors.ProtocolError` naming the offending
        field on unknown keys, wrong types, or a missing workload.
        Names (workload, strategy, engine, backend, machine) are only
        type-checked here — existence is the server's catalog/registry
        lookup, so this module stays import-light for thin clients.
        """
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"job must be an object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_JOB_FIELDS))
        if unknown:
            raise ProtocolError(
                f"unknown job field(s) {', '.join(unknown)}; known fields: "
                f"{', '.join(sorted(_JOB_FIELDS))}"
            )
        values: dict[str, object] = {}
        for name, (types, default) in _JOB_FIELDS.items():
            value = payload.get(name, default)
            # bool is an int subclass: an int field must not accept True.
            if isinstance(value, bool) and bool not in types:
                raise ProtocolError(f"job field {name!r} must not be a bool")
            if not isinstance(value, types):
                expected = "/".join(
                    t.__name__ for t in types if t is not type(None)
                )
                raise ProtocolError(
                    f"job field {name!r} must be {expected}, "
                    f"got {type(value).__name__}"
                )
            values[name] = value
        if values["workload"] is None:
            raise ProtocolError("job field 'workload' is required")
        return cls(**values)  # type: ignore[arg-type]

    def key(self) -> str:
        """The canonical coalescing key: two jobs with equal keys are
        the same (loop, configuration) and share one execution."""
        return json.dumps(self.to_json(), sort_keys=True)


# -- reports ----------------------------------------------------------------


def environment_digest(env) -> str:
    """A content digest of an environment's post-loop state.

    Hashes every scalar (name, exact repr) and every array (name, dtype,
    raw bytes) in name order — two executions with equal digests ended
    in bit-identical user-visible state.
    """
    digest = hashlib.sha256()
    for name in sorted(env.scalars):
        digest.update(name.encode())
        digest.update(repr(env.scalars[name]).encode())
    for name in sorted(env.arrays):
        array = env.arrays[name]
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _strip_to_json(strip: StripRecord) -> dict:
    return {
        "index": strip.index,
        "first_value": strip.first_value,
        "iterations": strip.iterations,
        "strip_size": strip.strip_size,
        "passed": strip.passed,
        "aborted": strip.aborted,
        "recovered": strip.recovered,
        "times": strip.times.as_dict(),
    }


def _strip_from_json(payload: dict) -> StripRecord:
    return StripRecord(
        index=int(payload["index"]),
        first_value=int(payload["first_value"]),
        iterations=int(payload["iterations"]),
        strip_size=int(payload["strip_size"]),
        passed=bool(payload["passed"]),
        aborted=bool(payload["aborted"]),
        recovered=bool(payload.get("recovered", False)),
        times=TimeBreakdown(**payload["times"]),
    )


@dataclass
class ServedReport:
    """An :class:`~repro.runtime.results.ExecutionReport` that crossed
    the wire: every simulated and measured quantity, with the post-loop
    environment replaced by its content digest."""

    strategy: str
    machine: str
    procs: int
    passed: bool | None
    test_result: LrpdResult | None
    times: TimeBreakdown
    serial_loop_time: float
    env_digest: str
    reused_schedule: bool = False
    stats: dict[str, float] = field(default_factory=dict)
    strips: list[StripRecord] = field(default_factory=list)
    wall: WallClock | None = None
    fallbacks: list[tuple[str, str]] = field(default_factory=list)
    engine_used: str | None = None
    engine_decisions: list[tuple[str, str]] = field(default_factory=list)
    cache_stats: dict[str, int] = field(default_factory=dict)

    @property
    def loop_time(self) -> float:
        return self.times.total()

    @property
    def speedup(self) -> float:
        total = self.loop_time
        if total <= 0.0:
            return float("inf")
        return self.serial_loop_time / total

    def describe(self) -> str:
        test = self.test_result.describe() if self.test_result else "no test"
        strips = ""
        if self.strips:
            failed = sum(1 for s in self.strips if not s.passed)
            strips = f", {len(self.strips)} strips ({failed} rolled back)"
        return (
            f"{self.strategy} on {self.machine} (p={self.procs}): "
            f"speedup {self.speedup:.2f} ({test}{strips})"
        )

    @classmethod
    def from_report(cls, report) -> "ServedReport":
        """Snapshot an in-process execution report for the wire."""
        return cls(
            strategy=report.strategy,
            machine=report.machine,
            procs=report.procs,
            passed=report.passed,
            test_result=report.test_result,
            times=report.times,
            serial_loop_time=report.serial_loop_time,
            env_digest=environment_digest(report.env),
            reused_schedule=report.reused_schedule,
            stats=dict(report.stats),
            strips=list(report.strips),
            wall=report.wall,
            fallbacks=list(report.fallbacks),
            engine_used=report.engine_used,
            engine_decisions=list(report.engine_decisions),
            cache_stats=dict(report.cache_stats),
        )

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "machine": self.machine,
            "procs": self.procs,
            "passed": self.passed,
            "test_result": (
                None if self.test_result is None
                else result_to_json(self.test_result)
            ),
            "times": self.times.as_dict(),
            "serial_loop_time": self.serial_loop_time,
            "env_digest": self.env_digest,
            "reused_schedule": self.reused_schedule,
            "stats": dict(self.stats),
            "strips": [_strip_to_json(s) for s in self.strips],
            "wall": None if self.wall is None else self.wall.as_dict(),
            "fallbacks": [list(f) for f in self.fallbacks],
            "engine_used": self.engine_used,
            "engine_decisions": [list(d) for d in self.engine_decisions],
            "cache_stats": dict(self.cache_stats),
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ServedReport":
        try:
            return cls(
                strategy=str(payload["strategy"]),
                machine=str(payload["machine"]),
                procs=int(payload["procs"]),
                passed=payload["passed"],
                test_result=(
                    None if payload["test_result"] is None
                    else result_from_json(payload["test_result"])
                ),
                times=TimeBreakdown(**payload["times"]),
                serial_loop_time=float(payload["serial_loop_time"]),
                env_digest=str(payload["env_digest"]),
                reused_schedule=bool(payload["reused_schedule"]),
                stats=dict(payload["stats"]),
                strips=[_strip_from_json(s) for s in payload["strips"]],
                wall=(
                    None if payload["wall"] is None
                    else WallClock(**payload["wall"])
                ),
                fallbacks=[tuple(f) for f in payload["fallbacks"]],
                engine_used=payload["engine_used"],
                engine_decisions=[tuple(d) for d in payload["engine_decisions"]],
                cache_stats=dict(payload["cache_stats"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"corrupt report payload: {exc}") from exc


def report_payload(report) -> dict:
    """The wire form of an in-process execution report."""
    return ServedReport.from_report(report).to_json()


#: report fields that are legitimately non-deterministic across
#: processes: measured wall-clock seconds and the fleet store's
#: cross-run cache counters.  Everything else — simulated times, test
#: verdict and per-array details, stats, strips, the environment digest
#: — must round-trip bit-identically between a served job and a direct
#: in-process run of the same spec.
NONDETERMINISTIC_FIELDS = ("wall", "cache_stats")


def comparable_payload(payload: dict) -> dict:
    """The deterministic projection of a report payload (what the smoke
    suite asserts bit-identical between served and direct runs)."""
    return {
        key: value for key, value in payload.items()
        if key not in NONDETERMINISTIC_FIELDS
    }
