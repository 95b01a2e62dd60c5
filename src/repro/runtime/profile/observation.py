"""Per-run observation records — what the runtime learned from one run.

Every strategy execution of a loop leaves one :class:`RunObservation`
in the loop's profile: which engine actually ran, on which worker
backend, the measured wall clock (total and the doall phase alone), the
test verdict, any engine-fallback reason, and the strip size a
strip-mined run converged on.  The runner consumes these (failure
rates, recovered fractions, warm strip sizes); persistence round-trips
every field so history survives across processes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class RunObservation:
    """One strategy execution of one loop, as the profile remembers it."""

    #: strategy that produced the report (serial/speculative/stripped/…).
    strategy: str
    #: the engine that actually executed the doall (None when no doall
    #: ran — refused or eager-serial runs).
    engine: str | None
    #: worker-pool flavour the run was configured with.
    backend: str
    #: measured wall-clock seconds, whole strategy execution.
    wall_s: float
    #: measured wall-clock seconds of the doall phase alone — the
    #: engine-dependent part of the run.
    doall_s: float
    #: the run-time test's verdict (None when no test ran).
    passed: bool | None
    #: first engine-degradation reason, if any (e.g. classifier reject).
    fallback_reason: str | None = None
    #: final strip size of a strip-mined run (None otherwise) — the
    #: adaptive sizer's converged decision, used for warm-starting.
    strip_size: int | None = None
    #: the verdict was reused from the schedule cache (no test paid).
    reused: bool = False
    #: fraction of the serial re-run cost the DOACROSS recovery tier won
    #: back on a failed run (0.0 when the deterministic veto forced a
    #: serial rollback; None when the run passed or recovery was off).
    recovered_fraction: float | None = None
    #: simulated cycles recovery iterations spent blocked in post/wait
    #: synchronization (0.0 when no recovery ran).
    sync_wait_cycles: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "RunObservation":
        fields = {
            "strategy": str(payload["strategy"]),
            "engine": payload.get("engine"),
            "backend": str(payload.get("backend", "fork")),
            "wall_s": float(payload.get("wall_s", 0.0)),
            "doall_s": float(payload.get("doall_s", 0.0)),
            "passed": payload.get("passed"),
            "fallback_reason": payload.get("fallback_reason"),
            "strip_size": payload.get("strip_size"),
            "reused": bool(payload.get("reused", False)),
            "recovered_fraction": payload.get("recovered_fraction"),
            "sync_wait_cycles": float(payload.get("sync_wait_cycles", 0.0)),
        }
        if fields["engine"] is not None:
            fields["engine"] = str(fields["engine"])
        if fields["passed"] is not None:
            fields["passed"] = bool(fields["passed"])
        if fields["strip_size"] is not None:
            fields["strip_size"] = int(fields["strip_size"])
        if fields["recovered_fraction"] is not None:
            fields["recovered_fraction"] = float(fields["recovered_fraction"])
        return cls(**fields)
