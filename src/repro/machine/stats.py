"""Time accounting records produced by the simulated machine."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class TimeBreakdown:
    """Simulated cycles of one strategy execution, by phase.

    Phases that a strategy does not perform stay at zero; ``total()``
    sums everything.  The per-phase decomposition feeds the overhead
    figures and EXPERIMENTS.md.
    """

    setup: float = 0.0            # pre-loop statements (serial)
    checkpoint: float = 0.0
    shadow_init: float = 0.0
    private_init: float = 0.0
    inspector: float = 0.0        # marking-only inspector traversal
    body: float = 0.0             # parallel loop body (incl. marking)
    dispatch: float = 0.0
    barrier: float = 0.0
    analysis: float = 0.0         # LRPD analysis phase
    reduction_merge: float = 0.0
    copy_out: float = 0.0
    restore: float = 0.0          # rollback after a failed test
    serial_rerun: float = 0.0     # serial re-execution after failure
    doacross: float = 0.0         # pipelined DOACROSS recovery after failure

    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    def overhead(self) -> float:
        """Everything that is not the parallel loop body itself."""
        return self.total() - self.body

    def merged_with(self, other: "TimeBreakdown") -> "TimeBreakdown":
        out = TimeBreakdown()
        for f in fields(TimeBreakdown):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def nonzero_phases(self) -> dict[str, float]:
        return {k: v for k, v in self.as_dict().items() if v > 0.0}


@dataclass
class WallClock:
    """Measured wall-clock seconds of one strategy execution, by phase.

    The *simulated* cycles in :class:`TimeBreakdown` price the modeled
    multiprocessor; these are real ``perf_counter`` durations of the
    host execution, recorded so the measured speedup of the multiprocess
    backend (``engine="parallel"``) can be reported next to — never
    mixed into — the simulated numbers.  The doall phase includes
    shadow/private initialization and, for the parallel engine, task
    dispatch and the cross-processor shadow merge.
    """

    checkpoint: float = 0.0
    doall: float = 0.0
    analysis: float = 0.0
    commit: float = 0.0       # reduction merge + copy-out + scalar fold
    rollback: float = 0.0     # restore + serial re-execution
    signature: float = 0.0    # pattern-signature digest (schedule reuse)

    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))

    def merged_with(self, other: "WallClock") -> "WallClock":
        out = WallClock()
        for f in fields(WallClock):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class StripRecord:
    """Per-strip accounting of one strip-mined speculative execution.

    One record per strip, in commit order.  ``times`` holds the strip's
    own phase breakdown (checkpoint, body, analysis, and — on failure —
    restore + serial_rerun); the pipeline's whole-loop breakdown is the
    field-wise sum of these, so stripped speedups decompose exactly like
    the unstripped ones in Table 1/2.
    """

    index: int
    first_value: int          # first iteration value of the strip
    iterations: int
    strip_size: int           # the sizer's decision (>= iterations)
    passed: bool
    aborted: bool             # eager detection fired inside the strip
    times: TimeBreakdown
    #: a failed strip re-executed as a pipelined DOACROSS instead of serially.
    recovered: bool = False

    @property
    def time(self) -> float:
        return self.times.total()


@dataclass
class SpeedupPoint:
    """One (processors, speedup) sample of a figure series."""

    procs: int
    speedup: float
    time: float
    breakdown: TimeBreakdown | None = None


@dataclass
class SpeedupSeries:
    """A named speedup-vs-processors series (one figure line)."""

    label: str
    points: list[SpeedupPoint] = field(default_factory=list)

    def add(self, point: SpeedupPoint) -> None:
        self.points.append(point)

    def speedups(self) -> list[float]:
        return [p.speedup for p in self.points]
