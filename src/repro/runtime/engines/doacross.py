"""The speculative DOACROSS recovery engine.

A failed LRPD test no longer has to mean full serial re-execution: the
shadow arrays the test populated already bound every cross-iteration
dependence distance the loop exercised
(:func:`repro.analysis.dependence.measure_shadow_distances`).  When the
minimum measured distance ``d`` exceeds 1, the speculative driver
re-executes the failed region in serial order, on the same compiled
serial re-run as a plain rollback — so the final state stays
bit-identical to the rollback path — and this engine *prices* that
re-run as a chunked, pipelined DOACROSS: static chunks round-robin over
the processors with post/wait synchronization at distance ``d``,
exactly the Saltz/Mirchandaney discipline
:mod:`repro.baselines.doacross` prices for fully inspected loops.  Anti
dependences are covered by the old/new-copy renaming that discipline
assumes; multiply-written elements and distance-≤1 chains
deterministically veto the recovery (the region really is serial).

The engine executes nothing itself — ``execute_doall`` declines to its
fallback and :meth:`DoacrossEngine.recover` only prices — it exists in
the registry so capability queries, CLI choices, the generated docs
table and the fallback chains all see the recovery tier through the
same seam as every executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.dependence import DistanceReport
from repro.core.shadow import Granularity
from repro.machine.simulator import DoacrossRecoveryTime
from repro.runtime.engines.base import DoallContext, EngineCaps, EngineFallback, ExecutionEngine
from repro.runtime.engines.registry import registry

if TYPE_CHECKING:  # pragma: no cover
    from repro.interp.costs import IterationCost
    from repro.machine.simulator import DoallSimulator
    from repro.runtime.doall import DoallRun


@dataclass(frozen=True)
class RecoveryRun:
    """One priced DOACROSS re-execution of a failed region."""

    time: DoacrossRecoveryTime
    #: what the plain serial re-run of the same iterations would cost —
    #: the denominator of the recovered fraction.
    serial_equivalent: float
    iterations: int
    distance: int

    @property
    def recovered_fraction(self) -> float:
        """Fraction of the serial re-run cost the pipeline won back."""
        if self.serial_equivalent <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.time.total / self.serial_equivalent)


class DoacrossEngine(ExecutionEngine):
    """Prices the re-execution of failed LRPD regions as a pipelined
    post/wait DOACROSS."""

    name = "doacross"
    caps = EngineCaps(recovery=True, fallback="compiled")
    summary = (
        "post-failure recovery tier: re-runs a failed LRPD region as a "
        "chunked pipelined DOACROSS, post/wait at the minimum dependence "
        "distance measured from the shadow stamps"
    )
    guarantee = (
        "bit-identical to serial re-execution; deterministic veto (and "
        "serial rollback) when the measured distance is ≤ 1"
    )

    def execute_doall(self, ctx: DoallContext) -> "DoallRun":
        raise EngineFallback(
            "doacross is a recovery tier, not a doall executor — it only "
            "re-executes regions that already failed the LRPD test"
        )

    # -- recovery protocol ---------------------------------------------------

    def recovery_decision(
        self,
        report: DistanceReport,
        *,
        aborted: bool,
        granularity: Granularity,
    ) -> tuple[int | None, str]:
        """Deterministic go/veto on one failed region's measured distances.

        Returns ``(distance, reason)`` — ``distance`` is None on a veto.
        Every condition is decided from the run the failure came from, so
        the same failure always gets the same verdict.
        """
        if granularity is not Granularity.ITERATION:
            return None, (
                "recovery veto: processor-wise shadow stamps are processor "
                "ids, not iteration numbers — no iteration distances to "
                "synchronize at"
            )
        if aborted:
            return None, (
                "recovery veto: eager detection aborted the attempt, so the "
                "shadow stamps cover only a prefix of the iteration space"
            )
        d = report.min_distance
        if d is None:
            return None, (
                "recovery veto: no cross-iteration dependence was measured "
                "— the failure is an artifact the serial re-run resolves"
            )
        if d <= 1:
            return None, (
                f"recovery veto: measured min dependence distance {d} is a "
                f"fully serial chain ({report.explain()})"
            )
        return d, (
            f"recovery: pipelined DOACROSS at distance {d} over "
            f"{report.num_granules} iteration(s) ({report.explain()})"
        )

    def recover(
        self,
        costs: list["IterationCost"],
        serial_time: float,
        sim: "DoallSimulator",
        *,
        distance: int,
    ) -> RecoveryRun:
        """Price a failed region's serial re-run as a pipelined DOACROSS.

        ``costs`` and ``serial_time`` are the per-iteration costs and
        the cycles of the re-run the driver already executed
        (:func:`~repro.runtime.serial.rerun_values_serially`, in serial
        order — which is what makes bit-identity with the rollback path
        unconditional); the recorded cost is the chunked post/wait
        makespan over those costs (the emulate-then-price architecture
        every strategy uses).
        """
        return RecoveryRun(
            time=sim.doacross_time(costs, distance=distance),
            serial_equivalent=serial_time,
            iterations=len(costs),
            distance=distance,
        )


registry.register(DoacrossEngine())
