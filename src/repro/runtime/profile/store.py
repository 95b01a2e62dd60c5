"""The unified per-loop profile store.

One :class:`LoopProfileStore` replaces two previously disjoint memory
layers:

* the **schedule cache** (paper §IV.D): LRPD verdicts keyed by
  (loop identity, access-pattern signature), now LRU-bounded by entry
  count *and* estimated bytes, with hit/miss/eviction counters;
* the **run ledger**: a bounded ring of :class:`RunObservation` records
  per loop — engine, backend, measured wall clock, verdict, fallback
  reason, strip size — from which the runner derives its failure veto,
  DOACROSS recovery arming and rescue, and warm strip size.

Everything the runtime learns about a loop flows through this one
object, and only :class:`~repro.runtime.orchestrator.LoopRunner` reads
it; ``benchmarks/check_engine_dispatch.py`` lints that
:class:`ScheduleCache` is never constructed outside this package and
that no other runtime module names the store, so no second copy of the
state can quietly reappear at a call site.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

from repro.core.outcomes import LrpdResult
from repro.runtime.profile.observation import RunObservation

#: default bound on cached verdict entries across all loops.
DEFAULT_MAX_ENTRIES = 256
#: default bound on the verdict cache's estimated footprint.
DEFAULT_MAX_BYTES = 1 << 20
#: default length of each loop's observation ring.
DEFAULT_RING = 32

#: historical failure rate at/above which the planner skips speculation.
FAILURE_RATE_THRESHOLD = 0.5
#: minimum tested attempts before the failure-rate veto can fire.
MIN_VETO_ATTEMPTS = 2
#: mean recovered fraction at/above which the DOACROSS recovery tier's
#: history counts as worthwhile — below it recovery is vetoed, at/above
#: it recovery can even rescue a failure-rate-vetoed loop.
RECOVERY_MIN_FRACTION = 0.25


@dataclass
class VerdictEntry:
    """One cached LRPD verdict and how often it has been reused."""

    result: LrpdResult
    hits: int = 0


def _entry_bytes(loop_key: str, signature: str, entry: VerdictEntry) -> int:
    """Estimated footprint of one verdict entry (keys + result record)."""
    return len(loop_key) + len(signature) + 48 + 88 * len(entry.result.details)


class ScheduleCache:
    """LRU verdict cache: (loop identity, pattern signature) → result.

    Bounded by entry count and estimated bytes; lookups refresh recency,
    and every lookup/record outcome is counted (the counters surface on
    :class:`~repro.runtime.results.ExecutionReport` and under the CLI's
    ``--verbose``).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: OrderedDict[tuple[str, str], VerdictEntry] = OrderedDict()
        self._bytes = 0
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def lookup(self, loop_key: str, signature: str | None) -> LrpdResult | None:
        self.lookups += 1
        if signature is None:
            self.misses += 1
            return None
        key = (loop_key, signature)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
        return entry.result

    def record(self, loop_key: str, signature: str | None, result: LrpdResult) -> None:
        if signature is None:
            return
        key = (loop_key, signature)
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= _entry_bytes(loop_key, signature, old)
        entry = VerdictEntry(result=result, hits=old.hits if old else 0)
        self._entries[key] = entry
        self._bytes += _entry_bytes(loop_key, signature, entry)
        self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used entries past either bound (the newest
        entry always survives, even if it alone exceeds the byte bound)."""
        while len(self._entries) > 1 and (
            len(self._entries) > self.max_entries or self._bytes > self.max_bytes
        ):
            (loop_key, signature), entry = self._entries.popitem(last=False)
            self._bytes -= _entry_bytes(loop_key, signature, entry)
            self.evictions += 1

    def entry_hits(self, loop_key: str, signature: str) -> int | None:
        entry = self._entries.get((loop_key, signature))
        return None if entry is None else entry.hits

    def items(self):
        """(loop_key, signature, entry) triples in LRU→MRU order."""
        for (loop_key, signature), entry in self._entries.items():
            yield loop_key, signature, entry

    @property
    def bytes_used(self) -> int:
        return self._bytes

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class LoopProfile:
    """Everything remembered about one loop identity."""

    observations: deque = field(
        default_factory=lambda: deque(maxlen=DEFAULT_RING)
    )
    #: the failure-rate veto fired on the last :meth:`speculation_veto`
    #: query for this loop.
    vetoed: bool = False
    #: a previously firing veto has since lifted and nobody consumed the
    #: transition yet (see :meth:`LoopProfileStore.veto_cleared`).
    veto_lifted: bool = False


class LoopProfileStore:
    """The one store behind schedule reuse, run telemetry and the
    runner's history decisions.

    ``path`` enables JSON persistence: the constructor loads an existing
    profile file (tolerating missing/corrupt/foreign files — see
    :mod:`repro.runtime.profile.persist`) and :meth:`save` writes it
    back atomically.
    """

    def __init__(
        self,
        *,
        path=None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        ring: int = DEFAULT_RING,
    ):
        self.verdicts = ScheduleCache(max_entries=max_entries, max_bytes=max_bytes)
        self.ring = ring
        self._profiles: dict[str, LoopProfile] = {}
        self.path = path
        #: why the last :meth:`load` started empty (None on clean loads).
        self.load_error: str | None = None
        if path is not None:
            self.load()

    # -- verdicts (schedule reuse) ----------------------------------------

    def lookup_verdict(self, loop_key: str, signature: str | None) -> LrpdResult | None:
        return self.verdicts.lookup(loop_key, signature)

    def record_verdict(
        self, loop_key: str, signature: str | None, result: LrpdResult
    ) -> None:
        self.verdicts.record(loop_key, signature, result)

    @property
    def lookups(self) -> int:
        return self.verdicts.lookups

    @property
    def hits(self) -> int:
        return self.verdicts.hits

    @property
    def misses(self) -> int:
        return self.verdicts.misses

    @property
    def evictions(self) -> int:
        return self.verdicts.evictions

    def counters(self) -> dict[str, int]:
        """Snapshot of the verdict-cache counters (report/CLI surface)."""
        return {
            "lookups": self.verdicts.lookups,
            "hits": self.verdicts.hits,
            "misses": self.verdicts.misses,
            "evictions": self.verdicts.evictions,
            "entries": len(self.verdicts),
        }

    # -- observations (run telemetry) -------------------------------------

    def _profile(self, loop_key: str) -> LoopProfile:
        profile = self._profiles.get(loop_key)
        if profile is None:
            profile = LoopProfile(
                observations=deque(maxlen=self.ring)
            )
            self._profiles[loop_key] = profile
        return profile

    def observe(self, loop_key: str, observation: RunObservation) -> None:
        self._profile(loop_key).observations.append(observation)

    def observations(self, loop_key: str) -> list[RunObservation]:
        profile = self._profiles.get(loop_key)
        return list(profile.observations) if profile else []

    def loop_keys(self) -> list[str]:
        return sorted(self._profiles)

    # -- derived queries the runner consumes -------------------------------

    def warm_strip_size(self, loop_key: str) -> int | None:
        """The most recent passing strip-mined run's converged strip size."""
        for obs in reversed(self.observations(loop_key)):
            if obs.strip_size is not None and obs.passed:
                return obs.strip_size
        return None

    def failure_stats(self, loop_key: str) -> tuple[int, int]:
        """(failed attempts, tested attempts) over the observation ring."""
        failures = attempts = 0
        for obs in self.observations(loop_key):
            if obs.passed is None:
                continue
            attempts += 1
            if not obs.passed:
                failures += 1
        return failures, attempts

    def speculation_veto(self, loop_key: str) -> str | None:
        """Evidence string when history says speculation is doomed.

        Returns None while the loop's recorded failure rate is below
        :data:`FAILURE_RATE_THRESHOLD` (or fewer than
        :data:`MIN_VETO_ATTEMPTS` tested attempts exist).  The returned
        string is the planner's recorded decision reason — it carries
        the evidence (counts and rate), not just the verdict.
        """
        failures, attempts = self.failure_stats(loop_key)
        verdict: str | None = None
        if attempts >= MIN_VETO_ATTEMPTS:
            rate = failures / attempts
            if rate >= FAILURE_RATE_THRESHOLD:
                verdict = (
                    f"feedback: historical failure rate {failures}/{attempts} "
                    f"({rate:.0%}) >= {FAILURE_RATE_THRESHOLD:.0%} — skipping "
                    f"speculation and running serially"
                )
        profile = self._profile(loop_key)
        if verdict is not None:
            profile.vetoed = True
        elif profile.vetoed:
            # The veto just lifted (the ring's failures aged out or new
            # passes diluted them): remember the transition for one
            # consumer — the adaptive strip sizer resets its floor on it.
            profile.vetoed = False
            profile.veto_lifted = True
        return verdict

    def veto_cleared(self, loop_key: str) -> bool:
        """True exactly once per veto→lifted transition (consumed on read).

        A lifted veto means the failure history that shaped this loop's
        warm-started strip-size floor is stale; the caller resets the
        floor so failures can shrink strips all the way down again.
        """
        profile = self._profiles.get(loop_key)
        if profile is None or not profile.veto_lifted:
            return False
        profile.veto_lifted = False
        return True

    # -- recovery history (DOACROSS tier) ----------------------------------

    def recovery_stats(self, loop_key: str) -> tuple[int, float, float]:
        """(count, mean recovered fraction, mean sync-wait cycles) over
        the ring's observations that exercised the recovery tier —
        including deterministic vetoes, which record a 0.0 fraction and
        rightly drag the mean down."""
        count = 0
        frac_total = sync_total = 0.0
        for obs in self.observations(loop_key):
            if obs.recovered_fraction is None:
                continue
            count += 1
            frac_total += obs.recovered_fraction
            sync_total += obs.sync_wait_cycles
        if count == 0:
            return 0, 0.0, 0.0
        return count, frac_total / count, sync_total / count

    def recovery_rescue(self, loop_key: str) -> str | None:
        """Evidence string when recovery history justifies speculating
        past a failure-rate veto (None otherwise).

        A loop that keeps failing its LRPD test but keeps winning back a
        useful fraction of the serial re-run through the DOACROSS tier
        is worth speculating on anyway — the failure is the entry ticket
        to the pipelined re-execution.
        """
        count, mean, _sync = self.recovery_stats(loop_key)
        if count == 0 or mean < RECOVERY_MIN_FRACTION:
            return None
        return (
            f"feedback: DOACROSS recovery won back {mean:.0%} of the serial "
            f"re-run on average over {count} recovered run(s) (>= "
            f"{RECOVERY_MIN_FRACTION:.0%}) — speculating past the failure "
            f"veto with recovery armed"
        )

    def recovery_veto(self, loop_key: str) -> str | None:
        """Evidence string when recovery history says the tier is not
        paying for itself on this loop (None while history is thin or
        good).  Measured distances ≤ 1 record a 0.0 recovered fraction,
        so a loop whose profiled distances are serial chains
        deterministically lands here."""
        count, mean, _sync = self.recovery_stats(loop_key)
        if count == 0 or mean >= RECOVERY_MIN_FRACTION:
            return None
        return (
            f"feedback: DOACROSS recovery won back only {mean:.0%} on "
            f"average over {count} recovered run(s) (< "
            f"{RECOVERY_MIN_FRACTION:.0%}) — failed runs roll back serially"
        )

    # -- persistence -------------------------------------------------------

    def load(self, path=None) -> None:
        """Replace contents from ``path`` (or the constructor's path).

        Missing, truncated, corrupt or foreign files leave the store
        empty and record the reason on :attr:`load_error` — persistence
        must never take the runtime down.
        """
        from repro.runtime.profile.persist import load_into

        self.load_error = load_into(self, path if path is not None else self.path)

    def save(self, path=None) -> None:
        """Atomically write the store to ``path`` (no-op when pathless)."""
        from repro.runtime.profile.persist import save_store

        target = path if path is not None else self.path
        if target is not None:
            save_store(self, target)

    def clear(self) -> None:
        self.verdicts.clear()
        self._profiles.clear()

    def __len__(self) -> int:
        return len(self.verdicts)
