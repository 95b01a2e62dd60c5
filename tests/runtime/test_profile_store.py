"""The unified :class:`LoopProfileStore`: bounds, telemetry, persistence.

The verdict cache's LRU behaviour (entry and byte bounds, recency
refresh, counters), the per-loop observation ring and the derived
queries the runner consumes (warm strip size, failure-rate veto,
recovery history), and the JSON persistence layer — round-trips,
atomicity, and tolerance of missing, truncated, corrupt and foreign
files.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.outcomes import ArrayTestDetail, LrpdResult, TestMode
from repro.dsl.parser import parse
from repro.machine.costmodel import fx80
from repro.runtime.orchestrator import LoopRunner, RunConfig, Strategy
from repro.runtime.profile import (
    DEFAULT_RING,
    FAILURE_RATE_THRESHOLD,
    LoopProfileStore,
    MIN_VETO_ATTEMPTS,
    RunObservation,
    ScheduleCache,
)
from repro.runtime.profile.persist import FORMAT, VERSION, store_to_json
from repro.runtime.serial import run_serial


def _result(arrays=()):
    details = {
        name: ArrayTestDetail(
            name=name, tw=3, tm=3, fully_parallel=True,
            privatized_elements=0, reduction_elements=0, failed_elements=0,
        )
        for name in arrays
    }
    return LrpdResult(
        mode=TestMode.LRPD, granularity="iteration", details=details
    )


def _obs(engine, doall_s, *, passed=True, strip_size=None, reused=False,
         strategy="speculative", recovered_fraction=None,
         sync_wait_cycles=0.0):
    return RunObservation(
        strategy=strategy, engine=engine, backend="fork",
        wall_s=doall_s, doall_s=doall_s, passed=passed,
        strip_size=strip_size, reused=reused,
        recovered_fraction=recovered_fraction,
        sync_wait_cycles=sync_wait_cycles,
    )


class TestLruBounds:
    def test_entry_bound_evicts_oldest(self):
        cache = ScheduleCache(max_entries=2)
        cache.record("loop", "a", _result())
        cache.record("loop", "b", _result())
        cache.record("loop", "c", _result())
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup("loop", "a") is None
        assert cache.lookup("loop", "b") is not None
        assert cache.lookup("loop", "c") is not None

    def test_lookup_refreshes_recency(self):
        cache = ScheduleCache(max_entries=2)
        cache.record("loop", "a", _result())
        cache.record("loop", "b", _result())
        cache.lookup("loop", "a")  # a becomes MRU; b is now the victim
        cache.record("loop", "c", _result())
        assert cache.lookup("loop", "a") is not None
        assert cache.lookup("loop", "b") is None

    def test_byte_bound_evicts(self):
        heavy = _result(arrays=["x", "y", "z"])
        one_entry = len("loop") + len("a") + 48 + 88 * 3
        cache = ScheduleCache(max_entries=100, max_bytes=one_entry + 10)
        cache.record("loop", "a", heavy)
        assert cache.bytes_used == one_entry
        cache.record("loop", "b", heavy)
        assert cache.evictions == 1
        assert len(cache) == 1
        assert cache.lookup("loop", "b") is not None

    def test_newest_entry_survives_even_over_byte_bound(self):
        cache = ScheduleCache(max_entries=100, max_bytes=1)
        cache.record("loop", "a", _result(arrays=["x"]))
        assert len(cache) == 1
        assert cache.lookup("loop", "a") is not None

    def test_rerecord_replaces_without_double_counting_bytes(self):
        cache = ScheduleCache()
        cache.record("loop", "a", _result(arrays=["x"]))
        before = cache.bytes_used
        cache.record("loop", "a", _result(arrays=["x"]))
        assert cache.bytes_used == before
        assert len(cache) == 1

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ScheduleCache(max_entries=0)
        with pytest.raises(ValueError):
            ScheduleCache(max_bytes=0)


class TestCounters:
    def test_counters_snapshot(self):
        store = LoopProfileStore()
        store.lookup_verdict("loop", "sig")          # miss
        store.record_verdict("loop", "sig", _result())
        store.lookup_verdict("loop", "sig")          # hit
        store.lookup_verdict("loop", "other")        # miss
        assert store.counters() == {
            "lookups": 3, "hits": 1, "misses": 2,
            "evictions": 0, "entries": 1,
        }

    def test_none_signature_counts_as_miss_and_never_caches(self):
        store = LoopProfileStore()
        store.record_verdict("loop", None, _result())
        assert len(store) == 0
        assert store.lookup_verdict("loop", None) is None
        assert store.misses == 1

    def test_per_entry_hit_counts(self):
        store = LoopProfileStore()
        store.record_verdict("loop", "sig", _result())
        store.lookup_verdict("loop", "sig")
        store.lookup_verdict("loop", "sig")
        assert store.verdicts.entry_hits("loop", "sig") == 2


class TestObservationRing:
    def test_ring_is_bounded(self):
        store = LoopProfileStore(ring=4)
        for i in range(10):
            store.observe("loop", _obs("compiled", float(i + 1)))
        kept = store.observations("loop")
        assert len(kept) == 4
        assert kept[0].doall_s == 7.0  # oldest six fell off

    def test_default_ring(self):
        store = LoopProfileStore()
        for i in range(DEFAULT_RING + 5):
            store.observe("loop", _obs("compiled", 1.0))
        assert len(store.observations("loop")) == DEFAULT_RING

    def test_loop_keys_sorted(self):
        store = LoopProfileStore()
        store.observe("b", _obs("compiled", 1.0))
        store.observe("a", _obs("compiled", 1.0))
        assert store.loop_keys() == ["a", "b"]


class TestDerivedQueries:
    def test_warm_strip_size_is_most_recent_passing(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, strip_size=16))
        store.observe("loop", _obs("compiled", 0.1, strip_size=64))
        store.observe("loop", _obs("compiled", 0.1, strip_size=128,
                                   passed=False))
        assert store.warm_strip_size("loop") == 64
        assert store.warm_strip_size("unknown") is None

    def test_failure_stats_ignore_untested_runs(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        store.observe("loop", _obs(None, 0.1, passed=None))  # serial/vetoed
        store.observe("loop", _obs("compiled", 0.1, passed=True))
        assert store.failure_stats("loop") == (1, 2)


class TestSpeculationVeto:
    def test_quiet_below_min_attempts(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        assert MIN_VETO_ATTEMPTS > 1
        assert store.speculation_veto("loop") is None

    def test_quiet_below_threshold(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        store.observe("loop", _obs("compiled", 0.1, passed=True))
        store.observe("loop", _obs("compiled", 0.1, passed=True))
        assert 1 / 3 < FAILURE_RATE_THRESHOLD
        assert store.speculation_veto("loop") is None

    def test_fires_with_evidence(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        reason = store.speculation_veto("loop")
        assert reason is not None
        assert "2/2" in reason
        assert "failure rate" in reason
        assert "serial" in reason

    def test_untested_runs_keep_the_veto_sticky(self):
        """Serial runs under a veto record passed=None, so they must not
        dilute the failure rate back below the threshold."""
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        for _ in range(5):
            store.observe("loop", _obs(None, 0.1, passed=None))
        assert store.speculation_veto("loop") is not None


class TestVetoLifecycle:
    """The vetoed→lifted transition and its consumed-once signal."""

    def _vetoed_store(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        assert store.speculation_veto("loop") is not None
        return store

    def test_no_signal_without_a_prior_veto(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=True))
        store.speculation_veto("loop")
        assert not store.veto_cleared("loop")
        assert not store.veto_cleared("unknown-loop")

    def test_no_signal_while_veto_holds(self):
        store = self._vetoed_store()
        assert not store.veto_cleared("loop")

    def test_lifted_veto_signals_exactly_once(self):
        store = self._vetoed_store()
        # Passes dilute the failure rate until the veto lifts.
        for _ in range(6):
            store.observe("loop", _obs("compiled", 0.1, passed=True))
        assert store.speculation_veto("loop") is None
        assert store.veto_cleared("loop")
        assert not store.veto_cleared("loop")  # consumed on read

    def test_refiring_veto_rearms_the_signal(self):
        store = self._vetoed_store()
        for _ in range(6):
            store.observe("loop", _obs("compiled", 0.1, passed=True))
        store.speculation_veto("loop")
        assert store.veto_cleared("loop")
        for _ in range(DEFAULT_RING):
            store.observe("loop", _obs("compiled", 0.1, passed=False))
        assert store.speculation_veto("loop") is not None
        for _ in range(DEFAULT_RING):
            store.observe("loop", _obs("compiled", 0.1, passed=True))
        assert store.speculation_veto("loop") is None
        assert store.veto_cleared("loop")


class TestRecoveryHistory:
    """The DOACROSS tier's profiled fractions: stats, rescue, veto."""

    def test_stats_empty_without_recovery_runs(self):
        store = LoopProfileStore()
        store.observe("loop", _obs("compiled", 0.1, passed=False))
        assert store.recovery_stats("loop") == (0, 0.0, 0.0)

    def test_stats_mean_fraction_and_sync(self):
        store = LoopProfileStore()
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False,
            recovered_fraction=0.4, sync_wait_cycles=10.0,
        ))
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False,
            recovered_fraction=0.2, sync_wait_cycles=30.0,
        ))
        count, mean, sync = store.recovery_stats("loop")
        assert count == 2
        assert mean == pytest.approx(0.3)
        assert sync == pytest.approx(20.0)

    def test_vetoed_recoveries_drag_the_mean_down(self):
        store = LoopProfileStore()
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False, recovered_fraction=0.6,
        ))
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False, recovered_fraction=0.0,
        ))
        _count, mean, _sync = store.recovery_stats("loop")
        assert mean == pytest.approx(0.3)

    def test_rescue_needs_history_above_threshold(self):
        from repro.runtime.profile import RECOVERY_MIN_FRACTION

        store = LoopProfileStore()
        assert store.recovery_rescue("loop") is None  # no history
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False,
            recovered_fraction=RECOVERY_MIN_FRACTION / 2,
        ))
        assert store.recovery_rescue("loop") is None  # below threshold
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False, recovered_fraction=0.9,
        ))
        reason = store.recovery_rescue("loop")
        assert reason is not None
        assert "speculating past the failure veto" in reason

    def test_recovery_veto_fires_on_poor_mean(self):
        store = LoopProfileStore()
        assert store.recovery_veto("loop") is None  # thin history is quiet
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False, recovered_fraction=0.0,
        ))
        reason = store.recovery_veto("loop")
        assert reason is not None
        assert "roll back serially" in reason

    def test_recovery_veto_quiet_on_good_mean(self):
        store = LoopProfileStore()
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False, recovered_fraction=0.5,
        ))
        assert store.recovery_veto("loop") is None

    def test_recovery_fields_survive_persistence(self, tmp_path):
        path = tmp_path / "profiles.json"
        store = LoopProfileStore(path=path)
        store.observe("loop", _obs(
            "compiled", 0.1, passed=False,
            recovered_fraction=0.4, sync_wait_cycles=12.0,
        ))
        store.save()
        fresh = LoopProfileStore(path=path)
        fresh.load()
        obs = fresh.observations("loop")[-1]
        assert obs.recovered_fraction == pytest.approx(0.4)
        assert obs.sync_wait_cycles == pytest.approx(12.0)
        assert fresh.recovery_stats("loop")[0] == 1


class TestPersistence:
    def _seed(self, store):
        store.record_verdict("loopA", "sig1", _result(arrays=["a"]))
        store.record_verdict("loopA", "sig2", _result())
        store.lookup_verdict("loopA", "sig1")
        store.observe("loopA", _obs("compiled", 0.25, strip_size=32))
        store.observe("loopB", _obs("vectorized", 0.5, passed=False))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "profiles.json"
        store = LoopProfileStore()
        self._seed(store)
        store.save(path)

        loaded = LoopProfileStore(path=path)
        assert loaded.load_error is None
        assert len(loaded) == 2
        assert loaded.verdicts.entry_hits("loopA", "sig1") == 1
        assert loaded.lookup_verdict("loopA", "sig1") == _result(arrays=["a"])
        assert loaded.observations("loopA") == store.observations("loopA")
        assert loaded.observations("loopB") == store.observations("loopB")
        # A loop's profile is its observation ring, nothing else.
        loops = json.loads(path.read_text())["loops"]
        assert set(loops["loopA"]) == {"observations"}

    def test_round_trip_preserves_lru_order(self, tmp_path):
        path = tmp_path / "profiles.json"
        store = LoopProfileStore()
        store.record_verdict("loop", "old", _result())
        store.record_verdict("loop", "new", _result())
        store.lookup_verdict("loop", "old")  # old becomes MRU
        store.save(path)

        loaded = LoopProfileStore(path=path, max_entries=1)
        assert loaded.lookup_verdict("loop", "old") is not None
        assert loaded.lookup_verdict("loop", "new") is None

    def test_missing_file_is_clean_empty_start(self, tmp_path):
        store = LoopProfileStore(path=tmp_path / "never-written.json")
        assert store.load_error is None
        assert len(store) == 0

    def test_truncated_file_tolerated(self, tmp_path):
        path = tmp_path / "profiles.json"
        full = LoopProfileStore()
        self._seed(full)
        full.save(path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

        store = LoopProfileStore(path=path)
        assert store.load_error is not None
        assert "corrupt" in store.load_error
        assert len(store) == 0
        assert store.observations("loopA") == []

    def test_foreign_json_tolerated(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"something": "else"}))
        store = LoopProfileStore(path=path)
        assert store.load_error == "not a loop-profile file"

    def test_non_object_json_tolerated(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text("[1, 2, 3]\n")
        store = LoopProfileStore(path=path)
        assert store.load_error == "not a loop-profile file"

    def test_future_version_tolerated(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps({"format": FORMAT, "version": VERSION + 1}))
        store = LoopProfileStore(path=path)
        assert store.load_error is not None
        assert "version" in store.load_error

    def test_mangled_payload_leaves_store_empty(self, tmp_path):
        """A structurally valid file with a broken record must not load
        half the contents: the store is cleared on any restore error."""
        path = tmp_path / "profiles.json"
        store = LoopProfileStore()
        self._seed(store)
        payload = store_to_json(store)
        payload["verdicts"][0]["result"]["mode"] = "no-such-mode"
        path.write_text(json.dumps(payload))

        loaded = LoopProfileStore(path=path)
        assert loaded.load_error is not None
        assert "corrupt" in loaded.load_error
        assert len(loaded) == 0
        assert loaded.loop_keys() == []

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "nested" / "dir" / "profiles.json"
        store = LoopProfileStore()
        self._seed(store)
        store.save(path)
        assert path.exists()
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        # Saving over an existing file replaces it wholesale.
        store.record_verdict("loopC", "sig", _result())
        store.save(path)
        assert LoopProfileStore(path=path).lookup_verdict(
            "loopC", "sig"
        ) is not None

    def test_pathless_store_save_and_load_are_noops(self, tmp_path):
        store = LoopProfileStore()
        self._seed(store)
        store.save()   # no path: nothing to do, nothing raised
        store.load()
        assert store.load_error is None
        # load() with no path clears (documented: replace contents).
        assert len(store) == 0

    def test_snapshot_holds_only_verdicts_and_loops(self, tmp_path):
        """The snapshot carries the schedule cache and the per-loop
        profiles, and nothing else."""
        store = LoopProfileStore()
        self._seed(store)
        payload = store_to_json(store)
        assert set(payload) == {"format", "version", "verdicts", "loops"}


class TestSignatureMemo:
    """The content-digest fast path behind ``pattern_signature``."""

    def _env(self):
        import numpy as np

        from repro.dsl.parser import parse
        from repro.interp.env import Environment

        source = (
            "program p\n  integer i, n, idx(8)\n  real a(8)\n"
            "  do i = 1, n\n    a(idx(i)) = 1.0\n  end do\nend\n"
        )
        program = parse(source)
        return Environment(
            program, {"n": 8, "idx": np.arange(1, 9)}
        ), np.arange

    def test_digest_is_memoized_until_mutation(self):
        env, arange = self._env()
        first = env.content_digest("idx")
        assert env.content_digest("idx") == first
        env.set_input("idx", arange(8, 0, -1))
        assert env.content_digest("idx") != first

    def test_store_bumps_version(self):
        env, _ = self._env()
        first = env.content_digest("idx")
        env.store("idx", 1, 99)
        assert env.content_digest("idx") != first


#: two programs with one name and one loop line: A's loop is a
#: permutation scatter (LRPD passes), B's also reads ``a`` in place, a
#: cross-iteration flow dependence under the same permutation.
_SCATTER = (
    "program p\n  integer i, n\n  integer idx(8)\n  real a(8), b(8)\n"
    "  a(1) = a(1)\n  do i = 1, n\n    {body}\n  end do\nend\n"
)
_PROGRAM_A = _SCATTER.format(body="a(idx(i)) = b(i)")
_PROGRAM_B = _SCATTER.format(body="a(idx(i)) = a(i) * 2.0 + b(i)")
_SCATTER_INPUTS = {
    "n": 8,
    "idx": np.array([2, 3, 4, 5, 6, 7, 8, 1]),
    "a": np.arange(8.0),
    "b": np.arange(1.0, 9.0),
}


class TestLoopIdentity:
    """A shared store keys a loop by its name, line *and* text."""

    @staticmethod
    def _runner(source, store):
        return LoopRunner(parse(source), _SCATTER_INPUTS, profiles=store)

    def test_programs_sharing_a_name_and_line_share_no_verdict(self):
        store = LoopProfileStore()
        config = RunConfig(model=fx80().with_procs(4), use_schedule_cache=True)
        first = self._runner(_PROGRAM_A, store).run(Strategy.SPECULATIVE, config)
        assert first.passed
        report = self._runner(_PROGRAM_B, store).run(Strategy.SPECULATIVE, config)
        oracle = run_serial(parse(_PROGRAM_B), _SCATTER_INPUTS, fx80(), engine="walk")
        assert not report.reused_schedule
        assert not report.passed
        np.testing.assert_array_equal(report.env.arrays["a"], oracle.env.arrays["a"])

    def test_the_key_follows_the_loop_text_not_the_program(self):
        store = LoopProfileStore()
        a = self._runner(_PROGRAM_A, store)
        assert a._loop_key() == self._runner(_PROGRAM_A, store)._loop_key()
        assert a._loop_key() != self._runner(_PROGRAM_B, store)._loop_key()
        assert a._loop_key().startswith("p:i@6#")

    def test_old_keys_still_load_and_match_nothing(self, tmp_path):
        path = tmp_path / "profiles.json"
        old = LoopProfileStore(path=path)
        old.record_verdict("p:i@6", "sig", _result(("a",)))
        old.observe("p:i@6", _obs("compiled", 0.01))
        old.save()
        store = LoopProfileStore(path=path)
        assert store.load_error is None
        assert store.loop_keys() == ["p:i@6"]
        runner = self._runner(_PROGRAM_A, store)
        assert runner._loop_key() != "p:i@6"
        assert store.observations(runner._loop_key()) == []
