"""Buffered shadow marking ≡ per-access marking, and in-place reset.

The compiled speculative engine buffers one granule's accesses and hands
them to :meth:`ShadowMarker.flush_batch`.  The marker must end where
per-access marking of the same stream ends: the same shadows, the same
mark count, and under eager detection the same ``(array, element)`` in
:class:`SpeculationFailed`.
"""

import numpy as np
import pytest

from repro.core.shadow import (
    KIND_READ,
    KIND_REDUX,
    KIND_WRITE,
    OP_CODES,
    OP_NAMES,
    Granularity,
    ShadowArray,
    ShadowMarker,
)
from repro.errors import SpeculationFailed

SIZE = 16

FIELDS = (
    "w", "r", "np_", "nx", "redux_touched", "multi_w",
    "_redux_op", "_last_write", "_min_write", "_max_exposed_read",
    "_min_exposed_read",
)


def assert_same_shadow(a: ShadowArray, b: ShadowArray) -> None:
    assert a.tw == b.tw
    assert a.tm == b.tm
    for field in FIELDS:
        np.testing.assert_array_equal(
            getattr(a, field), getattr(b, field), err_msg=field
        )


def assert_same_marker(a: ShadowMarker, b: ShadowMarker) -> None:
    assert a.cost.marks == b.cost.marks
    assert a.shadows.keys() == b.shadows.keys()
    for name in a.shadows:
        assert_same_shadow(a.shadows[name], b.shadows[name])


def markers(sizes: dict[str, int], *, eager: bool = False):
    """A marker to flush into and a reference to mark access by access."""
    return ShadowMarker(sizes, eager=eager), ShadowMarker(sizes, eager=eager)


def buffered(accesses) -> dict[str, list]:
    """``(array, kind, index0, opcode)`` accesses as flush buffers, with
    one position sequence across arrays."""
    buffers: dict[str, list] = {}
    for pos, (name, kind, index, opcode) in enumerate(accesses):
        buffers.setdefault(name, []).append((pos, kind, index, opcode))
    return buffers


def replay(marker: ShadowMarker, buffers: dict[str, list]) -> None:
    """Per-access marking of the buffered stream, in position order,
    through the observer calls (1-based indices)."""
    stream = sorted(
        (pos, name, kind, index, opcode)
        for name, buf in buffers.items()
        for pos, kind, index, opcode in buf
    )
    for _pos, name, kind, index, opcode in stream:
        if kind == KIND_WRITE:
            marker.on_write(name, index + 1)
        elif kind == KIND_READ:
            marker.on_read(name, index + 1)
        else:
            marker.on_redux(name, index + 1, OP_NAMES[opcode])


def flush_and_replay(flushed, reference, buffers, granule: int):
    flushed.set_granule(granule)
    reference.set_granule(granule)
    assert flushed.flush_batch(buffers) == sum(len(b) for b in buffers.values())
    replay(reference, buffers)


def random_accesses(rng, names, length: int):
    accesses = []
    for _ in range(length):
        kind = int(rng.integers(0, 3))
        opcode = int(rng.integers(1, 5)) if kind == KIND_REDUX else 0
        accesses.append((
            names[int(rng.integers(len(names)))], kind,
            int(rng.integers(0, SIZE)), opcode,
        ))
    return accesses


class TestBatchEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams_match_scalar_replay(self, seed):
        rng = np.random.default_rng(seed)
        flushed, reference = markers({"a": SIZE, "b": SIZE})
        for granule in range(5):
            length = int(rng.integers(1, 30))
            buffers = buffered(random_accesses(rng, ["a", "b"], length))
            flush_and_replay(flushed, reference, buffers, granule)
            assert_same_marker(flushed, reference)

    def test_mark_write_batch(self):
        flushed, reference = markers({"a": SIZE})
        writes = [("a", KIND_WRITE, index, 0) for index in (3, 3, 7, 0, 7, 3)]
        for granule in (2, 2, 3):  # a repeat granule counts tw once
            flush_and_replay(flushed, reference, buffered(writes), granule)
        assert_same_marker(flushed, reference)
        assert flushed.shadows["a"].tw == 6
        assert flushed.shadows["a"].multi_w[[0, 3, 7]].all()

    def test_mark_read_batch(self):
        flushed, reference = markers({"a": SIZE})
        for marker in (flushed, reference):
            marker.shadows["a"].mark_write(5, granule=0)
        reads = [("a", KIND_READ, index, 0) for index in (5, 1, 5, 9)]
        flush_and_replay(flushed, reference, buffered(reads), 0)
        assert_same_marker(flushed, reference)
        # Element 5 was written by the same granule: its reads are covered.
        assert not flushed.shadows["a"].np_[5]
        assert flushed.shadows["a"].np_[1]

    def test_mark_redux_batch(self):
        flushed, reference = markers({"a": SIZE})
        redux = [("a", KIND_REDUX, index, OP_CODES["+"]) for index in (2, 2, 4)]
        for granule in range(3):
            flush_and_replay(flushed, reference, buffered(redux), granule)
        assert_same_marker(flushed, reference)
        assert not flushed.shadows["a"].nx[[2, 4]].any()

    def test_write_then_read_ordering_within_batch(self):
        # A write covering a later read of the same granule must be seen
        # in stream order: the read is not exposed.  Read-then-write
        # leaves it exposed.
        for first, then, exposed in (
            (KIND_WRITE, KIND_READ, False), (KIND_READ, KIND_WRITE, True),
        ):
            flushed, reference = markers({"a": SIZE})
            accesses = [("a", first, 4, 0), ("a", then, 4, 0)]
            flush_and_replay(flushed, reference, buffered(accesses), 0)
            assert_same_marker(flushed, reference)
            assert flushed.shadows["a"].r[4]
            assert bool(flushed.shadows["a"].np_[4]) is exposed

    def test_eager_batch_reports_same_element_as_scalar(self):
        # Three eager arrays: the failure names the same (array, element)
        # as per-access marking — the flow into b(6), mid-stream, not the
        # later one into a(9), although array a's buffer comes first.
        names = {"a": SIZE, "b": SIZE, "c": SIZE}
        flushed, reference = markers(names, eager=True)
        flush_and_replay(
            flushed, reference,
            buffered([("b", KIND_WRITE, 6, 0), ("a", KIND_WRITE, 9, 0)]), 0,
        )
        accesses = [
            ("a", KIND_WRITE, 1, 0), ("c", KIND_READ, 2, 0),
            ("b", KIND_READ, 6, 0), ("a", KIND_READ, 9, 0),
            ("b", KIND_WRITE, 2, 0),
        ]
        buffers = buffered(accesses)
        flushed.set_granule(1)
        reference.set_granule(1)
        with pytest.raises(SpeculationFailed) as flush_fail:
            flushed.flush_batch(buffers)
        with pytest.raises(SpeculationFailed) as replay_fail:
            replay(reference, buffers)
        assert (flush_fail.value.array, flush_fail.value.element) == ("b", 6)
        assert (replay_fail.value.array, replay_fail.value.element) == ("b", 6)
        # The flush charges its whole buffer up front; the shadows stop
        # where per-access marking stopped.
        for name in names:
            assert_same_shadow(flushed.shadows[name], reference.shadows[name])

    def test_redux_opcode_roundtrip(self):
        # Each operator code marks with the operator it encodes.
        for op, code in OP_CODES.items():
            flushed, reference = markers({"a": SIZE})
            flush_and_replay(
                flushed, reference, buffered([("a", KIND_REDUX, 3, code)]), 0
            )
            assert_same_marker(flushed, reference)
            assert flushed.shadows["a"].reduction_op_of(3) == op


class TestReset:
    def test_shadow_reset_equals_fresh(self):
        shadow = ShadowArray("a", SIZE, eager=True)
        rng = np.random.default_rng(42)
        kinds = rng.integers(0, 3, size=25)
        idx = rng.integers(0, SIZE, size=25)
        ops = np.where(kinds == KIND_REDUX, rng.integers(1, 5, size=25), 0)
        try:
            shadow.mark_stream_vec(
                kinds, idx, ops, np.zeros(25, dtype=np.int64), np.arange(25)
            )
        except SpeculationFailed:
            pass
        shadow.reset()
        assert_same_shadow(shadow, ShadowArray("a", SIZE, eager=True))
        assert shadow.eager  # preserved unless overridden

    def test_shadow_reset_can_flip_eager(self):
        shadow = ShadowArray("a", SIZE, eager=False)
        shadow.reset(eager=True)
        assert shadow.eager
        shadow.reset(eager=False)
        assert not shadow.eager

    def test_reset_shadow_recounts_tw(self):
        shadow = ShadowArray("a", SIZE)
        shadow.mark_write(1, granule=0)
        shadow.reset()
        # The last-write memory must be gone: the same (element, granule)
        # pair counts again after reset.
        shadow.mark_write(1, granule=0)
        assert shadow.tw == 1
        assert not shadow.multi_w[1]

    def test_marker_reset_recycles_all_shadows(self):
        marker = ShadowMarker(
            {"a": SIZE, "b": 4}, granularity=Granularity.ITERATION, eager=True
        )
        marker.set_granule(3)
        marker.shadows["a"].mark_write(0, granule=3)
        marker.shadows["b"].mark_read(2, granule=3)
        marker.cost.marks += 1
        marker.reset(Granularity.PROCESSOR, eager=False)
        assert marker.granularity is Granularity.PROCESSOR
        assert marker.granule == 0
        assert marker.cost.marks == 0  # fresh cost counter
        for name, size in (("a", SIZE), ("b", 4)):
            assert_same_shadow(marker.shadows[name], ShadowArray(name, size))
            assert not marker.shadows[name].eager
