"""Vector-input marking entry points vs looped scalar marking.

The vectorized whole-block engine marks entire multi-granule access
streams in one call; these tests pin the contract that
``mark_write_vec``/``mark_read_vec``/``mark_red_vec`` (and the general
``mark_stream_vec``) are bit-identical to replaying the same accesses
through the scalar marking operations, including repeated indices within
one call and eager-failure parity.
"""

import numpy as np
import pytest

from repro.core.shadow import (
    KIND_READ,
    KIND_REDUX,
    KIND_WRITE,
    OP_NAMES,
    ShadowArray,
    fused_order,
)
from repro.errors import SpeculationFailed

SIZE = 24


def _state(shadow: ShadowArray) -> tuple:
    return (
        shadow.w.copy(), shadow.r.copy(), shadow.np_.copy(), shadow.nx.copy(),
        shadow.redux_touched.copy(), shadow.multi_w.copy(),
        shadow._redux_op.copy(), shadow._last_write.copy(),
        shadow._min_write.copy(), shadow._max_exposed_read.copy(),
        shadow._min_exposed_read.copy(),
        shadow.tw,
    )


def _assert_same(a: ShadowArray, b: ShadowArray) -> None:
    for got, want in zip(_state(a), _state(b)):
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


def _replay(shadow: ShadowArray, stream) -> None:
    for kind, index, granule, op in stream:
        if kind == KIND_WRITE:
            shadow.mark_write(index, granule)
        elif kind == KIND_READ:
            shadow.mark_read(index, granule)
        else:
            shadow.mark_redux(index, granule, OP_NAMES[op])


def _columns(stream):
    kinds = np.array([s[0] for s in stream], dtype=np.int64)
    idx = np.array([s[1] for s in stream], dtype=np.int64)
    grans = np.array([s[2] for s in stream], dtype=np.int64)
    ops = np.array([s[3] for s in stream], dtype=np.int64)
    rank = np.arange(len(stream), dtype=np.int64)
    return kinds, idx, ops, grans, rank


def test_mark_write_vec_matches_scalar_loop():
    indices = [3, 7, 3, 3, 9, 7]
    iters = [0, 0, 1, 1, 2, 3]
    vec = ShadowArray("a", SIZE)
    vec.mark_write_vec(indices, iters)
    ref = ShadowArray("a", SIZE)
    for i, g in zip(indices, iters):
        ref.mark_write(i, g)
    _assert_same(vec, ref)
    assert vec.tw == ref.tw == 5  # repeated (3, 1) counted once


def test_mark_read_vec_matches_scalar_loop():
    indices = [5, 5, 2, 5, 11]
    iters = [0, 1, 1, 1, 4]
    vec = ShadowArray("a", SIZE)
    vec.mark_write(5, 1)  # covers the granule-1 reads of element 5
    vec.mark_read_vec(indices, iters)
    ref = ShadowArray("a", SIZE)
    ref.mark_write(5, 1)
    for i, g in zip(indices, iters):
        ref.mark_read(i, g)
    _assert_same(vec, ref)


def test_mark_red_vec_matches_scalar_loop():
    indices = [4, 4, 8, 4]
    iters = [0, 2, 2, 5]
    vec = ShadowArray("a", SIZE)
    vec.mark_red_vec(indices, iters, "+")
    ref = ShadowArray("a", SIZE)
    for i, g in zip(indices, iters):
        ref.mark_redux(i, g, "+")
    _assert_same(vec, ref)
    assert not vec.nx.any()


def test_repeated_indices_within_one_call_count_tw_once_per_granule():
    vec = ShadowArray("a", SIZE)
    vec.mark_write_vec([6, 6, 6, 6], [0, 0, 1, 0])
    ref = ShadowArray("a", SIZE)
    for i, g in [(6, 0), (6, 0), (6, 1), (6, 0)]:
        ref.mark_write(i, g)
    _assert_same(vec, ref)
    assert vec.tw == 3  # granule changes: pre->0, 0->1, 1->0
    assert bool(vec.multi_w[6])


def _failure(mark) -> str | None:
    """Run ``mark``; the :class:`SpeculationFailed` message it raised."""
    try:
        mark()
    except SpeculationFailed as failed:
        return str(failed)
    return None


def _random_stream(rng, *, granule=None, max_op=2):
    """Random ``(kind, index, granule, op)`` accesses; with ``granule``
    set every access lands in that one granule."""
    stream = []
    for _ in range(rng.integers(1, 60)):
        kind = int(rng.integers(0, 3))
        index = int(rng.integers(0, SIZE))
        g = int(rng.integers(0, 6)) if granule is None else granule
        op = int(rng.integers(1, max_op + 1)) if kind == KIND_REDUX else 0
        stream.append((kind, index, g, op))
    return stream


def test_mixed_stream_vec_matches_scalar_replay():
    """Random multi-granule streams, ranked in input order and in a
    random permutation, lazy and eager: the bulk marking must leave the
    state (and raise the failure) of the per-access marks replayed in
    rank order.  One-granule streams — the marker's buffered flush —
    are inputs too: there only the rank orders the accesses within the
    granule, every reduction operator round-trips, and an eager failure
    names the element per-access marking names."""
    rng = np.random.default_rng(7)
    perm_rng = np.random.default_rng(11)
    one_granule_rng = np.random.default_rng(13)
    streams = [_random_stream(rng) for _ in range(40)] + [
        _random_stream(
            one_granule_rng, granule=int(one_granule_rng.integers(0, 6)),
            max_op=len(OP_NAMES),
        )
        for _ in range(40)
    ]
    for stream in streams:
        kinds, idx, ops, grans, in_order = _columns(stream)
        permuted = perm_rng.permutation(len(stream)).astype(np.int64)
        for rank in (in_order, permuted):
            ranked = [stream[at] for at in np.argsort(rank, kind="stable")]
            for eager in (False, True):
                vec = ShadowArray("a", SIZE, eager=eager)
                ref = ShadowArray("a", SIZE, eager=eager)
                # Pre-existing marks exercise the pre-batch fallback paths.
                vec.mark_write(0, 2)
                ref.mark_write(0, 2)
                vec.mark_redux(1, 0, "*")
                ref.mark_redux(1, 0, "*")
                got = _failure(
                    lambda: vec.mark_stream_vec(kinds, idx, ops, grans, rank)
                )
                assert got == _failure(lambda: _replay(ref, ranked))
                _assert_same(vec, ref)


def test_rank_order_decides_covering_not_input_order():
    # Same accesses, ranks reversed: the read comes before the write in
    # rank order, so it is exposed.
    shadow = ShadowArray("a", SIZE)
    kinds = np.array([KIND_WRITE, KIND_READ], dtype=np.int64)
    idx = np.array([3, 3], dtype=np.int64)
    ops = np.zeros(2, dtype=np.int64)
    grans = np.array([1, 1], dtype=np.int64)
    shadow.mark_stream_vec(kinds, idx, ops, grans, np.array([5, 2], dtype=np.int64))
    assert bool(shadow.np_[3])

    covered = ShadowArray("a", SIZE)
    covered.mark_stream_vec(kinds, idx, ops, grans, np.array([2, 5], dtype=np.int64))
    assert not covered.np_[3]


def test_eager_vec_raises_same_element_and_state_as_scalar():
    stream = [
        (KIND_WRITE, 4, 0, 0),
        (KIND_READ, 4, 2, 0),   # exposed read after another granule's write
        (KIND_WRITE, 9, 3, 0),
    ]
    kinds, idx, ops, grans, rank = _columns(stream)
    vec = ShadowArray("a", SIZE, eager=True)
    with pytest.raises(SpeculationFailed) as vec_err:
        vec.mark_stream_vec(kinds, idx, ops, grans, rank)
    ref = ShadowArray("a", SIZE, eager=True)
    with pytest.raises(SpeculationFailed) as ref_err:
        _replay(ref, stream)
    assert str(vec_err.value) == str(ref_err.value)
    _assert_same(vec, ref)


def test_eager_vec_passing_stream_commits():
    vec = ShadowArray("a", SIZE, eager=True)
    vec.mark_write_vec([1, 2, 1], [0, 1, 2])
    assert vec.tw == 3


def test_redux_op_conflict_marks_nx():
    vec = ShadowArray("a", SIZE)
    kinds = np.array([KIND_REDUX, KIND_REDUX], dtype=np.int64)
    idx = np.array([5, 5], dtype=np.int64)
    ops = np.array([1, 2], dtype=np.int64)  # '+' then '*'
    grans = np.array([0, 1], dtype=np.int64)
    rank = np.arange(2, dtype=np.int64)
    vec.mark_stream_vec(kinds, idx, ops, grans, rank)
    ref = ShadowArray("a", SIZE)
    ref.mark_redux(5, 0, "+")
    ref.mark_redux(5, 1, "*")
    _assert_same(vec, ref)
    assert bool(vec.nx[5])


def test_empty_stream_is_a_noop():
    vec = ShadowArray("a", SIZE)
    vec.mark_write_vec([], [])
    assert vec.tw == 0
    assert not vec.w.any()


class TestFusedOrder:
    def test_matches_lexsort_on_small_keys(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 100, size=200)
        rank = rng.integers(0, 50, size=200)
        np.testing.assert_array_equal(
            fused_order(idx, rank), np.lexsort((rank, idx))
        )

    def test_huge_sparse_indices_do_not_overflow(self):
        # Shadow sizes >= 2**31 must not wrap the fused int32 key; the
        # guard promotes to int64 (and to lexsort past 2**62).
        idx = np.array([2**31 + 7, 3, 2**31 + 7, 2**33], dtype=np.int64)
        rank = np.array([1, 0, 0, 2], dtype=np.int64)
        np.testing.assert_array_equal(
            fused_order(idx, rank), np.lexsort((rank, idx))
        )

    def test_key_space_past_int62_falls_back_to_lexsort(self):
        idx = np.array([2**61, 0, 2**61], dtype=np.int64)
        rank = np.array([5, 1, 2], dtype=np.int64)
        np.testing.assert_array_equal(
            fused_order(idx, rank), np.lexsort((rank, idx))
        )
