"""Shadow arrays and the marking operations of the LRPD test.

For each array ``A`` under test the paper keeps shadow arrays ``A_w``
(written), ``A_r`` (read), ``A_np`` (not privatizable: exposed-read) and
``A_nx`` (not a valid reduction element), plus two counters: ``tw(A)``,
the number of dynamic writes counted once per (element, granule) pair,
and ``tm(A)``, the number of distinct elements written.

*Granule* is the unit of the covering/coupling relation: the iteration
number for the iteration-wise test, the processor id for the
processor-wise variant of Appendix A.1 (iterations assigned to one
processor behave as a single "super-iteration"; the processor-wise test
requires each processor to execute its iterations in increasing order,
which the block-scheduled executor guarantees).

The paper marks into per-processor shadow structures and merges them
during the parallel analysis phase; because our doall execution is
emulated (deterministically interleaved), a single stamped shadow set is
semantically identical — the *cost* of the per-processor merge is charged
by the machine model (see :mod:`repro.machine.simulator`).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from repro.interp.costs import CostCounter

#: reduction-operator codes used by the shadow op stamps and the batched
#: marking buffers (0 means "no operator").
OP_CODES = {"+": 1, "*": 2, "min": 3, "max": 4}
OP_NAMES = {code: op for op, code in OP_CODES.items()}

#: access-kind codes for the batched marking buffers.
KIND_READ, KIND_WRITE, KIND_REDUX = 0, 1, 2

#: sentinel for "never written" in the min-write-granule stamp.
_NEVER_WRITTEN = np.iinfo(np.int64).max

class Granularity(Enum):
    ITERATION = "iteration"
    PROCESSOR = "processor"


def fused_order(idx: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Stable sort permutation of a stream by ``(idx, rank)``.

    One fused-key stable argsort beats a two-key lexsort (int32 keys
    when they fit — the sort runs about twice as fast).  All the guard
    arithmetic is Python-int (arbitrary precision), so shadow sizes at
    or above ``2**31`` cannot wrap a fixed-width intermediate into
    wrongly selecting the narrow key; streams whose combined key could
    overflow int64 fall back to ``np.lexsort``.
    """
    rank_min = int(rank.min())
    rank_span = int(rank.max()) - rank_min + 1
    idx_max = int(idx.max())
    if (idx_max + 1) * rank_span < 2**62:
        key = idx * rank_span + (rank - rank_min)
        if (idx_max + 1) * rank_span < 2**31:
            key = key.astype(np.int32)
        return np.argsort(key, kind="stable")
    return np.lexsort((rank, idx))


class _StagedBatch:
    """Post-batch shadow state for the touched elements, pre-commit."""

    __slots__ = (
        "uniq", "w", "r", "np_", "nx", "redux_touched", "multi_w",
        "redux_op", "last_write", "min_write", "max_exposed_read",
        "min_exposed_read", "tw_delta", "would_fail",
    )

    def __init__(self, **values: object):
        for name, value in values.items():
            setattr(self, name, value)


#: the eleven per-element shadow buffers of a :class:`ShadowArray`, with
#: their dtypes — the layout contract of buffer-backed construction
#: (:meth:`ShadowArray.from_buffers`) and of the shared-memory arena the
#: multiprocess backend maps worker shadows into.
SHADOW_FIELDS: tuple[tuple[str, type], ...] = (
    ("w", np.bool_),
    ("r", np.bool_),
    ("np_", np.bool_),
    ("nx", np.bool_),
    ("redux_touched", np.bool_),
    ("multi_w", np.bool_),
    ("_redux_op", np.int8),
    ("_last_write", np.int64),
    ("_min_write", np.int64),
    ("_max_exposed_read", np.int64),
    ("_min_exposed_read", np.int64),
)


class ShadowArray:
    """Shadow state for one tested array of ``size`` elements."""

    def __init__(self, name: str, size: int, *, eager: bool = False):
        self.name = name
        self.size = size
        #: raise :class:`~repro.errors.SpeculationFailed` as soon as a
        #: mark makes the (directional, iteration-wise) test's failure
        #: certain — the on-the-fly hardware model [47].  Best effort:
        #: the post-execution analysis remains authoritative.
        self.eager = eager
        self.w = np.zeros(size, dtype=bool)
        self.r = np.zeros(size, dtype=bool)
        self.np_ = np.zeros(size, dtype=bool)
        self.nx = np.zeros(size, dtype=bool)
        self.redux_touched = np.zeros(size, dtype=bool)
        #: elements written by more than one granule (tw contributors > 1).
        self.multi_w = np.zeros(size, dtype=bool)
        self._redux_op = np.zeros(size, dtype=np.int8)
        #: granule of the most recent write, -1 when never written.
        self._last_write = np.full(size, -1, dtype=np.int64)
        #: earliest writing granule (sentinel: never written).
        self._min_write = np.full(size, _NEVER_WRITTEN, dtype=np.int64)
        #: latest exposed-read granule (sentinel -1: never exposed-read).
        self._max_exposed_read = np.full(size, -1, dtype=np.int64)
        #: earliest exposed-read granule (sentinel: never exposed-read).
        #: Together with ``_min_write`` this gives the exact flow distance
        #: for singly-written elements, feeding the DOACROSS recovery tier.
        self._min_exposed_read = np.full(size, _NEVER_WRITTEN, dtype=np.int64)
        self.tw = 0

    def reset(self, *, eager: bool | None = None) -> None:
        """Clear all marks in place (buffer recycling between attempts).

        Re-attempts and schedule-reuse runs call this instead of
        reallocating the seven numpy buffers per array per attempt.
        """
        if eager is not None:
            self.eager = eager
        self.w[:] = False
        self.r[:] = False
        self.np_[:] = False
        self.nx[:] = False
        self.redux_touched[:] = False
        self.multi_w[:] = False
        self._redux_op[:] = 0
        self._last_write[:] = -1
        self._min_write[:] = _NEVER_WRITTEN
        self._max_exposed_read[:] = -1
        self._min_exposed_read[:] = _NEVER_WRITTEN
        self.tw = 0

    # -- marking operations (paper Fig. 3 / Fig. 5) -------------------------

    def mark_write(self, index: int, granule: int) -> None:
        """``markwrite(A, index)`` in the given granule (0-based element)."""
        self.w[index] = True
        self.nx[index] = True
        if granule < self._min_write[index]:
            self._min_write[index] = granule
        if self._last_write[index] != granule:
            self.tw += 1
            if self._last_write[index] != -1:
                self.multi_w[index] = True
            self._last_write[index] = granule
        if self.eager:
            self._eager_check(index)

    def mark_read(self, index: int, granule: int) -> None:
        """``markread(A, index)``: exposed unless covered by a write of the
        same granule."""
        self.r[index] = True
        self.nx[index] = True
        if self._last_write[index] != granule:
            self.np_[index] = True
            if granule > self._max_exposed_read[index]:
                self._max_exposed_read[index] = granule
            if granule < self._min_exposed_read[index]:
                self._min_exposed_read[index] = granule
        if self.eager:
            self._eager_check(index)

    def mark_redux(self, index: int, granule: int, op: str) -> None:
        """``markredux(A, index)``: a reduction-statement access.

        Sets ``A_w``/``A_r``/``A_np`` (a reduction is an exposed
        read-modify-write, so the element *would* fail the privatization
        criterion) but not ``A_nx`` — unless a different reduction
        operator already touched the element, which invalidates it.
        """
        self.w[index] = True
        self.r[index] = True
        self.np_[index] = True
        self.redux_touched[index] = True
        # A reduction access is a read-modify-write: it participates in the
        # directional stamps so that mixing with ordinary accesses on the
        # same element is still caught by the flow check (the element's nx
        # bit decides whether the flow is exempted).
        if granule < self._min_write[index]:
            self._min_write[index] = granule
        if granule > self._max_exposed_read[index]:
            self._max_exposed_read[index] = granule
        if granule < self._min_exposed_read[index]:
            self._min_exposed_read[index] = granule
        code = OP_CODES[op]
        current = self._redux_op[index]
        if current == 0:
            self._redux_op[index] = code
        elif current != code:
            self.nx[index] = True
        if self.eager:
            self._eager_check(index)

    # -- bulk marking -------------------------------------------------------
    #
    # The vectorized whole-block engine executes an entire doall block of
    # iterations at once, so its access streams span *many* granules.  The
    # staging below replays the per-access marking semantics with numpy
    # segment arithmetic: accesses are sorted by (element, stream rank) and
    # the sequential last-writer chain is reconstructed per element with a
    # running maximum, which is all the per-access rules depend on.

    def stage_stream_vec(
        self,
        kinds: np.ndarray,
        idx: np.ndarray,
        ops: np.ndarray,
        granules: np.ndarray,
        rank: np.ndarray,
    ) -> "_StagedBatch":
        """Stage a multi-granule access stream without committing it.

        ``kinds``/``idx``/``ops``/``granules``/``rank`` are parallel int64
        arrays: access kind (``KIND_*``), 0-based element, operator code
        (0 for plain accesses), the access's granule, and a key whose
        ascending (stable) order is the serial marking order.  The staged
        result is bit-identical to replaying the stream through
        ``mark_write``/``mark_read``/``mark_redux`` in rank order.
        """
        n = int(idx.size)
        if n == 0:
            return _StagedBatch(
                uniq=np.empty(0, dtype=np.int64),
                w=np.empty(0, dtype=bool), r=np.empty(0, dtype=bool),
                np_=np.empty(0, dtype=bool), nx=np.empty(0, dtype=bool),
                redux_touched=np.empty(0, dtype=bool),
                multi_w=np.empty(0, dtype=bool),
                redux_op=np.empty(0, dtype=np.int8),
                last_write=np.empty(0, dtype=np.int64),
                min_write=np.empty(0, dtype=np.int64),
                max_exposed_read=np.empty(0, dtype=np.int64),
                min_exposed_read=np.empty(0, dtype=np.int64),
                tw_delta=0, would_fail=False,
            )
        perm = fused_order(idx, rank)
        idx_s = idx[perm]
        kind_s = kinds[perm]
        ops_s = ops[perm]
        gran_s = granules[perm]

        seg_start = np.empty(n, dtype=bool)
        seg_start[0] = True
        seg_start[1:] = idx_s[1:] != idx_s[:-1]
        seg_id = np.cumsum(seg_start) - 1
        uniq = idx_s[seg_start]
        u = uniq.size
        first_of_seg = np.flatnonzero(seg_start)
        seg_first = first_of_seg[seg_id]

        is_w = kind_s == KIND_WRITE
        is_r = kind_s == KIND_READ
        is_x = kind_s == KIND_REDUX

        pre_last = self._last_write[uniq]

        # Last-writer chain: index of the latest write strictly before each
        # access, within the same element segment; fall back to the
        # pre-batch last-write granule.
        gidx = np.arange(n, dtype=np.int64)
        w_at = np.where(is_w, gidx, np.int64(-1))
        last_w_upto = np.maximum.accumulate(w_at)
        prev_w = np.empty(n, dtype=np.int64)
        prev_w[0] = -1
        prev_w[1:] = last_w_upto[:-1]
        in_seg = prev_w >= seg_first
        prev_lw_gran = np.where(
            in_seg, gran_s[np.maximum(prev_w, 0)], pre_last[seg_id]
        )

        new_writer = is_w & (prev_lw_gran != gran_s)
        tw_delta = int(np.count_nonzero(new_writer))
        multi_contrib = new_writer & (prev_lw_gran != -1)
        exposed = is_r & (prev_lw_gran != gran_s)

        def seg_any(mask: np.ndarray) -> np.ndarray:
            out = np.zeros(u, dtype=bool)
            out[seg_id[mask]] = True
            return out

        has_w = seg_any(is_w)
        has_r = seg_any(is_r)
        has_x = seg_any(is_x)
        has_exposed = seg_any(exposed)
        has_multi = seg_any(multi_contrib)

        # Final last-write granule per element: the segment's last write.
        seg_last = np.empty(u, dtype=np.int64)
        seg_last[:-1] = first_of_seg[1:] - 1
        seg_last[-1] = n - 1
        final_w = last_w_upto[seg_last]
        final_in_seg = final_w >= first_of_seg
        last_write = np.where(
            final_in_seg, gran_s[np.maximum(final_w, 0)], pre_last
        )

        pre_min = self._min_write[uniq]
        pre_max = self._max_exposed_read[uniq]
        new_min = pre_min.copy()
        wx = is_w | is_x
        if wx.any():
            np.minimum.at(new_min, seg_id[wx], gran_s[wx])
        new_max = pre_max.copy()
        new_min_read = self._min_exposed_read[uniq].copy()
        ex = exposed | is_x
        if ex.any():
            np.maximum.at(new_max, seg_id[ex], gran_s[ex])
            np.minimum.at(new_min_read, seg_id[ex], gran_s[ex])

        # Reduction operators: first-op-wins against the pre-batch stamp,
        # with the in-batch first op taken in rank order.
        pre_op = self._redux_op[uniq].astype(np.int64)
        first_op = np.zeros(u, dtype=np.int64)
        conflict_any = np.zeros(u, dtype=bool)
        if is_x.any():
            first_x = np.full(u, n, dtype=np.int64)
            np.minimum.at(first_x, seg_id[is_x], gidx[is_x])
            batch_first = np.where(first_x < n, ops_s[np.minimum(first_x, n - 1)], 0)
            first_op = batch_first
            resolved = np.where(pre_op != 0, pre_op, batch_first)
            conflict = is_x & (ops_s != resolved[seg_id])
            conflict_any = seg_any(conflict)

        new_nx = self.nx[uniq] | has_w | has_r | conflict_any
        new_redux = self.redux_touched[uniq] | has_x
        would_fail = bool(
            self.eager and np.any(new_nx & ((new_max > new_min) | new_redux))
        )
        return _StagedBatch(
            uniq=uniq,
            w=self.w[uniq] | has_w | has_x,
            r=self.r[uniq] | has_r | has_x,
            np_=self.np_[uniq] | has_exposed | has_x,
            nx=new_nx,
            redux_touched=new_redux,
            multi_w=self.multi_w[uniq] | has_multi,
            redux_op=np.where(pre_op != 0, pre_op, first_op).astype(np.int8),
            last_write=last_write,
            min_write=new_min,
            max_exposed_read=new_max,
            min_exposed_read=new_min_read,
            tw_delta=tw_delta,
            would_fail=would_fail,
        )

    def commit_batch(self, staged: "_StagedBatch") -> None:
        """Apply a staged batch to the shadow state."""
        uniq = staged.uniq
        self.w[uniq] = staged.w
        self.r[uniq] = staged.r
        self.np_[uniq] = staged.np_
        self.nx[uniq] = staged.nx
        self.redux_touched[uniq] = staged.redux_touched
        self.multi_w[uniq] = staged.multi_w
        self._redux_op[uniq] = staged.redux_op
        self._last_write[uniq] = staged.last_write
        self._min_write[uniq] = staged.min_write
        self._max_exposed_read[uniq] = staged.max_exposed_read
        self._min_exposed_read[uniq] = staged.min_exposed_read
        self.tw += staged.tw_delta

    def replay_scalar_vec(
        self,
        kinds: np.ndarray,
        idx: np.ndarray,
        ops: np.ndarray,
        granules: np.ndarray,
        rank: np.ndarray,
    ) -> None:
        """Replay a multi-granule stream through the per-access marks."""
        for at in np.argsort(rank, kind="stable"):
            kind = kinds[at]
            index = int(idx[at])
            granule = int(granules[at])
            if kind == KIND_WRITE:
                self.mark_write(index, granule)
            elif kind == KIND_READ:
                self.mark_read(index, granule)
            else:
                self.mark_redux(index, granule, OP_NAMES[int(ops[at])])

    def mark_stream_vec(
        self,
        kinds: np.ndarray,
        idx: np.ndarray,
        ops: np.ndarray,
        granules: np.ndarray,
        rank: np.ndarray,
    ) -> None:
        """Apply a multi-granule ordered access stream in bulk.

        Equivalent to rank-ordered per-access marking.  Under eager
        detection a failing stream falls back to the scalar replay so the
        raised :class:`SpeculationFailed` identifies the same element the
        per-access path would have.
        """
        staged = self.stage_stream_vec(kinds, idx, ops, granules, rank)
        if staged.would_fail:
            self.replay_scalar_vec(kinds, idx, ops, granules, rank)
            raise AssertionError("staged stream failed but scalar replay passed")
        self.commit_batch(staged)

    def mark_write_vec(self, indices, iterations) -> None:
        """Vectorized ``mark_write`` over parallel index/granule vectors."""
        idx = np.asarray(indices, dtype=np.int64)
        self.mark_stream_vec(
            np.full(idx.size, KIND_WRITE, dtype=np.int64),
            idx,
            np.zeros(idx.size, dtype=np.int64),
            np.asarray(iterations, dtype=np.int64),
            np.arange(idx.size, dtype=np.int64),
        )

    def mark_read_vec(self, indices, iterations) -> None:
        """Vectorized ``mark_read`` over parallel index/granule vectors."""
        idx = np.asarray(indices, dtype=np.int64)
        self.mark_stream_vec(
            np.full(idx.size, KIND_READ, dtype=np.int64),
            idx,
            np.zeros(idx.size, dtype=np.int64),
            np.asarray(iterations, dtype=np.int64),
            np.arange(idx.size, dtype=np.int64),
        )

    def mark_red_vec(self, indices, iterations, op: str) -> None:
        """Vectorized ``mark_redux`` over parallel index/granule vectors."""
        idx = np.asarray(indices, dtype=np.int64)
        self.mark_stream_vec(
            np.full(idx.size, KIND_REDUX, dtype=np.int64),
            idx,
            np.full(idx.size, OP_CODES[op], dtype=np.int64),
            np.asarray(iterations, dtype=np.int64),
            np.arange(idx.size, dtype=np.int64),
        )

    def _eager_check(self, index: int) -> None:
        """Abort when this element's failure is already certain.

        Covers the directional iteration-wise predicates — a definite
        flow (exposed read after another granule's write) or a
        reduction/ordinary mix.  Processor-wise-only conditions are left
        to the final analysis.
        """
        from repro.errors import SpeculationFailed

        if not self.nx[index]:
            return
        if self._max_exposed_read[index] > self._min_write[index]:
            raise SpeculationFailed(self.name, index)
        if self.redux_touched[index]:
            raise SpeculationFailed(self.name, index)

    # -- analysis-phase quantities ----------------------------------------

    @property
    def tm(self) -> int:
        """Number of distinct elements written (``sum(A_w)``)."""
        return int(np.count_nonzero(self.w))

    def conflict_mask(self) -> np.ndarray:
        """Elements with a cross-granule flow of values that privatization
        cannot cover and that are not valid reductions (bit version)."""
        return self.w & self.np_ & self.nx

    def flow_mask(self) -> np.ndarray:
        """Directional version of :meth:`conflict_mask`'s flow predicate.

        An element carries a true cross-granule flow of values only when
        some granule's exposed read comes *serially after* some other
        granule's write.  Same-granule read-modify-write (the OCEAN
        butterfly) and pure anti dependences are legal under copy-in
        privatization and are not flagged.  Granule numbering must follow
        serial order (iteration index, or processor id under block
        scheduling).
        """
        return self._max_exposed_read > self._min_write

    def reduction_mask(self) -> np.ndarray:
        """Elements validated as reductions."""
        return self.redux_touched & ~self.nx

    def reduction_op_of(self, index: int) -> str | None:
        code = int(self._redux_op[index])
        return OP_NAMES.get(code)

    def privatized_mask(self) -> np.ndarray:
        """Written elements whose reads were all covered by same-granule
        writes (privatization did real work)."""
        return self.w & self.r & ~self.np_

    def last_write_granules(self) -> np.ndarray:
        """Per-element granule of the last write (-1 if never written)."""
        return self._last_write

    def min_write_granules(self) -> np.ndarray:
        """Per-element granule of the earliest write
        (:data:`_NEVER_WRITTEN` if never written)."""
        return self._min_write

    def max_exposed_read_granules(self) -> np.ndarray:
        """Per-element granule of the latest exposed read (-1 if none)."""
        return self._max_exposed_read

    def min_exposed_read_granules(self) -> np.ndarray:
        """Per-element granule of the earliest exposed read
        (:data:`_NEVER_WRITTEN` if none)."""
        return self._min_exposed_read

    @classmethod
    def from_buffers(
        cls,
        name: str,
        size: int,
        buffers: Mapping[str, np.ndarray],
        *,
        eager: bool = False,
    ) -> "ShadowArray":
        """Build a shadow whose per-element state lives in caller-owned
        buffers (e.g. ``multiprocessing.shared_memory`` views).

        ``buffers`` must provide one array per :data:`SHADOW_FIELDS` entry,
        each of length ``size`` and the declared dtype.  The buffers are
        adopted as-is (no copy) and immediately :meth:`reset`, so a worker
        process marking into them exposes its shadow state to the parent
        without any serialization.
        """
        shadow = cls.__new__(cls)
        shadow.name = name
        shadow.size = size
        for field, dtype in SHADOW_FIELDS:
            buf = buffers[field]
            if buf.shape != (size,) or buf.dtype != np.dtype(dtype):
                raise ValueError(
                    f"shadow buffer {field!r} of {name!r}: expected "
                    f"({size},) {np.dtype(dtype)}, got {buf.shape} {buf.dtype}"
                )
            setattr(shadow, field, buf)
        shadow.tw = 0
        shadow.reset(eager=eager)
        return shadow

    def merge_from(self, parts: "Iterable[ShadowArray]") -> None:
        """The paper's cross-processor shadow merge, folded into ``self``.

        Each worker of the multiprocess backend marks into its own shadow
        set; afterwards the per-processor shadows are combined exactly as
        §III's parallel analysis phase prescribes — OR/union of the mark
        bits, sum of ``tw`` (granules partition across workers, so the
        per-(element, granule) write counts are disjoint), min/max of the
        directional granule stamps.  ``self`` must be freshly reset; the
        merged state is bit-identical to single-shadow marking for every
        analysis-phase quantity (masks, ``tw``/``tm``, flow stamps).

        Two fields are execution-order artifacts consumed only *during*
        marking and are merged canonically rather than replaying the
        emulated interleaving: ``_last_write`` becomes the serial-order
        last writer (elementwise max), and ``_redux_op`` keeps the first
        operator in worker order — any cross-worker operator disagreement
        invalidates the element (``nx``), exactly as a second operator
        would under single-shadow marking.
        """
        write_counts = np.zeros(self.size, dtype=np.int64)
        for part in parts:
            np.logical_or(self.w, part.w, out=self.w)
            np.logical_or(self.r, part.r, out=self.r)
            np.logical_or(self.np_, part.np_, out=self.np_)
            np.logical_or(self.nx, part.nx, out=self.nx)
            np.logical_or(self.redux_touched, part.redux_touched,
                          out=self.redux_touched)
            np.logical_or(self.multi_w, part.multi_w, out=self.multi_w)
            np.minimum(self._min_write, part._min_write, out=self._min_write)
            np.maximum(self._max_exposed_read, part._max_exposed_read,
                       out=self._max_exposed_read)
            np.minimum(self._min_exposed_read, part._min_exposed_read,
                       out=self._min_exposed_read)
            np.maximum(self._last_write, part._last_write, out=self._last_write)
            write_counts += part._last_write != -1
            self.tw += part.tw
            part_op = part._redux_op
            touched = part_op != 0
            conflict = touched & (self._redux_op != 0) & (self._redux_op != part_op)
            np.logical_or(self.nx, conflict, out=self.nx)
            np.copyto(self._redux_op, part_op,
                      where=(self._redux_op == 0) & touched)
        # An element written (markwrite) by granules on >= 2 workers is
        # multiply written even when no single worker saw both writes.
        np.logical_or(self.multi_w, write_counts >= 2, out=self.multi_w)


class ShadowMarker:
    """The run-time marking library: an AccessObserver over shadow arrays.

    The executor advances :attr:`granule` before each iteration (to the
    iteration number or the executing processor id, depending on the
    test granularity) and the interpreter reports accesses through the
    observer interface.  Every mark is charged to the cost counter.
    """

    def __init__(
        self,
        sizes: dict[str, int],
        cost: CostCounter | None = None,
        granularity: Granularity = Granularity.ITERATION,
        *,
        eager: bool = False,
    ):
        self.shadows: dict[str, ShadowArray] = {
            name: ShadowArray(name, size, eager=eager) for name, size in sizes.items()
        }
        self.cost = cost if cost is not None else CostCounter()
        self.granularity = granularity
        self.granule = 0

    @classmethod
    def from_shadows(
        cls,
        shadows: dict[str, ShadowArray],
        granularity: Granularity = Granularity.ITERATION,
    ) -> "ShadowMarker":
        """A marker over pre-built shadows (e.g. buffer-backed worker
        shadows of the multiprocess backend) — no allocation."""
        marker = cls.__new__(cls)
        marker.shadows = shadows
        marker.cost = CostCounter()
        marker.granularity = granularity
        marker.granule = 0
        return marker

    def set_granule(self, granule: int) -> None:
        self.granule = granule

    def reset(
        self,
        granularity: Granularity | None = None,
        *,
        eager: bool | None = None,
    ) -> None:
        """Recycle this marker for a fresh attempt (no reallocation)."""
        if granularity is not None:
            self.granularity = granularity
        self.granule = 0
        self.cost = CostCounter()
        for shadow in self.shadows.values():
            shadow.reset(eager=eager)

    def flush_batch(self, buffers: dict[str, list[tuple[int, int, int, int]]]) -> int:
        """Apply one granule's buffered accesses; returns the mark count.

        ``buffers`` maps each tested array to its ordered access list of
        ``(position, kind, index0, opcode)`` tuples — positions are a
        single strictly increasing sequence *across* arrays, indices are
        0-based.  Every buffered access is marked one by one and charged
        to :attr:`cost` exactly as the per-access observer calls would
        have been.  Under eager detection the accesses are marked in
        global position order, so a failing granule raises at the same
        (array, element) as per-access marking.
        """
        pending = [(name, buf) for name, buf in buffers.items() if buf]
        if not pending:
            return 0
        total = sum(len(buf) for _name, buf in pending)
        self.cost.marks += total
        granule = self.granule
        if any(self.shadows[name].eager for name, _buf in pending):
            self._replay_stream(pending, granule)
            return total
        for name, buf in pending:
            shadow = self.shadows[name]
            for _pos, kind, index, opcode in buf:
                if kind == KIND_WRITE:
                    shadow.mark_write(index, granule)
                elif kind == KIND_READ:
                    shadow.mark_read(index, granule)
                else:
                    shadow.mark_redux(index, granule, OP_NAMES[opcode])
        return total

    def _replay_stream(
        self,
        pending: list[tuple[str, list[tuple[int, int, int, int]]]],
        granule: int,
    ) -> None:
        """Replay buffered accesses one by one in global stream order."""
        stream = sorted(
            (pos, name, kind, index, opcode)
            for name, buf in pending
            for pos, kind, index, opcode in buf
        )
        for _pos, name, kind, index, opcode in stream:
            shadow = self.shadows[name]
            if kind == KIND_WRITE:
                shadow.mark_write(index, granule)
            elif kind == KIND_READ:
                shadow.mark_read(index, granule)
            else:
                shadow.mark_redux(index, granule, OP_NAMES[opcode])

    # 1-based indices arrive from the interpreter; shadows are 0-based.

    def on_read(self, array: str, index: int) -> None:
        self.cost.marks += 1
        self.shadows[array].mark_read(index - 1, self.granule)

    def on_write(self, array: str, index: int) -> None:
        self.cost.marks += 1
        self.shadows[array].mark_write(index - 1, self.granule)

    def on_redux(self, array: str, index: int, op: str) -> None:
        self.cost.marks += 1
        self.shadows[array].mark_redux(index - 1, self.granule, op)

