"""The shared physical array of the embedding ``F ⊳ R`` — numpy + bitboards.

:class:`VectorPhysicalArray` is the third backend of the embedding's shared
array ``A``, behind :class:`repro.core.physical_reference.ReferencePhysicalArray`
(the seed oracle) and :class:`repro.core.physical.PhysicalArray` (the slab
rewrite).  It implements the identical public surface and produces
*bit-identical move logs* — the PR 3 differential wall replays recorded
workload traces on every backend and asserts (element, source, destination)
equality, so any behavioural drift fails the suite.

Where the slab backend spends its time in interpreted ``PackedFenwick``
tree walks (``O(log m)`` per mutation, per select), this backend replaces
the trees entirely:

* slot state is one ``array('B')`` bitmask slab with a shared-memory numpy
  ``uint8`` view (:func:`numpy.frombuffer`) — scalar writes go through the
  stdlib array, vectorized sweeps through numpy;
* each of the four index lanes (F-slot / non-empty / element-present /
  dummy-buffer) is additionally kept as a **bitboard**: an ``array('Q')``
  of uint64 words, one bit per slot, updated with a single XOR per
  mutation (O(1), no tree walk) plus an O(1) per-lane total;
* ``prefix``/``select``/range counts run on the bitboards with
  ``int.bit_count()`` popcounts — a select touches a handful of words, and
  a per-lane *finger* (the last select's rank and position) turns the
  rank-local selects of the embedding's fast path into one- or two-word
  walks; whole-lane scans fall back to vectorized
  :func:`numpy.bitwise_count` over the uint64 view;
* :meth:`chain_move` short-circuits the dominant workload case — a single
  element crossing an all-F span with no deadweight and no relabel — into
  three range popcounts and one ``move_element``; wide or mixed chains
  take a masked ``flatnonzero`` sweep with the relabel computed as a
  vectorized desired-vs-current diff, so only actual flips pay;
* :meth:`elements_at_ranks` answers a whole batch of rank lookups with one
  masked ``flatnonzero`` and one fancy-indexed int64 gather.

Element contents use the same interning scheme as the slab backend: an
``array('q')`` of element ids (``-1`` = empty) with an int64 numpy view for
the bulk gathers, an id → position slab, and a free-list so the tables are
sized by the live set.

This module imports :mod:`numpy` at import time;
:func:`repro.core.embedding.default_physical_factory` imports it only when
an embedding is first built, and falls back to the slab backend when numpy
is missing.
"""

from __future__ import annotations

from array import array
from typing import Callable, Hashable, Iterable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.exceptions import InvariantViolation
from repro.core.operations import Move, MoveRecorder
from repro.core.physical_kinds import (
    BIT_DUMMY,
    BIT_F,
    BIT_NONEMPTY,
    BIT_REAL,
    BUFFER,
    F_SLOT,
    KIND_MASKS,
    LANE_DUMMY,
    LANE_F,
    LANE_NONEMPTY,
    LANE_REAL,
    MASK_KIND,
    NUM_LANES,
    R_EMPTY,
)

__all__ = ["VectorPhysicalArray"]

if not hasattr(np, "bitwise_count"):
    # numpy < 2.0: failing the import makes the default selection fall back
    # to the slab array instead of crashing on the first rank count.
    raise ImportError(
        "the vector physical array needs numpy >= 2.0 (np.bitwise_count); "
        f"found numpy {np.__version__}"
    )

#: Below this many bitboard words, prefix/select walk a Python loop; above
#: it the vectorized ``np.bitwise_count`` path wins.
_WORD_LOOP_CUTOFF = 96

#: Spans at most this wide take the materialized Python chain scan in
#: :meth:`VectorPhysicalArray.chain_move`; wider spans take the numpy sweep.
_CHAIN_SCAN_CUTOFF = 64

#: A select whose rank is within this distance of the lane's finger walks
#: the bitboard from the finger instead of restarting from word zero.
_FINGER_WALK_CUTOFF = 512

#: ``mask`` for every (kind, has_element) pair, indexed ``kind * 2 + has``.
_KIND_MASK_TABLE = np.array(
    [KIND_MASKS[kind][has] for kind in (R_EMPTY, F_SLOT, BUFFER) for has in (0, 1)],
    dtype=np.uint8,
)

#: Numpy views over the ``array`` buffers, rebuilt rather than copied.
_VIEW_ATTRS = frozenset({"_masks", "_eid", "_words_np"})

#: ``MASK_KIND`` as a numpy lookup table for vectorized kind recovery.
_MASK_KIND_TABLE = np.array(MASK_KIND, dtype=np.uint8)


def _nth_bit(word: int, rank: int) -> int:
    """Bit index of the ``rank``-th (1-based) set bit of a uint64 word."""
    offset = 0
    if rank > 8:
        low = word & 0xFFFFFFFF
        count = low.bit_count()
        if rank > count:
            rank -= count
            word >>= 32
            offset = 32
        else:
            word = low
        low = word & 0xFFFF
        count = low.bit_count()
        if rank > count:
            rank -= count
            word >>= 16
            offset += 16
        else:
            word = low
        low = word & 0xFF
        count = low.bit_count()
        if rank > count:
            rank -= count
            word >>= 8
            offset += 8
        else:
            word = low
    for _ in range(rank - 1):
        word &= word - 1
    return offset + (word & -word).bit_length() - 1


class VectorPhysicalArray:
    """The embedding's array ``A`` on numpy slabs with bitboard lanes."""

    #: Backend name reported by ``Embedding.physical_backend`` and STATS.
    name = "vector"

    # Defaults so instances materialized without ``__init__`` (object graphs
    # rebuilt via ``__new__``) never trip on missing observability state.
    _obs_enabled = False

    def __init__(self, num_slots: int) -> None:
        self._m = num_slots
        #: Packed per-slot state; scalar access through the stdlib array,
        #: vectorized access through its shared-memory uint8 view
        #: ``_masks`` (made by ``_bind_views``).
        self._mask_buf = array("B", bytes(num_slots))
        #: Interned element id per slot; -1 marks an element-free slot
        #: (int64 view: ``_eid``).
        self._eid_buf = (
            array("q", b"\xff" * (8 * num_slots)) if num_slots else array("q")
        )
        #: Per-lane bitboards (uint64 words, bit ``p & 63`` of word
        #: ``p >> 6`` = slot ``p``) with shared-memory numpy views
        #: (``_words_np``), plus O(1)-maintained totals and select fingers.
        self._nwords = (num_slots + 63) >> 6
        self._words = [
            array("Q", bytes(8 * self._nwords)) for _ in range(NUM_LANES)
        ]
        self._bind_views()
        self._tot = [0] * NUM_LANES
        self._fingers: list[tuple[int, int] | None] = [None] * NUM_LANES
        #: id → element object and element → id (the interning table).
        self._elem_of: list[Hashable | None] = []
        self._id_of: dict[Hashable, int] = {}
        #: id → physical position (-1 while the element is off the array).
        self._pos = array("q")
        self._free_ids: list[int] = []
        #: Where recorded moves go during an operation: ``None``, a plain
        #: ``list[Move]``, or a :class:`MoveRecorder` (the zero-alloc path).
        self.move_sink: list[Move] | MoveRecorder | None = None
        #: Per-element count of deadweight moves (Lemma 5 accounting).
        self.deadweight_by_element: dict[Hashable, int] = {}
        self.total_deadweight_moves = 0
        self._bind_obs()

    def _bind_views(self) -> None:
        """Point the numpy views at the stdlib ``array`` buffers."""
        self._masks = np.frombuffer(self._mask_buf, dtype=np.uint8)
        self._eid = np.frombuffer(self._eid_buf, dtype=np.int64)
        self._words_np = [
            np.frombuffer(words, dtype=np.uint64) for words in self._words
        ]

    def _bind_obs(self, registry=None) -> None:
        """Bind the ``physical.*`` counters to ``registry`` (default: the
        current global registry)."""
        reg = obs.get_registry() if registry is None else registry
        self._obs_enabled = reg.enabled
        if reg.enabled:
            self._obs_chain_moves = reg.counter("physical.chain_moves")
            self._obs_shell_moves = reg.counter("physical.shell_moves")
            self._obs_relabel_flips = reg.counter("physical.relabel_flips")
            # Backend code: 0=reference, 1=slab, 2=vector
            # (the reference backend stays seed-pure and never reports).
            reg.gauge("physical.backend").set(2.0)

    # A copy (``copy.deepcopy``, pickle) must view its *own* buffers — a
    # copied view would be a detached array — and report into the registry
    # that is live when it is made.  So the views and counters are dropped
    # from the state and rebuilt.
    def __getstate__(self) -> dict:
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in _VIEW_ATTRS and not key.startswith("_obs_")
        }

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()
        self._bind_obs()

    # ------------------------------------------------------------------
    # Lane bookkeeping (the O(1) replacement for the Fenwick walks)
    # ------------------------------------------------------------------
    def _set_mask(self, position: int, mask: int) -> None:
        buf = self._mask_buf
        changed = buf[position] ^ mask
        if not changed:
            return
        buf[position] = mask
        word = position >> 6
        bit = 1 << (position & 63)
        tot = self._tot
        words = self._words
        fingers = self._fingers
        if changed & BIT_F:
            words[LANE_F][word] ^= bit
            tot[LANE_F] += 1 if mask & BIT_F else -1
            fingers[LANE_F] = None
        if changed & BIT_NONEMPTY:
            words[LANE_NONEMPTY][word] ^= bit
            tot[LANE_NONEMPTY] += 1 if mask & BIT_NONEMPTY else -1
            fingers[LANE_NONEMPTY] = None
        if changed & BIT_REAL:
            words[LANE_REAL][word] ^= bit
            tot[LANE_REAL] += 1 if mask & BIT_REAL else -1
            fingers[LANE_REAL] = None
        if changed & BIT_DUMMY:
            words[LANE_DUMMY][word] ^= bit
            tot[LANE_DUMMY] += 1 if mask & BIT_DUMMY else -1
            fingers[LANE_DUMMY] = None

    def _rebuild_lanes(self) -> None:
        """Recompute every bitboard and total from the mask slab (used after
        bulk mask writes)."""
        self._fingers = [None] * NUM_LANES
        if not self._m:
            return
        masks = self._masks
        padded = np.zeros(self._nwords * 8, dtype=np.uint8)
        for lane in range(NUM_LANES):
            bits = (masks >> lane) & np.uint8(1)
            packed = np.packbits(bits, bitorder="little")
            padded[: packed.size] = packed
            padded[packed.size:] = 0
            self._words_np[lane][:] = padded.view(np.uint64)
            self._tot[lane] = int(bits.sum())

    def _prefix(self, lane: int, end: int) -> int:
        """Number of lane bits set in ``[0, end)``."""
        words = self._words[lane]
        full = end >> 6
        if full <= _WORD_LOOP_CUTOFF:
            total = 0
            for index in range(full):
                total += words[index].bit_count()
        else:
            total = int(np.bitwise_count(self._words_np[lane][:full]).sum())
        rest = end & 63
        if rest:
            total += (words[full] & ((1 << rest) - 1)).bit_count()
        return total

    def _range_count(self, lane: int, lo: int, hi: int) -> int:
        """Number of lane bits set in ``[lo, hi]`` (inclusive)."""
        words = self._words[lane]
        wlo = lo >> 6
        whi = hi >> 6
        if wlo == whi:
            window = (words[wlo] >> (lo & 63)) & ((1 << (hi - lo + 1)) - 1)
            return window.bit_count()
        if whi - wlo > _WORD_LOOP_CUTOFF:
            return self._prefix(lane, hi + 1) - self._prefix(lane, lo)
        total = (words[wlo] >> (lo & 63)).bit_count()
        for index in range(wlo + 1, whi):
            total += words[index].bit_count()
        total += (words[whi] & ((1 << ((hi & 63) + 1)) - 1)).bit_count()
        return total

    def _select(self, lane: int, k: int) -> int:
        """Position of the ``k``-th (1-based) slot with the lane bit set.

        The lane finger caches the last answered (rank, position): nearby
        ranks — the embedding's access pattern — walk a word or two from
        the finger instead of re-ranking the whole bitboard.
        """
        if k < 1 or k > self._tot[lane]:
            raise IndexError(
                f"select({k}) out of range (lane {lane} total={self._tot[lane]})"
            )
        finger = self._fingers[lane]
        words = self._words[lane]
        if finger is not None:
            last_k, last_pos = finger
            delta = k - last_k
            if delta == 0:
                return last_pos
            if -_FINGER_WALK_CUTOFF <= delta <= _FINGER_WALK_CUTOFF:
                index = last_pos >> 6
                if delta > 0:
                    window = words[index] & -(2 << (last_pos & 63))
                    remaining = delta
                    while True:
                        count = window.bit_count()
                        if count >= remaining:
                            break
                        remaining -= count
                        index += 1
                        window = words[index]
                else:
                    window = words[index] & ((1 << (last_pos & 63)) - 1)
                    remaining = -delta
                    while True:
                        count = window.bit_count()
                        if count >= remaining:
                            remaining = count - remaining + 1
                            break
                        remaining -= count
                        index -= 1
                        window = words[index]
                position = (index << 6) + _nth_bit(window, remaining)
                self._fingers[lane] = (k, position)
                return position
        nwords = self._nwords
        remaining = k
        if nwords <= _WORD_LOOP_CUTOFF:
            for index in range(nwords):
                count = words[index].bit_count()
                if remaining <= count:
                    break
                remaining -= count
        else:
            cum = np.cumsum(np.bitwise_count(self._words_np[lane]))
            index = int(np.searchsorted(cum, k))
            if index:
                remaining = k - int(cum[index - 1])
        position = (index << 6) + _nth_bit(words[index], remaining)
        self._fingers[lane] = (k, position)
        return position

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _intern(self, element: Hashable) -> int:
        eid = self._id_of.get(element)
        if eid is None:
            free = self._free_ids
            if free:
                eid = free.pop()
                self._elem_of[eid] = element
            else:
                eid = len(self._elem_of)
                self._elem_of.append(element)
                self._pos.append(-1)
            self._id_of[element] = eid
        return eid

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        return self._m

    def kind(self, position: int) -> int:
        return MASK_KIND[self._mask_buf[position]]

    def element(self, position: int) -> Hashable | None:
        eid = self._eid_buf[position]
        return None if eid < 0 else self._elem_of[eid]

    def kinds(self) -> Sequence[int]:
        return tuple(_MASK_KIND_TABLE[self._masks].tolist())

    def slots(self) -> Sequence[Hashable | None]:
        """Physical contents, one entry per slot (``None`` = no element)."""
        elem_of = self._elem_of
        return tuple(None if eid < 0 else elem_of[eid] for eid in self._eid_buf)

    def elements(self) -> list[Hashable]:
        """All stored elements in physical (= rank) order."""
        elem_of = self._elem_of
        eids = self._eid[np.flatnonzero(self._masks & BIT_REAL)]
        return [elem_of[eid] for eid in eids.tolist()]

    def position_of(self, element: Hashable) -> int:
        eid = self._id_of.get(element, -1)
        if eid >= 0:
            position = self._pos[eid]
            if position >= 0:
                return position
        raise KeyError(f"element {element!r} is not stored")

    def contains(self, element: Hashable) -> bool:
        eid = self._id_of.get(element, -1)
        return eid >= 0 and self._pos[eid] >= 0

    @property
    def element_count(self) -> int:
        return self._tot[LANE_REAL]

    def element_at_rank(self, rank: int) -> Hashable:
        """The ``rank``-th (1-based) stored element."""
        position = self._select(LANE_REAL, rank)
        eid = self._eid_buf[position]
        assert eid >= 0
        return self._elem_of[eid]

    def elements_at_ranks(self, ranks: Sequence[int]) -> list[Hashable]:
        """The stored elements at a whole batch of 1-based ranks.

        One masked ``flatnonzero`` enumerates every occupied position, one
        fancy-indexed gather answers the batch — ``O(m + k)`` for ``k``
        lookups instead of ``k`` independent selects.
        """
        positions = np.flatnonzero(self._masks & BIT_REAL)
        idx = np.asarray(ranks, dtype=np.int64) - 1
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= positions.size):
            raise IndexError(f"rank batch out of range (total={positions.size})")
        elem_of = self._elem_of
        return [elem_of[eid] for eid in self._eid[positions[idx]].tolist()]

    def position_of_rank(self, rank: int) -> int:
        """Physical position of the ``rank``-th (1-based) stored element."""
        return self._select(LANE_REAL, rank)

    def iter_elements_from(self, rank: int) -> Iterator[Hashable]:
        """Lazily yield the stored elements of ranks ``rank, rank+1, …``."""
        if rank > self._tot[LANE_REAL]:
            return
        eids = self._eid_buf
        elem_of = self._elem_of
        for position in range(self._select(LANE_REAL, rank), self._m):
            eid = eids[position]
            if eid >= 0:
                yield elem_of[eid]

    # ------------------------------------------------------------------
    # Counting helpers
    # ------------------------------------------------------------------
    def real_between(self, lo: int, hi: int) -> int:
        """Number of stored elements at positions in ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self._range_count(LANE_REAL, lo, hi - 1)

    def nonempty_between(self, lo: int, hi: int) -> int:
        """Number of non-``R_EMPTY`` slots at positions in ``[lo, hi)``."""
        if hi <= lo:
            return 0
        return self._range_count(LANE_NONEMPTY, lo, hi - 1)

    def token_rank(self, position: int) -> int:
        """1-based R-shell rank of the (non-empty) slot at ``position``."""
        if not self._mask_buf[position] & BIT_NONEMPTY:
            raise ValueError(f"slot {position} is an R-empty slot, not a token")
        return self._prefix(LANE_NONEMPTY, position) + 1

    @property
    def f_slot_count(self) -> int:
        return self._tot[LANE_F]

    @property
    def buffer_count(self) -> int:
        return self._tot[LANE_NONEMPTY] - self._tot[LANE_F]

    @property
    def dummy_buffer_count(self) -> int:
        return self._tot[LANE_DUMMY]

    @property
    def buffered_element_count(self) -> int:
        """Number of real elements currently living in buffer slots."""
        return self.buffer_count - self.dummy_buffer_count

    # ------------------------------------------------------------------
    # F-coordinate translation
    # ------------------------------------------------------------------
    def f_position(self, f_index: int) -> int:
        """Physical position of the ``f_index``-th (0-based) F-slot."""
        return self._select(LANE_F, f_index + 1)

    def f_index_of(self, position: int) -> int:
        """0-based F-index of the F-slot at ``position``."""
        if not self._mask_buf[position] & BIT_F:
            raise ValueError(f"slot {position} is not an F-slot")
        return self._prefix(LANE_F, position)

    def f_contents(self) -> list[Hashable | None]:
        """Contents of the F-slots in F-order (the array ``Ẽ_F`` of Section 3)."""
        elem_of = self._elem_of
        eids = self._eid[np.flatnonzero(self._masks & BIT_F)]
        return [None if eid < 0 else elem_of[eid] for eid in eids.tolist()]

    # ------------------------------------------------------------------
    # Dummy-buffer queries (needed by the slow path, Lemma 4 compatible)
    # ------------------------------------------------------------------
    def nearest_dummy_buffer(self, position: int) -> int | None:
        """Position of the dummy buffer slot nearest to ``position``.

        "Nearest" is measured in *truncated-state order* (number of non-empty
        slots in between), which depends only on the truncated state ``T`` and
        therefore keeps the R-shell's input independent of its random bits
        (Lemma 4).  Ties prefer the left neighbour.
        """
        total = self._tot[LANE_DUMMY]
        if total == 0:
            return None
        before = self._prefix(LANE_DUMMY, position + 1)
        left = self._select(LANE_DUMMY, before) if before > 0 else None
        right = self._select(LANE_DUMMY, before + 1) if before < total else None
        if left is None:
            return right
        if right is None:
            return left
        left_distance = self.nonempty_between(left, position + 1)
        right_distance = self.nonempty_between(position, right + 1)
        return left if left_distance <= right_distance else right

    # ------------------------------------------------------------------
    # Low-level mutation (records moves, keeps every index consistent)
    # ------------------------------------------------------------------
    def _record(self, element: Hashable, source: int | None, destination: int | None) -> None:
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, source, destination))
            else:
                sink.record(element, source, destination)

    def set_kind(self, position: int, kind: int) -> None:
        """Relabel a slot (free of charge — no element moves)."""
        self._set_mask(position, KIND_MASKS[kind][self._eid_buf[position] >= 0])

    def put_element(self, position: int, element: Hashable, *, deadweight: bool = False) -> None:
        """Place ``element`` into the empty slot at ``position`` (cost 1)."""
        eids = self._eid_buf
        if eids[position] >= 0:
            raise InvariantViolation(
                f"slot {position} already holds {self._elem_of[eids[position]]!r}"
            )
        eid = self._intern(element)
        eids[position] = eid
        self._pos[eid] = position
        self._set_mask(
            position, (self._mask_buf[position] | BIT_REAL) & ~BIT_DUMMY
        )
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, None, position))
            else:
                sink.record(element, None, position)
        if deadweight:
            self._note_deadweight(element)

    def take_element(self, position: int) -> Hashable:
        """Remove and return the element at ``position`` (cost 0)."""
        eids = self._eid_buf
        eid = eids[position]
        if eid < 0:
            raise InvariantViolation(f"slot {position} holds no element")
        element = self._elem_of[eid]
        eids[position] = -1
        self._pos[eid] = -1
        self._elem_of[eid] = None
        del self._id_of[element]
        self._free_ids.append(eid)
        mask = self._mask_buf[position] & ~BIT_REAL
        if mask & BIT_NONEMPTY and not mask & BIT_F:
            mask |= BIT_DUMMY
        self._set_mask(position, mask)
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, position, None))
            else:
                sink.record(element, position, None)
        return element

    def move_element(self, src: int, dst: int, *, deadweight: bool = False) -> None:
        """Move the element at ``src`` to the element-free slot ``dst`` (cost 1).

        The lane updates are inlined rather than routed through
        :meth:`_set_mask`: an element move can only change the REAL and
        DUMMY lanes (kind labels stay put), so the bookkeeping is two word
        XORs plus the conditional dummy flips.
        """
        if src == dst:
            return
        eids = self._eid_buf
        eid = eids[src]
        if eid < 0:
            raise InvariantViolation(f"slot {src} holds no element")
        if eids[dst] >= 0:
            raise InvariantViolation(f"slot {dst} already holds an element")
        eids[src] = -1
        eids[dst] = eid
        self._pos[eid] = dst
        buf = self._mask_buf
        words = self._words
        fingers = self._fingers
        tot = self._tot
        mask = buf[src] & ~BIT_REAL
        if mask & BIT_NONEMPTY and not mask & BIT_F:
            mask |= BIT_DUMMY
            words[LANE_DUMMY][src >> 6] ^= 1 << (src & 63)
            tot[LANE_DUMMY] += 1
            fingers[LANE_DUMMY] = None
        buf[src] = mask
        words[LANE_REAL][src >> 6] ^= 1 << (src & 63)
        old_dst = buf[dst]
        if old_dst & BIT_DUMMY:
            words[LANE_DUMMY][dst >> 6] ^= 1 << (dst & 63)
            tot[LANE_DUMMY] -= 1
            fingers[LANE_DUMMY] = None
        buf[dst] = (old_dst | BIT_REAL) & ~BIT_DUMMY
        words[LANE_REAL][dst >> 6] ^= 1 << (dst & 63)
        fingers[LANE_REAL] = None
        element = self._elem_of[eid]
        sink = self.move_sink
        if sink is not None:
            if isinstance(sink, list):
                sink.append(Move(element, src, dst))
            else:
                sink.record(element, src, dst)
        if deadweight:
            self._note_deadweight(element)

    def _note_deadweight(self, element: Hashable) -> None:
        self.total_deadweight_moves += 1
        self.deadweight_by_element[element] = (
            self.deadweight_by_element.get(element, 0) + 1
        )

    # ------------------------------------------------------------------
    # Initialization
    # ------------------------------------------------------------------
    def initialize_kinds(self, positions_and_kinds: Iterable[tuple[int, int]]) -> None:
        """Bulk-set the slot kinds at construction time (no cost recorded).

        Large unique batches (the whole-array layouts the embedding and the
        trace replayer emit) are applied as one fancy-indexed mask write
        followed by a vectorized bitboard rebuild; small or duplicated
        batches fall back to the per-slot path.
        """
        pairs = list(positions_and_kinds)
        if len(pairs) < 256:
            for position, kind in pairs:
                self.set_kind(position, kind)
            return
        positions = np.fromiter(
            (pair[0] for pair in pairs), dtype=np.int64, count=len(pairs)
        )
        if np.unique(positions).size != positions.size:
            for position, kind in pairs:
                self.set_kind(position, kind)
            return
        kinds = np.fromiter(
            (pair[1] for pair in pairs), dtype=np.int64, count=len(pairs)
        )
        has = (self._eid[positions] >= 0).astype(np.int64)
        self._masks[positions] = _KIND_MASK_TABLE[kinds * 2 + has]
        self._rebuild_lanes()

    # ------------------------------------------------------------------
    # The R-shell primitive: replay shell moves
    # ------------------------------------------------------------------
    def apply_shell_moves(self, moves: Iterable[Move]) -> int:
        """Replay a move sequence of the R-shell on the physical array.

        Same contract as the slab backend: slots travel with their contents,
        placements create fresh ``BUFFER`` slots, removals revert to
        ``R_EMPTY``, and the return value counts the *real element* moves.
        """
        if self._obs_enabled:
            self._obs_shell_moves.inc()
        cost = 0
        lifted: dict[Hashable, tuple[int, Hashable | None]] = {}
        buf = self._mask_buf
        eids = self._eid_buf
        for move in moves:
            if move.is_placement:
                position = move.destination
                if buf[position] & BIT_NONEMPTY:
                    raise InvariantViolation(
                        f"R-shell placed a token on non-empty slot {position}"
                    )
                if move.element in lifted:
                    # A token the shell removed earlier in this very operation
                    # (remove-and-replace rebalancing): restore its content.
                    kind, element = lifted.pop(move.element)
                    self.set_kind(position, kind)
                    if element is not None:
                        self.put_element(position, element)
                        cost += 1
                else:
                    self.set_kind(position, BUFFER)
                continue
            if move.is_removal:
                position = move.source
                if not buf[position] & BIT_NONEMPTY:
                    raise InvariantViolation(
                        f"R-shell removed a token from empty slot {position}"
                    )
                kind = MASK_KIND[buf[position]]
                carried = None if eids[position] < 0 else self._elem_of[eids[position]]
                if carried is not None:
                    # Token removed while carrying an element: the shell is
                    # doing a remove-and-replace rebalance; lift the content
                    # and wait for the matching placement.
                    self.take_element(position)
                lifted[move.element] = (kind, carried)
                self.set_kind(position, R_EMPTY)
                continue
            src, dst = move.source, move.destination
            if buf[dst] & BIT_NONEMPTY:
                raise InvariantViolation(
                    f"R-shell moved a token onto non-empty slot {dst}"
                )
            kind = MASK_KIND[buf[src]]
            eid = eids[src]
            if eid >= 0:
                eids[src] = -1
                eids[dst] = eid
                self._pos[eid] = dst
                self._record(self._elem_of[eid], src, dst)
                cost += 1
            self._set_mask(src, 0)
            self._set_mask(dst, KIND_MASKS[kind][eid >= 0])
        return cost

    # ------------------------------------------------------------------
    # The F-emulator primitive: chain moves with deadweight (Figure 2)
    # ------------------------------------------------------------------
    def chain_positions(self, lo: int, hi: int) -> list[int]:
        """Non-``R_EMPTY`` positions in ``[lo, hi]`` in increasing order.

        One masked ``flatnonzero`` over the span — vectorized, so neither
        the dense-scan nor the select-walk dispatch of the other backends
        is needed.
        """
        hits = np.flatnonzero(self._masks[lo : hi + 1] & BIT_NONEMPTY)
        if lo:
            hits = hits + lo
        return hits.tolist()

    def chain_move(self, source: int, target_f_index: int) -> int:
        """Move the element at ``source`` so it occupies F-index ``target_f_index``.

        Identical contract (and identical move log) to the other backends'
        ``chain_move``: buffered elements physically in between shift by one
        chain position each (the deadweight moves of Figure 2) and slot
        kinds are relabelled so the element reads at exactly
        ``target_f_index`` while the R-shell's occupied set is unchanged.

        Returns the cost (1 + number of deadweight moves); 0 when the element
        is already in place.
        """
        eids = self._eid_buf
        if eids[source] < 0:
            raise InvariantViolation(f"slot {source} holds no element")
        target_pos = self._select(LANE_F, target_f_index + 1)
        if target_pos == source:
            return 0
        if eids[target_pos] >= 0:
            raise InvariantViolation(
                f"target F-slot {target_f_index} (position {target_pos}) is occupied"
            )
        if self._obs_enabled:
            self._obs_chain_moves.inc()
        rightward = source < target_pos
        lo, hi = (source, target_pos) if rightward else (target_pos, source)
        # Steady-state fast path: the span's only element is the source and
        # every token in it is an F-slot, so the whole chain move collapses
        # to one element move — no deadweight, and the relabel is the
        # identity (the remaining F-labels already sit on the remaining
        # chain positions, whichever direction the move goes).  The one- and
        # two-word spans the workload fast path produces are tested with
        # inline window popcounts; wider spans pay the generic range counts.
        words = self._words
        wlo = lo >> 6
        whi = hi >> 6
        if wlo == whi:
            window = ((1 << (hi - lo + 1)) - 1) << (lo & 63)
            real = words[LANE_REAL][wlo] & window
            fast = not real & (real - 1) and (
                (words[LANE_NONEMPTY][wlo] & window)
                == (words[LANE_F][wlo] & window)
            )
        elif whi - wlo == 1:
            head = -(1 << (lo & 63))
            tail = (1 << ((hi & 63) + 1)) - 1
            fast = (
                (words[LANE_REAL][wlo] & head).bit_count()
                + (words[LANE_REAL][whi] & tail).bit_count()
                == 1
                and (words[LANE_NONEMPTY][wlo] & head)
                == (words[LANE_F][wlo] & head)
                and (words[LANE_NONEMPTY][whi] & tail)
                == (words[LANE_F][whi] & tail)
            )
        else:
            fast = (
                self._range_count(LANE_REAL, lo, hi) == 1
                and self._range_count(LANE_F, lo, hi)
                == self._range_count(LANE_NONEMPTY, lo, hi)
            )
        if fast:
            # Both endpoints are F-slots and no dummy is involved, so the
            # move is two REAL-lane XORs — inlined, nothing else changes.
            eid = eids[source]
            eids[source] = -1
            eids[target_pos] = eid
            self._pos[eid] = target_pos
            buf = self._mask_buf
            buf[source] ^= BIT_REAL
            buf[target_pos] |= BIT_REAL
            words[LANE_REAL][source >> 6] ^= 1 << (source & 63)
            words[LANE_REAL][target_pos >> 6] ^= 1 << (target_pos & 63)
            self._fingers[LANE_REAL] = None
            sink = self.move_sink
            if sink is not None:
                if isinstance(sink, list):
                    sink.append(Move(self._elem_of[eid], source, target_pos))
                else:
                    sink.record(self._elem_of[eid], source, target_pos)
            return 1
        if hi - lo <= _CHAIN_SCAN_CUTOFF:
            return self._chain_move_scan(lo, hi, rightward)
        return self._chain_move_sweep(lo, hi, rightward)

    def _chain_move_scan(self, lo: int, hi: int, rightward: bool) -> int:
        """Seed-parity chain move over a short span: one slab scan collects
        the chain, its elements and the F-label count, then the seed's move
        and relabel logic runs on the materialized chain."""
        buf = self._mask_buf
        chain: list[int] = []
        reals: list[int] = []
        f_count = 0
        for position in range(lo, hi + 1):
            mask = buf[position]
            if mask & BIT_NONEMPTY:
                chain.append(position)
                if mask & BIT_F:
                    f_count += 1
                if mask & BIT_REAL:
                    reals.append(position)
        return self._chain_execute(lo, hi, rightward, chain, reals, f_count)

    def _chain_move_sweep(self, lo: int, hi: int, rightward: bool) -> int:
        """Chain move over a wide span: masked ``flatnonzero`` sweeps find
        the chain and its elements in one vectorized pass each."""
        span = self._masks[lo : hi + 1]
        chain_np = np.flatnonzero(span & BIT_NONEMPTY)
        reals_np = np.flatnonzero(span & BIT_REAL)
        if lo:
            chain_np = chain_np + lo
            reals_np = reals_np + lo
        f_count = int(np.count_nonzero(span & BIT_F))
        return self._chain_execute(
            lo, hi, rightward, chain_np.tolist(), reals_np.tolist(), f_count
        )

    def _chain_execute(
        self,
        lo: int,
        hi: int,
        rightward: bool,
        chain: list[int],
        reals: list[int],
        f_count: int,
    ) -> int:
        cost = 0
        if rightward:
            if reals[0] != lo:
                raise InvariantViolation(
                    "chain_move source must be the leftmost element"
                )
            source = lo
            suffix = chain[len(chain) - len(reals):]
            for old, new in zip(reversed(reals), reversed(suffix)):
                if old != new:
                    self.move_element(old, new, deadweight=(old != source))
                    cost += 1
            element_pos = suffix[0]
        else:
            if reals[-1] != hi:
                raise InvariantViolation(
                    "chain_move source must be the rightmost element"
                )
            source = hi
            prefix = chain[: len(reals)]
            for old, new in zip(reals, prefix):
                if old != new:
                    self.move_element(old, new, deadweight=(old != source))
                    cost += 1
            element_pos = prefix[-1]
        # Relabel: the moved element's slot becomes an F-slot; the remaining
        # F-labels go to the earliest chain positions (rightward move) or
        # the latest (leftward), exactly as in the other backends — the
        # degenerate case where the label budget exceeds the chain's buffer
        # count included (the element then lands inside the all-F interval).
        others = [position for position in chain if position != element_pos]
        if rightward:
            f_positions = set(others[: f_count - 1])
        else:
            f_positions = set(others[len(others) - (f_count - 1):])
        f_positions.add(element_pos)
        buf = self._mask_buf
        flips = 0
        for position in chain:
            desired = F_SLOT if position in f_positions else BUFFER
            if MASK_KIND[buf[position]] != desired:
                self.set_kind(position, desired)
                flips += 1
        if self._obs_enabled and flips:
            self._obs_relabel_flips.inc(flips)
        return cost

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def check_consistency(self, key: Callable[[Hashable], object] | None = None) -> None:
        """Raise :class:`InvariantViolation` if any structural invariant fails."""
        previous = None
        buf = self._mask_buf
        for position, eid in enumerate(self._eid_buf):
            if eid < 0:
                continue
            element = self._elem_of[eid]
            if not buf[position] & BIT_NONEMPTY:
                raise InvariantViolation(
                    f"element {element!r} stored in an R-empty slot {position}"
                )
            value = key(element) if key is not None else element
            if previous is not None and not value > previous:
                raise InvariantViolation(
                    f"physical order violated at slot {position}: {value!r} after {previous!r}"
                )
            previous = value
            if self._pos[eid] != position:
                raise InvariantViolation(
                    f"position index out of date for element {element!r}"
                )
            if self._id_of.get(element) != eid:
                raise InvariantViolation(
                    f"interning table out of date for element {element!r}"
                )
            if not buf[position] & BIT_REAL:
                raise InvariantViolation(
                    f"occupied slot {position} missing from the element index"
                )
        for lane in range(NUM_LANES):
            actual = int(np.count_nonzero(self._masks & (1 << lane)))
            if actual != self._tot[lane]:
                raise InvariantViolation(
                    f"lane {lane} total out of date: {self._tot[lane]} != {actual}"
                )
            board = int(np.bitwise_count(self._words_np[lane]).sum())
            if board != actual:
                raise InvariantViolation(
                    f"lane {lane} bitboard out of date: {board} != {actual}"
                )
