"""On-chip buffer management (paper contribution 2: memory allocation reuse).

The accelerator stages weight tiles and activations in a pool of on-chip
buffer segments (BRAM/URAM).  The paper's memory reuse strategy recycles
each segment *as soon as* its data has been consumed ("cyclic or loop-back
use of memory … without waiting for all processing to conclude").  The
baseline it is compared against behaves like a conventional
statically-double-buffered design: segments are handed out from a fixed
pool and only returned in bulk once the whole pool has drained, paying a
flush/reallocation penalty each time.

:class:`BufferPool` is where that policy lives, behind one interface so
the pipeline executor is policy-agnostic:

* ``reuse=True``  — a released segment is free again at its release.
* ``reuse=False`` — released segments are parked as *retired*; only when
  every segment of the pool is retired does a flush (costing
  ``reuse_flush_cycles``) free them all.

The pool has no clock.  Segments are interchangeable, so it is a free
count plus a heap of *pending* releases, each named by the key of the
moment it happens (see :mod:`repro.accel.pipeline`: a tuple whose first
element is the cycle and whose order is the order of events).  The
executor posts releases as it learns them and :meth:`BufferPool.acquire`
applies them in key order up to the moment of the request.

For the executor's fast-forward the pool also reports its
:meth:`~BufferPool.state` relative to a cycle (counts, and the pending
releases as offsets) and can :meth:`~BufferPool.fast_forward`: take the
counts and pending releases of a state reached later and the flushes
started on the way there.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable, List, Optional, Tuple

from .config import BufferConfig

__all__ = ["BufferPool", "NEVER"]

#: a key after every event (cycles are integers)
NEVER: Tuple = (float("inf"),)


class BufferPool:
    """Segment allocator with configurable reuse policy."""

    def __init__(self, config: BufferConfig, reuse: bool) -> None:
        self.config = config
        self.reuse = reuse
        self.free_segments = config.n_segments
        self._retired = 0
        # (key, ends a flush): releases not yet applied, and flush ends
        self._pending: List[Tuple[Tuple, bool]] = []
        #: one ``(key of the flush end, start cycle)`` per flush started
        self.flushes: List[Tuple[Tuple, int]] = []

    @property
    def n_flushes(self) -> int:
        return len(self.flushes)

    # ------------------------------------------------------------------
    def release(self, key: Tuple) -> None:
        """Post the return of one segment at the moment ``key``."""
        heappush(self._pending, (key, False))

    def acquire(self, at: Tuple, before: Tuple = NEVER) -> Optional[Tuple]:
        """Take one segment for a request made at the moment ``at``.

        Returns the key of the moment the requester holds it: ``(cycle,
        at, 0)`` if one is free once every release before ``at`` has been
        applied, else ``(cycle, key, 1)`` for the first later release —
        the flush end, without reuse — that frees one.  Only releases
        before ``before`` are final; if the grant does not happen by then
        the answer is ``None``, nothing is taken, and the call can be
        repeated with a later ``before``.
        """
        self.settle(at)
        if self.free_segments:
            self.free_segments -= 1
            return (at[0], at, 0)
        pending = self._pending
        while pending and pending[0][0] < before:
            key = self._apply_next()
            if self.free_segments:
                self.free_segments -= 1
                return (key[0], key, 1)
        return None

    def settle(self, before: Tuple = NEVER) -> None:
        """Apply every pending release (and flush end) before ``before``."""
        pending = self._pending
        while pending and pending[0][0] < before:
            self._apply_next()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[Tuple[Tuple, bool]]:
        """``(key, ends a flush)`` of every release not yet applied, as a heap."""
        return self._pending

    def state(self, now: int) -> Tuple:
        """The free and retired counts and the pending releases as
        ``(cycle - now, ends a flush)``, sorted: what, with the keys'
        order, decides every later grant."""
        return (self.free_segments, self._retired,
                tuple(sorted([(key[0] - now, ends) for key, ends in self._pending])))

    def fast_forward(self, free: int, retired: int, pending: List[Tuple[Tuple, bool]],
                     flushes: Iterable[Tuple[Tuple, int]]) -> None:
        """Jump to a later state: ``free`` and ``retired`` segments, the
        releases ``pending`` (any order) and, appended, the ``flushes``
        started on the way — what :meth:`state` and :attr:`flushes` read
        of the pool the executor copies the jump from, shifted."""
        self.free_segments, self._retired = free, retired
        self._pending[:] = sorted(pending)
        self.flushes.extend(flushes)

    # ------------------------------------------------------------------
    def _apply_next(self) -> Tuple:
        key, ends_flush = heappop(self._pending)
        if ends_flush:
            self.free_segments = self.config.n_segments
            self._retired = 0
        elif self.reuse:
            self.free_segments += 1
        else:
            # No-reuse policy: park until the whole pool has drained, then
            # model its bulk reallocation.
            self._retired += 1
            if self._retired == self.config.n_segments:
                end = (key[0] + self.config.reuse_flush_cycles, key, 1)
                self.flushes.append((end, key[0]))
                heappush(self._pending, (end, True))
        return key
