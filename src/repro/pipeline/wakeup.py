"""The memory stage's wake index: blocked entries parked on their blocker.

A memory op the LSQ refuses to start (``LoadStoreQueue.load_blocked`` /
``store_blocked``) stays refused until one specific event: the store it
waits for executes, an older barrier completes, or the non-issued load
pointer (NILP) reaches it.  Instead of re-asking every cycle, the
processor parks the entry here, keyed by that event, and takes it back
when the event happens.  The woken entry re-asks the LSQ, so the LSQ
(or a fault patched onto it) still decides the outcome; parking only
decides *when* to ask.

A load refused by a full load buffer is not parked: the buffer fills and
drains within most cycles, so the processor re-checks that one gate
(``LoadStoreQueue.load_buffer_refuses``) instead.

The per-cycle charge of a parked load stays per cycle: a load waiting
for its store-set predecessor is charged ``store_set_waits`` for every
cycle whose memory-stage walk would have reached it.
:meth:`WakeIndex.blocked` gives the processor that count.

Everything here is host-side bookkeeping: the structures exist to make
the simulator fast, and sim-lint's SIM-T rules treat them as host-only
sources.  The count :meth:`WakeIndex.blocked` returns is the modelled
answer — how many loads the store-set logic holds back — and is
declared as such below.
"""

from __future__ import annotations

from bisect import insort
from typing import Dict, List, Optional

from repro.pipeline.dyninst import DynInst

#: sim-lint (SIM-T) blessing: the number of loads held back by their
#: store sets is architectural (each is one load the modelled store-set
#: logic refuses this cycle), though read off host indexes.
SIM_LINT_MODEL_VIEWS = frozenset({"blocked"})

#: A memory-stage entry: ``[seq, inst, attempt_cycle, status]``.
Entry = list


class WakeIndex:
    """Parked memory-stage entries, keyed by the event that frees them."""

    __slots__ = ("_stores", "_membar", "_nilp", "_store_order",
                 "_store_set", "_fresh_cycle", "_fresh_store_set")

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        #: store seq -> loads waiting for that store to execute.
        self._stores: Dict[int, List[Entry]] = {}
        #: loads and stores behind an incomplete barrier.
        self._membar: List[Entry] = []
        #: loads waiting for the NILP to reach them (seq-sorted).
        self._nilp: List[Entry] = []
        #: stores behind an older un-executed store of their store set.
        self._store_order: List[Entry] = []
        self._store_set = 0        # parked for "store_set"
        self._fresh_cycle = -1
        self._fresh_store_set = 0  # ... of which parked in _fresh_cycle

    def __len__(self) -> int:
        return (sum(len(entries) for entries in self._stores.values())
                + len(self._membar) + len(self._nilp)
                + len(self._store_order))

    @property
    def nilp_waiting(self) -> bool:
        return bool(self._nilp)

    # -- parking -------------------------------------------------------------

    def park(self, entry: Entry, reason: str, cycle: int,
             store: Optional[DynInst] = None) -> None:
        """Park ``entry``, refused for ``reason`` in ``cycle``.

        ``store`` is the blocking store of a ``"store_set"`` wait.  The
        entry's attempt cycle becomes ``cycle``: it is ripe whenever it
        wakes, and :meth:`blocked` tells parks of this cycle (already
        charged by the refusal itself) from older ones.
        """
        entry[2] = cycle
        entry[3] = reason
        if reason == "store_set":
            assert store is not None
            self._stores.setdefault(store.seq, []).append(entry)
            self._store_set += 1
            if cycle != self._fresh_cycle:
                self._fresh_cycle = cycle
                self._fresh_store_set = 0
            self._fresh_store_set += 1
        elif reason == "in_order":
            insort(self._nilp, entry)
        elif reason == "membar":
            self._membar.append(entry)
        elif reason == "store_store":
            self._store_order.append(entry)
        else:
            raise ValueError(f"cannot park an entry blocked by {reason!r}")

    # -- waking --------------------------------------------------------------

    def store_executed(self, seq: int) -> List[Entry]:
        """Entries freed (or possibly freed) by store ``seq`` executing."""
        woken = self._stores.pop(seq, None) or []
        self._store_set -= len(woken)
        if self._store_order:
            woken = woken + self._store_order
            self._store_order = []
        return woken

    def membar_completed(self) -> List[Entry]:
        woken = self._membar
        self._membar = []
        return woken

    def nilp_moved(self, nilp_seq: Optional[int]) -> List[Entry]:
        """Loads the NILP has reached at ``nilp_seq`` (``None``: no
        non-issued load is left)."""
        nilp = self._nilp
        cut = 0
        while cut < len(nilp) and (nilp_seq is None
                                   or nilp[cut][0] <= nilp_seq):
            cut += 1
        woken = nilp[:cut]
        del nilp[:cut]
        return woken

    def squash_from(self, seq: int) -> List[Entry]:
        """Drop entries with sequence ``>= seq`` and wake all the others:
        after a squash every survivor simply asks the LSQ again."""
        survivors = [entry for entry in self._all() if entry[0] < seq]
        self._clear()
        return survivors

    def _all(self) -> List[Entry]:
        entries: List[Entry] = []
        for waiting in self._stores.values():  # sim-lint: ignore[SIM-D002]
            entries.extend(waiting)
        return entries + self._membar + self._nilp + self._store_order

    # -- charging ------------------------------------------------------------

    def blocked(self, cycle: int, below_seq: Optional[int] = None) -> int:
        """Loads parked on a store-set predecessor before ``cycle``; with
        ``below_seq``, only those older than it (the memory-stage walk
        stopped at ``below_seq`` this cycle)."""
        if below_seq is None:
            if cycle == self._fresh_cycle:
                return self._store_set - self._fresh_store_set
            return self._store_set
        return sum(1 for entry in self._all()
                   if entry[0] < below_seq and entry[2] < cycle
                   and entry[3] == "store_set")
