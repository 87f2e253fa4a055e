"""Address-stream generators for synthetic workloads.

Each static memory instruction in a synthetic program draws its
effective addresses from one of these streams.  The streams model the
locality classes that matter to the paper's mechanisms:

* :class:`StridedStream` — array sweeps (dense spatial locality; L1/L2
  behaviour controlled by the footprint).
* :class:`RandomStream` — uniformly random accesses over a region
  (controls miss rate through region size).
* :class:`PointerChaseStream` — a seeded random permutation walked one
  element at a time (mcf/art-style dependent misses).
* :class:`StackStream` — a small, heavily reused window (store-to-load
  forwarding hot spots).

All streams are deterministic given their seed so traces are
reproducible.
"""

from __future__ import annotations

import random
from array import array


class AddressStream:
    """Base class: an infinite, deterministic sequence of addresses."""

    def next_address(self) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind the stream to its initial state."""
        raise NotImplementedError


class StridedStream(AddressStream):
    """Linear sweep ``base, base+stride, ...`` wrapping at ``footprint``."""

    def __init__(self, base: int, stride: int, footprint: int) -> None:
        if stride <= 0 or footprint <= 0:
            raise ValueError("stride and footprint must be positive")
        if footprint < stride:
            raise ValueError("footprint must cover at least one stride")
        self.base = base
        self.stride = stride
        self.footprint = footprint
        self._offset = 0

    def next_address(self) -> int:
        addr = self.base + self._offset
        self._offset = (self._offset + self.stride) % self.footprint
        return addr

    def reset(self) -> None:
        self._offset = 0


class RandomStream(AddressStream):
    """Uniform random addresses in ``[base, base+footprint)``, aligned."""

    def __init__(self, base: int, footprint: int, align: int = 8,
                 seed: int = 0) -> None:
        if footprint < align:
            raise ValueError("footprint must hold at least one element")
        self.base = base
        self.footprint = footprint
        self.align = align
        self.seed = seed
        self._rng = random.Random(seed)

    def next_address(self) -> int:
        slots = self.footprint // self.align
        return self.base + self._rng.randrange(slots) * self.align

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


class PointerChaseStream(AddressStream):
    """Walk a seeded random permutation of ``footprint // align`` slots.

    Successive addresses are data-dependent in real pointer chasing; the
    synthetic program models that by making the chasing load feed the
    next iteration's address register.

    The permutation is exactly ``random.Random(seed).shuffle`` of
    ``range(slots)``, and the walk visits it in order, wrapping at
    ``slots``: every slot is covered before any repeats.  The shuffle
    runs inline (see :func:`_shuffled_slots`) on a compact array; a
    trace walks a few hundred of the slots, but the walk starts at
    ``order[0]``, the slot the backward shuffle fixes last, so the whole
    shuffle still has to run.
    """

    def __init__(self, base: int, footprint: int, align: int = 8,
                 seed: int = 0) -> None:
        slots = footprint // align
        if slots < 2:
            raise ValueError("pointer chase needs at least two slots")
        self.base = base
        self.align = align
        self.seed = seed
        self._order = _shuffled_slots(slots, seed)
        self._index = 0

    def next_address(self) -> int:
        addr = self.base + self._order[self._index] * self.align
        self._index = (self._index + 1) % len(self._order)
        return addr

    def reset(self) -> None:
        self._index = 0


def _shuffled_slots(slots: int, seed: int) -> array[int]:
    """``random.Random(seed).shuffle(list(range(slots)))``, bit for bit.

    CPython's Fisher-Yates, inlined: for ``i`` from ``slots - 1`` down
    to 1, draw ``j`` uniformly from ``[0, i]`` by rejection sampling
    ``getrandbits((i + 1).bit_length())``, then swap.  The bit length is
    constant over each power-of-two block of ``i + 1``, so it is taken
    once per block.  Slots are held as 4-byte ints rather than Python
    int objects.
    """
    getrandbits = random.Random(seed).getrandbits
    order = array("I", range(slots))
    top = slots - 1
    while top > 0:
        bits = (top + 1).bit_length()
        low = 1 << (bits - 1)       # smallest i + 1 with this bit length
        for i in range(top, low - 2, -1):
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            order[i], order[j] = order[j], order[i]
        top = low - 2
    return order


class StackStream(AddressStream):
    """Hot reuse of a handful of slots (spill/fill style traffic).

    Addresses cycle pseudo-randomly through ``slots`` aligned locations,
    so a store and a later load using the same stream at the same phase
    hit identical addresses — the raw material for store-to-load
    forwarding.
    """

    def __init__(self, base: int, slots: int = 8, align: int = 8,
                 seed: int = 0) -> None:
        if slots <= 0:
            raise ValueError("slots must be positive")
        self.base = base
        self.slots = slots
        self.align = align
        self.seed = seed
        self._rng = random.Random(seed)

    def next_address(self) -> int:
        return self.base + self._rng.randrange(self.slots) * self.align

    def reset(self) -> None:
        self._rng = random.Random(self.seed)


def paired_streams(factory, lag: int = 0):
    """Create a (producer, consumer) pair of identical streams.

    ``factory()`` must build a fresh, deterministic stream.  The producer
    (typically a store) is pre-advanced by ``lag`` addresses, so when
    producer and consumer are stepped once per loop iteration the
    consumer's address in iteration *i* equals the producer's address in
    iteration *i - lag*: the load reads what the store wrote ``lag``
    iterations ago — an in-flight store-load pair whenever ``lag``
    iterations fit in the instruction window.
    """
    if lag < 0:
        raise ValueError("lag must be >= 0")
    producer = factory()
    consumer = factory()
    for _ in range(lag):
        producer.next_address()
    return producer, consumer
