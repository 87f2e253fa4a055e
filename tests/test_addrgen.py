"""Unit tests for the address-stream generators."""

import random
import tracemalloc

import pytest

from repro.workload.addrgen import (
    PointerChaseStream,
    RandomStream,
    StackStream,
    StridedStream,
    paired_streams,
)


class TestStridedStream:
    def test_sequence(self):
        stream = StridedStream(base=1000, stride=8, footprint=32)
        assert [stream.next_address() for _ in range(5)] == \
            [1000, 1008, 1016, 1024, 1000]

    def test_reset(self):
        stream = StridedStream(base=0, stride=8, footprint=64)
        first = [stream.next_address() for _ in range(10)]
        stream.reset()
        assert [stream.next_address() for _ in range(10)] == first

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StridedStream(base=0, stride=0, footprint=64)
        with pytest.raises(ValueError):
            StridedStream(base=0, stride=64, footprint=32)


class TestRandomStream:
    def test_deterministic_per_seed(self):
        a = RandomStream(base=0, footprint=4096, seed=7)
        b = RandomStream(base=0, footprint=4096, seed=7)
        assert [a.next_address() for _ in range(50)] == \
            [b.next_address() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = RandomStream(base=0, footprint=1 << 20, seed=1)
        b = RandomStream(base=0, footprint=1 << 20, seed=2)
        assert [a.next_address() for _ in range(20)] != \
            [b.next_address() for _ in range(20)]

    def test_addresses_in_range_and_aligned(self):
        stream = RandomStream(base=0x1000, footprint=4096, align=64, seed=3)
        for _ in range(200):
            addr = stream.next_address()
            assert 0x1000 <= addr < 0x1000 + 4096
            assert addr % 64 == 0

    def test_reset(self):
        stream = RandomStream(base=0, footprint=4096, seed=11)
        first = [stream.next_address() for _ in range(20)]
        stream.reset()
        assert [stream.next_address() for _ in range(20)] == first


class TestPointerChaseStream:
    def test_visits_every_slot_before_repeating(self):
        stream = PointerChaseStream(base=0, footprint=64 * 16, align=64,
                                    seed=5)
        seen = [stream.next_address() for _ in range(16)]
        assert len(set(seen)) == 16
        # The 17th address restarts the cycle.
        assert stream.next_address() == seen[0]

    def test_deterministic(self):
        a = PointerChaseStream(base=0, footprint=64 * 32, seed=9)
        b = PointerChaseStream(base=0, footprint=64 * 32, seed=9)
        assert [a.next_address() for _ in range(40)] == \
            [b.next_address() for _ in range(40)]

    def test_rejects_tiny_region(self):
        with pytest.raises(ValueError):
            PointerChaseStream(base=0, footprint=64, align=64)

    @pytest.mark.parametrize("slots", [2, 3, 4, 5, 31, 32, 33, 1023, 1024,
                                       1025, 5000])
    @pytest.mark.parametrize("seed", [0, 1, 9, 0x7FFFFFFF])
    def test_walk_is_random_shuffle_of_slots(self, slots, seed):
        """The inline shuffle is ``random.Random.shuffle``, bit for bit:
        every mcf trace and golden statistic rests on this order."""
        expected = list(range(slots))
        random.Random(seed).shuffle(expected)
        stream = PointerChaseStream(base=0, footprint=slots, align=1,
                                    seed=seed)
        assert [stream.next_address() for _ in range(slots)] == expected

    def test_walk_wraps_after_mid_walk_reset(self):
        slots = 33
        stream = PointerChaseStream(base=0x1000, footprint=64 * slots,
                                    align=64, seed=3)
        cycle = [stream.next_address() for _ in range(slots)]
        for _ in range(10):
            stream.next_address()
        stream.reset()
        walked = [stream.next_address() for _ in range(2 * slots + 5)]
        assert walked == cycle + cycle + cycle[:5]

    def test_large_region_build_memory_is_bounded(self):
        """A 24 MiB mcf region (393,216 slots) peaks within 4 MiB: the
        permutation is one compact array, with no successor table."""
        tracemalloc.start()
        try:
            stream = PointerChaseStream(0, 24 << 20, align=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stream.next_address() % 64 == 0
        assert peak <= 4 << 20


class TestStackStream:
    def test_addresses_within_window(self):
        stream = StackStream(base=0x100, slots=8, align=8, seed=1)
        for _ in range(100):
            addr = stream.next_address()
            assert 0x100 <= addr < 0x100 + 8 * 8

    def test_reset(self):
        stream = StackStream(base=0, slots=16, seed=2)
        first = [stream.next_address() for _ in range(30)]
        stream.reset()
        assert [stream.next_address() for _ in range(30)] == first


class TestPairedStreams:
    def test_lag_zero_matches_exactly(self):
        factory = lambda: StackStream(base=0, slots=16, seed=4)  # noqa: E731
        producer, consumer = paired_streams(factory, lag=0)
        for _ in range(50):
            assert producer.next_address() == consumer.next_address()

    def test_lag_shifts_producer_ahead(self):
        factory = lambda: StridedStream(base=0, stride=8, footprint=1 << 16)  # noqa: E731
        producer, consumer = paired_streams(factory, lag=3)
        produced = [producer.next_address() for _ in range(10)]
        consumed = [consumer.next_address() for _ in range(10)]
        # consumer's value at step i equals producer's at step i - 3
        assert consumed[3:] == [p - 24 for p in produced[3:]]
        assert consumed[0] == 0

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            paired_streams(lambda: StackStream(0), lag=-1)
