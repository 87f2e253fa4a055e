"""Tests for the synthetic SPEC2K-like trace generator."""

import collections
import hashlib

import pytest
from dataclasses import replace

from repro.workload.spec2k import (
    ALL_BENCHMARKS,
    SPEC2K_PROFILES,
    BenchmarkProfile,
    profile_for,
)
from repro.workload.isa import OpClass
from repro.workload.synthetic import (
    SyntheticProgram,
    colliding_pc,
    fnv1a,
    generate_trace,
    ssit_index,
)


def small_profile(**overrides):
    base = dict(name="toy", suite="INT", base_ipc=2.0, ooo_loads=1.0,
                lq_occupancy=10, sq_occupancy=5, load_frac=0.25,
                store_frac=0.10, branch_frac=0.10, fp_frac=0.0,
                kernel_size=40, num_kernels=1, loop_trip=16)
    base.update(overrides)
    return BenchmarkProfile(**base)


class TestProfiles:
    def test_eighteen_benchmarks(self):
        assert len(ALL_BENCHMARKS) == 18
        assert len([n for n in ALL_BENCHMARKS
                    if SPEC2K_PROFILES[n].suite == "INT"]) == 9

    def test_lookup(self):
        assert profile_for("mgrid").load_frac == pytest.approx(0.51)
        with pytest.raises(KeyError, match="unknown benchmark"):
            profile_for("doom")

    def test_paper_facts_encoded(self):
        # In-text facts from the paper.
        assert profile_for("mgrid").store_frac == pytest.approx(0.02)
        assert profile_for("vortex").load_frac == pytest.approx(0.18)
        assert profile_for("vortex").store_frac == pytest.approx(0.23)
        assert profile_for("equake").load_frac == pytest.approx(0.42)

    def test_rejects_overfull_mix(self):
        with pytest.raises(ValueError):
            small_profile(load_frac=0.6, store_frac=0.3, branch_frac=0.2)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            small_profile(pair_frac=1.5)


class TestSsitHelpers:
    def test_fnv1a_deterministic(self):
        assert fnv1a("mgrid") == fnv1a("mgrid")
        assert fnv1a("mgrid") != fnv1a("mcf")

    def test_colliding_pc_shares_index(self):
        leader = 0x400100
        for member in range(1, 6):
            other = colliding_pc(leader, member, salt=3)
            assert other != leader
            assert ssit_index(other) == ssit_index(leader)

    def test_colliding_pcs_distinct(self):
        leader = 0x400060
        pcs = {colliding_pc(leader, m, salt=1) for m in range(6)}
        assert len(pcs) == 6


class TestGeneratedMix:
    def test_requested_length(self):
        trace = generate_trace("gzip", n_instructions=3000)
        assert len(trace) == 3000

    def test_mix_matches_profile(self):
        profile = profile_for("gzip")
        stats = generate_trace("gzip", n_instructions=6000).stats()
        assert stats.load_fraction == pytest.approx(profile.load_frac,
                                                    abs=0.05)
        assert stats.store_fraction == pytest.approx(profile.store_frac,
                                                     abs=0.04)
        assert stats.branch_fraction == pytest.approx(profile.branch_frac,
                                                      abs=0.04)

    def test_fp_suite_has_fp_ops(self):
        stats = generate_trace("mgrid", n_instructions=2000).stats()
        assert stats.fp_ops > 0

    def test_int_suite_has_no_fp_compute(self):
        trace = generate_trace("gzip", n_instructions=2000)
        assert all(not inst.op.is_fp or inst.is_memory for inst in trace)

    def test_deterministic_per_seed(self):
        a = generate_trace("parser", n_instructions=1000, seed=1)
        b = generate_trace("parser", n_instructions=1000, seed=1)
        assert list(a) == list(b)

    def test_seeds_differ(self):
        a = generate_trace("parser", n_instructions=1000, seed=1)
        b = generate_trace("parser", n_instructions=1000, seed=2)
        assert list(a) != list(b)

    def test_cold_regions_registered(self):
        trace = generate_trace("mcf", n_instructions=500)
        assert trace.cold_regions
        assert any(trace.is_cold_address(inst.addr)
                   for inst in trace if inst.is_memory)

    def test_every_benchmark_generates(self):
        for name in ALL_BENCHMARKS:
            trace = generate_trace(name, n_instructions=400)
            assert len(trace) == 400


class TestForwardingPairs:
    @staticmethod
    def close_matches(trace, window=64):
        last = {}
        count = 0
        for i, inst in enumerate(trace):
            if inst.is_store:
                last[inst.addr] = i
            elif inst.is_load:
                j = last.get(inst.addr)
                if j is not None and i - j <= window:
                    count += 1
        return count

    def test_pairs_produce_close_matches(self):
        profile = small_profile(pair_frac=0.2)
        trace = SyntheticProgram(profile).emit(4000)
        assert self.close_matches(trace) > 30

    def test_no_pairs_few_matches(self):
        profile = small_profile(pair_frac=0.0, same_addr_load_frac=0.0)
        trace = SyntheticProgram(profile).emit(4000)
        assert self.close_matches(trace) < 10

    def test_pair_noise_reduces_matches(self):
        clean = SyntheticProgram(small_profile(pair_frac=0.2,
                                               pair_noise=0.0)).emit(4000)
        noisy = SyntheticProgram(small_profile(pair_frac=0.2,
                                               pair_noise=0.6)).emit(4000)
        assert self.close_matches(noisy) < self.close_matches(clean)

    def test_group_members_collide_in_ssit(self):
        profile = small_profile(pair_frac=0.15, pair_group_size=4,
                                store_frac=0.15, kernel_size=60)
        program = SyntheticProgram(profile)
        load_pcs = [slot.pc for slot in program.kernels[0].slots
                    if slot.op.is_load and slot.match_modulo > 1]
        indices = collections.Counter(ssit_index(pc) for pc in load_pcs)
        assert any(count >= 2 for count in indices.values())

    def test_rotation_members_alternate(self):
        profile = small_profile(pair_frac=0.1, pair_group_size=3,
                                store_frac=0.15, pair_noise=0.0)
        program = SyntheticProgram(profile)
        member_slots = [s for s in program.kernels[0].slots
                        if s.op.is_load and s.match_modulo == 3]
        assert member_slots, "expected rotation members"
        assert {s.match_member for s in member_slots} == {0, 1, 2}


class TestChaseChains:
    def test_chase_slot_reads_and_writes_chain_register(self):
        profile = small_profile(chase_loads=1, l2_footprint=1 << 20)
        program = SyntheticProgram(profile)
        chase = [s for s in program.kernels[0].slots
                 if s.op.is_load and s.dest in s.srcs]
        assert len(chase) == 1

    def test_chain_register_never_clobbered(self):
        profile = small_profile(chase_loads=1, l2_footprint=1 << 20)
        program = SyntheticProgram(profile)
        chase = next(s for s in program.kernels[0].slots
                     if s.op.is_load and s.dest in s.srcs)
        writers = [s for s in program.kernels[0].slots
                   if s.dest == chase.dest and s is not chase]
        assert not writers

    def test_chase_period_repeats_addresses(self):
        profile = small_profile(chase_loads=1, chase_period=4,
                                l2_footprint=1 << 20, loop_trip=32)
        program = SyntheticProgram(profile)
        trace = program.emit(2000)
        chase_pc = next(s.pc for s in program.kernels[0].slots
                        if s.op.is_load and s.dest in s.srcs)
        addrs = [inst.addr for inst in trace if inst.pc == chase_pc]
        runs = collections.Counter()
        current, length = None, 0
        for addr in addrs:
            if addr == current:
                length += 1
            else:
                if current is not None:
                    runs[length] += 1
                current, length = addr, 1
        assert runs and max(runs) >= 4

    @pytest.mark.parametrize("seed, digest", [
        (0, "aa921b18c86af6aff5f4c57cc395f12ce75c8ad06d8b88f18c947fcaa0542b13"),
        (1, "128cfa6bac2d13b3275707c8616925a102b6fcc09530a3c56f666af9aadbf35f"),
    ])
    def test_mcf_trace_digest_is_pinned(self, tmp_path, seed, digest):
        """mcf is the one SPEC profile with pointer-chase slots, and no
        golden SimStats cell runs it: pin its trace bytes so a change to
        the chase permutation cannot pass unnoticed."""
        path = tmp_path / "mcf.lsqtrace"
        generate_trace("mcf", n_instructions=4000, seed=seed).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestColdSlots:
    def test_cold_count_deterministic(self):
        profile = small_profile(cold_frac=0.2, l2_footprint=1 << 22)
        trace = SyntheticProgram(profile).emit(2000)
        cold = sum(1 for inst in trace
                   if inst.is_load and trace.is_cold_address(inst.addr))
        assert cold > 0

    def test_zero_cold(self):
        profile = small_profile(cold_frac=0.0)
        trace = SyntheticProgram(profile).emit(2000)
        assert all(not trace.is_cold_address(inst.addr)
                   for inst in trace if inst.is_memory)


class TestBranches:
    def test_backedge_taken_until_phase_end(self):
        profile = small_profile(loop_trip=8, branch_frac=0.05)
        program = SyntheticProgram(profile)
        backedge_pc = next(s.pc for s in program.kernels[0].slots
                           if s.is_backedge)
        trace = program.emit(len(program.kernels[0].slots) * 8)
        outcomes = [inst.taken for inst in trace if inst.pc == backedge_pc]
        assert outcomes[:-1] == [True] * (len(outcomes) - 1)
        assert outcomes[-1] is False

    def test_branch_targets_set(self):
        trace = generate_trace("gcc", n_instructions=1000)
        for inst in trace:
            if inst.is_branch:
                assert inst.target > 0


class TestMembarRate:
    def test_default_traces_have_no_membars(self):
        """membar_rate defaults to 0.0 and must leave default-profile
        traces byte-identical (the golden-parity digests depend on it)."""
        assert all(p.membar_rate == 0.0 for p in SPEC2K_PROFILES.values())
        trace = generate_trace("gcc", n_instructions=1500)
        assert not any(inst.op is OpClass.MEMBAR for inst in trace)

    def test_rejects_bad_membar_rate(self):
        with pytest.raises(ValueError):
            small_profile(membar_rate=1.5)

    def test_membars_appear_at_requested_density(self):
        profile = small_profile(membar_rate=0.25)
        trace = SyntheticProgram(profile, seed=1).emit(1200)
        membars = sum(1 for inst in trace if inst.op is OpClass.MEMBAR)
        loads = sum(1 for inst in trace if inst.is_load)
        assert membars > 0
        # Deterministic density: one barrier per 1/rate load slots.
        assert membars == pytest.approx(loads * 0.25, rel=0.35)

    def test_membars_commit(self):
        """The emitted barriers actually travel the pipeline: they
        commit, and they gate load issue along the way."""
        from repro.config import base_machine
        from repro.pipeline.processor import simulate

        profile = small_profile(membar_rate=0.2)
        trace = SyntheticProgram(profile, seed=2).emit(1000)
        result = simulate(trace, base_machine(), validate=True)
        emitted = sum(1 for inst in trace if inst.op is OpClass.MEMBAR)
        assert result.stats.committed_membars == emitted
        assert result.stats.membar_stalls > 0
