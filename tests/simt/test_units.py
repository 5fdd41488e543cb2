"""Unit tests for the coalescer, SFU, scratchpad, and SMConfig."""

import pytest

from repro.memory import TaggedMemory
from repro.simt import SMConfig
from repro.simt.coalescer import atomic_conflicts, coalesce
from repro.simt.config import SCRATCHPAD_BASE
from repro.simt.scratchpad import Scratchpad
from repro.simt.sfu import SharedFunctionUnit


class TestCoalescer:
    def test_consecutive_words_coalesce_to_one_line(self):
        accesses = [(0x1000 + 4 * i, 4) for i in range(8)]
        assert coalesce(accesses, 64) == [(0x1000, 64)]

    def test_uniform_address_is_one_transaction(self):
        accesses = [(0x2000, 4)] * 8
        assert coalesce(accesses, 64) == [(0x2000, 64)]

    def test_scattered_addresses_need_many_lines(self):
        accesses = [(0x1000 + 256 * i, 4) for i in range(8)]
        assert len(coalesce(accesses, 64)) == 8

    def test_straddling_access_touches_both_lines(self):
        txns = coalesce([(0x103E, 4)], 64)
        assert len(txns) == 2

    def test_two_lines_for_strided_halves(self):
        accesses = [(0x1000 + 8 * i, 4) for i in range(16)]
        assert len(coalesce(accesses, 64)) == 2

    def test_atomic_conflicts(self):
        assert atomic_conflicts([0x100, 0x100, 0x100, 0x104]) == 2
        assert atomic_conflicts([0x100, 0x104, 0x108]) == 0
        assert atomic_conflicts([]) == 0


class TestSFU:
    def test_serialisation_and_latency(self):
        sfu = SharedFunctionUnit(latency=10, cheri_latency=2)
        done = sfu.issue(cycle=0, n_active=8)
        assert done == 8 + 10

    def test_back_to_back_requests_queue(self):
        sfu = SharedFunctionUnit(latency=10, cheri_latency=2)
        first = sfu.issue(0, 8)
        second = sfu.issue(0, 8)
        assert second == first + 8

    def test_cheri_ops_use_short_latency(self):
        sfu = SharedFunctionUnit(latency=10, cheri_latency=2)
        assert sfu.issue(0, 4, cheri_op=True) == 4 + 2

    def test_counters(self):
        sfu = SharedFunctionUnit(latency=10, cheri_latency=2)
        sfu.issue(0, 8)
        sfu.issue(0, 3)
        assert sfu.requests == 11
        assert sfu.busy_cycles == 11


class TestScratchpad:
    def make(self):
        return Scratchpad(TaggedMemory(), num_banks=8, size_bytes=65536)

    def test_contains(self):
        spad = self.make()
        assert spad.contains(SCRATCHPAD_BASE)
        assert spad.contains(SCRATCHPAD_BASE + 65535)
        assert not spad.contains(SCRATCHPAD_BASE - 4)
        assert not spad.contains(0x1000)

    def test_conflict_free_distinct_banks(self):
        spad = self.make()
        addrs = [SCRATCHPAD_BASE + 4 * i for i in range(8)]
        assert spad.conflict_cycles(addrs) == 0

    def test_same_bank_serialises(self):
        spad = self.make()
        addrs = [SCRATCHPAD_BASE + 32 * i for i in range(8)]  # bank 0 always
        assert spad.conflict_cycles(addrs) == 7

    def test_broadcast_same_word_is_free(self):
        spad = self.make()
        addrs = [SCRATCHPAD_BASE + 64] * 8
        assert spad.conflict_cycles(addrs) == 0

    def test_empty_access_list(self):
        assert self.make().conflict_cycles([]) == 0


class TestSMConfig:
    def test_presets(self):
        base = SMConfig.baseline()
        assert not base.enable_cheri
        cheri = SMConfig.cheri()
        assert cheri.enable_cheri and not cheri.compress_metadata
        opt = SMConfig.cheri_optimised()
        assert opt.enable_cheri and opt.compress_metadata and opt.nvo
        assert opt.shared_vrf and opt.sfu_cheri_slow_path
        assert opt.static_pc_metadata and opt.metadata_srf_single_port

    def test_derived_quantities(self):
        cfg = SMConfig.baseline(num_warps=8, num_lanes=16)
        assert cfg.num_threads == 128
        assert cfg.arch_vector_regs == 256
        assert cfg.vrf_slots == int(256 * 0.375)

    def test_validation_rejects_optimisations_without_cheri(self):
        with pytest.raises(ValueError):
            SMConfig(nvo=True).validate()

    @pytest.mark.parametrize("flag", ["shared_vrf", "nvo"])
    def test_validation_rejects_metadata_options_without_compression(
            self, flag):
        with pytest.raises(ValueError, match="compress_metadata"):
            SMConfig.cheri().with_(**{flag: True})
        assert getattr(SMConfig.cheri_optimised(), flag)

    def test_validation_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            SMConfig(num_warps=0).validate()
        with pytest.raises(ValueError):
            SMConfig(vrf_fraction=0.0).validate()

    def test_with_override(self):
        cfg = SMConfig.cheri_optimised().with_(nvo=False)
        assert not cfg.nvo
        assert cfg.compress_metadata
